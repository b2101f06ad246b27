//! Packed-GEMM execution layer: panel packing, register-blocked
//! microkernels, and runtime ISA dispatch.
//!
//! Every matrix-product entry point on [`crate::Matrix`] (`matmul_into`,
//! `matmul_transpose_b_into`, `transpose_a_matmul_into`,
//! `matmul_bias_act_into` and the allocating wrappers) routes through the
//! one driver in this module. The driver packs both operands into dense
//! panels (the `pack` submodule), runs an `MR x NR` register-tile microkernel over
//! them, and applies the epilogue (plain store, or fused bias+activation)
//! during tile write-back.
//!
//! B (in the hot paths, the layer weights) is packed once on the calling
//! thread. A is packed by the row-chunk workers themselves: each worker
//! packs only its own MR-aligned row range into its own disjoint slice of
//! the scratch buffer and runs the microkernel over those panels straight
//! away, while they are still in cache. Packing is therefore parallel and
//! overlapped with the kernel, not a serial phase ahead of it.
//!
//! ## Determinism contract
//!
//! Every output element accumulates its `k` product terms in strictly
//! ascending reduction order into a single accumulator, with an *unfused*
//! multiply-then-add at each step. That per-element chain is the entire
//! contract: it does not mention tiles, panels, chunk sizes, or thread
//! counts, so results are bitwise-identical across
//!
//! * microkernels (portable / AVX-512 / AVX2 / NEON — the SIMD kernels
//!   evaluate the same chains lane-parallel and avoid FMA precisely so they
//!   round identically),
//! * the packed path and the small-shape fallback paths,
//! * `FV_GEMM_KERNEL` settings, and
//! * thread widths (parallelism only ever splits output *rows*; a row's
//!   chain is never split, so there is no reduction combining step at
//!   all — even with `FV_DETERMINISTIC=0`).
//!
//! There is deliberately no k-blocking: a tile traverses the whole `k`
//! extent with register accumulators, which is what keeps the chain-order
//! argument trivial (no partial-sum recombination order to reason about).
//!
//! ## Dispatch
//!
//! `FV_GEMM_KERNEL` selects the microkernel: `auto` (default) picks the
//! first native kernel whose CPU check passes, falling back to `portable`;
//! `portable` forces the scalar reference; a kernel name (`avx512`, `avx2`,
//! `neon`) forces that kernel when available and silently degrades to
//! `auto` order otherwise. Because all kernels are bitwise-identical this only ever
//! changes speed, never values — which is also why the in-process
//! [`force_kernel`] test hook is sound.

pub(crate) mod pack;
mod portable;
#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "x86_64")]
mod x86;

use crate::scalar::Scalar;
use fv_runtime::{telemetry, SendPtr};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

static TM_PACK: telemetry::Site = telemetry::Site::new("linalg.gemm.pack", None);
static TM_KERNEL: telemetry::Site = telemetry::Site::new("linalg.gemm.kernel", None);
static TM_PACK_BYTES: telemetry::Counter = telemetry::Counter::new("linalg.gemm.pack_bytes");

/// A microkernel: computes one full `MR x NR` tile, `acc = Apanel * Bpanel`,
/// overwriting `acc`. `a` points at a packed A panel (`k * MR` values,
/// layout `p*MR + i`), `b` at a packed B panel (`k * NR`, layout
/// `p*NR + j`), `acc` at an `MR * NR` row-major tile.
pub type MicroFn<T> = unsafe fn(k: usize, a: *const T, b: *const T, acc: *mut T);

/// One native (SIMD) microkernel with its runtime availability check.
/// [`Scalar::gemm_native_kernels`] exposes the per-type table; `auto`
/// dispatch takes the first entry whose `detect` passes.
pub struct NativeKernel<T: 'static> {
    /// Name matched against `FV_GEMM_KERNEL` (e.g. `avx512`, `avx2`, `neon`).
    pub name: &'static str,
    /// Runtime CPU-capability check.
    pub detect: fn() -> bool,
    /// The kernel entry point.
    pub micro: MicroFn<T>,
}

/// Upper bound on `MR * NR` across all scalar types, sizing the one
/// stack-allocated tile buffer the driver reuses for every panel pair.
pub(crate) const MAX_TILE: usize = 96;

#[cfg(target_arch = "x86_64")]
pub(crate) static F32_NATIVE: [NativeKernel<f32>; 2] = [
    NativeKernel {
        name: "avx512",
        detect: x86::have_avx512,
        micro: x86::avx512_f32,
    },
    NativeKernel {
        name: "avx2",
        detect: x86::have_avx2,
        micro: x86::avx2_f32,
    },
];
#[cfg(target_arch = "x86_64")]
pub(crate) static F64_NATIVE: [NativeKernel<f64>; 2] = [
    NativeKernel {
        name: "avx512",
        detect: x86::have_avx512,
        micro: x86::avx512_f64,
    },
    NativeKernel {
        name: "avx2",
        detect: x86::have_avx2,
        micro: x86::avx2_f64,
    },
];

#[cfg(target_arch = "aarch64")]
pub(crate) static F32_NATIVE: [NativeKernel<f32>; 1] = [NativeKernel {
    name: "neon",
    detect: neon::have_neon,
    micro: neon::micro_f32,
}];
#[cfg(target_arch = "aarch64")]
pub(crate) static F64_NATIVE: [NativeKernel<f64>; 1] = [NativeKernel {
    name: "neon",
    detect: neon::have_neon,
    micro: neon::micro_f64,
}];

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) static F32_NATIVE: [NativeKernel<f32>; 0] = [];
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub(crate) static F64_NATIVE: [NativeKernel<f64>; 0] = [];

/// `FV_GEMM_KERNEL`, read once, lower-cased.
fn env_choice() -> &'static str {
    static RAW: OnceLock<String> = OnceLock::new();
    RAW.get_or_init(|| {
        std::env::var("FV_GEMM_KERNEL")
            .unwrap_or_default()
            .trim()
            .to_ascii_lowercase()
    })
}

/// Every name `FV_GEMM_KERNEL` and [`force_kernel`] accept on this
/// target: `portable`, `auto`, then each native kernel's name (the f32 and
/// f64 tables list the same names in the same order).
fn kernel_choices() -> impl Iterator<Item = &'static str> {
    ["portable", "auto"]
        .into_iter()
        .chain(F32_NATIVE.iter().map(|nk| nk.name))
}

/// In-process kernel override for tests and benchmarks (environment
/// variables are awkward to vary within one process). `choice` takes the
/// `FV_GEMM_KERNEL` names with the same meaning — `"portable"`, `"auto"`,
/// or a native kernel's name, which degrades to `auto` order on a CPU
/// without it. `None` restores `FV_GEMM_KERNEL`/auto behavior.
///
/// Sound to flip at any time from any thread *because* all kernels are
/// bitwise-identical: concurrent GEMMs may pick different kernels but
/// never different values.
///
/// # Panics
///
/// On a name this target has no kernel for (a typo in a test would
/// otherwise silently measure `auto`).
pub fn force_kernel(choice: Option<&'static str>) {
    let code = match choice {
        None => 0,
        Some(name) => {
            let index = kernel_choices().position(|c| c == name).unwrap_or_else(|| {
                panic!(
                    "force_kernel: unknown kernel {name:?}; expected one of {:?}",
                    kernel_choices().collect::<Vec<_>>()
                )
            });
            index + 1
        }
    };
    FORCE.store(code as u8, Ordering::SeqCst);
}

/// `0` = no override, else `1 +` the index into [`kernel_choices`].
static FORCE: AtomicU8 = AtomicU8::new(0);

/// Resolve the active `(name, microkernel)` pair for `T`: the forced
/// choice if any, else `FV_GEMM_KERNEL`.
fn select<T: Scalar>() -> (&'static str, MicroFn<T>) {
    let choice = match FORCE.load(Ordering::SeqCst) {
        0 => env_choice(),
        code => kernel_choices().nth(code as usize - 1).unwrap_or("auto"),
    };
    let portable: (&'static str, MicroFn<T>) = ("portable", portable::micro::<T>);
    if choice == "portable" {
        return portable;
    }
    let natives = T::gemm_native_kernels();
    natives
        .iter()
        .find(|nk| nk.name == choice && (nk.detect)())
        .or_else(|| natives.iter().find(|nk| (nk.detect)()))
        .map_or(portable, |nk| (nk.name, nk.micro))
}

/// Name of the kernel the dispatcher would run for `T` right now
/// (`"portable"`, `"avx512"`, `"avx2"`, `"neon"`). Benchmarks report this
/// as the chosen ISA.
pub fn active_kernel_name<T: Scalar>() -> &'static str {
    select::<T>().0
}

/// Names of every kernel usable for `T` on this host: each native kernel
/// whose CPU check passes, then `"portable"`.
pub fn detected_kernels<T: Scalar>() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = T::gemm_native_kernels()
        .iter()
        .filter(|nk| (nk.detect)())
        .map(|nk| nk.name)
        .collect();
    names.push("portable");
    names
}

/// Reusable pack-buffer workspace. Hot-path callers (the fv-nn
/// workspaces) hold one per training/inference loop so steady-state GEMMs
/// allocate nothing: `pack_a`/`pack_b` only ever grow, the first time a
/// larger shape is seen, and are otherwise packed in place — a smaller
/// product uses a prefix and leaves the rest untouched.
#[derive(Debug, Clone, Default)]
pub struct GemmScratch<T: Scalar> {
    pack_a: Vec<T>,
    pack_b: Vec<T>,
    calls: u64,
    grows: u64,
}

impl<T: Scalar> GemmScratch<T> {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packed GEMM calls driven through this scratch.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Calls that had to grow a pack buffer's capacity.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Calls served entirely from already-sized buffers — the pack-buffer
    /// reuse count benchmarks report.
    pub fn reuses(&self) -> u64 {
        self.calls - self.grows
    }
}

/// A borrowed GEMM operand: logical matrix view over a row-major slice.
///
/// * `trans == false`: logical `(r, c)` element is `data[r * ld + c]`.
/// * `trans == true`: the logical matrix is the transpose of the stored
///   one — logical `(r, c)` is `data[c * ld + r]`.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a, T> {
    pub(crate) data: &'a [T],
    pub(crate) ld: usize,
    pub(crate) trans: bool,
}

impl<'a, T> Operand<'a, T> {
    /// View `data` as stored: row-major with row stride `ld`.
    pub(crate) fn normal(data: &'a [T], ld: usize) -> Self {
        Self { data, ld, trans: false }
    }

    /// View `data` as the transpose of the stored row-major matrix.
    pub(crate) fn transposed(data: &'a [T], ld: usize) -> Self {
        Self { data, ld, trans: true }
    }
}

/// Fused bias+activation epilogue arguments.
struct BiasActArgs<'a, T, F> {
    bias: &'a [T],
    act: &'a F,
}

impl<T, F> Clone for BiasActArgs<'_, T, F> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, F> Copy for BiasActArgs<'_, T, F> {}

/// Shapes below this go straight to the unpacked fallback paths: packing
/// two operands costs more than it saves when the tile grid is ragged or
/// the reduction is short. Pure function of the shape, so path choice is
/// deterministic.
fn use_packed(m: usize, n: usize, k: usize) -> bool {
    m >= 4 && n >= 8 && k >= 8 && m * n * k >= 4096
}

/// Plain product: `C (m x n) = A (m x k) * B (k x n)`, epilogue-free.
/// `parallel` fans the fixed row-chunk geometry out to the pool.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut [T],
    scratch: &mut GemmScratch<T>,
    parallel: bool,
) {
    run::<T, fn(T) -> T>(m, n, k, a, b, c, None, None, scratch, parallel);
}

/// Product with fused epilogue: `Z = A * B + bias` (bias broadcast across
/// rows), then activation. With `act_out = Some(aux)`, `c` receives the
/// pre-activation `Z` and `aux` receives `act(Z)` (training needs both);
/// with `None`, `c` receives `act(Z)` directly (inference).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_bias_act<T: Scalar, F: Fn(T) -> T + Sync>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    bias: &[T],
    act: &F,
    c: &mut [T],
    act_out: Option<&mut [T]>,
    scratch: &mut GemmScratch<T>,
    parallel: bool,
) {
    debug_assert_eq!(bias.len(), n);
    run(m, n, k, a, b, c, act_out, Some(BiasActArgs { bias, act }), scratch, parallel);
}

#[allow(clippy::too_many_arguments)]
fn run<T: Scalar, F: Fn(T) -> T + Sync>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut [T],
    aux: Option<&mut [T]>,
    fuse: Option<BiasActArgs<'_, T, F>>,
    scratch: &mut GemmScratch<T>,
    parallel: bool,
) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert!(!(a.trans && b.trans), "A^T * B^T is never emitted");
    if let Some(aux) = &aux {
        debug_assert_eq!(aux.len(), m * n);
    }
    if m == 0 || n == 0 {
        return;
    }
    if use_packed(m, n, k) {
        run_packed(m, n, k, a, b, c, aux, fuse, scratch, parallel);
    } else {
        run_fallback(m, n, k, a, b, c, aux, fuse, parallel);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_packed<T: Scalar, F: Fn(T) -> T + Sync>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut [T],
    aux: Option<&mut [T]>,
    fuse: Option<BiasActArgs<'_, T, F>>,
    scratch: &mut GemmScratch<T>,
    parallel: bool,
) {
    let mr = T::GEMM_MR;
    let nr = T::GEMM_NR;
    debug_assert!(mr * nr <= MAX_TILE);
    let (_name, micro) = select::<T>();

    scratch.calls += 1;
    let need_a = m.div_ceil(mr) * mr * k;
    let need_b = n.div_ceil(nr) * nr * k;
    if need_a > scratch.pack_a.capacity() || need_b > scratch.pack_b.capacity() {
        scratch.grows += 1;
    }
    grow_to(&mut scratch.pack_a, need_a);
    grow_to(&mut scratch.pack_b, need_b);
    {
        let _pack_span = TM_PACK.span();
        pack::pack_b(&mut scratch.pack_b[..need_b], b, n, k, nr);
        TM_PACK_BYTES.add(pack_bytes::<T>(need_b));
    }

    let _kernel_span = TM_KERNEL.span();
    let pb: &[T] = &scratch.pack_b[..need_b];
    let pa = SendPtr(scratch.pack_a.as_mut_ptr());
    let rows_chunk = fv_runtime::granularity::panel_rows(m, mr);
    let block = |bi: usize, cb: &mut [T], ab: Option<&mut [T]>| {
        let r0 = bi * rows_chunk;
        let rows = cb.len() / n;
        let len = rows.div_ceil(mr) * mr * k;
        assert!(r0 * k + len <= need_a, "row chunk outside the packed A buffer");
        // SAFETY: `rows_chunk` is a multiple of MR, so chunk `bi` owns
        // exactly the A panels of rows `r0..r0 + rows` — offsets
        // `r0 * k .. r0 * k + len`, disjoint from every other chunk's and
        // within the `need_a` elements `grow_to` sized. Nothing else
        // touches `pack_a` until `drive` returns.
        let pa_chunk = unsafe { std::slice::from_raw_parts_mut(pa.get().add(r0 * k), len) };
        {
            let _pack_span = TM_PACK.span();
            pack::pack_a(pa_chunk, a, r0, rows, k, mr);
            TM_PACK_BYTES.add(pack_bytes::<T>(len));
        }
        compute_block(cb, ab, pa_chunk, pb, n, k, mr, nr, micro, fuse);
    };
    drive(c, aux, n, rows_chunk, parallel, &block);
}

/// Grow `buf` to at least `len` elements; never shrinks or rewrites it.
fn grow_to<T: Scalar>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::ZERO);
    }
}

fn pack_bytes<T>(elems: usize) -> u64 {
    (elems * std::mem::size_of::<T>()) as u64
}

/// A row-chunk worker: `(chunk_index, c_chunk, aux_chunk)`.
type BlockFn<'a, T> = &'a (dyn Fn(usize, &mut [T], Option<&mut [T]>) + Sync);

/// Run `block(chunk_index, c_chunk, aux_chunk)` over row chunks of
/// `rows_chunk` rows, inline or on the pool. The chunk geometry is
/// identical either way; only *where* chunks execute changes.
fn drive<T: Scalar>(
    c: &mut [T],
    aux: Option<&mut [T]>,
    n: usize,
    rows_chunk: usize,
    parallel: bool,
    block: BlockFn<'_, T>,
) {
    let chunk = rows_chunk * n;
    match (parallel, aux) {
        (true, Some(aux)) => c
            .par_chunks_mut(chunk)
            .zip(aux.par_chunks_mut(chunk))
            .enumerate()
            .for_each(|(bi, (cb, ab))| block(bi, cb, Some(ab))),
        (true, None) => c
            .par_chunks_mut(chunk)
            .enumerate()
            .for_each(|(bi, cb)| block(bi, cb, None)),
        (false, Some(aux)) => c
            .chunks_mut(chunk)
            .zip(aux.chunks_mut(chunk))
            .enumerate()
            .for_each(|(bi, (cb, ab))| block(bi, cb, Some(ab))),
        (false, None) => c
            .chunks_mut(chunk)
            .enumerate()
            .for_each(|(bi, cb)| block(bi, cb, None)),
    }
}

/// Compute one row-chunk of C from packed panels: loop over the chunk's
/// A panels (`pa`, the chunk's own) x all B panels, microkernel per tile,
/// epilogue at write-back.
#[allow(clippy::too_many_arguments)]
fn compute_block<T: Scalar, F: Fn(T) -> T>(
    cb: &mut [T],
    mut ab: Option<&mut [T]>,
    pa: &[T],
    pb: &[T],
    n: usize,
    k: usize,
    mr: usize,
    nr: usize,
    micro: MicroFn<T>,
    fuse: Option<BiasActArgs<'_, T, F>>,
) {
    let rows_in = cb.len() / n;
    let col_panels = n.div_ceil(nr);
    let mut acc = [T::ZERO; MAX_TILE];
    for lp in 0..rows_in.div_ceil(mr) {
        let i0 = lp * mr;
        let mv = mr.min(rows_in - i0);
        let pa_off = lp * mr * k;
        for u in 0..col_panels {
            let j0 = u * nr;
            let nv = nr.min(n - j0);
            // SAFETY: panel offsets are in bounds by construction (pack_a/
            // pack_b sized the buffers for exactly these panel counts) and
            // `acc` holds MAX_TILE >= mr*nr elements.
            unsafe {
                micro(
                    k,
                    pa.as_ptr().add(pa_off),
                    pb.as_ptr().add(u * nr * k),
                    acc.as_mut_ptr(),
                )
            };
            for ii in 0..mv {
                let row0 = (i0 + ii) * n + j0;
                let tile = &acc[ii * nr..ii * nr + nv];
                match fuse {
                    None => cb[row0..row0 + nv].copy_from_slice(tile),
                    Some(f) => {
                        let bias = &f.bias[j0..j0 + nv];
                        match ab.as_deref_mut() {
                            Some(aux) => {
                                for x in 0..nv {
                                    let z = tile[x] + bias[x];
                                    cb[row0 + x] = z;
                                    aux[row0 + x] = (f.act)(z);
                                }
                            }
                            None => {
                                for x in 0..nv {
                                    cb[row0 + x] = (f.act)(tile[x] + bias[x]);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_fallback<T: Scalar, F: Fn(T) -> T + Sync>(
    m: usize,
    n: usize,
    k: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut [T],
    aux: Option<&mut [T]>,
    fuse: Option<BiasActArgs<'_, T, F>>,
    parallel: bool,
) {
    let _kernel_span = TM_KERNEL.span();
    let rows_chunk = fv_runtime::granularity::panel_rows(m, T::GEMM_MR);
    let block = |bi: usize, cb: &mut [T], ab: Option<&mut [T]>| {
        fallback_product(cb, bi * rows_chunk, a, b, n, k);
        if let Some(f) = fuse {
            epilogue_rows(cb, ab, n, f);
        }
    };
    drive(c, aux, n, rows_chunk, parallel, &block);
}

/// Unpacked product for small shapes. Each variant walks the reduction in
/// ascending order with one accumulator chain per element — the same
/// canonical order the microkernels compute, so both paths are bitwise
/// interchangeable.
fn fallback_product<T: Scalar>(
    cb: &mut [T],
    r0: usize,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    n: usize,
    k: usize,
) {
    let rows_in = cb.len() / n;
    if a.trans {
        // C = A^T_stored * B: rank-1 updates, p ascending.
        cb.fill(T::ZERO);
        for p in 0..k {
            let arow = &a.data[p * a.ld + r0..p * a.ld + r0 + rows_in];
            let brow = &b.data[p * b.ld..p * b.ld + n];
            for (i, &av) in arow.iter().enumerate() {
                crate::vector::axpy(av, brow, &mut cb[i * n..(i + 1) * n]);
            }
        }
    } else if b.trans {
        // C = A * B^T_stored: per-element dot chains, four independent
        // output columns in flight to hide FP latency (each element still
        // owns exactly one chain).
        for i in 0..rows_in {
            let arow = &a.data[(r0 + i) * a.ld..(r0 + i) * a.ld + k];
            let crow = &mut cb[i * n..(i + 1) * n];
            let mut j = 0;
            while j + 4 <= n {
                let b0 = &b.data[j * b.ld..j * b.ld + k];
                let b1 = &b.data[(j + 1) * b.ld..(j + 1) * b.ld + k];
                let b2 = &b.data[(j + 2) * b.ld..(j + 2) * b.ld + k];
                let b3 = &b.data[(j + 3) * b.ld..(j + 3) * b.ld + k];
                let (mut s0, mut s1, mut s2, mut s3) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
                for (p, &av) in arow.iter().enumerate() {
                    s0 += av * b0[p];
                    s1 += av * b1[p];
                    s2 += av * b2[p];
                    s3 += av * b3[p];
                }
                crow[j] = s0;
                crow[j + 1] = s1;
                crow[j + 2] = s2;
                crow[j + 3] = s3;
                j += 4;
            }
            for (jj, cv) in crow.iter_mut().enumerate().skip(j) {
                let brow = &b.data[jj * b.ld..jj * b.ld + k];
                let mut s = T::ZERO;
                for (p, &av) in arow.iter().enumerate() {
                    s += av * brow[p];
                }
                *cv = s;
            }
        }
    } else {
        // C = A * B: row-times-matrix as axpy sweeps, p ascending.
        cb.fill(T::ZERO);
        for i in 0..rows_in {
            let arow = &a.data[(r0 + i) * a.ld..(r0 + i) * a.ld + k];
            let crow = &mut cb[i * n..(i + 1) * n];
            for (p, &av) in arow.iter().enumerate() {
                crate::vector::axpy(av, &b.data[p * b.ld..p * b.ld + n], crow);
            }
        }
    }
}

/// Bias+activation pass for the fallback path (the packed path fuses this
/// into tile write-back; values are identical: full product, then `+bias`,
/// then `act`).
fn epilogue_rows<T: Scalar, F: Fn(T) -> T>(
    cb: &mut [T],
    ab: Option<&mut [T]>,
    n: usize,
    f: BiasActArgs<'_, T, F>,
) {
    match ab {
        Some(aux) => {
            for (crow, arow) in cb.chunks_mut(n).zip(aux.chunks_mut(n)) {
                for ((cv, av), &bv) in crow.iter_mut().zip(arow.iter_mut()).zip(f.bias) {
                    let z = *cv + bv;
                    *cv = z;
                    *av = (f.act)(z);
                }
            }
        }
        None => {
            for crow in cb.chunks_mut(n) {
                for (cv, &bv) in crow.iter_mut().zip(f.bias) {
                    *cv = (f.act)(*cv + bv);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `force_kernel` is process-global: serialize the tests that flip it
    /// so a failure message names the kernel that actually ran.
    static FORCE_LOCK: Mutex<()> = Mutex::new(());

    fn force_lock() -> std::sync::MutexGuard<'static, ()> {
        FORCE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Naive reference: single chain per element, ascending p — the
    /// canonical order. `a` is logical `m x k` row-major, `b` `k x n`.
    fn reference<T: Scalar>(m: usize, n: usize, k: usize, av: &[T], bv: &[T]) -> Vec<T> {
        let mut c = vec![T::ZERO; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = T::ZERO;
                for p in 0..k {
                    s += av[i * k + p] * bv[p * n + j];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn fill<T: Scalar>(len: usize, seed: u32) -> Vec<T> {
        // Deterministic, fully exercising mantissa bits.
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                T::from_f64(((state >> 8) as f64 / (1 << 24) as f64) * 2.0 - 1.0)
            })
            .collect()
    }

    /// Store logical `rows x cols` data transposed (`cols x rows`).
    fn transpose_store<T: Scalar>(rows: usize, cols: usize, v: &[T]) -> Vec<T> {
        let mut t = vec![T::ZERO; v.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = v[r * cols + c];
            }
        }
        t
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// `C = A * B` through the packed driver on a pool of `width`
    /// workers, with A given as stored (`trans` = stored `k x m`).
    #[allow(clippy::too_many_arguments)]
    fn packed<T: Scalar>(
        m: usize,
        n: usize,
        k: usize,
        a: &[T],
        trans_a: bool,
        b: &[T],
        scratch: &mut GemmScratch<T>,
        width: usize,
    ) -> Vec<T> {
        assert!(use_packed(m, n, k));
        let a = if trans_a {
            Operand::transposed(a, m)
        } else {
            Operand::normal(a, k)
        };
        let mut c = vec![T::from_f64(f64::NAN); m * n];
        fv_runtime::Pool::new(width)
            .install(|| gemm(m, n, k, a, Operand::normal(b, n), &mut c, scratch, true));
        c
    }

    fn every_kernel_matches_reference<T: Scalar>() {
        let _g = force_lock();
        let (m, n, k) = (13, 21, 17);
        let av = fill::<T>(m * k, 1);
        let bv = fill::<T>(k * n, 2);
        let want = bits(&reference(m, n, k, &av, &bv));
        for name in detected_kernels::<T>() {
            force_kernel(Some(name));
            assert_eq!(active_kernel_name::<T>(), name);
            for width in [1, 4] {
                let mut scratch = GemmScratch::default();
                let got = packed(m, n, k, &av, false, &bv, &mut scratch, width);
                assert_eq!(bits(&got), want, "kernel {name} width {width} diverged");
            }
        }
        force_kernel(None);
    }

    #[test]
    fn packed_matches_reference_bitwise_for_every_kernel() {
        every_kernel_matches_reference::<f32>();
        every_kernel_matches_reference::<f64>();
    }

    /// A ragged product (`m % MR != 0`) packed into a scratch that a larger
    /// shape already filled with NaN: stale values must neither reach the
    /// output nor survive in the ragged panel's padding lanes — for the
    /// normal operand and for the transposed one (the training `dW`
    /// product).
    fn ragged_m_after_larger_shape<T: Scalar>() {
        let _g = force_lock();
        let (m, n, k) = (13, 21, 17);
        let mr = T::GEMM_MR;
        assert_ne!(m % mr, 0);
        let av = fill::<T>(m * k, 7);
        let at = transpose_store(m, k, &av);
        let bv = fill::<T>(k * n, 8);
        let want = bits(&reference(m, n, k, &av, &bv));
        let (big_m, big_n, big_k) = (50, 40, 30);
        let poison = vec![T::from_f64(f64::NAN); big_m * big_k];
        let big_b = fill::<T>(big_k * big_n, 9);
        for name in detected_kernels::<T>() {
            force_kernel(Some(name));
            for trans_a in [false, true] {
                for width in [1, 4] {
                    let mut scratch = GemmScratch::default();
                    packed(
                        big_m,
                        big_n,
                        big_k,
                        &poison,
                        false,
                        &big_b,
                        &mut scratch,
                        width,
                    );
                    let a = if trans_a { &at } else { &av };
                    let got = packed(m, n, k, a, trans_a, &bv, &mut scratch, width);
                    assert_eq!(
                        bits(&got),
                        want,
                        "kernel {name} trans_a {trans_a} width {width}: stale scratch leaked"
                    );
                    let last = (m.div_ceil(mr) - 1) * mr * k;
                    for step in scratch.pack_a[last..last + mr * k].chunks_exact(mr) {
                        assert!(step[m % mr..].iter().all(|&v| v == T::ZERO));
                    }
                    assert_eq!(scratch.grows(), 1, "the smaller shape reuses the buffers");
                }
            }
        }
        force_kernel(None);
    }

    #[test]
    fn ragged_m_in_a_reused_scratch_matches_reference_bitwise() {
        ragged_m_after_larger_shape::<f32>();
        ragged_m_after_larger_shape::<f64>();
    }

    #[test]
    fn fallback_paths_match_packed_bitwise() {
        // A shape the packed gate accepts...
        let (m, n, k) = (16, 32, 16);
        let av = fill::<f32>(m * k, 3);
        let bv = fill::<f32>(k * n, 4);
        let mut scratch = GemmScratch::default();
        let packed = packed(m, n, k, &av, false, &bv, &mut scratch, 1);
        // ...computed again by the fallback path directly.
        let mut fb = vec![0.0f32; m * n];
        run_fallback::<f32, fn(f32) -> f32>(
            m,
            n,
            k,
            Operand::normal(&av, k),
            Operand::normal(&bv, n),
            &mut fb,
            None,
            None,
            false,
        );
        assert_eq!(packed, fb);
    }

    #[test]
    fn scratch_reuse_counts_grows_once_per_shape() {
        let (m, n, k) = (16, 32, 16);
        let av = fill::<f32>(m * k, 5);
        let bv = fill::<f32>(k * n, 6);
        let mut scratch = GemmScratch::default();
        for _ in 0..5 {
            packed(m, n, k, &av, false, &bv, &mut scratch, 1);
        }
        assert_eq!(scratch.calls(), 5);
        assert_eq!(scratch.grows(), 1);
        assert_eq!(scratch.reuses(), 4);
    }

    #[test]
    fn dispatch_reports_a_kernel_and_detected_list_ends_portable() {
        let name = active_kernel_name::<f32>();
        assert!(!name.is_empty());
        let detected = detected_kernels::<f32>();
        assert_eq!(*detected.last().unwrap(), "portable");
        assert!(detected.contains(&name));
        // Both scalar types list the same kernels, in the same order.
        assert_eq!(detected, detected_kernels::<f64>());
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn forcing_an_unknown_kernel_name_panics() {
        force_kernel(Some("avx3"));
    }
}
