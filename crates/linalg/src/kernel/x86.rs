//! AVX-512 and AVX2 microkernels (x86_64).
//!
//! Geometry: `f32` 6x16, `f64` 6x8 — the same tile and pack layouts for
//! both ISAs. AVX-512 holds one tile row per 512-bit register (six `__m512`
//! / `__m512d` accumulators); AVX2 splits each row across two 256-bit
//! registers (twelve accumulators). All four kernels deliberately use
//! `_mm*_mul_*` followed by `_mm*_add_*` rather than FMA: the determinism
//! contract requires the exact two-rounding mul-then-add chain the portable
//! kernel computes, and a fused multiply-add rounds once. The cost is at
//! most 2x peak FLOPs on FMA hardware — still far ahead of the SSE2
//! baseline the portable kernel autovectorizes to, and bitwise identity
//! across `FV_GEMM_KERNEL` settings is what the parity suite and CI gate
//! assert.
//!
//! The `#[target_feature]` inner functions are wrapped in plain
//! `unsafe fn`s so they coerce to [`super::MicroFn`] pointers on any
//! compile target; `have_avx512`/`have_avx2` gate dispatch at runtime.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;

/// Runtime CPUID check used by the dispatch table.
pub(crate) fn have_avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Runtime CPUID check used by the dispatch table.
pub(crate) fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[target_feature(enable = "avx512f")]
unsafe fn micro_f32_avx512(k: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    let mut c = [_mm512_setzero_ps(); 6];
    for p in 0..k {
        let bv = _mm512_loadu_ps(b.add(p * 16));
        let ap = a.add(p * 6);
        for (ii, ci) in c.iter_mut().enumerate() {
            let av = _mm512_set1_ps(*ap.add(ii));
            *ci = _mm512_add_ps(*ci, _mm512_mul_ps(av, bv));
        }
    }
    for (ii, ci) in c.iter().enumerate() {
        _mm512_storeu_ps(acc.add(ii * 16), *ci);
    }
}

#[target_feature(enable = "avx512f")]
unsafe fn micro_f64_avx512(k: usize, a: *const f64, b: *const f64, acc: *mut f64) {
    let mut c = [_mm512_setzero_pd(); 6];
    for p in 0..k {
        let bv = _mm512_loadu_pd(b.add(p * 8));
        let ap = a.add(p * 6);
        for (ii, ci) in c.iter_mut().enumerate() {
            let av = _mm512_set1_pd(*ap.add(ii));
            *ci = _mm512_add_pd(*ci, _mm512_mul_pd(av, bv));
        }
    }
    for (ii, ci) in c.iter().enumerate() {
        _mm512_storeu_pd(acc.add(ii * 8), *ci);
    }
}

#[target_feature(enable = "avx2")]
unsafe fn micro_f32_avx2(k: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    let mut c = [_mm256_setzero_ps(); 12];
    for p in 0..k {
        let bp = b.add(p * 16);
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        let ap = a.add(p * 6);
        for ii in 0..6 {
            let av = _mm256_set1_ps(*ap.add(ii));
            c[2 * ii] = _mm256_add_ps(c[2 * ii], _mm256_mul_ps(av, b0));
            c[2 * ii + 1] = _mm256_add_ps(c[2 * ii + 1], _mm256_mul_ps(av, b1));
        }
    }
    for ii in 0..6 {
        _mm256_storeu_ps(acc.add(ii * 16), c[2 * ii]);
        _mm256_storeu_ps(acc.add(ii * 16 + 8), c[2 * ii + 1]);
    }
}

#[target_feature(enable = "avx2")]
unsafe fn micro_f64_avx2(k: usize, a: *const f64, b: *const f64, acc: *mut f64) {
    let mut c = [_mm256_setzero_pd(); 12];
    for p in 0..k {
        let bp = b.add(p * 8);
        let b0 = _mm256_loadu_pd(bp);
        let b1 = _mm256_loadu_pd(bp.add(4));
        let ap = a.add(p * 6);
        for ii in 0..6 {
            let av = _mm256_set1_pd(*ap.add(ii));
            c[2 * ii] = _mm256_add_pd(c[2 * ii], _mm256_mul_pd(av, b0));
            c[2 * ii + 1] = _mm256_add_pd(c[2 * ii + 1], _mm256_mul_pd(av, b1));
        }
    }
    for ii in 0..6 {
        _mm256_storeu_pd(acc.add(ii * 8), c[2 * ii]);
        _mm256_storeu_pd(acc.add(ii * 8 + 4), c[2 * ii + 1]);
    }
}

/// 6x16 `f32` tile on AVX-512. See [`super::portable::micro`] for the
/// panel contract.
///
/// # Safety
///
/// Same panel/tile validity requirements as the portable kernel, plus the
/// CPU must support AVX-512F (callers go through the dispatch table, which
/// checks [`have_avx512`]).
pub(crate) unsafe fn avx512_f32(k: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    micro_f32_avx512(k, a, b, acc)
}

/// 6x8 `f64` tile on AVX-512. See [`super::portable::micro`] for the
/// panel contract.
///
/// # Safety
///
/// Same requirements as [`avx512_f32`].
pub(crate) unsafe fn avx512_f64(k: usize, a: *const f64, b: *const f64, acc: *mut f64) {
    micro_f64_avx512(k, a, b, acc)
}

/// 6x16 `f32` tile on AVX2. See [`super::portable::micro`] for the panel
/// contract.
///
/// # Safety
///
/// Same panel/tile validity requirements as the portable kernel, plus the
/// CPU must support AVX2 (callers go through the dispatch table, which
/// checks [`have_avx2`]).
pub(crate) unsafe fn avx2_f32(k: usize, a: *const f32, b: *const f32, acc: *mut f32) {
    micro_f32_avx2(k, a, b, acc)
}

/// 6x8 `f64` tile on AVX2. See [`super::portable::micro`] for the panel
/// contract.
///
/// # Safety
///
/// Same requirements as [`avx2_f32`].
pub(crate) unsafe fn avx2_f64(k: usize, a: *const f64, b: *const f64, acc: *mut f64) {
    micro_f64_avx2(k, a, b, acc)
}
