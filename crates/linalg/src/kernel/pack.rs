//! Panel packing for the GEMM layer.
//!
//! The driver never hands a microkernel a strided or transposed operand:
//! both inputs are first repacked into dense panels whose layout is exactly
//! the order the register tile consumes them in. Packing is also where the
//! two transposed variants (`A^T * B`, `A * B^T`) are absorbed — the
//! microkernel itself only ever sees one layout.
//!
//! Layouts (`MR`/`NR` are the scalar type's tile geometry):
//!
//! * **A panels** — `MR`-row slabs. Panel `t` lives at offset `t * MR * k`
//!   and stores `buf[p * MR + i] = A[t*MR + i][p]`: at reduction step `p`
//!   the `MR` left-hand values are adjacent, ready for broadcast loads.
//! * **B panels** — `NR`-column slabs. Panel `u` lives at `u * NR * k` and
//!   stores `buf[p * NR + j] = B[p][u*NR + j]`: at step `p` the `NR`
//!   right-hand values are one contiguous vector load.
//!
//! Ragged edges are zero-padded to full `MR`/`NR`. Padding is harmless to
//! the numerics: a padded row/column only ever contributes to accumulator
//! lanes that are never written back, and a real element's `k`-chain never
//! contains a padded term (the reduction dimension is never padded).
//!
//! Both packers write into a caller-provided slice that holds exactly the
//! panels they fill. The pack buffers are reused across calls and shapes,
//! so a slice may hold stale values from an earlier, larger product: every
//! real lane is overwritten, and the padding lanes of the one ragged panel
//! are zeroed explicitly — no whole-buffer clear. [`pack_a`] packs a row
//! range, which is what lets each row-chunk worker pack its own A panels
//! into its own disjoint slice right before computing them.

use super::Operand;
use crate::scalar::Scalar;

/// Pack logical rows `r0..r0 + rows` of the `? x k` left operand into
/// `MR`-row panels. `dst` holds exactly `rows.div_ceil(mr)` panels; its
/// first panel is logical panel `r0 / mr` (callers pass panel-aligned
/// `r0`, so a panel never straddles two calls).
pub(crate) fn pack_a<T: Scalar>(
    dst: &mut [T],
    a: Operand<'_, T>,
    r0: usize,
    rows: usize,
    k: usize,
    mr: usize,
) {
    debug_assert_eq!(dst.len(), rows.div_ceil(mr) * mr * k);
    for (t, panel) in dst.chunks_exact_mut(mr * k).enumerate() {
        let i0 = r0 + t * mr;
        let mv = mr.min(rows - t * mr);
        if a.trans {
            // Source is k x m row-major (`A[i][p] = data[p*ld + i]`): each
            // reduction step reads a contiguous run of `mv` values.
            for p in 0..k {
                let src = &a.data[p * a.ld + i0..p * a.ld + i0 + mv];
                panel[p * mr..p * mr + mv].copy_from_slice(src);
            }
        } else {
            // Source is m x k row-major: walk each row once, scattering into
            // the `MR`-strided panel (the panel stays cache-resident).
            for ii in 0..mv {
                let src = &a.data[(i0 + ii) * a.ld..(i0 + ii) * a.ld + k];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * mr + ii] = v;
                }
            }
        }
        if mv < mr {
            zero_padding(panel, mr, mv);
        }
    }
}

/// Pack the logical `k x n` right operand into `NR`-column panels. `dst`
/// holds exactly `n.div_ceil(nr)` panels.
pub(crate) fn pack_b<T: Scalar>(dst: &mut [T], b: Operand<'_, T>, n: usize, k: usize, nr: usize) {
    debug_assert_eq!(dst.len(), n.div_ceil(nr) * nr * k);
    for (u, panel) in dst.chunks_exact_mut(nr * k).enumerate() {
        let j0 = u * nr;
        let nv = nr.min(n - j0);
        if b.trans {
            // Source is n x k row-major (`B[p][j] = data[j*ld + p]`): read
            // each source row once, scatter into the `NR`-strided panel.
            for jj in 0..nv {
                let src = &b.data[(j0 + jj) * b.ld..(j0 + jj) * b.ld + k];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * nr + jj] = v;
                }
            }
        } else {
            // Source is k x n row-major: each reduction step is one memcpy.
            for p in 0..k {
                let src = &b.data[p * b.ld + j0..p * b.ld + j0 + nv];
                panel[p * nr..p * nr + nv].copy_from_slice(src);
            }
        }
        if nv < nr {
            zero_padding(panel, nr, nv);
        }
    }
}

/// Zero lanes `valid..width` of every reduction step of one panel.
fn zero_padding<T: Scalar>(panel: &mut [T], width: usize, valid: usize) {
    for step in panel.chunks_exact_mut(width) {
        step[valid..].fill(T::ZERO);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_a_layouts_agree_and_pad_with_zeros() {
        // Logical A is 5x3: A[i][p] = (i*10 + p) as f32.
        let m = 5usize;
        let k = 3usize;
        let mr = 4usize;
        let normal: Vec<f32> = (0..m * k).map(|x| ((x / k) * 10 + x % k) as f32).collect();
        let transposed: Vec<f32> = (0..k * m).map(|x| ((x % m) * 10 + x / m) as f32).collect();
        // Poisoned with different values: packing must overwrite every lane.
        let mut buf_n = vec![7.0f32; 2 * mr * k];
        let mut buf_t = vec![-7.0f32; 2 * mr * k];
        pack_a(&mut buf_n, Operand::normal(&normal, k), 0, m, k, mr);
        pack_a(&mut buf_t, Operand::transposed(&transposed, m), 0, m, k, mr);
        assert_eq!(buf_n, buf_t);
        assert_eq!(buf_n.len(), 2 * mr * k);
        // Panel 0, step p=1 holds rows 0..4 of column 1.
        assert_eq!(&buf_n[mr..2 * mr], &[1.0, 11.0, 21.0, 31.0]);
        // Panel 1 holds row 4 then three zero-padded rows at every step.
        assert_eq!(&buf_n[mr * k..mr * k + mr], &[40.0, 0.0, 0.0, 0.0]);
        assert_eq!(&buf_n[2 * mr * k - mr..], &[42.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn pack_a_row_range_matches_the_whole_operand_pack() {
        // Logical A is 11x4; pack it whole, then as two panel-aligned row
        // ranges into a poisoned buffer: the halves must tile the whole.
        let (m, k, mr) = (11usize, 4usize, 4usize);
        let normal: Vec<f32> = (0..m * k).map(|x| x as f32 + 0.5).collect();
        let mut whole = vec![f32::NAN; m.div_ceil(mr) * mr * k];
        pack_a(&mut whole, Operand::normal(&normal, k), 0, m, k, mr);
        let mut split = vec![f32::NAN; whole.len()];
        let (head, tail) = split.split_at_mut(mr * k);
        pack_a(head, Operand::normal(&normal, k), 0, mr, k, mr);
        pack_a(tail, Operand::normal(&normal, k), mr, m - mr, k, mr);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&split), bits(&whole));
    }

    #[test]
    fn pack_b_layouts_agree_and_pad_with_zeros() {
        // Logical B is 3x6: B[p][j] = (p*100 + j) as f32.
        let k = 3usize;
        let n = 6usize;
        let nr = 4usize;
        let normal: Vec<f32> = (0..k * n).map(|x| ((x / n) * 100 + x % n) as f32).collect();
        let transposed: Vec<f32> = (0..n * k).map(|x| ((x % k) * 100 + x / k) as f32).collect();
        let mut buf_n = vec![0.0f32; 2 * nr * k];
        let mut buf_t = vec![9.0f32; 2 * nr * k];
        pack_b(&mut buf_n, Operand::normal(&normal, n), n, k, nr);
        pack_b(&mut buf_t, Operand::transposed(&transposed, k), n, k, nr);
        assert_eq!(buf_n, buf_t);
        assert_eq!(buf_n.len(), 2 * nr * k);
        // Panel 0, step p=2: columns 0..4 of row 2.
        assert_eq!(&buf_n[2 * nr..3 * nr], &[200.0, 201.0, 202.0, 203.0]);
        // Panel 1, step p=0: columns 4,5 then zero padding.
        assert_eq!(&buf_n[nr * k..nr * k + nr], &[4.0, 5.0, 0.0, 0.0]);
    }
}
