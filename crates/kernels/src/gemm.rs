//! The cache-blocked, register-tiled `i32` GEMM microkernel shared by
//! the im2col convolution path and the dense layer.
//!
//! `out[m×n] += A[m×kk] · B[kk×n]` where `A` rows may be strided (weight
//! sub-matrices live inside a larger `[K, C, Fy, Fx]` tensor) and `B` and
//! `out` are dense row-major. The reduction dimension is blocked so a
//! panel of `B` rows stays cache-resident, and the M dimension is tiled
//! [`MR`] rows at a time so each loaded `B` element feeds [`MR`]
//! multiply-accumulates from registers — the same loop structure
//! PULP-NN's 4×2 int8 kernels and BLIS-style microkernels use, written as
//! flat slice zips so LLVM autovectorizes it without `unsafe`.
//!
//! Bit-exactness: the kernel performs exactly the multiset of
//! `a·b` products the naive triple loop performs and combines them with
//! `wrapping_add`, which is associative and commutative — so blocking,
//! tiling and skipping zero multiplicands cannot change any output bit.

/// Register-tile height: output rows processed together in the
/// microkernel.
pub const MR: usize = 4;

/// Reduction-dimension block: `B` rows held hot per pass (`KC · n · 4`
/// bytes ≈ a few hundred KiB at typical `n`, sized for L2). Blocks
/// advance in ascending reduction order and so does the inner loop, so
/// the block size affects cache residency only, never an output bit.
const KC: usize = 256;

/// Accumulates `out[r·n + j] += Σ_p a[r·a_stride + p] · b[p·n + j]` for
/// `r < m`, `j < n`, `p < kk`, with wrapping `i32` arithmetic.
///
/// `a` holds `m` rows of `kk` elements at stride `a_stride ≥ kk`; `b` is
/// dense `[kk, n]`; `out` is dense `[m, n]` and is accumulated into (not
/// overwritten).
///
/// # Panics
///
/// Panics if a slice is too short for the described geometry.
pub fn gemm_accumulate(
    m: usize,
    n: usize,
    kk: usize,
    a: &[i32],
    a_stride: usize,
    b: &[i32],
    out: &mut [i32],
) {
    if m == 0 || n == 0 || kk == 0 {
        return;
    }
    assert!(a_stride >= kk, "A row stride shorter than the row");
    assert!(
        a.len() >= (m - 1) * a_stride + kk,
        "A slice too short for {m} rows"
    );
    assert!(b.len() >= kk * n, "B slice too short");
    assert!(out.len() >= m * n, "output slice too short");

    if n == 1 {
        // Matvec: B is a contiguous column, so each output element is a
        // plain dot product — the panel machinery below would spend more
        // time on one-element zips than on arithmetic. Same ascending-p
        // accumulation order, so bit-identical.
        let bv = &b[..kk];
        for (r, o) in out[..m].iter_mut().enumerate() {
            let arow = &a[r * a_stride..r * a_stride + kk];
            let acc = arow.iter().zip(bv).fold(0i32, |acc, (&av, &xv)| {
                acc.wrapping_add(av.wrapping_mul(xv))
            });
            *o = o.wrapping_add(acc);
        }
        return;
    }

    for p0 in (0..kk).step_by(KC) {
        let pc = KC.min(kk - p0);
        // MR-row panels of the output; `chunks_mut` leaves a short tail
        // panel that the `1..MR`-row arms below handle.
        for (ri, panel) in out[..m * n].chunks_mut(MR * n).enumerate() {
            let r0 = ri * MR;
            let rows = panel.len() / n;
            if rows == MR {
                let (o0, rest) = panel.split_at_mut(n);
                let (o1, rest) = rest.split_at_mut(n);
                let (o2, o3) = rest.split_at_mut(n);
                for p in p0..p0 + pc {
                    let a0 = a[r0 * a_stride + p];
                    let a1 = a[(r0 + 1) * a_stride + p];
                    let a2 = a[(r0 + 2) * a_stride + p];
                    let a3 = a[(r0 + 3) * a_stride + p];
                    if (a0 | a1 | a2 | a3) == 0 {
                        continue;
                    }
                    let br = &b[p * n..(p + 1) * n];
                    for ((((v0, v1), v2), v3), &bv) in o0
                        .iter_mut()
                        .zip(o1.iter_mut())
                        .zip(o2.iter_mut())
                        .zip(o3.iter_mut())
                        .zip(br)
                    {
                        *v0 = v0.wrapping_add(a0.wrapping_mul(bv));
                        *v1 = v1.wrapping_add(a1.wrapping_mul(bv));
                        *v2 = v2.wrapping_add(a2.wrapping_mul(bv));
                        *v3 = v3.wrapping_add(a3.wrapping_mul(bv));
                    }
                }
            } else {
                for (dr, orow) in panel.chunks_mut(n).enumerate() {
                    let r = r0 + dr;
                    for p in p0..p0 + pc {
                        let av = a[r * a_stride + p];
                        if av == 0 {
                            continue;
                        }
                        let br = &b[p * n..(p + 1) * n];
                        for (o, &bv) in orow.iter_mut().zip(br) {
                            *o = o.wrapping_add(av.wrapping_mul(bv));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive triple loop the blocked kernel must match bit for bit.
    fn gemm_naive(
        m: usize,
        n: usize,
        kk: usize,
        a: &[i32],
        a_stride: usize,
        b: &[i32],
    ) -> Vec<i32> {
        let mut out = vec![0i32; m * n];
        for r in 0..m {
            for p in 0..kk {
                for j in 0..n {
                    out[r * n + j] =
                        out[r * n + j].wrapping_add(a[r * a_stride + p].wrapping_mul(b[p * n + j]));
                }
            }
        }
        out
    }

    fn ramp(len: usize, seed: i32) -> Vec<i32> {
        (0..len as i32).map(|i| (i * 37 + seed) % 23 - 11).collect()
    }

    #[test]
    fn matches_naive_across_shapes() {
        for (m, n, kk) in [
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 9),
            (5, 33, 300), // crosses the KC block boundary, odd row tail
            (8, 1, 4),
            (17, 40, 64),
        ] {
            let a = ramp(m * kk, 3);
            let b = ramp(kk * n, 11);
            let want = gemm_naive(m, n, kk, &a, kk, &b);
            let mut got = vec![0i32; m * n];
            gemm_accumulate(m, n, kk, &a, kk, &b, &mut got);
            assert_eq!(got, want, "m={m} n={n} kk={kk}");
        }
    }

    #[test]
    fn respects_a_stride_and_accumulates() {
        let (m, n, kk, stride) = (3usize, 4usize, 5usize, 9usize);
        let a = ramp(m * stride, 5);
        let b = ramp(kk * n, 7);
        let mut got = ramp(m * n, 1); // nonzero start: accumulate, not overwrite
        let mut want = got.clone();
        let prod = gemm_naive(m, n, kk, &a, stride, &b);
        for (w, p) in want.iter_mut().zip(&prod) {
            *w = w.wrapping_add(*p);
        }
        gemm_accumulate(m, n, kk, &a, stride, &b, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn zero_rows_are_skipped_without_changing_bits() {
        let (m, n, kk) = (6usize, 8usize, 12usize);
        let mut a = ramp(m * kk, 2);
        for v in a.iter_mut().take(3 * kk) {
            *v = 0; // first MR-panel rows partially zero
        }
        let b = ramp(kk * n, 4);
        let want = gemm_naive(m, n, kk, &a, kk, &b);
        let mut got = vec![0i32; m * n];
        gemm_accumulate(m, n, kk, &a, kk, &b, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_dims_are_no_ops() {
        let mut out = vec![7i32; 4];
        gemm_accumulate(0, 2, 2, &[], 2, &[0; 4], &mut out);
        gemm_accumulate(2, 0, 2, &[0; 4], 2, &[], &mut out);
        gemm_accumulate(2, 2, 0, &[], 0, &[], &mut out);
        assert_eq!(out, vec![7; 4]);
    }
}
