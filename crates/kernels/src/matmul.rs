//! Batched integer matrix-multiply kernels (attention workloads).
//!
//! `MatMul` is the only anchor whose *both* operands are runtime
//! activations: `a: [H, M, D]` against `b: [H, D, N]` (or `[H, N, D]` when
//! `transpose_b`, the QK^T form) producing `[H, M, N]` in `i32`.
//!
//! The fast path is one loop for both layouts: per head, narrow the `a`
//! block to `[m][d]` and the `b` block to `[n][d]` in `i16` (an
//! untransposed `b` is transposed here, once, O(n·d)), then every output
//! row is the packed dot microkernel conv also runs, one `a` row against
//! the `b` rows (0.28 → 0.15 ns/MAC on the zoo's QK^T, packing included;
//! `KERNELS_BENCH.json` has the rows).
//!
//! Narrowing is checked: a head holding a value outside `i16` (an `I32`
//! operand, or one written past its dtype through `Tensor::data_mut`)
//! runs [`matmul_accumulate_region_ref`], the indexed loops kept as the
//! oracle. `i16 × i16` is exact in `i32`, so both paths `wrapping_add` the
//! same multiset of products and are bit-identical.

use crate::packed::{dot_rows, pack};
use crate::scratch::with_packed;
use htvm_ir::{DType, Tensor};
use std::ops::Range;

struct Dims {
    m: usize,
    n: usize,
    d: usize,
}

#[allow(clippy::too_many_arguments)]
fn validate(
    a: &Tensor,
    b: &Tensor,
    transpose_b: bool,
    out: &Tensor,
    h_range: &Range<usize>,
    m_range: &Range<usize>,
    n_range: &Range<usize>,
    d_range: &Range<usize>,
) -> Dims {
    assert_eq!(a.shape().rank(), 3, "matmul lhs must be [H,M,D]");
    assert_eq!(b.shape().rank(), 3, "matmul rhs must be rank-3");
    assert_eq!(out.dtype(), DType::I32, "matmul accumulator must be i32");
    let (h, m, d) = (
        a.shape().dims()[0],
        a.shape().dims()[1],
        a.shape().dims()[2],
    );
    assert_eq!(b.shape().dims()[0], h, "rhs batch dim must match lhs");
    let (bred, n) = if transpose_b {
        (b.shape().dims()[2], b.shape().dims()[1])
    } else {
        (b.shape().dims()[1], b.shape().dims()[2])
    };
    assert_eq!(bred, d, "rhs reduction dim must match lhs");
    assert_eq!(
        out.shape().dims(),
        &[h, m, n],
        "accumulator must be [H,M,N]"
    );
    assert!(h_range.end <= h && m_range.end <= m && n_range.end <= n && d_range.end <= d);
    Dims { m, n, d }
}

/// Accumulates
/// `out[h, m, n] += Σ_{d ∈ d_range} a[h, m, d] · b[h, d, n]`
/// (`b[h, n, d]` when `transpose_b`) over the given sub-ranges — the
/// tiled-execution building block for attention matmuls. DORY tiles these
/// layers over sequence rows, output columns and (when the reduction
/// exceeds L1) the inner dimension, accumulating partial sums exactly
/// like conv/dense tiles.
///
/// * `a`: activations `[H, M, D]`,
/// * `b`: activations `[H, D, N]` (or `[H, N, D]` with `transpose_b`),
/// * `out`: accumulator `[H, M, N]` with dtype `I32`, updated in place.
///
/// # Panics
///
/// Panics on inconsistent shapes, non-`I32` accumulator, or out-of-range
/// sub-ranges.
#[allow(clippy::too_many_arguments)]
pub fn matmul_accumulate_region(
    a: &Tensor,
    b: &Tensor,
    transpose_b: bool,
    out: &mut Tensor,
    h_range: Range<usize>,
    m_range: Range<usize>,
    n_range: Range<usize>,
    d_range: Range<usize>,
) {
    let dims = validate(
        a,
        b,
        transpose_b,
        out,
        &h_range,
        &m_range,
        &n_range,
        &d_range,
    );
    if h_range.is_empty() || m_range.is_empty() || n_range.is_empty() || d_range.is_empty() {
        return;
    }
    let (m, n, d) = (dims.m, dims.n, dims.d);
    let b_strides = if transpose_b { (d, 1) } else { (1, n) };
    with_packed(|pa, pb| {
        for hh in h_range {
            let (a_head, b_head) = (&a.data()[hh * m * d..], &b.data()[hh * n * d..]);
            if !(pack(pa, a_head, (d, 1), &m_range, &d_range)
                && pack(pb, b_head, b_strides, &n_range, &d_range))
            {
                let (mr, nr, dr) = (m_range.clone(), n_range.clone(), d_range.clone());
                matmul_accumulate_region_ref(a, b, transpose_b, out, hh..hh + 1, mr, nr, dr);
                continue;
            }
            let od = out.data_mut();
            for (mm, x) in m_range.clone().zip(pa.chunks_exact(d_range.len())) {
                let o = (hh * m + mm) * n;
                dot_rows(x, pb, &mut od[o + n_range.start..o + n_range.end]);
            }
        }
    });
}

/// The reference indexed-loop implementation of
/// [`matmul_accumulate_region`]: the oracle the fast paths are
/// differentially tested against.
///
/// # Panics
///
/// As [`matmul_accumulate_region`].
#[allow(clippy::too_many_arguments)]
pub fn matmul_accumulate_region_ref(
    a: &Tensor,
    b: &Tensor,
    transpose_b: bool,
    out: &mut Tensor,
    h_range: Range<usize>,
    m_range: Range<usize>,
    n_range: Range<usize>,
    d_range: Range<usize>,
) {
    let dims = validate(
        a,
        b,
        transpose_b,
        out,
        &h_range,
        &m_range,
        &n_range,
        &d_range,
    );
    let (m, n, d) = (dims.m, dims.n, dims.d);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for hh in h_range {
        for mm in m_range.clone() {
            for nn in n_range.clone() {
                let mut acc: i32 = 0;
                for dd in d_range.clone() {
                    let bv = if transpose_b {
                        bd[(hh * n + nn) * d + dd]
                    } else {
                        bd[(hh * d + dd) * n + nn]
                    };
                    acc = acc.wrapping_add(ad[(hh * m + mm) * d + dd].wrapping_mul(bv));
                }
                let o = (hh * m + mm) * n + nn;
                od[o] = od[o].wrapping_add(acc);
            }
        }
    }
}

/// Reference batched matmul: `y[h, m, n] = Σ_d a[h, m, d] · b[h, d, n]`
/// (`b[h, n, d]` with `transpose_b`) with `i32` output.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
#[must_use]
pub fn matmul(a: &Tensor, b: &Tensor, transpose_b: bool) -> Tensor {
    let (h, m, d) = (
        a.shape().dims()[0],
        a.shape().dims()[1],
        a.shape().dims()[2],
    );
    let n = if transpose_b {
        b.shape().dims()[1]
    } else {
        b.shape().dims()[2]
    };
    let mut out = Tensor::zeros(DType::I32, &[h, m, n]);
    matmul_accumulate_region(a, b, transpose_b, &mut out, 0..h, 0..m, 0..n, 0..d);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(dims: &[usize], seed: i32) -> Tensor {
        let len: usize = dims.iter().product();
        let data = (0..len as i32)
            .map(|v| (v.wrapping_mul(31).wrapping_add(seed)) % 127 - 63)
            .collect();
        Tensor::new(DType::I8, dims, data).unwrap()
    }

    #[test]
    fn identity_rhs_reproduces_lhs() {
        let a = fill(&[1, 3, 3], 7);
        let mut eye = Tensor::zeros(DType::I8, &[1, 3, 3]);
        for i in 0..3 {
            eye.data_mut()[i * 3 + i] = 1;
        }
        let y = matmul(&a, &eye, false);
        assert_eq!(y.data(), a.data());
        // The identity is symmetric, so the transposed form agrees too.
        let yt = matmul(&a, &eye, true);
        assert_eq!(yt.data(), a.data());
    }

    #[test]
    fn transpose_b_matches_manual_transpose() {
        let a = fill(&[2, 4, 5], 3);
        let b = fill(&[2, 5, 6], 11);
        // bt[h, n, d] = b[h, d, n]
        let mut bt = Tensor::zeros(DType::I8, &[2, 6, 5]);
        for h in 0..2 {
            for dd in 0..5 {
                for nn in 0..6 {
                    bt.data_mut()[(h * 6 + nn) * 5 + dd] = b.data()[(h * 5 + dd) * 6 + nn];
                }
            }
        }
        assert_eq!(matmul(&a, &b, false), matmul(&a, &bt, true));
    }

    #[test]
    fn fast_paths_match_reference() {
        for &transpose_b in &[false, true] {
            let a = fill(&[3, 9, 17], 5);
            let b = if transpose_b {
                fill(&[3, 13, 17], 23)
            } else {
                fill(&[3, 17, 13], 23)
            };
            let mut want = Tensor::zeros(DType::I32, &[3, 9, 13]);
            matmul_accumulate_region_ref(&a, &b, transpose_b, &mut want, 0..3, 1..8, 2..13, 3..15);
            let mut got = Tensor::zeros(DType::I32, &[3, 9, 13]);
            matmul_accumulate_region(&a, &b, transpose_b, &mut got, 0..3, 1..8, 2..13, 3..15);
            assert_eq!(got, want, "transpose_b={transpose_b}");
        }
    }

    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 16) % bound as u64) as usize
        }

        /// A sub-range of `0..len`, possibly empty.
        fn sub(&mut self, len: usize) -> Range<usize> {
            let start = self.below(len + 1);
            start..start + self.below(len - start + 1)
        }

        /// Values over the dtype's whole range: for `I16`/`I32` the
        /// products overflow an `i32` sum, so wrapping is exercised.
        fn tensor(&mut self, dtype: DType, dims: &[usize]) -> Tensor {
            let (lo, hi) = dtype.range();
            let span = (i64::from(hi) - i64::from(lo) + 1) as usize;
            let data = (0..dims.iter().product())
                .map(|_| (i64::from(lo) + self.below(span) as i64) as i32)
                .collect();
            Tensor::new(dtype, dims, data).unwrap()
        }
    }

    #[test]
    fn packed_path_matches_reference_over_random_regions() {
        let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
        // I8/I16/Ternary operands pack; full-range I32 operands take the
        // reference loops inside the same entry point.
        let dtypes = [DType::I8, DType::I16, DType::Ternary, DType::I32];
        for case in 0..320 {
            let transpose_b = case % 2 == 1;
            let (h, m, n, d) = (
                1 + rng.below(3),
                1 + rng.below(11),
                1 + rng.below(11),
                1 + rng.below(19),
            );
            let a = rng.tensor(dtypes[case / 2 % 4], &[h, m, d]);
            let b_dims = if transpose_b { [h, n, d] } else { [h, d, n] };
            let mut b = rng.tensor(dtypes[case / 8 % 4], &b_dims);
            if case % 5 == 0 && b.dtype() == DType::I8 {
                // An i8-typed operand forced out of i16 range: that head
                // leaves the packed path, the bits must not change.
                let at = rng.below(b.data().len());
                b.data_mut()[at] = [40_000, -40_000, i32::MAX, i32::MIN][rng.below(4)];
            }
            let (hr, mr, nr, dr) = (rng.sub(h), rng.sub(m), rng.sub(n), rng.sub(d));
            // A non-zero accumulator: the region is added to, everything
            // outside it left alone.
            let mut want = rng.tensor(DType::I32, &[h, m, n]);
            let mut got = want.clone();
            matmul_accumulate_region_ref(
                &a,
                &b,
                transpose_b,
                &mut want,
                hr.clone(),
                mr.clone(),
                nr.clone(),
                dr.clone(),
            );
            matmul_accumulate_region(&a, &b, transpose_b, &mut got, hr, mr, nr, dr);
            assert_eq!(got, want, "case {case}, transpose_b={transpose_b}");
        }
    }

    #[test]
    fn partial_accumulation_matches_full() {
        for &transpose_b in &[false, true] {
            let a = fill(&[2, 8, 12], 1);
            let b = if transpose_b {
                fill(&[2, 10, 12], 2)
            } else {
                fill(&[2, 12, 10], 2)
            };
            let full = matmul(&a, &b, transpose_b);
            let mut tiled = Tensor::zeros(DType::I32, &[2, 8, 10]);
            for h_range in [0..1usize, 1..2] {
                for m_range in [0..3usize, 3..8] {
                    for n_range in [0..7usize, 7..10] {
                        for d_range in [0..5usize, 5..12] {
                            matmul_accumulate_region(
                                &a,
                                &b,
                                transpose_b,
                                &mut tiled,
                                h_range.clone(),
                                m_range.clone(),
                                n_range.clone(),
                                d_range.clone(),
                            );
                        }
                    }
                }
            }
            assert_eq!(tiled, full, "transpose_b={transpose_b}");
        }
    }

    #[test]
    #[should_panic(expected = "reduction dim must match")]
    fn shape_mismatch_panics() {
        let a = fill(&[1, 2, 3], 0);
        let b = fill(&[1, 4, 2], 0);
        let _ = matmul(&a, &b, false);
    }
}
