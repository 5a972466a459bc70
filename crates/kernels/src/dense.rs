//! Fully-connected (dense) kernels.
//!
//! [`dense_accumulate`] is one `i32` slice-zip dot product per output
//! neuron over the strided weight sub-matrix. A matvec reads each weight
//! once, so narrowing the weights to `i16` for the packed microkernel
//! would cost a copy of the whole operand per call (≈ 4.5× slower on
//! `dense_k256_c640`). [`dense_accumulate_ref`] keeps the original
//! indexed loops as the oracle. Both accumulate in the same
//! ascending-index order with wrapping `i32` adds, so they are
//! bit-identical.

use htvm_ir::{DType, Tensor};
use std::ops::Range;

fn validate_dense(
    x: &Tensor,
    w: &Tensor,
    out: &Tensor,
    k_range: &Range<usize>,
    c_range: &Range<usize>,
) -> usize {
    assert_eq!(x.shape().rank(), 1, "dense input must be [C]");
    assert_eq!(w.shape().rank(), 2, "dense weights must be [K,C]");
    assert_eq!(out.dtype(), DType::I32, "dense accumulator must be i32");
    let c = x.shape().dims()[0];
    let (k, wc) = (w.shape().dims()[0], w.shape().dims()[1]);
    assert_eq!(wc, c, "weight columns must match input length");
    assert_eq!(out.shape().dims(), &[k], "accumulator must be [K]");
    assert!(k_range.end <= k && c_range.end <= c);
    c
}

/// Accumulates `out[k] += Σ_{c ∈ c_range} w[k, c] · x[c]` for
/// `k ∈ k_range`, the tiled-execution building block for dense layers
/// (DORY tiles dense layers over both output neurons and input features,
/// accumulating partial sums when the weight matrix exceeds L1).
///
/// * `x`: input `[C]`,
/// * `w`: weights `[K, C]`,
/// * `out`: accumulator `[K]` with dtype `I32`, updated in place.
///
/// # Panics
///
/// Panics on inconsistent shapes, non-`I32` accumulator, or out-of-range
/// sub-ranges.
pub fn dense_accumulate(
    x: &Tensor,
    w: &Tensor,
    out: &mut Tensor,
    k_range: Range<usize>,
    c_range: Range<usize>,
) {
    let c = validate_dense(x, w, out, &k_range, &c_range);
    if k_range.is_empty() || c_range.is_empty() {
        return;
    }
    let xs = &x.data()[c_range.clone()];
    let wd = w.data();
    for (ko, o) in k_range.clone().zip(&mut out.data_mut()[k_range]) {
        let wrow = &wd[ko * c + c_range.start..][..xs.len()];
        let acc = wrow.iter().zip(xs).fold(0i32, |acc, (&wv, &xv)| {
            acc.wrapping_add(wv.wrapping_mul(xv))
        });
        *o = o.wrapping_add(acc);
    }
}

/// The reference indexed-loop implementation of [`dense_accumulate`]:
/// the oracle the fast body is differentially tested against.
///
/// # Panics
///
/// As [`dense_accumulate`].
pub fn dense_accumulate_ref(
    x: &Tensor,
    w: &Tensor,
    out: &mut Tensor,
    k_range: Range<usize>,
    c_range: Range<usize>,
) {
    let c = validate_dense(x, w, out, &k_range, &c_range);
    let xd = x.data();
    let wd = w.data();
    let od = out.data_mut();
    for ko in k_range {
        let mut acc: i32 = 0;
        for ci in c_range.clone() {
            acc = acc.wrapping_add(wd[ko * c + ci].wrapping_mul(xd[ci]));
        }
        od[ko] = od[ko].wrapping_add(acc);
    }
}

/// Reference dense layer: `y[k] = Σ_c w[k, c] · x[c]` with `i32` output.
///
/// # Panics
///
/// Panics if shapes are inconsistent.
#[must_use]
pub fn dense(x: &Tensor, w: &Tensor) -> Tensor {
    let k = w.shape().dims()[0];
    let c = x.shape().dims()[0];
    let mut out = Tensor::zeros(DType::I32, &[k]);
    dense_accumulate(x, w, &mut out, 0..k, 0..c);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(dims: &[usize], data: Vec<i32>) -> Tensor {
        Tensor::new(DType::I32, dims, data).unwrap()
    }

    #[test]
    fn small_matvec() {
        let x = t(&[3], vec![1, 2, 3]);
        let w = t(&[2, 3], vec![1, 0, 0, 1, 1, 1]);
        let y = dense(&x, &w);
        assert_eq!(y.data(), &[1, 6]);
    }

    #[test]
    fn partial_accumulation_matches_full() {
        let x = t(&[8], (0..8).map(|v| v - 4).collect());
        let w = t(&[5, 8], (0..40).map(|v| v % 9 - 4).collect());
        let full = dense(&x, &w);
        let mut tiled = Tensor::zeros(DType::I32, &[5]);
        for k_range in [0..2usize, 2..5] {
            for c_range in [0..3usize, 3..8] {
                dense_accumulate(&x, &w, &mut tiled, k_range.clone(), c_range.clone());
            }
        }
        assert_eq!(tiled, full);
    }

    #[test]
    fn gemm_path_matches_reference() {
        let x = t(&[64], (0..64).map(|v| v % 17 - 8).collect());
        let w = t(&[12, 64], (0..768).map(|v| v % 13 - 6).collect());
        let mut want = Tensor::zeros(DType::I32, &[12]);
        dense_accumulate_ref(&x, &w, &mut want, 1..11, 3..61);
        let mut got = Tensor::zeros(DType::I32, &[12]);
        dense_accumulate(&x, &w, &mut got, 1..11, 3..61);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "columns must match")]
    fn shape_mismatch_panics() {
        let x = t(&[3], vec![0; 3]);
        let w = t(&[2, 4], vec![0; 8]);
        let _ = dense(&x, &w);
    }
}
