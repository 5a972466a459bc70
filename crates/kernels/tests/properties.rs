//! Property-based tests for the reference kernels: algebraic identities
//! and differential checks against alternative formulations.

use htvm_ir::{DType, Padding2d, PoolKind, Tensor};
use htvm_kernels as k;
use proptest::prelude::*;

fn small_tensor(dims: Vec<usize>, lo: i32, hi: i32) -> impl Strategy<Value = Tensor> {
    let n: usize = dims.iter().product();
    prop::collection::vec(lo..=hi, n)
        .prop_map(move |data| Tensor::new(DType::I32, &dims, data).expect("in range"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Convolution is linear in the weights:
    /// conv(x, w1 + w2) == conv(x, w1) + conv(x, w2).
    #[test]
    fn conv_linear_in_weights(
        x in small_tensor(vec![2, 6, 6], -8, 8),
        w1 in small_tensor(vec![3, 2, 3, 3], -4, 4),
        w2 in small_tensor(vec![3, 2, 3, 3], -4, 4),
    ) {
        let wsum = Tensor::new(
            DType::I32,
            &[3, 2, 3, 3],
            w1.data().iter().zip(w2.data()).map(|(a, b)| a + b).collect(),
        ).unwrap();
        let lhs = k::conv2d(&x, &wsum, (1, 1), Padding2d::same(1));
        let a = k::conv2d(&x, &w1, (1, 1), Padding2d::same(1));
        let b = k::conv2d(&x, &w2, (1, 1), Padding2d::same(1));
        let rhs = k::add(&a, &b);
        prop_assert_eq!(lhs, rhs);
    }

    /// Padding equivalence: conv with zero-padding equals conv over an
    /// explicitly zero-padded input with no padding (a differential test
    /// of the border handling).
    #[test]
    fn conv_padding_matches_explicit_zero_pad(
        x in small_tensor(vec![2, 5, 4], -8, 8),
        w in small_tensor(vec![2, 2, 3, 3], -4, 4),
        p in 1usize..=2,
    ) {
        let implicit = k::conv2d(&x, &w, (1, 1), Padding2d::same(p));
        // Build the padded input by hand.
        let (c, h, iw) = (2usize, 5usize, 4usize);
        let (ph, pw) = (h + 2 * p, iw + 2 * p);
        let mut padded = Tensor::zeros(DType::I32, &[c, ph, pw]);
        for ci in 0..c {
            for y in 0..h {
                for xx in 0..iw {
                    padded.set(&[ci, y + p, xx + p], x.get(&[ci, y, xx]));
                }
            }
        }
        let explicit = k::conv2d(&padded, &w, (1, 1), Padding2d::same(0));
        prop_assert_eq!(implicit, explicit);
    }

    /// Depthwise convolution equals a full convolution with channel-
    /// diagonal weights.
    #[test]
    fn depthwise_equals_diagonal_conv(
        x in small_tensor(vec![3, 5, 5], -8, 8),
        w in small_tensor(vec![3, 3, 3], -4, 4),
    ) {
        let dw = k::depthwise_conv2d(&x, &w, (1, 1), Padding2d::same(1));
        // Expand [C,Fy,Fx] into block-diagonal [C,C,Fy,Fx].
        let mut diag = Tensor::zeros(DType::I32, &[3, 3, 3, 3]);
        for c in 0..3 {
            for fy in 0..3 {
                for fx in 0..3 {
                    diag.set(&[c, c, fy, fx], w.get(&[c, fy, fx]));
                }
            }
        }
        let full = k::conv2d(&x, &diag, (1, 1), Padding2d::same(1));
        prop_assert_eq!(dw, full);
    }

    /// Dense equals a 1x1 convolution over a [C,1,1] activation.
    #[test]
    fn dense_equals_1x1_conv(
        x in small_tensor(vec![6], -16, 16),
        w in small_tensor(vec![4, 6], -8, 8),
    ) {
        let d = k::dense(&x, &w);
        let x3 = Tensor::new(DType::I32, &[6, 1, 1], x.data().to_vec()).unwrap();
        let w4 = Tensor::new(DType::I32, &[4, 6, 1, 1], w.data().to_vec()).unwrap();
        let c = k::conv2d(&x3, &w4, (1, 1), Padding2d::same(0));
        prop_assert_eq!(d.data(), c.data());
    }

    /// Strided convolution subsamples the stride-1 result.
    #[test]
    fn strided_conv_subsamples(
        x in small_tensor(vec![2, 7, 7], -8, 8),
        w in small_tensor(vec![2, 2, 3, 3], -4, 4),
    ) {
        let full = k::conv2d(&x, &w, (1, 1), Padding2d::same(0));
        let strided = k::conv2d(&x, &w, (2, 2), Padding2d::same(0));
        for ko in 0..2usize {
            for y in 0..strided.shape().dims()[1] {
                for xx in 0..strided.shape().dims()[2] {
                    prop_assert_eq!(
                        strided.get(&[ko, y, xx]),
                        full.get(&[ko, 2 * y, 2 * xx])
                    );
                }
            }
        }
    }

    /// Max pool dominates avg pool, which stays within the window bounds.
    #[test]
    fn pooling_order_and_bounds(x in small_tensor(vec![2, 6, 6], -50, 50)) {
        let max = k::pool2d(&x, PoolKind::Max, (2, 2), (2, 2), Padding2d::same(0));
        let avg = k::pool2d(&x, PoolKind::Avg, (2, 2), (2, 2), Padding2d::same(0));
        let lo = x.data().iter().copied().min().unwrap();
        let hi = x.data().iter().copied().max().unwrap();
        for (m, a) in max.data().iter().zip(avg.data()) {
            prop_assert!(m >= a);
            prop_assert!(*a >= lo && *a <= hi);
            prop_assert!(*m >= lo && *m <= hi);
        }
    }

    /// Softmax outputs are non-negative, bounded by the dtype max, and sum
    /// to it up to rounding.
    #[test]
    fn softmax_is_a_distribution(data in prop::collection::vec(-60i32..=60, 2..16)) {
        let n = data.len();
        let x = Tensor::new(DType::I8, &[n], data).unwrap();
        let y = k::softmax(&x);
        let sum: i32 = y.data().iter().sum();
        prop_assert!(y.data().iter().all(|&v| (0..=127).contains(&v)));
        // Each element is rounded independently: off by at most n/2.
        prop_assert!((sum - 127).unsigned_abs() as usize <= n);
    }

    /// Requantization chain: shift-then-clip narrows into i8 exactly like
    /// the widened arithmetic predicts.
    #[test]
    fn requant_chain_matches_scalar_math(
        data in prop::collection::vec(-100_000i32..=100_000, 1..32),
        shift in 0u32..=12,
    ) {
        let n = data.len();
        let x = Tensor::new(DType::I32, &[n], data.clone()).unwrap();
        let y = k::cast(&k::clip(&k::right_shift(&x, shift), -128, 127), DType::I8);
        for (v, out) in data.iter().zip(y.data()) {
            prop_assert_eq!((v >> shift).clamp(-128, 127), *out);
        }
    }

    /// Element-wise add is commutative and bias_add over rank-1 equals add.
    #[test]
    fn add_commutes(
        a in small_tensor(vec![8], -1000, 1000),
        b in small_tensor(vec![8], -1000, 1000),
    ) {
        prop_assert_eq!(k::add(&a, &b), k::add(&b, &a));
        let via_bias = k::bias_add(&a, &b);
        let via_add = k::add(&a, &b);
        prop_assert_eq!(via_bias.data(), via_add.data());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential test: the im2col+GEMM convolution agrees bit-for-bit
    /// with the direct nested-loop implementation on arbitrary geometries.
    #[test]
    fn im2col_conv_matches_direct(
        x in small_tensor(vec![3, 7, 6], -10, 10),
        w in small_tensor(vec![4, 3, 3, 3], -5, 5),
        stride in 1usize..=2,
        pad in 0usize..=2,
    ) {
        let gemm = k::conv2d(&x, &w, (stride, stride), Padding2d::same(pad));
        let (oy, ox) = (gemm.shape().dims()[1], gemm.shape().dims()[2]);
        let mut direct = Tensor::zeros(DType::I32, &[4, oy, ox]);
        k::conv2d_accumulate_ref(
            &x, &w, &mut direct, (stride, stride), Padding2d::same(pad),
            0..4, 0..oy, 0..ox, 0..3,
        );
        prop_assert_eq!(direct, gemm);
    }
}

/// Deterministic value stream for the fast-vs-`_ref` tests (the shapes
/// are the random search space; the data just needs to be varied).
fn fill(seed: u64, n: usize) -> Vec<i32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as i32).rem_euclid(17) - 8
        })
        .collect()
}

/// Splits `0..n` at `at % (n + 1)` into two (possibly empty) halves.
fn halves(n: usize, at: usize) -> [std::ops::Range<usize>; 2] {
    let mid = at % (n + 1);
    [0..mid, mid..n]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Bit-exactness of the fast conv body: whole calls through an
    /// explicit scratch arena and tiled partial sums must both reproduce
    /// the reference scalar loops exactly, across random shapes, strides,
    /// asymmetric paddings and dtypes.
    #[test]
    fn conv_tiers_threads_and_tilings_are_bit_exact(
        (c, h, iw) in (1usize..=4, 3usize..=8, 3usize..=8),
        (kc, fy, fx) in (1usize..=6, 1usize..=3, 1usize..=3),
        (sy, sx) in (1usize..=2, 1usize..=2),
        (pt, pb, pl, pr) in (0usize..=2, 0usize..=2, 0usize..=2, 0usize..=2),
        seed in any::<u64>(),
        as_i8 in any::<bool>(),
        splits in (0usize..=64, 0usize..=64, 0usize..=64, 0usize..=64),
    ) {
        let padding = Padding2d { top: pt, bottom: pb, left: pl, right: pr };
        let oy = (h + pt + pb - fy) / sy + 1;
        let ox = (iw + pl + pr - fx) / sx + 1;
        let dtype = if as_i8 { DType::I8 } else { DType::I32 };
        let x = Tensor::new(dtype, &[c, h, iw], fill(seed, c * h * iw)).unwrap();
        let w = Tensor::new(dtype, &[kc, c, fy, fx], fill(seed ^ 0xABCD, kc * c * fy * fx)).unwrap();

        let mut want = Tensor::zeros(DType::I32, &[kc, oy, ox]);
        k::conv2d_accumulate_ref(
            &x, &w, &mut want, (sy, sx), padding, 0..kc, 0..oy, 0..ox, 0..c,
        );

        let mut scratch = k::KernelScratch::new();
        let mut got = Tensor::zeros(DType::I32, &[kc, oy, ox]);
        k::conv2d_accumulate_with(
            &mut scratch,
            &x, &w, &mut got, (sy, sx), padding, 0..kc, 0..oy, 0..ox, 0..c,
        );
        prop_assert_eq!(&got, &want);

        // A 2x2x2x2 tiling of the output and channel ranges: partial
        // sums over disjoint sub-blocks must reassemble the full result
        // exactly.
        let mut tiled = Tensor::zeros(DType::I32, &[kc, oy, ox]);
        for kr in halves(kc, splits.0) {
            for oyr in halves(oy, splits.1) {
                for oxr in halves(ox, splits.2) {
                    for cr in halves(c, splits.3) {
                        k::conv2d_accumulate(
                            &x, &w, &mut tiled, (sy, sx), padding,
                            kr.clone(), oyr.clone(), oxr.clone(), cr.clone(),
                        );
                    }
                }
            }
        }
        prop_assert_eq!(&tiled, &want);
    }

    /// Bit-exactness of the fast depthwise body (full and tiled) against
    /// the reference region kernel.
    #[test]
    fn depthwise_tiers_and_tilings_are_bit_exact(
        (c, h, iw) in (1usize..=5, 3usize..=8, 3usize..=8),
        (fy, fx) in (1usize..=3, 1usize..=3),
        (sy, sx) in (1usize..=2, 1usize..=2),
        (pt, pb, pl, pr) in (0usize..=2, 0usize..=2, 0usize..=2, 0usize..=2),
        seed in any::<u64>(),
        splits in (0usize..=64, 0usize..=64, 0usize..=64),
    ) {
        let padding = Padding2d { top: pt, bottom: pb, left: pl, right: pr };
        let oy = (h + pt + pb - fy) / sy + 1;
        let ox = (iw + pl + pr - fx) / sx + 1;
        let x = Tensor::new(DType::I8, &[c, h, iw], fill(seed, c * h * iw)).unwrap();
        let w = Tensor::new(DType::I8, &[c, fy, fx], fill(seed ^ 0x1234, c * fy * fx)).unwrap();

        let mut want = Tensor::zeros(DType::I32, &[c, oy, ox]);
        k::depthwise_conv2d_region_ref(
            &x, &w, &mut want, (sy, sx), padding, 0..c, 0..oy, 0..ox,
        );

        let mut got = Tensor::zeros(DType::I32, &[c, oy, ox]);
        k::depthwise_conv2d_region(&x, &w, &mut got, (sy, sx), padding, 0..c, 0..oy, 0..ox);
        prop_assert_eq!(&got, &want);

        // Depthwise writes (not accumulates), so disjoint tiles assemble
        // the same tensor.
        let mut tiled = Tensor::zeros(DType::I32, &[c, oy, ox]);
        for cr in halves(c, splits.0) {
            for oyr in halves(oy, splits.1) {
                for oxr in halves(ox, splits.2) {
                    k::depthwise_conv2d_region(
                        &x, &w, &mut tiled, (sy, sx), padding,
                        cr.clone(), oyr.clone(), oxr.clone(),
                    );
                }
            }
        }
        prop_assert_eq!(&tiled, &want);
    }

    /// Bit-exactness of the fast dense body (the one-column GEMM) against
    /// the reference indexed loops, full and tiled.
    #[test]
    fn dense_tiers_and_tilings_are_bit_exact(
        (kc, c) in (1usize..=24, 1usize..=48),
        seed in any::<u64>(),
        splits in (0usize..=64, 0usize..=64),
    ) {
        let x = Tensor::new(DType::I32, &[c], fill(seed, c)).unwrap();
        let w = Tensor::new(DType::I32, &[kc, c], fill(seed ^ 0x77, kc * c)).unwrap();
        let mut want = Tensor::zeros(DType::I32, &[kc]);
        k::dense_accumulate_ref(&x, &w, &mut want, 0..kc, 0..c);

        let mut got = Tensor::zeros(DType::I32, &[kc]);
        k::dense_accumulate(&x, &w, &mut got, 0..kc, 0..c);
        prop_assert_eq!(&got, &want);

        let mut tiled = Tensor::zeros(DType::I32, &[kc]);
        for kr in halves(kc, splits.0) {
            for cr in halves(c, splits.1) {
                k::dense_accumulate(&x, &w, &mut tiled, kr.clone(), cr.clone());
            }
        }
        prop_assert_eq!(&tiled, &want);
    }
}
