//! Patch-major im2col lowering.
//!
//! The classic CPU-library convolution formulation (CMSIS-NN and TVM's
//! default conv schedules do exactly this): lower the input into an
//! explicit patch matrix, then run a matrix multiply.
//! [`conv2d_accumulate`](crate::conv2d_accumulate) narrows the patches
//! into the thread's `i16` arena via [`fill_patches`], one row per output
//! position, so each patch is a contiguous row for the packed dot
//! microkernel.

use crate::conv::ConvShape;
use std::ops::Range;

/// Fills `buf` with the `[oy_len·ox_len, Fy·Fx·c_len]` patch matrix for
/// the given (non-empty) output sub-block: row `oy_rel·ox_len + ox_rel`,
/// column `(ky·Fx + kx)·c_len + ci_rel` holds the input value that filter
/// tap `(ky, kx)` of channel `ci` sees at output position `(oy, ox)`, with
/// zero padding materialized explicitly. Returns `false` as soon as an
/// input value does not fit `i16`.
///
/// The input window the sub-block reads is narrowed once into `img`,
/// channel-last and zero-padded. Tap row `ky` of a patch is then one
/// contiguous `Fx·c_len` run of `img`, so a patch row is `Fy` copies.
pub(crate) fn fill_patches(
    s: &ConvShape,
    xd: &[i32],
    oy_range: &Range<usize>,
    ox_range: &Range<usize>,
    c_range: &Range<usize>,
    img: &mut Vec<i16>,
    buf: &mut Vec<i16>,
) -> bool {
    let (oy_len, ox_len, c_len) = (oy_range.len(), ox_range.len(), c_range.len());
    // The window: `rows × cols` padded positions from `(y0, x0)`.
    let (y0, x0) = (oy_range.start * s.sy, ox_range.start * s.sx);
    let rows = (oy_len - 1) * s.sy + s.fy;
    let cols = (ox_len - 1) * s.sx + s.fx;
    img.clear();
    img.resize(rows * cols * c_len, 0);
    // Window columns `q_lo..q_hi` read input columns `x0 + q - pl`.
    let q_lo = (s.pl - x0 as isize).clamp(0, cols as isize);
    let q_hi = (s.iw as isize + s.pl - x0 as isize).clamp(q_lo, cols as isize);
    let ix_lo = (x0 as isize + q_lo - s.pl) as usize;
    let (q_lo, q_hi) = (q_lo as usize, q_hi as usize);
    for r in 0..rows {
        let iy = (y0 + r) as isize - s.pt;
        if iy < 0 || iy as usize >= s.h || q_lo == q_hi {
            continue;
        }
        let dst = &mut img[(r * cols + q_lo) * c_len..(r * cols + q_hi) * c_len];
        for (ci_rel, ci) in c_range.clone().enumerate() {
            let src = &xd[(ci * s.h + iy as usize) * s.iw + ix_lo..];
            for (d, &v) in dst.chunks_exact_mut(c_len).zip(src) {
                let Ok(v) = i16::try_from(v) else {
                    return false;
                };
                d[ci_rel] = v;
            }
        }
    }
    let run = s.fx * c_len;
    buf.clear();
    buf.reserve(oy_len * ox_len * s.fy * run);
    for oy_rel in 0..oy_len {
        for ox_rel in 0..ox_len {
            for ky in 0..s.fy {
                let at = ((oy_rel * s.sy + ky) * cols + ox_rel * s.sx) * c_len;
                buf.extend_from_slice(&img[at..at + run]);
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conv2d, conv2d_accumulate_ref};
    use htvm_ir::{DType, Padding2d, Tensor};

    fn t(dims: &[usize], data: Vec<i32>) -> Tensor {
        Tensor::new(DType::I32, dims, data).unwrap()
    }

    /// The whole-input `[OY·OX, Fy·Fx·C]` patch matrix, widened back to
    /// `i32`.
    fn im2col(
        x: &Tensor,
        (fy, fx): (usize, usize),
        (sy, sx): (usize, usize),
        padding: Padding2d,
    ) -> Tensor {
        let [c, h, iw] = [
            x.shape().dims()[0],
            x.shape().dims()[1],
            x.shape().dims()[2],
        ];
        let oy = (h + padding.top + padding.bottom - fy) / sy + 1;
        let ox = (iw + padding.left + padding.right - fx) / sx + 1;
        let s = ConvShape {
            c,
            h,
            iw,
            fy,
            fx,
            sy,
            sx,
            pt: padding.top as isize,
            pl: padding.left as isize,
        };
        let (mut img, mut buf) = (Vec::new(), Vec::new());
        let ranges = (0..oy, 0..ox, 0..c);
        assert!(fill_patches(
            &s,
            x.data(),
            &ranges.0,
            &ranges.1,
            &ranges.2,
            &mut img,
            &mut buf
        ));
        let data = buf.into_iter().map(i32::from).collect();
        t(&[oy * ox, c * fy * fx], data)
    }

    #[test]
    fn im2col_identity_window() {
        // 1x1 window, no padding: the patch matrix is the channel-last
        // transpose of the input.
        let x = t(&[2, 2, 2], vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let p = im2col(&x, (1, 1), (1, 1), Padding2d::same(0));
        assert_eq!(p.shape().dims(), &[4, 2]);
        assert_eq!(p.data(), &[1, 5, 2, 6, 3, 7, 4, 8]);
    }

    #[test]
    fn im2col_materializes_zero_padding() {
        let x = t(&[1, 1, 1], vec![9]);
        let p = im2col(&x, (3, 3), (1, 1), Padding2d::same(1));
        assert_eq!(p.shape().dims(), &[1, 9]);
        // The single real value sits at the window center.
        let expected: Vec<i32> = (0..9).map(|i| if i == 4 { 9 } else { 0 }).collect();
        assert_eq!(p.data(), &expected[..]);
    }

    #[test]
    fn im2col_strided_with_asymmetric_padding() {
        let x = t(&[2, 4, 5], (0..40).collect());
        let pad = Padding2d {
            top: 1,
            bottom: 0,
            left: 2,
            right: 1,
        };
        let p = im2col(&x, (3, 3), (2, 2), pad);
        // Cross-check every patch element against the definition.
        let (oy, ox) = (1usize + 1, 2usize + 1);
        assert_eq!(p.shape().dims(), &[oy * ox, 2 * 9]);
        for ci in 0..2usize {
            for ky in 0..3usize {
                for kx in 0..3usize {
                    for yo in 0..oy {
                        for xo in 0..ox {
                            let iy = (yo * 2 + ky) as isize - 1;
                            let ix = (xo * 2 + kx) as isize - 2;
                            let want = if !(0..4).contains(&iy) || !(0..5).contains(&ix) {
                                0
                            } else {
                                x.data()[(ci * 4 + iy as usize) * 5 + ix as usize]
                            };
                            let col = (ky * 3 + kx) * 2 + ci;
                            assert_eq!(p.data()[(yo * ox + xo) * 18 + col], want);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn matches_direct_conv_on_fixed_case() {
        let x = t(&[3, 6, 5], (0..90).map(|v| v % 11 - 5).collect());
        let w = t(&[4, 3, 3, 3], (0..108).map(|v| v % 7 - 3).collect());
        for (strides, pad) in [((1, 1), 1), ((2, 2), 1), ((1, 1), 0), ((2, 1), 2)] {
            let pad = Padding2d::same(pad);
            let fast = conv2d(&x, &w, strides, pad);
            let [k, oy, ox] = [0, 1, 2].map(|i| fast.shape().dims()[i]);
            let mut direct = Tensor::zeros(DType::I32, &[k, oy, ox]);
            conv2d_accumulate_ref(&x, &w, &mut direct, strides, pad, 0..k, 0..oy, 0..ox, 0..3);
            assert_eq!(direct, fast, "strides {strides:?} pad {pad:?}");
        }
    }
}
