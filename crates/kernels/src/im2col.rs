//! im2col patch-matrix lowering.
//!
//! The classic CPU-library convolution formulation (CMSIS-NN and TVM's
//! default conv schedules do exactly this): lower the input into an
//! explicit patch matrix, then run a matrix multiply.
//! [`conv2d_accumulate_with`](crate::conv2d_accumulate_with) fills
//! patches directly into a reusable scratch arena via [`fill_patches`]
//! and hands them to [`gemm_accumulate`](crate::gemm_accumulate).

use crate::conv::{ox_span, ConvShape};
use std::ops::Range;

/// Fills `buf` with the `[c_len·Fy·Fx, oy_len·ox_len]` patch matrix for
/// the given output sub-block: row `(ci_rel·Fy + ky)·Fx + kx`, column
/// `oy_rel·ox_len + ox_rel` holds the input value that filter tap
/// `(ky, kx)` of channel `ci` sees at output position `(oy, ox)`, with
/// zero padding materialized explicitly.
///
/// Padded positions are written by span (`fill(0)` head/tail around one
/// contiguous copy per row) rather than tested per element.
pub(crate) fn fill_patches(
    s: &ConvShape,
    xd: &[i32],
    oy_range: &Range<usize>,
    ox_range: &Range<usize>,
    c_range: &Range<usize>,
    buf: &mut [i32],
) {
    let (oy_len, ox_len) = (oy_range.len(), ox_range.len());
    let cols = oy_len * ox_len;
    for (c_rel, ci) in c_range.clone().enumerate() {
        for ky in 0..s.fy {
            for kx in 0..s.fx {
                let row = ((c_rel * s.fy + ky) * s.fx + kx) * cols;
                let span = ox_span(s.iw, s.sx, s.pl, kx, ox_range);
                for (oy_rel, oy) in oy_range.clone().enumerate() {
                    let dst = &mut buf[row + oy_rel * ox_len..][..ox_len];
                    let iy = (oy * s.sy + ky) as isize - s.pt;
                    if iy < 0 || iy as usize >= s.h {
                        dst.fill(0);
                        continue;
                    }
                    let Some((lo, hi, x0)) = span else {
                        dst.fill(0);
                        continue;
                    };
                    let (lo_rel, hi_rel) = (lo - ox_range.start, hi - ox_range.start);
                    dst[..lo_rel].fill(0);
                    dst[hi_rel..].fill(0);
                    let xrow = &xd[(ci * s.h + iy as usize) * s.iw..][..s.iw];
                    if s.sx == 1 {
                        dst[lo_rel..hi_rel].copy_from_slice(&xrow[x0..x0 + (hi - lo)]);
                    } else {
                        for (o, &xv) in dst[lo_rel..hi_rel]
                            .iter_mut()
                            .zip(xrow[x0..].iter().step_by(s.sx))
                        {
                            *o = xv;
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
    use crate::{conv2d, conv2d_accumulate_ref};
    use htvm_ir::{DType, Padding2d, Tensor};

    fn t(dims: &[usize], data: Vec<i32>) -> Tensor {
        Tensor::new(DType::I32, dims, data).unwrap()
    }

    /// The whole-input `[C·Fy·Fx, OY·OX]` patch matrix.
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
        let mut out = Tensor::zeros(DType::I32, &[c * fy * fx, oy * ox]);
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
        fill_patches(&s, x.data(), &(0..oy), &(0..ox), &(0..c), out.data_mut());
        out
    }

    #[test]
    fn im2col_identity_window() {
        // 1x1 window, no padding: patch matrix is just a reshape.
        let x = t(&[2, 2, 2], vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let p = im2col(&x, (1, 1), (1, 1), Padding2d::same(0));
        assert_eq!(p.shape().dims(), &[2, 4]);
        assert_eq!(p.data(), x.data());
    }

    #[test]
    fn im2col_materializes_zero_padding() {
        let x = t(&[1, 1, 1], vec![9]);
        let p = im2col(&x, (3, 3), (1, 1), Padding2d::same(1));
        assert_eq!(p.shape().dims(), &[9, 1]);
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
        assert_eq!(p.shape().dims(), &[2 * 9, oy * ox]);
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
                            let row = (ci * 3 + ky) * 3 + kx;
                            assert_eq!(p.data()[row * (oy * ox) + yo * ox + xo], want);
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
            let gemm = conv2d(&x, &w, strides, pad);
            let [k, oy, ox] = [0, 1, 2].map(|i| gemm.shape().dims()[i]);
            let mut direct = Tensor::zeros(DType::I32, &[k, oy, ox]);
            conv2d_accumulate_ref(&x, &w, &mut direct, strides, pad, 0..k, 0..oy, 0..ox, 0..3);
            assert_eq!(direct, gemm, "strides {strides:?} pad {pad:?}");
        }
    }
}
