//! Convolution kernels (standard and depthwise), with sub-range variants
//! used by the tiled executor.
//!
//! Each op has one fast body and one `_ref` oracle, chosen by the
//! caller's function name (see `docs/KERNELS.md`):
//!
//! * [`conv2d_accumulate`] is im2col on the packed dot microkernel
//!   matmul also runs: the call's `(k, c)` weight rows and a patch-major
//!   patch matrix (one `c·Fy·Fx` row per output position) are narrowed
//!   to `i16` in the thread's arena, then for each output row `oy` every
//!   weight row is dotted against that row's `ox` patches, straight into
//!   the strided destination. A call with an operand value outside `i16`
//!   runs [`conv2d_accumulate_ref`] instead — selection by value only;
//! * [`depthwise_conv2d_region`] has no cross-channel reduction to run a
//!   dot product over, so each `(ky, kx)` tap adds a precomputed
//!   in-bounds output span — a flat slice zip with no bounds checks;
//! * [`conv2d_accumulate_ref`] / [`depthwise_conv2d_region_ref`] are the
//!   original scalar loops with per-element padding checks, kept as the
//!   oracle the fast bodies are differentially tested against.
//!
//! Fast and reference bodies compute the identical multiset of `i32`
//! products and combine them with `wrapping_add` (associative,
//! commutative), so which one ran is invisible in the output bits.

use crate::im2col::fill_patches;
use crate::packed::{dot_rows, push_i16};
use crate::scratch::with_packed;
use htvm_ir::{DType, Padding2d, Tensor};
use std::ops::Range;

/// Internal convolution geometry shared with the im2col patch filler:
/// input dims, filter dims, strides, and the top/left padding as signed
/// offsets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConvShape {
    pub c: usize,
    pub h: usize,
    pub iw: usize,
    pub fy: usize,
    pub fx: usize,
    pub sy: usize,
    pub sx: usize,
    pub pt: isize,
    pub pl: isize,
}

/// The in-bounds output-x span for filter tap `kx`, clipped to
/// `ox_range`: returns `(ox_lo, ox_hi, x_start)` such that every
/// `ox ∈ [ox_lo, ox_hi)` reads input column `x_start + (ox - ox_lo)·sx`,
/// all in `[0, iw)`. `None` when no output position of the range sees an
/// in-bounds input for this tap (it contributes only zero padding).
fn ox_span(
    iw: usize,
    sx: usize,
    pl: isize,
    kx: usize,
    ox_range: &Range<usize>,
) -> Option<(usize, usize, usize)> {
    let lo_num = pl - kx as isize;
    let ox_lo = if lo_num > 0 {
        (lo_num as usize).div_ceil(sx)
    } else {
        0
    };
    let hi_num = iw as isize - 1 + pl - kx as isize;
    if hi_num < 0 {
        return None;
    }
    let ox_hi = hi_num as usize / sx + 1;
    let lo = ox_lo.max(ox_range.start);
    let hi = ox_hi.min(ox_range.end);
    if lo >= hi {
        return None;
    }
    let x0 = (lo * sx + kx) as isize - pl;
    debug_assert!(x0 >= 0);
    Some((lo, hi, x0 as usize))
}

/// Adds `wv · x` over the span into `dst`, striding the input by `sx`.
#[inline]
fn axpy_strided(dst: &mut [i32], xs: &[i32], wv: i32, sx: usize) {
    if sx == 1 {
        for (o, &xv) in dst.iter_mut().zip(xs) {
            *o = o.wrapping_add(wv.wrapping_mul(xv));
        }
    } else {
        for (o, &xv) in dst.iter_mut().zip(xs.iter().step_by(sx)) {
            *o = o.wrapping_add(wv.wrapping_mul(xv));
        }
    }
}

fn validate_conv(
    x: &Tensor,
    w: &Tensor,
    out: &Tensor,
    k_range: &Range<usize>,
    oy_range: &Range<usize>,
    ox_range: &Range<usize>,
    c_range: &Range<usize>,
) -> (ConvShape, usize, usize) {
    assert_eq!(x.shape().rank(), 3, "conv2d input must be [C,H,W]");
    assert_eq!(w.shape().rank(), 4, "conv2d weights must be [K,C,Fy,Fx]");
    assert_eq!(out.dtype(), DType::I32, "conv2d accumulator must be i32");
    let [c, h, iw] = [
        x.shape().dims()[0],
        x.shape().dims()[1],
        x.shape().dims()[2],
    ];
    let [k, wc, fy, fx] = [
        w.shape().dims()[0],
        w.shape().dims()[1],
        w.shape().dims()[2],
        w.shape().dims()[3],
    ];
    assert_eq!(wc, c, "weight input channels must match input");
    let [ok, ooy, oox] = [
        out.shape().dims()[0],
        out.shape().dims()[1],
        out.shape().dims()[2],
    ];
    assert_eq!(ok, k, "output channels must match weights");
    assert!(k_range.end <= k && oy_range.end <= ooy && ox_range.end <= oox);
    assert!(c_range.end <= c, "channel range exceeds input channels");
    (
        ConvShape {
            c,
            h,
            iw,
            fy,
            fx,
            sy: 0, // filled by the caller from `strides`
            sx: 0,
            pt: 0,
            pl: 0,
        },
        ooy,
        oox,
    )
}

/// Accumulates a 2-D convolution over sub-ranges of the output and input
/// channels into an `i32` output tensor (patch-major im2col + the packed
/// dot microkernel; see the [crate docs](crate)).
///
/// This is the building block for tiled execution: the SoC simulator calls
/// it once per tile with the tile's `k`/`oy`/`ox`/`c` ranges, and summing
/// over all tiles must reproduce [`conv2d`] exactly.
///
/// * `x`: input `[C, H, W]` (any integer dtype; values used as-is),
/// * `w`: weights `[K, C, Fy, Fx]`,
/// * `out`: accumulator `[K, OY, OX]` with dtype `I32`, updated in place,
/// * `k_range`/`oy_range`/`ox_range`: the output sub-block to compute,
/// * `c_range`: the input channels to accumulate (partial sums when a tile
///   splits the channel dimension).
///
/// # Panics
///
/// Panics if shapes are inconsistent, a range exceeds its dimension, or
/// `out` is not `I32`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_accumulate(
    x: &Tensor,
    w: &Tensor,
    out: &mut Tensor,
    strides: (usize, usize),
    padding: Padding2d,
    k_range: Range<usize>,
    oy_range: Range<usize>,
    ox_range: Range<usize>,
    c_range: Range<usize>,
) {
    let (mut s, ooy, oox) = validate_conv(x, w, out, &k_range, &oy_range, &ox_range, &c_range);
    s.sy = strides.0;
    s.sx = strides.1;
    s.pt = padding.top as isize;
    s.pl = padding.left as isize;
    let fyfx = s.fy * s.fx;
    let kk = c_range.len() * fyfx;
    if k_range.is_empty() || oy_range.is_empty() || ox_range.is_empty() || kk == 0 {
        return;
    }
    let packed = with_packed(|pw, pp| {
        if !fill_patches(&s, x.data(), &oy_range, &ox_range, &c_range, pw, pp) {
            return false;
        }
        // `pw` held the filler's window image; the weight rows, in the
        // patches' `(ky, kx, ci)` column order, overwrite it.
        pw.clear();
        let wd = w.data();
        let tap = |k: usize, t: usize| c_range.clone().map(move |ci| wd[(k * s.c + ci) * fyfx + t]);
        let row = |k: usize| (0..fyfx).all(|t| push_i16(pw, tap(k, t)));
        if !k_range.clone().all(row) {
            return false;
        }
        let od = out.data_mut();
        for (oy, patches) in oy_range.clone().zip(pp.chunks_exact(ox_range.len() * kk)) {
            for (ko, wrow) in k_range.clone().zip(pw.chunks_exact(kk)) {
                let dst = &mut od[(ko * ooy + oy) * oox..][ox_range.clone()];
                dot_rows(wrow, patches, dst);
            }
        }
        true
    });
    if !packed {
        conv2d_accumulate_ref(
            x, w, out, strides, padding, k_range, oy_range, ox_range, c_range,
        );
    }
}

/// The reference scalar implementation of [`conv2d_accumulate`]: plain
/// nested loops with per-element padding checks. Slow, obviously correct,
/// and the oracle the fast body is differentially tested against.
///
/// # Panics
///
/// As [`conv2d_accumulate`].
#[allow(clippy::too_many_arguments)]
pub fn conv2d_accumulate_ref(
    x: &Tensor,
    w: &Tensor,
    out: &mut Tensor,
    strides: (usize, usize),
    padding: Padding2d,
    k_range: Range<usize>,
    oy_range: Range<usize>,
    ox_range: Range<usize>,
    c_range: Range<usize>,
) {
    let (s, ooy, oox) = validate_conv(x, w, out, &k_range, &oy_range, &ox_range, &c_range);
    let (c, h, iw) = (s.c, s.h, s.iw);
    let (fy, fx) = (s.fy, s.fx);
    let (sy, sx) = strides;
    let xd = x.data();
    let wd = w.data();
    let od = out.data_mut();
    for ko in k_range {
        for oy in oy_range.clone() {
            for ox in ox_range.clone() {
                let mut acc: i32 = 0;
                for ci in c_range.clone() {
                    for ky in 0..fy {
                        // Signed input row index relative to the unpadded input.
                        let iy = (oy * sy + ky) as isize - padding.top as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..fx {
                            let ix = (ox * sx + kx) as isize - padding.left as isize;
                            if ix < 0 || ix as usize >= iw {
                                continue;
                            }
                            let xv = xd[(ci * h + iy as usize) * iw + ix as usize];
                            let wv = wd[((ko * c + ci) * fy + ky) * fx + kx];
                            acc = acc.wrapping_add(xv.wrapping_mul(wv));
                        }
                    }
                }
                let oi = (ko * ooy + oy) * oox + ox;
                od[oi] = od[oi].wrapping_add(acc);
            }
        }
    }
}

/// Reference 2-D convolution: `[C,H,W]` input, `[K,C,Fy,Fx]` weights,
/// `i32` output `[K,OY,OX]`.
///
/// # Panics
///
/// Panics if shapes are inconsistent or the window does not fit.
#[must_use]
pub fn conv2d(x: &Tensor, w: &Tensor, strides: (usize, usize), padding: Padding2d) -> Tensor {
    let (h, iw) = (x.shape().dims()[1], x.shape().dims()[2]);
    let (k, fy, fx) = (
        w.shape().dims()[0],
        w.shape().dims()[2],
        w.shape().dims()[3],
    );
    let oy = out_dim(h, fy, strides.0, padding.top, padding.bottom);
    let ox = out_dim(iw, fx, strides.1, padding.left, padding.right);
    let mut out = Tensor::zeros(DType::I32, &[k, oy, ox]);
    let c = x.shape().dims()[0];
    conv2d_accumulate(x, w, &mut out, strides, padding, 0..k, 0..oy, 0..ox, 0..c);
    out
}

/// Computes a depthwise convolution over an output sub-block (channels and
/// spatial ranges). Depthwise has no cross-channel reduction, so there is
/// no partial-sum range and no dot product to lower to: each call fully
/// computes its output elements, zeroing each output row (the
/// reference's *assignment* semantics) and then adding every filter
/// tap's in-bounds span into it.
///
/// * `x`: input `[C, H, W]`,
/// * `w`: weights `[C, Fy, Fx]`,
/// * `out`: accumulator `[C, OY, OX]` (`I32`), written in place.
///
/// # Panics
///
/// Panics on inconsistent shapes or out-of-range sub-blocks.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_conv2d_region(
    x: &Tensor,
    w: &Tensor,
    out: &mut Tensor,
    strides: (usize, usize),
    padding: Padding2d,
    c_range: Range<usize>,
    oy_range: Range<usize>,
    ox_range: Range<usize>,
) {
    assert_eq!(x.shape().rank(), 3, "dwconv input must be [C,H,W]");
    assert_eq!(w.shape().rank(), 3, "dwconv weights must be [C,Fy,Fx]");
    assert_eq!(out.dtype(), DType::I32, "dwconv accumulator must be i32");
    let [c, h, iw] = [
        x.shape().dims()[0],
        x.shape().dims()[1],
        x.shape().dims()[2],
    ];
    assert_eq!(w.shape().dims()[0], c);
    let (fy, fx) = (w.shape().dims()[1], w.shape().dims()[2]);
    let (ooy, oox) = (out.shape().dims()[1], out.shape().dims()[2]);
    assert!(c_range.end <= c && oy_range.end <= ooy && ox_range.end <= oox);

    let (sy, sx) = strides;
    let (pt, pl) = (padding.top as isize, padding.left as isize);
    let xd = x.data();
    let wd = w.data();
    let od = out.data_mut();
    for ci in c_range {
        for oy in oy_range.clone() {
            let row = &mut od[(ci * ooy + oy) * oox..][ox_range.clone()];
            row.fill(0);
            for ky in 0..fy {
                let iy = (oy * sy + ky) as isize - pt;
                if iy < 0 || iy as usize >= h {
                    continue;
                }
                let xrow = &xd[(ci * h + iy as usize) * iw..][..iw];
                for kx in 0..fx {
                    let wv = wd[(ci * fy + ky) * fx + kx];
                    if wv == 0 {
                        continue;
                    }
                    let Some((lo, hi, x0)) = ox_span(iw, sx, pl, kx, &ox_range) else {
                        continue;
                    };
                    let dst = &mut row[lo - ox_range.start..hi - ox_range.start];
                    axpy_strided(dst, &xrow[x0..], wv, sx);
                }
            }
        }
    }
}

/// The reference scalar implementation of [`depthwise_conv2d_region`]:
/// the oracle for the span-based body.
///
/// # Panics
///
/// As [`depthwise_conv2d_region`].
#[allow(clippy::too_many_arguments)]
pub fn depthwise_conv2d_region_ref(
    x: &Tensor,
    w: &Tensor,
    out: &mut Tensor,
    strides: (usize, usize),
    padding: Padding2d,
    c_range: Range<usize>,
    oy_range: Range<usize>,
    ox_range: Range<usize>,
) {
    assert_eq!(x.shape().rank(), 3, "dwconv input must be [C,H,W]");
    assert_eq!(w.shape().rank(), 3, "dwconv weights must be [C,Fy,Fx]");
    assert_eq!(out.dtype(), DType::I32, "dwconv accumulator must be i32");
    let [c, h, iw] = [
        x.shape().dims()[0],
        x.shape().dims()[1],
        x.shape().dims()[2],
    ];
    assert_eq!(w.shape().dims()[0], c);
    let (fy, fx) = (w.shape().dims()[1], w.shape().dims()[2]);
    let (ooy, oox) = (out.shape().dims()[1], out.shape().dims()[2]);
    assert!(c_range.end <= c && oy_range.end <= ooy && ox_range.end <= oox);

    let (sy, sx) = strides;
    let xd = x.data();
    let wd = w.data();
    let od = out.data_mut();
    for ci in c_range {
        for oy in oy_range.clone() {
            for ox in ox_range.clone() {
                let mut acc: i32 = 0;
                for ky in 0..fy {
                    let iy = (oy * sy + ky) as isize - padding.top as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    for kx in 0..fx {
                        let ix = (ox * sx + kx) as isize - padding.left as isize;
                        if ix < 0 || ix as usize >= iw {
                            continue;
                        }
                        let xv = xd[(ci * h + iy as usize) * iw + ix as usize];
                        let wv = wd[(ci * fy + ky) * fx + kx];
                        acc = acc.wrapping_add(xv.wrapping_mul(wv));
                    }
                }
                od[(ci * ooy + oy) * oox + ox] = acc;
            }
        }
    }
}

/// Reference depthwise convolution: `[C,H,W]` input, `[C,Fy,Fx]` weights,
/// `i32` output `[C,OY,OX]`.
///
/// # Panics
///
/// Panics if shapes are inconsistent or the window does not fit.
#[must_use]
pub fn depthwise_conv2d(
    x: &Tensor,
    w: &Tensor,
    strides: (usize, usize),
    padding: Padding2d,
) -> Tensor {
    let (c, h, iw) = (
        x.shape().dims()[0],
        x.shape().dims()[1],
        x.shape().dims()[2],
    );
    let (fy, fx) = (w.shape().dims()[1], w.shape().dims()[2]);
    let oy = out_dim(h, fy, strides.0, padding.top, padding.bottom);
    let ox = out_dim(iw, fx, strides.1, padding.left, padding.right);
    let mut out = Tensor::zeros(DType::I32, &[c, oy, ox]);
    depthwise_conv2d_region(x, w, &mut out, strides, padding, 0..c, 0..oy, 0..ox);
    out
}

fn out_dim(input: usize, kernel: usize, stride: usize, lo: usize, hi: usize) -> usize {
    let padded = input + lo + hi;
    assert!(
        kernel > 0 && stride > 0 && padded >= kernel,
        "convolution window does not fit input"
    );
    (padded - kernel) / stride + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_ir::DType;

    fn t(dims: &[usize], data: Vec<i32>) -> Tensor {
        Tensor::new(DType::I32, dims, data).unwrap()
    }

    #[test]
    fn identity_kernel_passes_through() {
        let x = t(&[1, 3, 3], (1..=9).collect());
        let w = t(&[1, 1, 1, 1], vec![1]);
        let y = conv2d(&x, &w, (1, 1), Padding2d::same(0));
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_sum_kernel() {
        // All-ones 3x3 kernel over a 3x3 input of ones with same-padding:
        // corner sees 4, edge 6, center 9.
        let x = t(&[1, 3, 3], vec![1; 9]);
        let w = t(&[1, 1, 3, 3], vec![1; 9]);
        let y = conv2d(&x, &w, (1, 1), Padding2d::same(1));
        assert_eq!(y.shape().dims(), &[1, 3, 3]);
        assert_eq!(y.data(), &[4, 6, 4, 6, 9, 6, 4, 6, 4]);
    }

    #[test]
    fn strides_subsample() {
        let x = t(&[1, 4, 4], (0..16).collect());
        let w = t(&[1, 1, 1, 1], vec![1]);
        let y = conv2d(&x, &w, (2, 2), Padding2d::same(0));
        assert_eq!(y.shape().dims(), &[1, 2, 2]);
        assert_eq!(y.data(), &[0, 2, 8, 10]);
    }

    #[test]
    fn multi_channel_reduction() {
        // Two input channels, one output channel, 1x1 kernel with weights
        // (2, 3): out = 2*x0 + 3*x1.
        let x = t(&[2, 1, 2], vec![1, 2, 10, 20]);
        let w = t(&[1, 2, 1, 1], vec![2, 3]);
        let y = conv2d(&x, &w, (1, 1), Padding2d::same(0));
        assert_eq!(y.data(), &[2 + 30, 4 + 60]);
    }

    #[test]
    fn accumulate_partial_channels_matches_full() {
        let x = t(&[4, 5, 5], (0..100).map(|v| v % 13 - 6).collect());
        let w = t(&[3, 4, 3, 3], (0..108).map(|v| v % 7 - 3).collect());
        let full = conv2d(&x, &w, (1, 1), Padding2d::same(1));
        let mut partial = Tensor::zeros(DType::I32, full.shape().dims());
        // Split channel reduction 0..2 then 2..4, and split spatial.
        for c_range in [0..2usize, 2..4] {
            for oy_range in [0..3usize, 3..5] {
                conv2d_accumulate(
                    &x,
                    &w,
                    &mut partial,
                    (1, 1),
                    Padding2d::same(1),
                    0..3,
                    oy_range.clone(),
                    0..5,
                    c_range.clone(),
                );
            }
        }
        assert_eq!(partial, full);
    }

    /// The fast body and the reference, each accumulating the same list
    /// of `(k, oy, ox, c)` sub-blocks, must agree bit for bit.
    fn assert_blocks_match_ref(
        label: &str,
        x: &Tensor,
        w: &Tensor,
        out_dims: &[usize],
        strides: (usize, usize),
        pad: Padding2d,
        blocks: &[[Range<usize>; 4]],
    ) {
        let mut want = Tensor::zeros(DType::I32, out_dims);
        let mut got = Tensor::zeros(DType::I32, out_dims);
        for [kr, oyr, oxr, cr] in blocks.iter().cloned() {
            conv2d_accumulate_ref(
                x,
                w,
                &mut want,
                strides,
                pad,
                kr.clone(),
                oyr.clone(),
                oxr.clone(),
                cr.clone(),
            );
            conv2d_accumulate(x, w, &mut got, strides, pad, kr, oyr, oxr, cr);
        }
        assert_eq!(got, want, "{label} strides {strides:?}");
    }

    #[test]
    fn every_tier_matches_the_reference() {
        let ramp = |n: usize| (0..n as i32).map(|v| v % 17 - 8).collect::<Vec<_>>();

        // A sub-block of a larger output: partial ranges exercise the
        // strided destination.
        let x = t(&[3, 9, 7], ramp(189));
        let w = t(&[5, 3, 3, 3], (0..135).map(|v| v % 7 - 3).collect());
        for (strides, pad) in [((1, 1), 1), ((2, 2), 1), ((1, 2), 0), ((2, 1), 2)] {
            let block = [1..4usize, 1..6usize, 0..5usize, 0..3usize];
            let pad = Padding2d::same(pad);
            assert_blocks_match_ref("sub-block", &x, &w, &[5, 9, 9], strides, pad, &[block]);
        }

        // (name, c, h = w, k, f, stride, pad)
        let cases = [
            // MobileNet's last two pointwise convs: a 3x3 map, so each
            // weight row meets only 9 patches.
            ("mobilenet_pw_c128_k256_3x3", 128, 3, 256, 1, 1, 0),
            ("mobilenet_pw_c256_k256_3x3", 256, 3, 256, 1, 1, 0),
            // ResNet-8's three 3x3 bodies, the largest conv calls in the
            // zoo (2 359 296 MACs each).
            ("resnet8_c16_k16_32x32", 16, 32, 16, 3, 1, 1),
            ("resnet8_c32_k32_16x16", 32, 16, 32, 3, 1, 1),
            ("resnet8_c64_k64_8x8", 64, 8, 64, 3, 1, 1),
            // Degenerate operands: fewer patches per row than the
            // microkernel's pass, a single patch, a reduction shorter
            // than 8.
            ("k1_cols1_kk1", 1, 1, 1, 1, 1, 0),
            ("k2_cols1_kk4", 1, 2, 2, 2, 1, 0),
            ("k3_kk7_strided", 7, 5, 3, 1, 2, 0),
            ("k3_kk4_padded", 1, 4, 3, 2, 1, 1),
        ];
        for (name, c, hw, k, f, stride, pad) in cases {
            let x = t(&[c, hw, hw], ramp(c * hw * hw));
            let w = t(&[k, c, f, f], ramp(k * c * f * f));
            let o = (hw + 2 * pad - f) / stride + 1;
            let (strides, pad) = ((stride, stride), Padding2d::same(pad));
            let whole = [0..k, 0..o, 0..o, 0..c];
            assert_blocks_match_ref(name, &x, &w, &[k, o, o], strides, pad, &[whole]);
            // Uneven k / oy / c splits (possibly empty): every piece
            // accumulates into a strided destination.
            let split = |n: usize| [0..n / 3, n / 3..n];
            let mut blocks = Vec::new();
            for kr in split(k) {
                for oyr in split(o) {
                    for cr in split(c) {
                        blocks.push([kr.clone(), oyr.clone(), 0..o, cr]);
                    }
                }
            }
            assert_blocks_match_ref(name, &x, &w, &[k, o, o], strides, pad, &blocks);
        }

        // An `I8` operand forced past `i16` through `data_mut`: the call
        // leaves the packed path, the bits must not change.
        let mut x = Tensor::new(DType::I8, &[3, 9, 7], ramp(189)).unwrap();
        let w = Tensor::new(DType::I8, &[5, 3, 3, 3], ramp(135)).unwrap();
        x.data_mut()[100] = 40_000;
        let blocks = [[0..5, 0..9, 0..7, 0..3], [1..4, 2..7, 3..6, 1..2]];
        let pad = Padding2d::same(1);
        assert_blocks_match_ref("past_i16", &x, &w, &[5, 9, 7], (1, 1), pad, &blocks);
    }

    #[test]
    fn depthwise_is_per_channel() {
        // Channel 0 scaled by 1, channel 1 scaled by -1 (1x1 kernels).
        let x = t(&[2, 2, 2], vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let w = t(&[2, 1, 1], vec![1, -1]);
        let y = depthwise_conv2d(&x, &w, (1, 1), Padding2d::same(0));
        assert_eq!(y.data(), &[1, 2, 3, 4, -5, -6, -7, -8]);
    }

    #[test]
    fn depthwise_region_matches_full() {
        let x = t(&[3, 6, 6], (0..108).map(|v| v % 11 - 5).collect());
        let w = t(&[3, 3, 3], (0..27).map(|v| v % 5 - 2).collect());
        let full = depthwise_conv2d(&x, &w, (1, 1), Padding2d::same(1));
        let mut tiled = Tensor::zeros(DType::I32, full.shape().dims());
        for c_range in [0..1usize, 1..3] {
            for ox_range in [0..2usize, 2..6] {
                depthwise_conv2d_region(
                    &x,
                    &w,
                    &mut tiled,
                    (1, 1),
                    Padding2d::same(1),
                    c_range.clone(),
                    0..6,
                    ox_range.clone(),
                );
            }
        }
        assert_eq!(tiled, full);
    }

    #[test]
    fn depthwise_fast_matches_reference_region() {
        let x = t(&[4, 7, 6], (0..168).map(|v| v % 13 - 6).collect());
        let w = t(&[4, 3, 3], (0..36).map(|v| v % 5 - 2).collect());
        for strides in [(1, 1), (2, 2), (2, 1)] {
            let mut want = Tensor::zeros(DType::I32, &[4, 7, 6]);
            depthwise_conv2d_region_ref(
                &x,
                &w,
                &mut want,
                strides,
                Padding2d::same(1),
                1..4,
                0..3,
                1..5,
            );
            let mut got = Tensor::zeros(DType::I32, &[4, 7, 6]);
            depthwise_conv2d_region(
                &x,
                &w,
                &mut got,
                strides,
                Padding2d::same(1),
                1..4,
                0..3,
                1..5,
            );
            assert_eq!(got, want, "strides {strides:?}");
        }
    }

    #[test]
    #[should_panic(expected = "channels must match")]
    fn channel_mismatch_panics() {
        let x = t(&[2, 2, 2], vec![0; 8]);
        let w = t(&[1, 3, 1, 1], vec![0; 3]);
        let _ = conv2d(&x, &w, (1, 1), Padding2d::same(0));
    }
}
