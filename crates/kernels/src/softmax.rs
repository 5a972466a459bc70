//! Softmax (always executed on the CPU in HTVM deployments).
//!
//! `exp(v − max)` only ever sees a non-positive *integer*, so it is read
//! from a table of `exp(−d)` filled once by the same `f64::exp` call the
//! kernel would otherwise make per element: identical bits by
//! construction, no libm assumption. `exp(−d) == 0.0` exactly for every
//! integer `d > 745`, so [`EXP_TABLE_LEN`] covers all `i32` logits; a gap
//! past the table still calls `exp` rather than assume that zero. The
//! largest-remainder step needs only the *set* of the `leftover` largest
//! remainders, so it selects (`select_nth_unstable_by`, O(n)) under the
//! strict total order a full sort would use.

use htvm_ir::Tensor;
use std::sync::OnceLock;

/// Entries in the `exp(−d)` table, `d = 0..=768`.
const EXP_TABLE_LEN: usize = 769;

/// `exp(−d)` for `d` in `0..EXP_TABLE_LEN`, built on first use.
fn exp_table() -> &'static [f64] {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| (0..EXP_TABLE_LEN).map(|d| (-(d as f64)).exp()).collect())
}

/// `exp(−gap)` for a non-negative logit gap `max − v`.
fn exp_neg(table: &[f64], gap: i64) -> f64 {
    let entry = usize::try_from(gap).ok().and_then(|d| table.get(d));
    entry.copied().unwrap_or_else(|| (-(gap as f64)).exp())
}

/// Softmax over the last dimension, returning quantized probabilities.
///
/// Inputs are treated as raw integer logits. The result is quantized back to
/// the input dtype's range so that every row sums to exactly `hi`, the
/// dtype's maximum (e.g. 127 for `i8`), matching how TFLite emits an int8
/// softmax (up to the zero-point convention, which is irrelevant for arg-max
/// style consumers). Computation uses the numerically stable max-subtracted
/// form in `f64` — with the subtraction widened to `i64`, since `i32` logits
/// near `i32::MIN` would overflow an `i32` subtraction — and quantization is
/// largest-remainder: each probability takes its floor and the leftover
/// units go to the largest fractional remainders (ties to the lower index),
/// so flat rows can never collapse to all zeros. Fully deterministic.
///
/// # Panics
///
/// Panics if the input has rank 0.
#[must_use]
pub fn softmax(x: &Tensor) -> Tensor {
    assert!(x.shape().rank() >= 1, "softmax requires rank >= 1");
    let dims = x.shape().dims();
    let n = *dims.last().expect("rank checked above");
    let (_, hi) = x.dtype().range();
    let table = exp_table();
    // Per-row scratch, reused across rows: `frac` holds the exponentials,
    // then the fractional remainders; `order` the candidate indices.
    let mut frac: Vec<f64> = Vec::with_capacity(n);
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut out = x.clone();
    for s in out.data_mut().chunks_exact_mut(n.max(1)) {
        let max = s.iter().copied().max().unwrap_or(0);
        frac.clear();
        frac.extend(
            s.iter()
                .map(|&v| exp_neg(table, i64::from(max) - i64::from(v))),
        );
        let sum: f64 = frac.iter().sum();
        let mut floor_sum = 0i64;
        for (v, t) in s.iter_mut().zip(&mut frac) {
            let target = *t / sum * f64::from(hi);
            let floor = target.floor() as i64;
            floor_sum += floor;
            *v = floor as i32;
            *t = target - floor as f64;
        }
        // Each floor is at most its target and the targets sum to `hi`
        // (modulo sub-unit float error), so the leftover is in [0, n].
        let leftover = ((i64::from(hi) - floor_sum).max(0) as usize).min(n);
        if leftover > 0 {
            // Strict total order (no two indices compare equal), so the
            // first `leftover` entries are the same set a full sort yields.
            order.clear();
            order.extend(0..n);
            order.select_nth_unstable_by(leftover - 1, |&a, &b| {
                frac[b].total_cmp(&frac[a]).then(a.cmp(&b))
            });
            for &i in &order[..leftover] {
                s[i] = s[i].wrapping_add(1);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_ir::DType;

    /// The kernel as it stood before the table and the selection: an
    /// `f64::exp` per element, a full comparison sort per row. Kept
    /// verbatim as the oracle [`softmax`] must match bit for bit.
    fn softmax_oracle(x: &Tensor) -> Tensor {
        let dims = x.shape().dims();
        let n = *dims.last().unwrap();
        let outer: usize = dims[..dims.len() - 1].iter().product();
        let (_, hi) = x.dtype().range();
        let mut out = x.clone();
        let data = out.data_mut();
        for row in 0..outer {
            let s = &mut data[row * n..(row + 1) * n];
            let max = s.iter().copied().max().unwrap_or(0);
            let exps: Vec<f64> = s
                .iter()
                .map(|&v| ((i64::from(v) - i64::from(max)) as f64).exp())
                .collect();
            let sum: f64 = exps.iter().sum();
            let targets: Vec<f64> = exps.iter().map(|e| e / sum * f64::from(hi)).collect();
            let floors: Vec<i64> = targets.iter().map(|t| t.floor() as i64).collect();
            let leftover = (i64::from(hi) - floors.iter().sum::<i64>()).max(0) as usize;
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                let ra = targets[a] - floors[a] as f64;
                let rb = targets[b] - floors[b] as f64;
                rb.total_cmp(&ra).then(a.cmp(&b))
            });
            let mut vals = floors;
            for &i in order.iter().take(leftover.min(n)) {
                vals[i] += 1;
            }
            for (v, q) in s.iter_mut().zip(&vals) {
                *v = *q as i32;
            }
        }
        out
    }

    /// Gaps straddling the last non-zero exponential and the table end.
    const EDGE_GAPS: [i64; 6] = [744, 745, 746, 767, 768, 769];

    #[test]
    fn matches_the_sorting_oracle_bit_for_bit() {
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move |lo: i64, hi: i64| -> i32 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (lo + ((state >> 33) as i64).rem_euclid(hi - lo + 1)) as i32
        };
        let mut rows_checked = 0usize;
        for dtype in [DType::I8, DType::I16, DType::I32, DType::Ternary] {
            let (lo, hi) = dtype.range();
            let (lo, hi) = (i64::from(lo), i64::from(hi));
            let fit = |v: i64| v.clamp(lo, hi) as i32;
            for n in [1usize, 2, 3, 7, 10, 64, 127, 128, 256, 300, 1000] {
                let mut rows: Vec<Vec<i32>> = Vec::new();
                for _ in 0..8 {
                    // Narrow, full-range and extreme-only logit spans.
                    rows.push((0..n).map(|_| fit(i64::from(next(-6, 6)))).collect());
                    rows.push((0..n).map(|_| next(lo, hi)).collect());
                    rows.push(
                        (0..n)
                            .map(|_| [lo, lo + 1, 0, hi - 1, hi][next(0, 4) as usize] as i32)
                            .collect(),
                    );
                    // Two-valued rows: whole groups of exactly tied remainders.
                    let (p, q) = (next(lo, hi), fit(i64::from(next(-2, 2))));
                    rows.push(
                        (0..n)
                            .map(|_| if next(0, 1) == 0 { p } else { q })
                            .collect(),
                    );
                }
                // Flat rows (every remainder tied, the index decides) and
                // one-hot rows (`leftover == 0`, nothing to select).
                rows.push(vec![fit(3); n]);
                for hot in [0, n / 2, n - 1] {
                    let mut row = vec![lo as i32; n];
                    row[hot] = hi as i32;
                    rows.push(row);
                }
                // One logit `gap` below the rest, around the table edge.
                for gap in EDGE_GAPS {
                    let mut row = vec![hi as i32; n];
                    row[n / 2] = fit(hi - gap);
                    rows.push(row);
                    rows.push((0..n).map(|i| fit(hi - gap * (i as i64 % 3))).collect());
                }
                // One multi-row tensor, so the scratch buffers carry
                // over between rows of different character.
                rows_checked += rows.len();
                let x = Tensor::new(dtype, &[rows.len(), n], rows.concat()).unwrap();
                assert_eq!(softmax(&x), softmax_oracle(&x), "dtype {dtype:?}, n {n}");
            }
        }
        assert!(rows_checked > 2000);
    }

    #[test]
    fn exp_table_equals_direct_calls_and_overflowing_gaps_bypass_it() {
        let table = exp_table();
        assert_eq!(table.len(), EXP_TABLE_LEN);
        for (d, &e) in table.iter().enumerate() {
            let direct = (-(d as f64)).exp();
            assert_eq!(e.to_bits(), direct.to_bits(), "d = {d}");
            assert_eq!(exp_neg(table, d as i64).to_bits(), direct.to_bits());
        }
        // Why the table may stop where it does.
        assert!(table[745] > 0.0);
        assert!(table[746..].iter().all(|&e| e == 0.0));
        for gap in [EXP_TABLE_LEN as i64, 1000, i64::from(u32::MAX)] {
            assert_eq!(
                exp_neg(table, gap).to_bits(),
                (-(gap as f64)).exp().to_bits()
            );
        }
        // A short stand-in table shows which side answers: entries are
        // returned as stored, anything past the end is computed.
        assert_eq!(exp_neg(&[1.0, 0.25], 1), 0.25);
        assert_eq!(exp_neg(&[1.0, 0.25], 2), (-2.0f64).exp());
    }

    #[test]
    fn uniform_logits_give_uniform_probabilities() {
        let x = Tensor::new(DType::I8, &[4], vec![5, 5, 5, 5]).unwrap();
        let y = softmax(&x);
        // 127/4 = 31.75: three rounded-up units land on the lowest
        // indices so the row sums to exactly 127.
        assert_eq!(y.data(), &[32, 32, 32, 31]);
        assert_eq!(y.data().iter().sum::<i32>(), 127);
    }

    #[test]
    fn dominant_logit_saturates() {
        let x = Tensor::new(DType::I8, &[3], vec![100, 0, 0]).unwrap();
        let y = softmax(&x);
        assert_eq!(y.data()[0], 127);
        assert_eq!(y.data()[1], 0);
    }

    #[test]
    fn argmax_is_preserved() {
        let x = Tensor::new(DType::I32, &[5], vec![3, -1, 7, 7, 0]).unwrap();
        let y = softmax(&x);
        let max = y.data().iter().copied().max().unwrap();
        // The two tied logits split the last quantization unit (the row
        // must sum to `hi` exactly), but both dominate every other entry.
        assert_eq!(y.data()[2], max);
        assert!((y.data()[2] - y.data()[3]).abs() <= 1);
        assert!(y.data()[3] > y.data()[0]);
        assert!(y.data()[3] > y.data()[1]);
        assert!(y.data()[3] > y.data()[4]);
    }

    #[test]
    fn rows_are_independent() {
        let x = Tensor::new(DType::I8, &[2, 2], vec![10, 0, 0, 10]).unwrap();
        let y = softmax(&x);
        assert_eq!(y.data()[0], y.data()[3]);
        assert_eq!(y.data()[1], y.data()[2]);
        assert!(y.data()[0] > y.data()[1]);
    }

    #[test]
    fn extreme_i32_logits_do_not_overflow() {
        // Regression: `v - max` was computed in i32, so a logit near
        // i32::MIN with a positive max overflowed the subtraction (debug
        // panic, release wraparound → garbage probabilities).
        let x = Tensor::new(DType::I32, &[4], vec![i32::MIN, i32::MIN + 1, 10, i32::MAX]).unwrap();
        let y = softmax(&x);
        assert_eq!(y.data()[3], i32::MAX, "dominant logit takes all mass");
        assert_eq!(y.data()[0], 0);
        assert_eq!(y.data()[1], 0);
        assert_eq!(y.data()[2], 0);
    }

    #[test]
    fn flat_wide_rows_do_not_collapse_to_zero() {
        // Regression: 256 flat i8 logits each quantize to round(127/256)
        // = 0 under naive rounding — the whole row silently vanished.
        let x = Tensor::new(DType::I8, &[256], vec![3; 256]).unwrap();
        let y = softmax(&x);
        assert_eq!(y.data().iter().sum::<i32>(), 127);
        assert!(y.data().iter().all(|&v| v == 0 || v == 1));
    }

    #[test]
    fn random_rows_sum_to_hi_and_preserve_argmax() {
        // Deterministic LCG over many shapes/dtypes: every row must sum
        // to exactly `hi` and a strict argmax must stay the (possibly
        // shared) maximum after quantization.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move |bound: i64| -> i32 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as i64 % bound) as i32
        };
        for &(dtype, span) in &[
            (DType::I8, 128i64),
            (DType::I32, i64::from(i32::MAX)),
            (DType::I32, 64),
        ] {
            for n in [1usize, 2, 7, 64, 300] {
                let vals: Vec<i32> = (0..n).map(|_| next(span) - (span / 2) as i32).collect();
                let x = Tensor::new(dtype, &[n], vals.clone()).unwrap();
                let y = softmax(&x);
                let (_, hi) = dtype.range();
                assert_eq!(
                    y.data().iter().map(|&v| i64::from(v)).sum::<i64>(),
                    i64::from(hi),
                    "row must sum to hi for dtype {dtype:?}, n {n}"
                );
                let arg = (0..n).max_by_key(|&i| vals[i]).unwrap();
                let out_max = y.data().iter().copied().max().unwrap();
                if vals.iter().filter(|&&v| v == vals[arg]).count() == 1 {
                    assert_eq!(y.data()[arg], out_max, "strict argmax preserved");
                }
                assert!(y.data().iter().all(|&v| v >= 0));
            }
        }
    }
}
