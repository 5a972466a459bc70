//! The one packed integer microkernel, shared by conv and matmul.
//!
//! Both operands are narrowed to contiguous `i16` rows, then every
//! output is a dot product of two rows, [`NR`] `ys` rows per pass over
//! the `x` row. `s += i32::from(x) * i32::from(y)` over zipped `i16`
//! slices is the one shape LLVM lowers to `pmaddwd` on baseline x86-64
//! from safe code. *Axpy* forms — add a scaled row into the output row —
//! gain nothing from `i16`: each product widens before its add, so there
//! is no pair-add to fuse.
//!
//! Narrowing is checked: [`pack`] and [`push_i16`] report a value outside
//! `i16` (an `I32` operand, or one written past its dtype through
//! `Tensor::data_mut`), and the caller then runs its `_ref` loops
//! instead. `i16 × i16` is exact in `i32`, so both paths `wrapping_add`
//! the same multiset of products and are bit-identical.

use std::ops::Range;

/// `ys` rows sharing one pass over the `x` row.
const NR: usize = 4;

/// Appends `vals` to `dst` narrowed to `i16`; `false` when a value does
/// not fit (what was appended is then garbage).
pub(crate) fn push_i16(dst: &mut Vec<i16>, vals: impl IntoIterator<Item = i32>) -> bool {
    // No early exit: a plain `extend` vectorizes, and a miss is rare.
    let mut fits = true;
    dst.extend(vals.into_iter().map(|v| {
        fits &= i16::try_from(v).is_ok();
        v as i16
    }));
    fits
}

/// Narrows `src[r·rs + c·cs]` for `r ∈ rows`, `c ∈ cols` into `dst`,
/// row-major; `false` once a value does not fit `i16`.
pub(crate) fn pack(
    dst: &mut Vec<i16>,
    src: &[i32],
    (rs, cs): (usize, usize),
    rows: &Range<usize>,
    cols: &Range<usize>,
) -> bool {
    dst.clear();
    dst.reserve(rows.len() * cols.len());
    rows.clone()
        .all(|r| push_i16(dst, cols.clone().map(|c| src[r * rs + c * cs])))
}

/// Accumulates `out[j] += Σ_p x[p] · ys[j·x.len() + p]` with wrapping
/// `i32` adds: the `x` row against `out.len()` consecutive `ys` rows of
/// the same length.
pub(crate) fn dot_rows(x: &[i16], ys: &[i16], out: &mut [i32]) {
    let d = x.len();
    debug_assert!(d > 0 && ys.len() == out.len() * d);
    for (o, y) in out.chunks_mut(NR).zip(ys.chunks(NR * d)) {
        let mut s = [0i32; NR];
        if o.len() == NR {
            let (y0, y) = y.split_at(d);
            let (y1, y) = y.split_at(d);
            let (y2, y3) = y.split_at(d);
            for ((((&x, &y0), &y1), &y2), &y3) in x.iter().zip(y0).zip(y1).zip(y2).zip(y3) {
                let x = i32::from(x);
                s[0] = s[0].wrapping_add(x * i32::from(y0));
                s[1] = s[1].wrapping_add(x * i32::from(y1));
                s[2] = s[2].wrapping_add(x * i32::from(y2));
                s[3] = s[3].wrapping_add(x * i32::from(y3));
            }
        } else {
            for (s, y) in s.iter_mut().zip(y.chunks_exact(d)) {
                for (&x, &y) in x.iter().zip(y) {
                    *s = s.wrapping_add(i32::from(x) * i32::from(y));
                }
            }
        }
        for (o, s) in o.iter_mut().zip(s) {
            *o = o.wrapping_add(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_rows_matches_naive_across_row_counts() {
        // Row counts around the NR-row pass, including its short tail.
        let d = 7;
        let x: Vec<i16> = (0..d as i16).map(|v| v * 311 - 900).collect();
        for n in 1..=9 {
            let ys: Vec<i16> = (0..(n * d) as i16).map(|v| v * 97 - 400).collect();
            let mut got: Vec<i32> = (0..n as i32).collect();
            let want: Vec<i32> = got
                .iter()
                .enumerate()
                .map(|(j, &o)| {
                    let dot = (0..d).map(|p| i32::from(x[p]) * i32::from(ys[j * d + p]));
                    dot.fold(o, i32::wrapping_add)
                })
                .collect();
            dot_rows(&x, &ys, &mut got);
            assert_eq!(got, want, "{n} rows");
        }
    }

    #[test]
    fn narrowing_reports_a_value_outside_i16() {
        let mut dst = Vec::new();
        assert!(pack(
            &mut dst,
            &[1, 2, 3, 4, 5, 6],
            (3, 1),
            &(0..2),
            &(1..3)
        ));
        assert_eq!(dst, [2, 3, 5, 6]);
        assert!(!pack(&mut dst, &[1, 40_000], (2, 1), &(0..1), &(0..2)));
        assert!(!push_i16(&mut dst, [i32::from(i16::MIN) - 1]));
        assert!(push_i16(
            &mut dst,
            [i32::from(i16::MIN), i32::from(i16::MAX)]
        ));
    }
}
