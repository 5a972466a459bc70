//! Element-wise kernels: bias addition, requantization primitives,
//! activation functions and residual addition.

use htvm_ir::{DType, Tensor};

/// Adds a per-channel bias `b[k]` to every element of channel `k`.
///
/// * `x`: `[K, ...]` tensor (any rank ≥ 1),
/// * `bias`: `[K]` tensor.
///
/// # Panics
///
/// Panics if the leading dimension of `x` differs from the bias length.
#[must_use]
pub fn bias_add(x: &Tensor, bias: &Tensor) -> Tensor {
    bias_add_owned(x.clone(), bias)
}

/// [`bias_add`] rewriting `x` itself.
pub(crate) fn bias_add_owned(mut x: Tensor, bias: &Tensor) -> Tensor {
    assert_eq!(bias.shape().rank(), 1, "bias must be rank-1");
    let k = bias.shape().dims()[0];
    assert!(
        x.shape().rank() >= 1 && x.shape().dims()[0] == k,
        "leading dim of input must equal bias length"
    );
    let inner: usize = x.shape().dims()[1..].iter().product::<usize>().max(1);
    for (chunk, &bv) in x.data_mut().chunks_exact_mut(inner).zip(bias.data()) {
        for v in chunk {
            *v = v.wrapping_add(bv);
        }
    }
    x
}

/// The fused accelerator output pipeline: per-channel bias, arithmetic
/// right shift, clamp into `[-128, 127]`, cast to `I8`, and optional
/// ReLU — one in-place pass over the accumulator instead of five
/// tensor-sized temporaries. Bit-identical to composing [`bias_add`],
/// [`right_shift`], [`clip`], [`cast`] and [`relu`] in that order, which
/// is exactly the Listing-1 requantization chain the DIANA epilogue runs.
///
/// # Panics
///
/// Panics if `acc` is not `I32` or the bias does not match the leading
/// dimension.
#[must_use]
pub fn accel_epilogue(acc: Tensor, bias: Option<&Tensor>, shift: u32, apply_relu: bool) -> Tensor {
    assert_eq!(acc.dtype(), DType::I32, "epilogue input must be i32");
    let dims = acc.shape().dims().to_vec();
    let inner: usize = dims[1..].iter().product::<usize>().max(1);
    let mut data = acc.into_data();
    let requant = |v: i32, bv: i32| -> i32 {
        let v = (v.wrapping_add(bv) >> shift).clamp(-128, 127);
        if apply_relu {
            v.max(0)
        } else {
            v
        }
    };
    match bias {
        Some(b) => {
            assert_eq!(b.shape().rank(), 1, "bias must be rank-1");
            assert!(
                !dims.is_empty() && dims[0] == b.shape().dims()[0],
                "leading dim of input must equal bias length"
            );
            for (chunk, &bv) in data.chunks_exact_mut(inner).zip(b.data()) {
                for v in chunk {
                    *v = requant(*v, bv);
                }
            }
        }
        None => {
            for v in &mut data {
                *v = requant(*v, 0);
            }
        }
    }
    Tensor::new(DType::I8, &dims, data).expect("epilogue clamps into the i8 range")
}

/// Arithmetic right shift of every element (the requantization scale step).
#[must_use]
pub fn right_shift(x: &Tensor, amount: u32) -> Tensor {
    right_shift_owned(x.clone(), amount)
}

/// [`right_shift`] rewriting `x` itself.
pub(crate) fn right_shift_owned(mut x: Tensor, amount: u32) -> Tensor {
    for v in x.data_mut() {
        *v >>= amount;
    }
    x
}

/// Clamps every element into `[min, max]`.
#[must_use]
pub fn clip(x: &Tensor, min: i32, max: i32) -> Tensor {
    clip_owned(x.clone(), min, max)
}

/// [`clip`] rewriting `x` itself.
pub(crate) fn clip_owned(mut x: Tensor, min: i32, max: i32) -> Tensor {
    for v in x.data_mut() {
        *v = (*v).clamp(min, max);
    }
    x
}

/// Reinterprets the tensor with a new dtype.
///
/// # Panics
///
/// Panics if a value does not fit the target dtype. No built graph
/// reaches it: the builder, the importer and the graph deserializer all
/// refuse a narrowing cast not proven in range
/// (`IrError::UnprovenNarrowing`), so a graph narrows with an explicit
/// [`clip`] first, exactly as the Listing-1 requantization chain does.
#[must_use]
pub fn cast(x: &Tensor, to: DType) -> Tensor {
    cast_owned(x.clone(), to)
}

/// [`cast`] reusing `x`'s storage.
pub(crate) fn cast_owned(x: Tensor, to: DType) -> Tensor {
    let dims = x.shape().dims().to_vec();
    Tensor::new(to, &dims, x.into_data())
        .expect("cast requires values narrowed into the target range")
}

/// Rectified linear unit.
#[must_use]
pub fn relu(x: &Tensor) -> Tensor {
    relu_owned(x.clone())
}

/// [`relu`] rewriting `x` itself.
pub(crate) fn relu_owned(mut x: Tensor) -> Tensor {
    for v in x.data_mut() {
        *v = (*v).max(0);
    }
    x
}

/// Element-wise addition, widening to `i32` (residual connections).
///
/// # Panics
///
/// Panics if shapes differ.
#[must_use]
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape(), b.shape(), "add requires matching shapes");
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| x.wrapping_add(y))
        .collect();
    Tensor::new(DType::I32, a.shape().dims(), data).expect("i32 add cannot overflow range")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(dims: &[usize], data: Vec<i32>) -> Tensor {
        Tensor::new(DType::I32, dims, data).unwrap()
    }

    #[test]
    fn bias_add_broadcasts_over_spatial() {
        let x = t(&[2, 1, 2], vec![1, 2, 3, 4]);
        let b = t(&[2], vec![10, -10]);
        let y = bias_add(&x, &b);
        assert_eq!(y.data(), &[11, 12, -7, -6]);
    }

    #[test]
    fn bias_add_rank1() {
        let x = t(&[3], vec![1, 2, 3]);
        let b = t(&[3], vec![1, 1, 1]);
        assert_eq!(bias_add(&x, &b).data(), &[2, 3, 4]);
    }

    #[test]
    fn shift_is_arithmetic() {
        let x = t(&[2], vec![-7, 7]);
        // Rust's >> on i32 is arithmetic: -7 >> 1 == -4 (floor).
        assert_eq!(right_shift(&x, 1).data(), &[-4, 3]);
    }

    #[test]
    fn clip_then_cast_narrows() {
        let x = t(&[3], vec![-300, 5, 300]);
        let y = cast(&clip(&x, -128, 127), DType::I8);
        assert_eq!(y.dtype(), DType::I8);
        assert_eq!(y.data(), &[-128, 5, 127]);
    }

    #[test]
    #[should_panic(expected = "narrowed into the target range")]
    fn cast_without_clip_panics() {
        let x = t(&[1], vec![300]);
        let _ = cast(&x, DType::I8);
    }

    #[test]
    fn relu_zeroes_negatives() {
        let x = t(&[4], vec![-2, -1, 0, 3]);
        assert_eq!(relu(&x).data(), &[0, 0, 0, 3]);
    }

    #[test]
    fn epilogue_matches_unfused_chain() {
        let acc = t(&[3, 2, 2], (0..12).map(|v| v * 97 - 500).collect());
        let b = t(&[3], vec![40, -260, 1000]);
        for (shift, act) in [(0u32, false), (2, true), (5, false), (5, true)] {
            let mut want = bias_add(&acc, &b);
            want = right_shift(&want, shift);
            want = cast(&clip(&want, -128, 127), DType::I8);
            if act {
                want = relu(&want);
            }
            let got = accel_epilogue(acc.clone(), Some(&b), shift, act);
            assert_eq!(got, want, "shift {shift} relu {act}");
        }
    }

    #[test]
    fn epilogue_without_bias() {
        let acc = t(&[2, 2], vec![300, -300, 64, -64]);
        let got = accel_epilogue(acc.clone(), None, 1, false);
        let want = cast(&clip(&right_shift(&acc, 1), -128, 127), DType::I8);
        assert_eq!(got, want);
    }

    #[test]
    fn add_widens() {
        let a = Tensor::new(DType::I8, &[2], vec![100, -100]).unwrap();
        let b = Tensor::new(DType::I8, &[2], vec![100, -100]).unwrap();
        let y = add(&a, &b);
        assert_eq!(y.dtype(), DType::I32);
        assert_eq!(y.data(), &[200, -200]);
    }
}
