//! Functional reference kernels for quantized DNN inference.
//!
//! These kernels define the *semantics* of every operator in
//! [`htvm_ir`]: plain, obviously-correct integer implementations used
//!
//! 1. by the reference graph interpreter ([`evaluate`]) that provides the
//!    golden output for every compiled deployment, and
//! 2. by the SoC simulator's tile executor, which runs the *same* arithmetic
//!    over tile sub-ranges so that tiled, accelerated execution can be
//!    checked **bit-exact** against the untiled reference.
//!
//! All activations use the `[C, H, W]` layout; see [`htvm_ir::Shape`].
//!
//! Each op has one fast body and, where that body is not the plain loop
//! nest, one `_ref` oracle beside it; the caller picks by function name
//! and nothing else selects. One integer microkernel serves the
//! reductions that reuse an operand: operands are narrowed to `i16` rows
//! in a thread-local arena and every output is a `pmaddwd`-shaped dot
//! product of two rows. [`matmul_accumulate_region`] packs both operands
//! per head; [`conv2d_accumulate`] packs its weight rows and a
//! patch-major im2col matrix per call. A value that does not fit `i16`
//! sends the call (or head) to its `_ref` twin. [`dense_accumulate`]
//! reads each weight once, so it stays one `i32` dot product per neuron;
//! [`depthwise_conv2d_region`] adds in-bounds tap spans; [`softmax`]
//! reads `exp` from a table that `f64::exp` filled and selects, rather
//! than sorts, its largest remainders. Every fast body is bit-identical
//! to the plain loops — only wall time differs.
//!
//! # Examples
//!
//! ```
//! use htvm_ir::{DType, GraphBuilder, Tensor};
//! use htvm_kernels::evaluate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new();
//! let x = b.input("x", &[3], DType::I32);
//! let y = b.relu(x)?;
//! let g = b.finish(&[y])?;
//! let input = Tensor::new(DType::I32, &[3], vec![-1, 0, 5])?;
//! let out = evaluate(&g, &[input])?;
//! assert_eq!(out[0].data(), &[0, 0, 5]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod dense;
mod elementwise;
mod error;
mod exec;
mod im2col;
mod layer_norm;
mod matmul;
mod packed;
mod pool;
mod scratch;
mod softmax;

pub use conv::{
    conv2d, conv2d_accumulate, conv2d_accumulate_ref, depthwise_conv2d, depthwise_conv2d_region,
    depthwise_conv2d_region_ref,
};
pub use dense::{dense, dense_accumulate, dense_accumulate_ref};
pub use elementwise::{accel_epilogue, add, bias_add, cast, clip, relu, right_shift};
pub use error::EvalError;
pub use exec::{evaluate, evaluate_refs};
pub use layer_norm::layer_norm;
pub use matmul::{matmul, matmul_accumulate_region, matmul_accumulate_region_ref};
pub use pool::pool2d;
pub use softmax::softmax;

/// Integer division rounding half away from zero; used by average pooling.
#[must_use]
pub fn round_div(num: i64, den: i64) -> i64 {
    debug_assert!(den > 0, "round_div requires a positive divisor");
    if num >= 0 {
        (num + den / 2) / den
    } else {
        -((-num + den / 2) / den)
    }
}

#[cfg(test)]
mod tests {
    use super::round_div;

    #[test]
    fn round_div_half_away_from_zero() {
        assert_eq!(round_div(5, 2), 3);
        assert_eq!(round_div(-5, 2), -3);
        assert_eq!(round_div(4, 2), 2);
        assert_eq!(round_div(1, 3), 0);
        assert_eq!(round_div(-1, 3), 0);
        assert_eq!(round_div(2, 3), 1);
        assert_eq!(round_div(0, 7), 0);
    }
}
