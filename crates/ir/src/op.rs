//! The quantized operator set.

use crate::DType;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Explicit 2-D zero padding `(top, bottom, left, right)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Padding2d {
    /// Rows of zero padding above the input.
    pub top: usize,
    /// Rows of zero padding below the input.
    pub bottom: usize,
    /// Columns of zero padding left of the input.
    pub left: usize,
    /// Columns of zero padding right of the input.
    pub right: usize,
}

impl Padding2d {
    /// Creates a padding spec from `(top, bottom, left, right)`.
    #[must_use]
    pub fn new(top: usize, bottom: usize, left: usize, right: usize) -> Self {
        Padding2d {
            top,
            bottom,
            left,
            right,
        }
    }

    /// Symmetric padding of `p` on every edge.
    #[must_use]
    pub fn same(p: usize) -> Self {
        Padding2d::new(p, p, p, p)
    }
}

impl From<(usize, usize, usize, usize)> for Padding2d {
    fn from((top, bottom, left, right): (usize, usize, usize, usize)) -> Self {
        Padding2d::new(top, bottom, left, right)
    }
}

/// Pooling flavor for [`Op::Pool2d`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    /// Average pooling (integer average with round-to-nearest).
    Avg,
    /// Max pooling.
    Max,
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PoolKind::Avg => "avg",
            PoolKind::Max => "max",
        })
    }
}

/// A dataflow operator.
///
/// The set mirrors what the MLPerf™ Tiny networks need after 8-bit / ternary
/// quantization, which is exactly the operator inventory discussed in the
/// HTVM paper: `(DW)Conv2D`, `FC` (dense), element-wise addition, average
/// pooling, softmax, and the re-quantization chain
/// `bias_add → right_shift → clip → cast (→ clip)` from Listing 1.
///
/// Operand order conventions (all activations are `[C, H, W]`):
///
/// - `Conv2d(x, w)` with `w: [K, C, Fy, Fx]`
/// - `DepthwiseConv2d(x, w)` with `w: [C, Fy, Fx]`
/// - `Dense(x, w)` with `x: [C]` (or flattened) and `w: [K, C]`
/// - `BiasAdd(x, b)` with `b: [K]` broadcast over spatial dims
/// - `Add(a, b)` element-wise with matching shapes
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum Op {
    /// 2-D convolution over `[C, H, W]` input with `[K, C, Fy, Fx]` weights.
    Conv2d {
        /// Stride `(sy, sx)`.
        strides: (usize, usize),
        /// Zero padding.
        padding: Padding2d,
    },
    /// Depthwise 2-D convolution with `[C, Fy, Fx]` weights.
    DepthwiseConv2d {
        /// Stride `(sy, sx)`.
        strides: (usize, usize),
        /// Zero padding.
        padding: Padding2d,
    },
    /// Fully-connected layer: `y[k] = Σ_c w[k, c] · x[c]`.
    Dense,
    /// Adds a per-channel `[K]` bias to a `[K, ...]` tensor.
    BiasAdd,
    /// Arithmetic right shift by a constant (requantization scale).
    RightShift {
        /// Shift amount in bits; must be in `0..=31`.
        amount: u32,
    },
    /// Clamp every element into `[min, max]`.
    Clip {
        /// Inclusive lower bound.
        min: i32,
        /// Inclusive upper bound.
        max: i32,
    },
    /// Narrow (or widen) the element dtype. Values must already fit.
    Cast {
        /// Target element type.
        to: DType,
    },
    /// Rectified linear unit (`max(x, 0)`).
    Relu,
    /// Element-wise addition of two tensors of identical shape (residual
    /// connections). Output keeps the accumulator dtype of the inputs.
    Add,
    /// 2-D pooling over `[C, H, W]`.
    Pool2d {
        /// Average or max pooling.
        kind: PoolKind,
        /// Window `(ky, kx)`.
        kernel: (usize, usize),
        /// Stride `(sy, sx)`.
        strides: (usize, usize),
        /// Zero padding.
        padding: Padding2d,
    },
    /// Batched integer matrix multiply over rank-3 operands (attention).
    ///
    /// `MatMul(a, b)` with `a: [H, M, D]` and `b: [H, D, N]` (or `[H, N, D]`
    /// when `transpose_b` is set, the QK^T form) produces `[H, M, N]` in the
    /// `i32` accumulator dtype. Unlike `Dense`, **both** operands are runtime
    /// activations, so the second operand is staged tile-by-tile like weight
    /// data but re-fetched per batch.
    MatMul {
        /// Treat `b` as `[H, N, D]` and reduce over its last axis.
        transpose_b: bool,
    },
    /// Integer layer normalization over the last dimension.
    ///
    /// Centers each row exactly in `i64` (`n·x_i − Σx`), scales by the
    /// integer square root of the variance, and re-quantizes into the input
    /// dtype's range. Shape- and dtype-preserving; always CPU-executed.
    LayerNorm,
    /// Softmax over the last dimension (executed on the CPU in all HTVM
    /// deployment configurations).
    Softmax,
    /// Reinterpret the element layout with a new shape (same element count).
    Reshape {
        /// Target dimensions.
        new_shape: Vec<usize>,
    },
    /// Flatten to a rank-1 tensor.
    Flatten,
}

impl Op {
    /// Stable operator name, mirroring Relay naming where a direct analogue
    /// exists (`nn.conv2d`, `nn.bias_add`, `right_shift`, `clip`, `cast`...).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Op::Conv2d { .. } => "nn.conv2d",
            Op::DepthwiseConv2d { .. } => "nn.depthwise_conv2d",
            Op::Dense => "nn.dense",
            Op::BiasAdd => "nn.bias_add",
            Op::RightShift { .. } => "right_shift",
            Op::Clip { .. } => "clip",
            Op::Cast { .. } => "cast",
            Op::Relu => "nn.relu",
            Op::Add => "add",
            Op::MatMul { .. } => "nn.matmul",
            Op::LayerNorm => "nn.layer_norm",
            Op::Pool2d { .. } => "nn.pool2d",
            Op::Softmax => "nn.softmax",
            Op::Reshape { .. } => "reshape",
            Op::Flatten => "nn.batch_flatten",
        }
    }

    /// Number of graph inputs the operator consumes.
    #[must_use]
    pub fn arity(&self) -> usize {
        match self {
            Op::Conv2d { .. }
            | Op::DepthwiseConv2d { .. }
            | Op::Dense
            | Op::BiasAdd
            | Op::Add
            | Op::MatMul { .. } => 2,
            _ => 1,
        }
    }

    /// Returns `true` for operators whose cost is dominated by
    /// multiply-accumulate work (the accelerator-eligible anchors).
    #[must_use]
    pub fn is_anchor(&self) -> bool {
        matches!(
            self,
            Op::Conv2d { .. } | Op::DepthwiseConv2d { .. } | Op::Dense | Op::MatMul { .. }
        )
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_arity() {
        let conv = Op::Conv2d {
            strides: (1, 1),
            padding: Padding2d::same(1),
        };
        assert_eq!(conv.name(), "nn.conv2d");
        assert_eq!(conv.arity(), 2);
        assert_eq!(Op::Relu.arity(), 1);
        assert_eq!(Op::Add.arity(), 2);
        assert!(conv.is_anchor());
        assert!(!Op::Softmax.is_anchor());
    }

    #[test]
    fn padding_helpers() {
        let p: Padding2d = (1, 2, 3, 4).into();
        assert_eq!(p, Padding2d::new(1, 2, 3, 4));
    }
}
