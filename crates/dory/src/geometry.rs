//! Layer geometry descriptions.

use htvm_ir::{DType, Padding2d};
use serde::{Deserialize, Serialize};

/// The kind of an accelerator-eligible layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Standard 2-D convolution (`[K,C,Fy,Fx]` weights).
    Conv2d,
    /// Depthwise 2-D convolution (`[C,Fy,Fx]` weights, `K == C`).
    DepthwiseConv2d,
    /// Fully-connected layer (`[K,C]` weights, no spatial dims).
    Dense,
    /// Element-wise residual addition (no weights; two inputs).
    Add,
    /// Batched integer matmul (attention). Both operands are runtime
    /// activations; the second is staged through the weight memory
    /// tile-by-tile like weight data, but re-fetched per batch.
    MatMul,
}

/// Geometry of one layer as seen by the tiler: the dimensions of the
/// paper's Eq. 1–5 (`C`, `K`, `i_x`, `i_y`, filter, strides, padding) plus
/// the operand precisions that determine byte sizes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerGeometry {
    /// Layer kind.
    pub kind: LayerKind,
    /// Input channels `C` (input features for dense).
    pub c: usize,
    /// Output channels `K` (output neurons for dense; equals `c` for
    /// depthwise and add).
    pub k: usize,
    /// Input width `i_x` (1 for dense).
    pub ix: usize,
    /// Input height `i_y` (1 for dense).
    pub iy: usize,
    /// Filter width `F_x` (1 for dense/add).
    pub fx: usize,
    /// Filter height `F_y` (1 for dense/add).
    pub fy: usize,
    /// Stride `(s_y, s_x)`.
    pub strides: (usize, usize),
    /// Zero padding.
    pub padding: Padding2d,
    /// Weight precision (`I8` for the digital accelerator, `Ternary` for
    /// the analog IMC array).
    pub w_dtype: DType,
    /// Activation precision (inputs and requantized outputs).
    pub act_dtype: DType,
    /// For [`LayerKind::MatMul`]: the second operand is `[H, N, D]`
    /// (reduced over its last axis) instead of `[H, D, N]`. Skipped when
    /// `false` so pre-matmul serialized geometries round-trip
    /// byte-identically.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub transpose_b: bool,
}

impl LayerGeometry {
    /// Convenience constructor for a standard convolution with `i8`
    /// weights and activations.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        c: usize,
        k: usize,
        iy: usize,
        ix: usize,
        fy: usize,
        fx: usize,
        strides: (usize, usize),
        padding: impl Into<Padding2d>,
    ) -> Self {
        LayerGeometry {
            kind: LayerKind::Conv2d,
            c,
            k,
            ix,
            iy,
            fx,
            fy,
            strides,
            padding: padding.into(),
            w_dtype: DType::I8,
            act_dtype: DType::I8,
            transpose_b: false,
        }
    }

    /// Convenience constructor for a depthwise convolution with `i8`
    /// weights and activations.
    #[must_use]
    pub fn depthwise(
        c: usize,
        iy: usize,
        ix: usize,
        fy: usize,
        fx: usize,
        strides: (usize, usize),
        padding: impl Into<Padding2d>,
    ) -> Self {
        LayerGeometry {
            kind: LayerKind::DepthwiseConv2d,
            c,
            k: c,
            ix,
            iy,
            fx,
            fy,
            strides,
            padding: padding.into(),
            w_dtype: DType::I8,
            act_dtype: DType::I8,
            transpose_b: false,
        }
    }

    /// Convenience constructor for a dense layer with `i8` weights and
    /// activations.
    #[must_use]
    pub fn dense(c: usize, k: usize) -> Self {
        LayerGeometry {
            kind: LayerKind::Dense,
            c,
            k,
            ix: 1,
            iy: 1,
            fx: 1,
            fy: 1,
            strides: (1, 1),
            padding: Padding2d::same(0),
            w_dtype: DType::I8,
            act_dtype: DType::I8,
            transpose_b: false,
        }
    }

    /// Convenience constructor for an element-wise residual addition over a
    /// `[C, H, W]` activation.
    #[must_use]
    pub fn add(c: usize, iy: usize, ix: usize) -> Self {
        LayerGeometry {
            kind: LayerKind::Add,
            c,
            k: c,
            ix,
            iy,
            fx: 1,
            fy: 1,
            strides: (1, 1),
            padding: Padding2d::same(0),
            w_dtype: DType::I8,
            act_dtype: DType::I8,
            transpose_b: false,
        }
    }

    /// Convenience constructor for a batched matmul of `[H, M, D]` against
    /// `[H, D, N]` (or `[H, N, D]` with `transpose_b`). In tiler terms the
    /// reduction `D` maps to `c`, the output columns `N` to `k`, the
    /// sequence rows `M` to `iy` (1×1 filter, so `oy == M`) and the batch
    /// `H` to `ix` — a rectangular sequence×head geometry with no spatial
    /// halo.
    #[must_use]
    pub fn matmul(d: usize, n: usize, m: usize, h: usize, transpose_b: bool) -> Self {
        LayerGeometry {
            kind: LayerKind::MatMul,
            c: d,
            k: n,
            ix: h,
            iy: m,
            fx: 1,
            fy: 1,
            strides: (1, 1),
            padding: Padding2d::same(0),
            w_dtype: DType::I8,
            act_dtype: DType::I8,
            transpose_b,
        }
    }

    /// Switches the weight precision (builder style).
    #[must_use]
    pub fn with_weight_dtype(mut self, dtype: DType) -> Self {
        self.w_dtype = dtype;
        self
    }

    /// Output height `o_y`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input.
    #[must_use]
    pub fn oy(&self) -> usize {
        out_dim(
            self.iy,
            self.fy,
            self.strides.0,
            self.padding.top,
            self.padding.bottom,
        )
    }

    /// Output width `o_x`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input.
    #[must_use]
    pub fn ox(&self) -> usize {
        out_dim(
            self.ix,
            self.fx,
            self.strides.1,
            self.padding.left,
            self.padding.right,
        )
    }

    /// Total multiply-accumulate operations of the layer (0 for add).
    #[must_use]
    pub fn macs(&self) -> u64 {
        let spatial = (self.oy() * self.ox()) as u64;
        match self.kind {
            LayerKind::Conv2d => (self.k * self.c * self.fy * self.fx) as u64 * spatial,
            LayerKind::DepthwiseConv2d => (self.c * self.fy * self.fx) as u64 * spatial,
            LayerKind::Dense => (self.k * self.c) as u64,
            LayerKind::Add => 0,
            // N·D per output row, M rows, H batches.
            LayerKind::MatMul => (self.k * self.c) as u64 * spatial,
        }
    }

    /// Number of weight elements (for matmul: the staged second operand).
    #[must_use]
    pub fn weight_elems(&self) -> usize {
        // The matmul b operand is [H, D, N] (either layout): one N×D slab
        // per batch, staged through the weight memory.
        crate::staged_weight_elems(self, self.k, self.c, self.ix)
    }

    /// Packed storage bytes of the full weight tensor.
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.w_dtype.storage_bytes(self.weight_elems())
    }

    /// Bytes of the full input activation.
    #[must_use]
    pub fn input_bytes(&self) -> usize {
        let n = self.c * self.iy * self.ix;
        let both = if self.kind == LayerKind::Add { 2 } else { 1 };
        self.act_dtype.storage_bytes(n) * both
    }

    /// Bytes of the full output activation.
    #[must_use]
    pub fn output_bytes(&self) -> usize {
        self.act_dtype.storage_bytes(self.k * self.oy() * self.ox())
    }
}

fn out_dim(input: usize, kernel: usize, stride: usize, lo: usize, hi: usize) -> usize {
    let padded = input + lo + hi;
    assert!(
        kernel > 0 && stride > 0 && padded >= kernel,
        "layer window does not fit padded input"
    );
    (padded - kernel) / stride + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_output_dims() {
        let g = LayerGeometry::conv2d(16, 32, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        assert_eq!((g.oy(), g.ox()), (32, 32));
        let g = LayerGeometry::conv2d(16, 32, 32, 32, 3, 3, (2, 2), (1, 1, 1, 1));
        assert_eq!((g.oy(), g.ox()), (16, 16));
    }

    #[test]
    fn macs_and_sizes() {
        let g = LayerGeometry::conv2d(16, 32, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        assert_eq!(g.macs(), 32 * 16 * 9 * 64);
        assert_eq!(g.weight_bytes(), 32 * 16 * 9);
        assert_eq!(g.input_bytes(), 16 * 64);
        assert_eq!(g.output_bytes(), 32 * 64);
    }

    #[test]
    fn ternary_weights_pack() {
        let g = LayerGeometry::conv2d(16, 32, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1))
            .with_weight_dtype(DType::Ternary);
        // 4608 elements * 2 bits = 1152 bytes.
        assert_eq!(g.weight_bytes(), 1152);
    }

    #[test]
    fn dense_is_spatial_free() {
        let g = LayerGeometry::dense(640, 128);
        assert_eq!((g.oy(), g.ox()), (1, 1));
        assert_eq!(g.macs(), 640 * 128);
        assert_eq!(g.weight_bytes(), 640 * 128);
    }

    #[test]
    fn add_has_two_inputs_no_weights() {
        let g = LayerGeometry::add(32, 8, 8);
        assert_eq!(g.macs(), 0);
        assert_eq!(g.weight_bytes(), 0);
        assert_eq!(g.input_bytes(), 2 * 32 * 64);
    }

    #[test]
    fn matmul_geometry_maps_attention_dims() {
        // [2, 128, 32] × [2, 32, 128]ᵀ-free: D=32, N=128, M=128, H=2.
        let g = LayerGeometry::matmul(32, 128, 128, 2, true);
        assert_eq!((g.oy(), g.ox()), (128, 2));
        assert_eq!(g.macs(), 128 * 32 * 128 * 2);
        assert_eq!(g.weight_bytes(), 128 * 32 * 2, "staged b operand");
        assert_eq!(g.input_bytes(), 32 * 128 * 2, "a operand only");
        assert_eq!(g.output_bytes(), 128 * 128 * 2);
        assert!(g.transpose_b);
    }

    #[test]
    fn depthwise_k_equals_c() {
        let g = LayerGeometry::depthwise(64, 25, 5, 3, 3, (1, 1), (1, 1, 1, 1));
        assert_eq!(g.k, 64);
        assert_eq!(g.macs(), 64 * 9 * 25 * 5);
    }
}
