//! Ergonomic graph construction.

use crate::infer::infer;
use crate::{
    DType, Graph, IrError, Node, NodeId, NodeKind, Op, Padding2d, PoolKind, Shape, Tensor,
};

/// Incrementally builds a [`Graph`], running shape/type inference at each
/// step so errors surface at the offending call.
///
/// Every graph it finishes is well-formed: operands precede their users,
/// every node's shape and dtype are inferred, every constant is in its
/// dtype's range (see [`GraphBuilder::constant`]), and every narrowing
/// cast is proven in range (see [`GraphBuilder::cast`]). Passes and the
/// compiler rely on this and do not re-verify.
///
/// # Examples
///
/// ```
/// use htvm_ir::{DType, GraphBuilder, Tensor};
/// # fn main() -> Result<(), htvm_ir::IrError> {
/// let mut b = GraphBuilder::new();
/// let x = b.input("x", &[4], DType::I32);
/// let y = b.relu(x)?;
/// let graph = b.finish(&[y])?;
/// assert_eq!(graph.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    /// The first out-of-range constant, reported by [`GraphBuilder::finish`].
    bad_constant: Option<IrError>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an external input.
    pub fn input(&mut self, name: &str, dims: &[usize], dtype: DType) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_owned(),
            kind: NodeKind::Input,
            shape: Shape::new(dims),
            dtype,
        });
        self.inputs.push(id);
        id
    }

    /// Embeds a constant tensor (weights, biases).
    ///
    /// A tensor written through [`Tensor::data_mut`] or [`Tensor::set`]
    /// since it was built is range-checked here, once; any other tensor
    /// is in range by construction and is not scanned. An out-of-range
    /// element makes [`GraphBuilder::finish`] fail.
    pub fn constant(&mut self, name: &str, mut tensor: Tensor) -> NodeId {
        if let Err(e) = tensor.ensure_checked() {
            self.bad_constant.get_or_insert(e);
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_owned(),
            shape: tensor.shape().clone(),
            dtype: tensor.dtype(),
            kind: NodeKind::Constant(tensor),
        });
        id
    }

    /// Applies an arbitrary operator; the typed helpers below are usually
    /// more convenient.
    ///
    /// # Errors
    ///
    /// Returns an error if an operand id is unknown or inference rejects the
    /// operand types (see [`IrError`]).
    pub fn apply(&mut self, op: Op, inputs: &[NodeId]) -> Result<NodeId, IrError> {
        let name = format!("{}_{}", op.name().replace('.', "_"), self.nodes.len());
        self.push_op(op, inputs, name)
    }

    /// [`GraphBuilder::apply`] with an explicit node name instead of the
    /// auto-generated `op_id` one. Deserializers (the model-file
    /// front-end) use this to reconstruct a graph whose node names — and
    /// therefore its canonical encoding — match the original exactly.
    ///
    /// # Errors
    ///
    /// Returns an error if an operand id is unknown or inference rejects
    /// the operand types (see [`IrError`]).
    pub fn apply_named(
        &mut self,
        op: Op,
        inputs: &[NodeId],
        name: &str,
    ) -> Result<NodeId, IrError> {
        self.push_op(op, inputs, name.to_owned())
    }

    /// Infers `op` over `inputs` and appends it under its final `name`.
    fn push_op(&mut self, op: Op, inputs: &[NodeId], name: String) -> Result<NodeId, IrError> {
        let mut operands = Vec::with_capacity(inputs.len());
        for &i in inputs {
            let n = self.nodes.get(i.0).ok_or(IrError::UnknownNode(i.0))?;
            operands.push((&n.shape, n.dtype));
        }
        let inferred = infer(&op, &operands)?;
        let id = NodeId(self.nodes.len());
        if let Op::Cast { to } = op {
            crate::passes::prove_narrowing(id.0, &self.nodes[inputs[0].0], to)?;
        }
        self.nodes.push(Node {
            name,
            kind: NodeKind::Op {
                op,
                inputs: inputs.to_vec(),
            },
            shape: inferred.shape,
            dtype: inferred.dtype,
        });
        Ok(id)
    }

    /// Dtype of an already-built node (useful mid-construction).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownNode`] for a foreign id.
    pub fn dtype_of(&self, id: NodeId) -> Result<DType, IrError> {
        self.nodes
            .get(id.0)
            .map(|n| n.dtype)
            .ok_or(IrError::UnknownNode(id.0))
    }

    /// 2-D convolution. `padding` is `(top, bottom, left, right)`.
    ///
    /// # Errors
    ///
    /// Propagates inference failures (rank/channel/window mismatches).
    pub fn conv2d(
        &mut self,
        x: NodeId,
        w: NodeId,
        strides: (usize, usize),
        padding: impl Into<Padding2d>,
    ) -> Result<NodeId, IrError> {
        self.apply(
            Op::Conv2d {
                strides,
                padding: padding.into(),
            },
            &[x, w],
        )
    }

    /// Depthwise 2-D convolution.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn depthwise_conv2d(
        &mut self,
        x: NodeId,
        w: NodeId,
        strides: (usize, usize),
        padding: impl Into<Padding2d>,
    ) -> Result<NodeId, IrError> {
        self.apply(
            Op::DepthwiseConv2d {
                strides,
                padding: padding.into(),
            },
            &[x, w],
        )
    }

    /// Fully-connected layer.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn dense(&mut self, x: NodeId, w: NodeId) -> Result<NodeId, IrError> {
        self.apply(Op::Dense, &[x, w])
    }

    /// Per-channel bias addition.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn bias_add(&mut self, x: NodeId, bias: NodeId) -> Result<NodeId, IrError> {
        self.apply(Op::BiasAdd, &[x, bias])
    }

    /// Arithmetic right shift (requantization).
    ///
    /// # Errors
    ///
    /// Propagates inference failures (e.g. shift amount > 31).
    pub fn right_shift(&mut self, x: NodeId, amount: u32) -> Result<NodeId, IrError> {
        self.apply(Op::RightShift { amount }, &[x])
    }

    /// Clamp elements into `[min, max]`.
    ///
    /// # Errors
    ///
    /// Propagates inference failures (e.g. `min > max`).
    pub fn clip(&mut self, x: NodeId, min: i32, max: i32) -> Result<NodeId, IrError> {
        self.apply(Op::Clip { min, max }, &[x])
    }

    /// Narrow or widen the element dtype.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnprovenNarrowing`] unless `x`'s values are
    /// proven to fit `to`: its dtype fits, or it is a `clip` into `to`'s
    /// range, or it is a constant whose elements all fit.
    pub fn cast(&mut self, x: NodeId, to: DType) -> Result<NodeId, IrError> {
        self.apply(Op::Cast { to }, &[x])
    }

    /// Rectified linear unit.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn relu(&mut self, x: NodeId) -> Result<NodeId, IrError> {
        self.apply(Op::Relu, &[x])
    }

    /// Element-wise addition (residual connections); widens to `i32`.
    ///
    /// # Errors
    ///
    /// Propagates inference failures (shape/dtype mismatch).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, IrError> {
        self.apply(Op::Add, &[a, b])
    }

    /// 2-D pooling.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn pool2d(
        &mut self,
        x: NodeId,
        kind: PoolKind,
        kernel: (usize, usize),
        strides: (usize, usize),
        padding: impl Into<Padding2d>,
    ) -> Result<NodeId, IrError> {
        self.apply(
            Op::Pool2d {
                kind,
                kernel,
                strides,
                padding: padding.into(),
            },
            &[x],
        )
    }

    /// Global average pooling: one average per channel.
    ///
    /// # Errors
    ///
    /// Propagates inference failures (input must be rank-3).
    pub fn global_avg_pool(&mut self, x: NodeId) -> Result<NodeId, IrError> {
        let n = self.nodes.get(x.0).ok_or(IrError::UnknownNode(x.0))?;
        if n.shape.rank() != 3 {
            return Err(IrError::BadOperand {
                op: "nn.pool2d",
                expected: "rank-3 input [C,H,W]".into(),
                got: n.shape.clone(),
            });
        }
        let (h, w) = (n.shape.dims()[1], n.shape.dims()[2]);
        self.pool2d(x, PoolKind::Avg, (h, w), (1, 1), (0, 0, 0, 0))
    }

    /// Batched integer matrix multiply: `a: [H,M,D]` × `b: [H,D,N]`
    /// (`[H,N,D]` when `transpose_b`) → `[H,M,N]` in `i32`.
    ///
    /// # Errors
    ///
    /// Propagates inference failures (rank/batch/reduction mismatch).
    pub fn matmul(&mut self, a: NodeId, b: NodeId, transpose_b: bool) -> Result<NodeId, IrError> {
        self.apply(Op::MatMul { transpose_b }, &[a, b])
    }

    /// Integer layer normalization over the last dimension.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn layer_norm(&mut self, x: NodeId) -> Result<NodeId, IrError> {
        self.apply(Op::LayerNorm, &[x])
    }

    /// Softmax over the last dimension.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn softmax(&mut self, x: NodeId) -> Result<NodeId, IrError> {
        self.apply(Op::Softmax, &[x])
    }

    /// Reshape to new dimensions (same element count).
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn reshape(&mut self, x: NodeId, new_shape: &[usize]) -> Result<NodeId, IrError> {
        self.apply(
            Op::Reshape {
                new_shape: new_shape.to_vec(),
            },
            &[x],
        )
    }

    /// Flatten to rank-1.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn flatten(&mut self, x: NodeId) -> Result<NodeId, IrError> {
        self.apply(Op::Flatten, &[x])
    }

    /// Appends the standard requantization tail from Listing 1 of the paper:
    /// `right_shift → clip(i8 range) → cast(i8)`, optionally followed by a
    /// ReLU.
    ///
    /// # Errors
    ///
    /// Propagates inference failures.
    pub fn requantize(&mut self, x: NodeId, shift: u32, relu: bool) -> Result<NodeId, IrError> {
        let s = self.right_shift(x, shift)?;
        let c = self.clip(s, -128, 127)?;
        let c = self.cast(c, DType::I8)?;
        if relu {
            self.relu(c)
        } else {
            Ok(c)
        }
    }

    /// Shape of an already-built node (useful mid-construction).
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownNode`] for a foreign id.
    pub fn shape_of(&self, id: NodeId) -> Result<&Shape, IrError> {
        self.nodes
            .get(id.0)
            .map(|n| &n.shape)
            .ok_or(IrError::UnknownNode(id.0))
    }

    /// Finalizes the graph with the given outputs.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ValueOutOfRange`] for the first constant holding
    /// an element outside its dtype, [`IrError::EmptyGraph`] if there are
    /// no nodes or outputs, or [`IrError::UnknownNode`] for a foreign
    /// output id.
    pub fn finish(self, outputs: &[NodeId]) -> Result<Graph, IrError> {
        if let Some(e) = self.bad_constant {
            return Err(e);
        }
        if self.nodes.is_empty() || outputs.is_empty() {
            return Err(IrError::EmptyGraph);
        }
        for o in outputs {
            if o.0 >= self.nodes.len() {
                return Err(IrError::UnknownNode(o.0));
            }
        }
        Ok(Graph {
            nodes: self.nodes,
            inputs: self.inputs,
            outputs: outputs.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requantize_chain_shapes() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[8, 4, 3, 3]));
        let bias = b.constant("b", Tensor::zeros(DType::I32, &[8]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let c = b.bias_add(c, bias).unwrap();
        let q = b.requantize(c, 7, true).unwrap();
        let g = b.finish(&[q]).unwrap();
        let out = g.node(q);
        assert_eq!(out.dtype, DType::I8);
        assert_eq!(out.shape.dims(), &[8, 8, 8]);
        // conv(i32) -> bias(i32) -> shift -> clip -> cast -> relu
        assert_eq!(g.len(), 3 + 6);
    }

    #[test]
    fn finish_rejects_empty() {
        let b = GraphBuilder::new();
        assert!(matches!(b.finish(&[]), Err(IrError::EmptyGraph)));
    }

    #[test]
    fn finish_rejects_foreign_output() {
        let mut b = GraphBuilder::new();
        let _ = b.input("x", &[1], DType::I8);
        assert!(matches!(
            b.finish(&[NodeId(99)]),
            Err(IrError::UnknownNode(99))
        ));
    }

    #[test]
    fn global_avg_pool_collapses_spatial() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[16, 4, 4], DType::I8);
        let p = b.global_avg_pool(x).unwrap();
        assert_eq!(b.shape_of(p).unwrap().dims(), &[16, 1, 1]);
    }

    #[test]
    fn a_constant_written_out_of_range_is_refused_once_and_for_all() {
        let mut bad = Tensor::zeros(DType::I8, &[4]);
        bad.data_mut()[0] = 300;
        let values = bad.data().to_vec();
        let copy = bad.clone();
        for tensor in [bad, copy] {
            let mut b = GraphBuilder::new();
            let c = b.constant("w", tensor);
            assert_eq!(
                b.finish(&[c]),
                Err(IrError::ValueOutOfRange {
                    value: 300,
                    dtype: DType::I8
                })
            );
        }
        // The same values as an `I32` tensor are in range.
        let mut b = GraphBuilder::new();
        let c = b.constant("w", Tensor::new(DType::I32, &[4], values).unwrap());
        assert!(b.finish(&[c]).is_ok());
        // A write that stays in range is accepted.
        let mut fine = Tensor::zeros(DType::I8, &[4]);
        fine.set(&[1], -128);
        let mut b = GraphBuilder::new();
        let c = b.constant("w", fine);
        let g = b.finish(&[c]).unwrap();
        assert_eq!(g.node(c).constant().unwrap().data(), &[0, -128, 0, 0]);
    }

    #[test]
    fn apply_rejects_unknown_operand() {
        let mut b = GraphBuilder::new();
        assert!(matches!(b.relu(NodeId(3)), Err(IrError::UnknownNode(3))));
    }
}
