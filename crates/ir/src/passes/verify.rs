//! Structural graph verification.

use crate::infer::infer;
use crate::{DType, Graph, IrError, Node, NodeKind, Op, Tensor};

/// Checks structural well-formedness of a graph:
///
/// - every operand id refers to an *earlier* node (topological/SSA order,
///   which also rules out cycles),
/// - every output id is in range,
/// - re-running inference on every op reproduces the stored shape/dtype,
/// - every constant's payload matches its declared shape/dtype, and every
///   element fits that dtype,
/// - every narrowing cast is proven in range (see [`IrError::UnprovenNarrowing`]).
///
/// Every [`Graph`] value already satisfies this — the builder, the passes
/// and deserialization only produce well-formed graphs — so the compiler
/// calls it only in a debug assertion. It re-scans every constant
/// payload.
///
/// # Errors
///
/// Returns the first violation found as an [`IrError`].
///
/// # Examples
///
/// ```
/// use htvm_ir::{DType, GraphBuilder, passes::verify};
/// # fn main() -> Result<(), htvm_ir::IrError> {
/// let mut b = GraphBuilder::new();
/// let x = b.input("x", &[4], DType::I32);
/// let y = b.relu(x)?;
/// let g = b.finish(&[y])?;
/// verify(&g)?;
/// # Ok(())
/// # }
/// ```
pub fn verify(graph: &Graph) -> Result<(), IrError> {
    verify_structure(graph)?;
    graph
        .nodes()
        .filter_map(|(_, node)| node.constant())
        .try_for_each(Tensor::validate)
}

/// [`verify`] without the payload range scan, for a graph whose
/// constants are each in range by construction (deserialization).
pub(crate) fn verify_structure(graph: &Graph) -> Result<(), IrError> {
    if graph.is_empty() || graph.outputs().is_empty() {
        return Err(IrError::EmptyGraph);
    }
    for (id, node) in graph.nodes() {
        match &node.kind {
            NodeKind::Input => {}
            NodeKind::Constant(t) => {
                if t.shape() != &node.shape || t.dtype() != node.dtype {
                    return Err(IrError::ShapeMismatch {
                        expected: node.shape.num_elements(),
                        got: t.shape().num_elements(),
                    });
                }
            }
            NodeKind::Op { op, inputs } => {
                let mut operands = Vec::with_capacity(inputs.len());
                for &i in inputs {
                    if i.0 >= id.0 {
                        return Err(IrError::NotADag);
                    }
                    let n = graph.try_node(i)?;
                    operands.push((&n.shape, n.dtype));
                }
                let inferred = infer(op, &operands)?;
                if inferred.shape != node.shape || inferred.dtype != node.dtype {
                    return Err(IrError::ShapeMismatch {
                        expected: inferred.shape.num_elements(),
                        got: node.shape.num_elements(),
                    });
                }
                if let Op::Cast { to } = op {
                    prove_narrowing(id.0, graph.node(inputs[0]), *to)?;
                }
            }
        }
    }
    for &o in graph.outputs() {
        graph.try_node(o)?;
    }
    Ok(())
}

/// The rule every built graph keeps: a cast (node `node`) of `operand`
/// to `to` is accepted only when the operand's values are proven to fit
/// `to` — its dtype fits, or it is a `clip` whose bounds lie inside
/// `to`'s range, or it is a constant whose elements all fit. So no
/// graph the builder, the importer or the deserializer accepts makes
/// the cast kernel meet a value it cannot hold.
pub(crate) fn prove_narrowing(node: usize, operand: &Node, to: DType) -> Result<(), IrError> {
    let (mut lo, mut hi) = operand.dtype.range();
    match &operand.kind {
        NodeKind::Op {
            op: Op::Clip { min, max },
            ..
        } => (lo, hi) = (lo.max(*min), hi.min(*max)),
        NodeKind::Constant(t) => {
            lo = t.data().iter().copied().min().unwrap_or(0);
            hi = t.data().iter().copied().max().unwrap_or(0);
        }
        _ => {}
    }
    if to.contains(lo) && to.contains(hi) {
        Ok(())
    } else {
        Err(IrError::UnprovenNarrowing { node, lo, hi, to })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, GraphBuilder, Tensor};

    #[test]
    fn builder_graphs_verify() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[3, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 3, 3, 3]));
        let c = b.conv2d(x, w, (1, 1), (0, 0, 0, 0)).unwrap();
        let q = b.requantize(c, 6, true).unwrap();
        let g = b.finish(&[q]).unwrap();
        verify(&g).unwrap();
    }

    #[test]
    fn detects_forward_reference() {
        use crate::{Node, NodeId, NodeKind, Op, Shape};
        // Hand-construct a malformed graph: node 0 references node 1.
        let g = Graph {
            nodes: vec![
                Node {
                    name: "bad".into(),
                    kind: NodeKind::Op {
                        op: Op::Relu,
                        inputs: vec![NodeId(1)],
                    },
                    shape: Shape::new(&[1]),
                    dtype: DType::I8,
                },
                Node {
                    name: "x".into(),
                    kind: NodeKind::Input,
                    shape: Shape::new(&[1]),
                    dtype: DType::I8,
                },
            ],
            inputs: vec![NodeId(1)],
            outputs: vec![NodeId(0)],
        };
        assert_eq!(verify(&g), Err(IrError::NotADag));
    }

    #[test]
    fn detects_stale_shape() {
        use crate::{NodeKind, Shape};
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4], DType::I32);
        let y = b.relu(x).unwrap();
        let mut g = b.finish(&[y]).unwrap();
        // Corrupt the stored shape.
        g.nodes[y.index()].shape = Shape::new(&[5]);
        assert!(matches!(g.nodes[y.index()].kind, NodeKind::Op { .. }));
        assert!(verify(&g).is_err());
    }

    #[test]
    fn refuses_a_cast_not_proven_in_range() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4], DType::I32);
        let c = b.clip(x, -1000, 1000).unwrap();
        let y = b.cast(c, DType::I16).unwrap();
        let mut g = b.finish(&[y]).unwrap();
        verify(&g).unwrap();
        // What a deserialized graph could say: the same cast, to i8.
        g.nodes[y.index()].kind = NodeKind::Op {
            op: Op::Cast { to: DType::I8 },
            inputs: vec![c],
        };
        g.nodes[y.index()].dtype = DType::I8;
        let refused = IrError::UnprovenNarrowing {
            node: y.index(),
            lo: -1000,
            hi: 1000,
            to: DType::I8,
        };
        assert_eq!(verify(&g), Err(refused));
    }
}
