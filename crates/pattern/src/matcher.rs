//! Rooted pattern matching.

use crate::Pattern;
use htvm_ir::{Graph, NodeId, NodeKind};

/// The result of a successful rooted match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// The node the pattern was rooted at (the region's single output).
    pub root: NodeId,
    /// All op nodes consumed by the match, root included, in match order
    /// (outermost first).
    pub ops: Vec<NodeId>,
    /// Nodes bound by `wildcard()` — the region's external data inputs, in
    /// pattern order.
    pub inputs: Vec<NodeId>,
    /// Nodes bound by `is_constant()` — parameters captured into the region,
    /// in pattern order.
    pub constants: Vec<NodeId>,
}

impl Match {
    /// Returns `true` if `id` is one of the matched op nodes.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.ops.contains(&id)
    }
}

/// Attempts to match `pattern` rooted at node `root` of `graph`.
///
/// Returns `None` if the structure does not match. Matching is purely
/// structural and local; whether the match may be *extracted* as a region
/// (no interior value escapes) is checked by
/// [`partition`](crate::partition).
///
/// # Examples
///
/// ```
/// use htvm_ir::{DType, GraphBuilder, Tensor};
/// use htvm_pattern::{is_constant, is_op, match_at, wildcard};
///
/// # fn main() -> Result<(), htvm_ir::IrError> {
/// let mut b = GraphBuilder::new();
/// let x = b.input("x", &[4], DType::I8);
/// let w = b.constant("w", Tensor::zeros(DType::I8, &[2, 4]));
/// let d = b.dense(x, w)?;
/// let g = b.finish(&[d])?;
/// let p = is_op("nn.dense", vec![wildcard(), is_constant()]);
/// let m = match_at(&g, &p, d).expect("dense matches");
/// assert_eq!(m.inputs, vec![x]);
/// assert_eq!(m.constants, vec![w]);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn match_at(graph: &Graph, pattern: &Pattern, root: NodeId) -> Option<Match> {
    let mut m = Match {
        root,
        ops: Vec::new(),
        inputs: Vec::new(),
        constants: Vec::new(),
    };
    if match_rec(graph, pattern, root, &mut m) {
        Some(m)
    } else {
        None
    }
}

fn match_rec(graph: &Graph, pattern: &Pattern, node: NodeId, m: &mut Match) -> bool {
    match pattern {
        Pattern::Wildcard => {
            m.inputs.push(node);
            true
        }
        Pattern::Constant => {
            if graph.node(node).is_constant() {
                m.constants.push(node);
                true
            } else {
                false
            }
        }
        Pattern::Op { name, args } => {
            let n = graph.node(node);
            let NodeKind::Op { op, inputs } = &n.kind else {
                return false;
            };
            if op.name() != name || inputs.len() != args.len() {
                return false;
            }
            m.ops.push(node);
            args.iter()
                .zip(inputs)
                .all(|(p, &arg)| match_rec(graph, p, arg, m))
        }
        Pattern::Optional { inner, op_name } => {
            // Try the wrapped form first (prefer the longer match).
            let n = graph.node(node);
            if let NodeKind::Op { op, inputs } = &n.kind {
                if op.name() == op_name && inputs.len() == 1 {
                    let checkpoint = (m.ops.len(), m.inputs.len(), m.constants.len());
                    m.ops.push(node);
                    if match_rec(graph, inner, inputs[0], m) {
                        return true;
                    }
                    // Roll back the speculative wrapper and retry unwrapped.
                    m.ops.truncate(checkpoint.0);
                    m.inputs.truncate(checkpoint.1);
                    m.constants.truncate(checkpoint.2);
                }
            }
            match_rec(graph, inner, node, m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{is_constant, is_op, wildcard};
    use htvm_ir::{DType, GraphBuilder, Tensor};

    /// Builds conv→bias→shift→clip→cast(→relu) and returns (graph, last id).
    fn conv_chain(relu: bool) -> (Graph, NodeId) {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[3, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 3, 3, 3]));
        let bias = b.constant("b", Tensor::zeros(DType::I32, &[4]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let c = b.bias_add(c, bias).unwrap();
        let out = b.requantize(c, 7, relu).unwrap();
        (b.finish(&[out]).unwrap(), out)
    }

    fn listing1_pattern() -> Pattern {
        let conv2d = is_op("nn.conv2d", vec![wildcard(), is_constant()]);
        let bias_add = is_op("nn.bias_add", vec![conv2d, is_constant()]);
        let right_shift = is_op("right_shift", vec![bias_add]);
        let clip = is_op("clip", vec![right_shift]);
        is_op("cast", vec![clip]).optional("nn.relu")
    }

    #[test]
    fn matches_with_relu() {
        let (g, root) = conv_chain(true);
        let m = match_at(&g, &listing1_pattern(), root).expect("chain matches");
        assert_eq!(m.ops.len(), 6); // relu, cast, clip, shift, bias, conv
        assert_eq!(m.inputs.len(), 1);
        assert_eq!(m.constants.len(), 2);
        assert_eq!(m.root, root);
    }

    #[test]
    fn matches_without_relu() {
        let (g, root) = conv_chain(false);
        let m = match_at(&g, &listing1_pattern(), root).expect("chain matches");
        assert_eq!(m.ops.len(), 5);
    }

    #[test]
    fn wrong_root_rejects() {
        let (g, root) = conv_chain(true);
        // Root the pattern one node too early (at the cast, not the relu).
        let inner_root = match &g.node(root).kind {
            htvm_ir::NodeKind::Op { inputs, .. } => inputs[0],
            _ => unreachable!(),
        };
        // The full (non-optional) relu-rooted pattern cannot match at cast.
        let conv2d = is_op("nn.conv2d", vec![wildcard(), is_constant()]);
        let p = is_op("nn.relu", vec![conv2d]);
        assert!(match_at(&g, &p, inner_root).is_none());
    }

    #[test]
    fn constant_pattern_requires_constant() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4], DType::I8);
        let y = b.input("w", &[2, 4], DType::I8);
        let d = b.dense(x, y).unwrap();
        let g = b.finish(&[d]).unwrap();
        let p = is_op("nn.dense", vec![wildcard(), is_constant()]);
        assert!(match_at(&g, &p, d).is_none());
        let p2 = is_op("nn.dense", vec![wildcard(), wildcard()]);
        assert!(match_at(&g, &p2, d).is_some());
    }

    #[test]
    fn optional_backtracking_restores_state() {
        // relu(relu(x)): pattern optional(relu)(relu(*)) must match both and
        // prefer consuming the outer relu.
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[2], DType::I32);
        let r1 = b.relu(x).unwrap();
        let r2 = b.relu(r1).unwrap();
        let g = b.finish(&[r2]).unwrap();
        let p = is_op("nn.relu", vec![wildcard()]).optional("nn.relu");
        let m = match_at(&g, &p, r2).unwrap();
        assert_eq!(m.ops, vec![r2, r1]);
        assert_eq!(m.inputs, vec![x]);
    }
}
