//! Graph transformation and validation passes.
//!
//! These are the "initial optimizations" TVM performs on ingested Relay
//! graphs before pattern matching (the paper mentions constant folding
//! explicitly): [`verify`], [`fold_constants`], and
//! [`eliminate_dead_nodes`]. Folding and dead-node removal are one
//! rewrite; [`simplify`] is that rewrite for callers that want to know
//! when it changed nothing instead of receiving a copy.

mod fold;
mod ternarize;
mod verify;

pub use fold::fold_constants;
pub use ternarize::{ternarize_weights, TernarizeOptions};
pub use verify::verify;
pub(crate) use verify::{prove_narrowing, verify_structure};

use crate::{Graph, Node, NodeId, NodeKind, Op, Tensor};
use std::collections::HashMap;

/// [`fold_constants`] for a caller that can keep using its own graph when
/// nothing changes: `None` if no op folds and no node is dead — decided by
/// one scan and the liveness walk, before any node is cloned — otherwise
/// the rewritten graph and the number of ops folded.
#[must_use]
pub fn simplify(graph: &Graph) -> Option<(Graph, usize)> {
    rewrite(graph, fold::eval_elementwise).map(|(g, folded, _)| (g, folded))
}

/// Removes nodes whose value can never reach a graph output.
///
/// Returns the rewritten graph and the number of nodes removed. Node ids are
/// renumbered; graph inputs are always retained (they are part of the
/// external signature even if unused).
///
/// # Examples
///
/// ```
/// use htvm_ir::{DType, GraphBuilder};
/// use htvm_ir::passes::eliminate_dead_nodes;
/// # fn main() -> Result<(), htvm_ir::IrError> {
/// let mut b = GraphBuilder::new();
/// let x = b.input("x", &[4], DType::I32);
/// let dead = b.relu(x)?;
/// let _ = dead; // never used as an output
/// let live = b.clip(x, 0, 10)?;
/// let g = b.finish(&[live])?;
/// let (g, removed) = eliminate_dead_nodes(&g);
/// assert_eq!(removed, 1);
/// assert_eq!(g.len(), 2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn eliminate_dead_nodes(graph: &Graph) -> (Graph, usize) {
    match rewrite(graph, |_, _| None) {
        Some((g, _, removed)) => (g, removed),
        None => (graph.clone(), 0),
    }
}

/// The one graph rewrite: every op whose operands are all constants and
/// that `fold` evaluates becomes a `<name>_folded` constant, then every
/// node that no longer reaches an output is dropped and ids are
/// renumbered. Returns the new graph with the folded and removed counts,
/// or `None` if that graph would equal `graph`.
fn rewrite(
    graph: &Graph,
    fold: impl Fn(&Op, &[&Tensor]) -> Option<Tensor>,
) -> Option<(Graph, usize, usize)> {
    let mut folded: HashMap<NodeId, Tensor> = HashMap::new();
    for (id, node) in graph.nodes() {
        let NodeKind::Op { op, inputs } = &node.kind else {
            continue;
        };
        let operands: Option<Vec<&Tensor>> = inputs
            .iter()
            .map(|i| folded.get(i).or_else(|| graph.node(*i).constant()))
            .collect();
        if let Some(t) = operands.and_then(|ops| fold(op, &ops)) {
            folded.insert(id, t);
        }
    }
    let n_folded = folded.len();

    // A folded op is a constant now: its operands are not reached through it.
    let mut live = vec![false; graph.len()];
    let mut stack: Vec<NodeId> = graph.outputs().to_vec();
    while let Some(id) = stack.pop() {
        if !std::mem::replace(&mut live[id.0], true) && !folded.contains_key(&id) {
            stack.extend_from_slice(graph.node(id).inputs());
        }
    }
    for &i in graph.inputs() {
        live[i.0] = true;
    }
    let n_live = live.iter().filter(|&&l| l).count();
    if n_folded == 0 && n_live == graph.len() {
        return None;
    }

    let mut remap: Vec<Option<NodeId>> = vec![None; graph.len()];
    let mut nodes: Vec<Node> = Vec::with_capacity(n_live);
    for (id, node) in graph.nodes() {
        if !live[id.0] {
            continue;
        }
        remap[id.0] = Some(NodeId(nodes.len()));
        nodes.push(match folded.remove(&id) {
            Some(t) => Node {
                name: format!("{}_folded", node.name),
                shape: t.shape().clone(),
                dtype: t.dtype(),
                kind: NodeKind::Constant(t),
            },
            None => {
                let mut node = node.clone();
                if let NodeKind::Op { inputs, .. } = &mut node.kind {
                    for i in inputs.iter_mut() {
                        *i = remap[i.0].expect("operand precedes user in topological order");
                    }
                }
                node
            }
        });
    }
    let inputs = graph
        .inputs()
        .iter()
        .map(|i| remap[i.0].expect("inputs retained"))
        .collect();
    let outputs = graph
        .outputs()
        .iter()
        .map(|o| remap[o.0].expect("outputs are live"))
        .collect();
    let removed = graph.len() - n_live;
    let rewritten = Graph {
        nodes,
        inputs,
        outputs,
    };
    Some((rewritten, n_folded, removed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, GraphBuilder};

    #[test]
    fn dce_keeps_unused_inputs() {
        let mut b = GraphBuilder::new();
        let _unused = b.input("a", &[1], DType::I8);
        let x = b.input("x", &[1], DType::I8);
        let y = b.relu(x).unwrap();
        let g = b.finish(&[y]).unwrap();
        let (g2, removed) = eliminate_dead_nodes(&g);
        assert_eq!(removed, 0);
        assert_eq!(g2.inputs().len(), 2);
        verify(&g2).unwrap();
    }

    #[test]
    fn dce_removes_chains() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[1], DType::I32);
        let d1 = b.relu(x).unwrap();
        let _d2 = b.clip(d1, 0, 1).unwrap();
        let live = b.relu(x).unwrap();
        let g = b.finish(&[live]).unwrap();
        let (g2, removed) = eliminate_dead_nodes(&g);
        assert_eq!(removed, 2);
        verify(&g2).unwrap();
        assert_eq!(g2.outputs().len(), 1);
    }
}
