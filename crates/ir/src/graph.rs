//! The dataflow graph.

use crate::{DType, IrError, Op, Shape, Tensor};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node inside one [`Graph`].
///
/// Ids are indices into the graph's node table; they are only meaningful for
/// the graph that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index of this node in its graph.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// What a node computes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum NodeKind {
    /// An external graph input.
    Input,
    /// A compile-time constant (weights, biases, shift amounts).
    Constant(Tensor),
    /// An operator applied to earlier nodes.
    Op {
        /// The operator.
        op: Op,
        /// Producer nodes, in operand order.
        inputs: Vec<NodeId>,
    },
}

/// One node of the dataflow graph, with its inferred result type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Node {
    /// Debug name (unique names are not required).
    pub name: String,
    /// What the node computes.
    pub kind: NodeKind,
    /// Inferred output shape.
    pub shape: Shape,
    /// Inferred output element type.
    pub dtype: DType,
}

impl Node {
    /// The operator, if this node is an op application.
    #[must_use]
    pub fn op(&self) -> Option<&Op> {
        match &self.kind {
            NodeKind::Op { op, .. } => Some(op),
            _ => None,
        }
    }

    /// The operand list, empty for inputs and constants.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        match &self.kind {
            NodeKind::Op { inputs, .. } => inputs,
            _ => &[],
        }
    }

    /// The constant tensor, if this node is a constant.
    #[must_use]
    pub fn constant(&self) -> Option<&Tensor> {
        match &self.kind {
            NodeKind::Constant(t) => Some(t),
            _ => None,
        }
    }

    /// Returns `true` if this node is a graph input.
    #[must_use]
    pub fn is_input(&self) -> bool {
        matches!(self.kind, NodeKind::Input)
    }

    /// Returns `true` if this node is a constant.
    #[must_use]
    pub fn is_constant(&self) -> bool {
        matches!(self.kind, NodeKind::Constant(_))
    }
}

/// An immutable SSA-style dataflow graph.
///
/// Nodes are stored in topological order by construction (operands always
/// precede their users), which every pass relies on. Build graphs with
/// [`GraphBuilder`](crate::GraphBuilder); see the crate-level example.
///
/// A `Graph` value is well-formed wherever it came from: the builder, the
/// passes and deserialization all produce only graphs that
/// [`passes::verify`](crate::passes::verify) accepts, so consumers do not
/// re-verify.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Graph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
}

/// A deserialized graph is structurally verified before it is returned,
/// and each constant was range-checked as its [`Tensor`] was rebuilt, so
/// bytes from disk are held to the same standard as the builder. Like
/// every object in it, it is refused if it holds a member it does not
/// write, or one member twice.
impl Deserialize for Graph {
    fn from_content(v: &Value) -> Result<Self, DeError> {
        let obj = serde::__as_object(v).ok_or_else(|| DeError::custom("expected Graph object"))?;
        serde::__deny_unknown_fields(obj, &["nodes", "inputs", "outputs"], "Graph")?;
        let graph = Graph {
            nodes: serde::__field(obj, "nodes", "Graph")?,
            inputs: serde::__field(obj, "inputs", "Graph")?,
            outputs: serde::__field(obj, "outputs", "Graph")?,
        };
        crate::passes::verify_structure(&graph)
            .map_err(|e| DeError::custom(format!("Graph: {e}")))?;
        Ok(graph)
    }
}

impl Graph {
    /// All nodes, in topological order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph. Use [`Graph::try_node`]
    /// for a fallible lookup.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Fallible node lookup.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownNode`] if the id is out of range.
    pub fn try_node(&self, id: NodeId) -> Result<&Node, IrError> {
        self.nodes.get(id.0).ok_or(IrError::UnknownNode(id.0))
    }

    /// External input nodes, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Graph output nodes, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Builds the user map: for every node, the list of nodes consuming it.
    #[must_use]
    pub fn users(&self) -> HashMap<NodeId, Vec<NodeId>> {
        let mut users: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (id, node) in self.nodes() {
            for &src in node.inputs() {
                users.entry(src).or_default().push(id);
            }
        }
        users
    }

    /// Total multiply-accumulate operations of all anchor ops (convolutions
    /// and dense layers). This is the workload measure used on the x-axis of
    /// Fig. 5 in the paper.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.nodes()
            .filter_map(|(id, n)| n.op().map(|op| (id, n, op)))
            .map(|(_, n, op)| match op {
                Op::Conv2d { .. } => {
                    // out: [K, OY, OX]; weights: [K, C, FY, FX]
                    let w = self.node(n.inputs()[1]);
                    let k_c_fy_fx: usize = w.shape.num_elements();
                    let out_spatial = n.shape.dim(1).unwrap_or(1) * n.shape.dim(2).unwrap_or(1);
                    (k_c_fy_fx * out_spatial) as u64
                }
                Op::DepthwiseConv2d { .. } => {
                    let w = self.node(n.inputs()[1]);
                    let c_fy_fx: usize = w.shape.num_elements();
                    let out_spatial = n.shape.dim(1).unwrap_or(1) * n.shape.dim(2).unwrap_or(1);
                    (c_fy_fx * out_spatial) as u64
                }
                Op::Dense => {
                    let w = self.node(n.inputs()[1]);
                    w.shape.num_elements() as u64
                }
                Op::MatMul { .. } => {
                    // out: [H, M, N]; each element reduces over D.
                    let d = self.node(n.inputs()[0]).shape.dim(2).unwrap_or(1);
                    (n.shape.num_elements() * d) as u64
                }
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use crate::{DType, GraphBuilder, Tensor};

    #[test]
    fn users_map() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4], DType::I32);
        let y = b.relu(x).unwrap();
        let z = b.add(x, y).unwrap();
        let g = b.finish(&[z]).unwrap();
        let users = g.users();
        assert_eq!(users[&x].len(), 2);
        assert_eq!(users[&y], vec![z]);
    }

    #[test]
    fn total_macs_conv_and_dense() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[3, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 3, 3, 3]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let f = b.flatten(c).unwrap();
        let w2 = b.constant("w2", Tensor::zeros(DType::I8, &[10, 4 * 8 * 8]));
        let d = b.dense(f, w2).unwrap();
        let g = b.finish(&[d]).unwrap();
        let conv_macs = 4 * 3 * 3 * 3 * 8 * 8;
        let dense_macs = 10 * 4 * 8 * 8;
        assert_eq!(g.total_macs(), (conv_macs + dense_macs) as u64);
    }

    #[test]
    fn every_object_in_a_graph_refuses_a_member_it_does_not_write() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[1, 4, 4], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[2, 1, 3, 3]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let g = b.finish(&[c]).unwrap();
        let text = serde_json::to_string(&g).unwrap();
        assert_eq!(serde_json::from_str::<crate::Graph>(&text).unwrap(), g);
        let opens: Vec<usize> = text.match_indices("{\"").map(|(at, _)| at + 1).collect();
        assert_eq!(opens.len(), 11, "{text}");
        for at in opens {
            let mutant = format!("{}\"zz\":0,{}", &text[..at], &text[at..]);
            assert!(
                serde_json::from_str::<crate::Graph>(&mutant).is_err(),
                "{mutant}"
            );
        }
    }
}
