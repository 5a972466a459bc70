//! IR error type.

use crate::{DType, Shape};
use std::error::Error;
use std::fmt;

/// Errors produced while constructing or transforming IR graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IrError {
    /// Element count does not match the declared shape.
    ShapeMismatch {
        /// Elements implied by the shape.
        expected: usize,
        /// Elements actually provided.
        got: usize,
    },
    /// A tensor element is not representable in its declared dtype.
    ValueOutOfRange {
        /// The offending value.
        value: i32,
        /// The declared element type.
        dtype: DType,
    },
    /// An operator received an input of unexpected rank or extent.
    BadOperand {
        /// Operator name.
        op: &'static str,
        /// Human-readable description of the violated expectation.
        expected: String,
        /// The offending shape.
        got: Shape,
    },
    /// Operand dtypes are inconsistent for the operator.
    DTypeMismatch {
        /// Operator name.
        op: &'static str,
        /// Human-readable description of the violated expectation.
        detail: String,
    },
    /// A node id referenced a node that does not exist in the graph.
    UnknownNode(usize),
    /// The graph contains a cycle or a use-before-def ordering violation.
    NotADag,
    /// A graph output or op input references nothing.
    EmptyGraph,
    /// An attribute of an op has an invalid value.
    BadAttribute {
        /// Operator name.
        op: &'static str,
        /// Human-readable description of the violated expectation.
        detail: String,
    },
    /// A narrowing cast whose operand is not proven to fit the target:
    /// its values may lie anywhere in `lo..=hi`. Narrow with a `clip`
    /// into the target's range first.
    UnprovenNarrowing {
        /// The cast node.
        node: usize,
        /// Least value the operand is known to hold.
        lo: i32,
        /// Greatest value the operand is known to hold.
        hi: i32,
        /// The cast's target dtype.
        to: DType,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::ShapeMismatch { expected, got } => {
                write!(f, "shape expects {expected} elements, got {got}")
            }
            IrError::ValueOutOfRange { value, dtype } => {
                write!(f, "value {value} is out of range for dtype {dtype}")
            }
            IrError::BadOperand { op, expected, got } => {
                write!(f, "{op}: expected {expected}, got shape {got}")
            }
            IrError::DTypeMismatch { op, detail } => write!(f, "{op}: {detail}"),
            IrError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            IrError::NotADag => write!(f, "graph is not a dag"),
            IrError::EmptyGraph => write!(f, "graph has no nodes or outputs"),
            IrError::BadAttribute { op, detail } => write!(f, "{op}: invalid attribute: {detail}"),
            IrError::UnprovenNarrowing { node, lo, hi, to } => write!(
                f,
                "cast node {node}: operand values {lo}..={hi} are not proven to fit {to}"
            ),
        }
    }
}

impl Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = IrError::ShapeMismatch {
            expected: 4,
            got: 2,
        };
        assert_eq!(e.to_string(), "shape expects 4 elements, got 2");
        let e = IrError::ValueOutOfRange {
            value: 300,
            dtype: DType::I8,
        };
        assert!(e.to_string().contains("300"));
        assert!(e.to_string().contains("i8"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<IrError>();
    }
}
