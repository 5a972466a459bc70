//! The pattern language.

use std::fmt;

/// A structural pattern over dataflow graphs, mirroring the part of TVM's
/// Relay pattern language the DIANA table uses (`is_op`, `wildcard`,
/// `is_constant`, `optional`).
///
/// Patterns are matched *rooted at a node*: the pattern describes the node
/// and (recursively) its operands. See [`match_at`](crate::match_at).
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Matches any node; the matched node becomes an external input of the
    /// region.
    Wildcard,
    /// Matches a constant node (weights, biases); the constant is captured
    /// into the region.
    Constant,
    /// Matches an operator application.
    Op {
        /// Operator name as returned by [`htvm_ir::Op::name`].
        name: String,
        /// Operand sub-patterns; the length must equal the operator arity.
        args: Vec<Pattern>,
    },
    /// Matches `inner`, optionally wrapped by a single-operand op called
    /// `op_name` (e.g. an optional trailing ReLU).
    Optional {
        /// The mandatory part.
        inner: Box<Pattern>,
        /// Name of the optional single-operand wrapper op.
        op_name: String,
    },
}

/// Matches any node (region input).
#[must_use]
pub fn wildcard() -> Pattern {
    Pattern::Wildcard
}

/// Matches a constant node.
#[must_use]
pub fn is_constant() -> Pattern {
    Pattern::Constant
}

/// Matches an operator by name with operand sub-patterns.
///
/// # Examples
///
/// ```
/// use htvm_pattern::{is_op, wildcard, is_constant};
/// let p = is_op("nn.dense", vec![wildcard(), is_constant()]);
/// assert_eq!(p.to_string(), "nn.dense(*, const)");
/// ```
#[must_use]
pub fn is_op(name: &str, args: Vec<Pattern>) -> Pattern {
    Pattern::Op {
        name: name.to_owned(),
        args,
    }
}

impl Pattern {
    /// Wraps the pattern in an optional single-operand op (e.g. the optional
    /// ReLU at the end of the Listing-1 chain).
    #[must_use]
    pub fn optional(self, op_name: &str) -> Pattern {
        Pattern::Optional {
            inner: Box::new(self),
            op_name: op_name.to_owned(),
        }
    }

    /// Number of op nodes in the *mandatory* part of the pattern — used to
    /// order patterns longest-first so greedy partitioning prefers the most
    /// coarse-grained match.
    #[must_use]
    pub fn min_ops(&self) -> usize {
        match self {
            Pattern::Wildcard | Pattern::Constant => 0,
            Pattern::Op { args, .. } => 1 + args.iter().map(Pattern::min_ops).sum::<usize>(),
            Pattern::Optional { inner, .. } => inner.min_ops(),
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Wildcard => f.write_str("*"),
            Pattern::Constant => f.write_str("const"),
            Pattern::Op { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Pattern::Optional { inner, op_name } => {
                write!(f, "optional({op_name})({inner})")
            }
        }
    }
}

/// A pattern with a stable name, as registered in an accelerator's pattern
/// table (e.g. `"conv2d_bias_requant"`).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedPattern {
    /// Stable identifier used in reports and dispatch decisions.
    pub name: String,
    /// The pattern itself.
    pub pattern: Pattern,
}

impl NamedPattern {
    /// Creates a named pattern.
    #[must_use]
    pub fn new(name: &str, pattern: Pattern) -> Self {
        NamedPattern {
            name: name.to_owned(),
            pattern,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(wildcard().to_string(), "*");
        assert_eq!(is_constant().to_string(), "const");
        let p = is_op("nn.conv2d", vec![wildcard(), is_constant()]);
        assert_eq!(p.to_string(), "nn.conv2d(*, const)");
        assert_eq!(
            p.clone().optional("nn.relu").to_string(),
            "optional(nn.relu)(nn.conv2d(*, const))"
        );
    }

    #[test]
    fn min_ops_counts_mandatory_part() {
        let conv = is_op("nn.conv2d", vec![wildcard(), is_constant()]);
        let chain = is_op("nn.bias_add", vec![conv, is_constant()]);
        assert_eq!(chain.min_ops(), 2);
        assert_eq!(chain.clone().optional("nn.relu").min_ops(), 2);
        assert_eq!(wildcard().min_ops(), 0);
    }
}
