//! Relay-style pattern matching and accelerator partitioning.
//!
//! This crate reimplements the two mechanisms HTVM borrows from TVM's BYOC
//! infrastructure (paper §III-A):
//!
//! 1. a **pattern language** ([`Pattern`], built with [`is_op`],
//!    [`wildcard`], [`is_constant`] and [`Pattern::optional`]) that
//!    describes coarse-grained operator chains such as the
//!    Conv2D–BiasAdd–ReQuant–ReLU pattern of Listing 1, and
//! 2. a **partitioner** ([`partition`]) that greedily carves matched chains
//!    out of a graph into [`Region`]s, consulting caller-supplied
//!    *accelerator-aware rules* to decide whether (and to which engine) a
//!    matched chain is offloaded.
//!
//! Patterns describe structure only. Listing 1's one semantic predicate,
//! that the `cast` is to int8, is enforced by the rule layer:
//! `htvm_codegen::extract` accepts only a `clip(-128, 127)` → `cast(i8)`
//! requantization tail, so a chain with any other tail stays on the CPU.
//!
//! # Examples
//!
//! The paper's Listing 1, transcribed:
//!
//! ```
//! use htvm_pattern::{is_constant, is_op, wildcard};
//!
//! let conv2d = is_op("nn.conv2d", vec![wildcard(), is_constant()]);
//! let bias_add = is_op("nn.bias_add", vec![conv2d, is_constant()]);
//! let right_shift = is_op("right_shift", vec![bias_add]);
//! let clip = is_op("clip", vec![right_shift]);
//! let cast = is_op("cast", vec![clip]);
//! let act_or_cast = cast.optional("nn.relu");
//! assert!(act_or_cast.to_string().starts_with("optional(nn.relu)"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matcher;
mod partition;
mod pattern;

pub use matcher::{match_at, Match};
pub use partition::{partition, PartitionedGraph, Region};
pub use pattern::{is_constant, is_op, wildcard, NamedPattern, Pattern};
