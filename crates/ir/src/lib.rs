//! Quantized DNN graph intermediate representation for HTVM-RS.
//!
//! This crate is the Rust equivalent of the Relay IR layer that the HTVM
//! paper (Van Delm et al., DAC 2023) builds on. It provides:
//!
//! - [`DType`] / [`Tensor`] — integer tensor values with explicit bit widths
//!   (8-bit, 32-bit accumulators, and ternary weights for analog
//!   in-memory-compute accelerators),
//! - [`Op`] — the quantized operator set used by the MLPerf™ Tiny workloads
//!   (convolutions, depthwise convolutions, dense layers, re-quantization
//!   chains, residual adds, pooling, softmax),
//! - [`Graph`] / [`GraphBuilder`] — an SSA-style dataflow graph with shape
//!   and type inference,
//! - [`passes`] — verification, constant folding and dead-node elimination.
//!
//! # Examples
//!
//! Build the Conv2D→BiasAdd→ReQuant→ReLU chain from Listing 1 of the paper:
//!
//! ```
//! use htvm_ir::{DType, GraphBuilder, Tensor};
//!
//! # fn main() -> Result<(), htvm_ir::IrError> {
//! let mut b = GraphBuilder::new();
//! let x = b.input("x", &[8, 16, 16], DType::I8);
//! let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 8, 3, 3]));
//! let bias = b.constant("bias", Tensor::zeros(DType::I32, &[4]));
//! let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1))?;
//! let c = b.bias_add(c, bias)?;
//! let c = b.right_shift(c, 7)?;
//! let c = b.clip(c, -128, 127)?;
//! let c = b.cast(c, DType::I8)?;
//! let c = b.relu(c)?;
//! let graph = b.finish(&[c])?;
//! assert_eq!(graph.node(c).shape.dims(), &[4, 16, 16]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base64;
mod builder;
pub mod canonical;
mod dot;
mod dtype;
mod error;
mod graph;
mod infer;
mod op;
pub mod passes;
mod shape;
mod tensor;

pub use builder::GraphBuilder;
pub use canonical::{canonical_form, fnv128};
pub use dtype::DType;
pub use error::IrError;
pub use graph::{Graph, Node, NodeId, NodeKind};
pub use op::{Op, Padding2d, PoolKind};
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient result alias for fallible IR operations.
pub type Result<T> = std::result::Result<T, IrError>;
