//! # HTVM-RS
//!
//! A Rust reproduction of **HTVM** (Van Delm et al., DAC 2023): a hybrid
//! deployment compiler that merges a TVM-style graph flow with DORY-style
//! accelerator-aware memory planning to deploy quantized DNNs on
//! heterogeneous TinyML SoCs — here, a faithful simulator of the DIANA SoC
//! (RISC-V host + digital 16×16-PE accelerator + analog in-memory-compute
//! accelerator).
//!
//! The pipeline mirrors Fig. 1 of the paper:
//!
//! ```text
//! Graph ─────fold──────► pattern match ──rules──► BYOC DORY lowering ──► Artifact
//!                        (htvm_pattern)  (dispatch) (htvm_codegen + htvm_dory)
//! Artifact ──► Machine::run ──► outputs + per-layer cycle profile (htvm_soc)
//! ```
//!
//! # Examples
//!
//! Compile and run a small quantized conv block on the simulated DIANA:
//!
//! ```
//! use htvm::{Compiler, DeployConfig, Machine};
//! use htvm_ir::{DType, GraphBuilder, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new();
//! let x = b.input("x", &[16, 16, 16], DType::I8);
//! let w = b.constant("w", Tensor::zeros(DType::I8, &[16, 16, 3, 3]));
//! let bias = b.constant("bias", Tensor::zeros(DType::I32, &[16]));
//! let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1))?;
//! let c = b.bias_add(c, bias)?;
//! let y = b.requantize(c, 7, true)?;
//! let graph = b.finish(&[y])?;
//!
//! let compiler = Compiler::new().with_deploy(DeployConfig::Digital);
//! let artifact = compiler.compile(&graph)?;
//! assert_eq!(artifact.steps_on(htvm::EngineKind::Digital), 1);
//!
//! let machine = Machine::new(compiler.platform().clone());
//! let report = machine.run(&artifact.program, &[Tensor::zeros(DType::I8, &[16, 16, 16])])?;
//! println!("latency: {:.3} ms", compiler.platform().cycles_to_ms(report.total_cycles()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiler;
mod dispatch;
mod patterns;

pub use compiler::{CompileError, Compiler, DispatchHook};
pub use dispatch::{dispatch_rule, engine_accepts, DeployConfig, Refusal};
pub use patterns::diana_patterns;

// The public surface a downstream user needs, re-exported from the
// substrate crates.
pub use htvm_codegen::{
    binsize, extract, single_layer_program, Artifact, CompileStats, ExtractedLayer,
    LayerAssignment, LowerError, LowerOptions,
};
pub use htvm_dory::{
    CostModel, EngineModel, LayerGeometry, LayerKind, MemoryBudget, TileCache, TileCacheStats,
    TileConfig, TilingObjective,
};
pub use htvm_ir::{DType, Graph, GraphBuilder, IrError, Tensor};
pub use htvm_soc::{
    AccelLayerDesc, DianaConfig, DmaTable, EnergyConfig, EngineKind, LayerProfile, Machine,
    Program, RunError, RunReport, Step,
};
pub use htvm_trace::{tracks, ArgValue, Span, TimeDomain, Trace, Tracer, Track};
