//! Cycle-level DIANA SoC simulator.
//!
//! The HTVM paper evaluates on DIANA (Ueyoshi et al., ISSCC 2022): a
//! RISC-V host driving a digital 16×16-PE accelerator and an analog
//! in-memory-compute (AIMC) accelerator through a two-level memory system
//! (512 kB L2, 256 kB shared L1, per-accelerator weight stores). No such
//! silicon is available here, so this crate provides the substitute: a
//! simulator that executes compiled [`Program`]s both *functionally*
//! (bit-exact quantized arithmetic via [`htvm_kernels`]) and *temporally*
//! (the host's cycle model here; every accelerator tile, DMA transfer and
//! layer call priced by the tiler's own [`htvm_dory::CostModel`], from
//! [`DianaConfig::cost_model`]).
//!
//! Architectural mechanisms — not magic constants — produce the paper's
//! effects:
//!
//! - digital utilization collapses when tile channels / input width are not
//!   multiples of 16 (the Fig. 4 heuristic gap),
//! - the analog array pays a per-layer weight-load cost proportional to the
//!   mapped rows (why small-channel networks prefer the digital engine),
//! - DMA cost depends on transfer *count*, not just bytes, so C–y–x layout
//!   rewards full-width, tall tiles (Eq. 5),
//! - per-invocation host overhead makes tiny layers overhead-bound
//!   (the Fig. 5 FC throughput loss).
//!
//! The [`platforms`] module adds coarse cost models for the Table II
//! comparison platforms (STM32-class MCU with and without SIMD kernels, and
//! a GAP9-class cluster).
//!
//! # Examples
//!
//! ```
//! use htvm_soc::{DianaConfig, EngineKind};
//! let cfg = DianaConfig::default();
//! assert_eq!(cfg.clock_mhz, 260);
//! assert_eq!(cfg.l1_act_bytes, 256 * 1024);
//! assert_eq!(cfg.digital.pe_rows * cfg.digital.pe_cols, 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod counters;
mod cpu;
mod dma_program;
mod energy;
mod listing;
mod machine;
pub mod manifest;
pub mod platforms;
mod program;
mod timeline;

pub use config::{AnalogConfig, CpuConfig, DianaConfig, DigitalConfig, DmaConfig};
pub use counters::{CycleBreakdown, LayerProfile, RunReport};
pub use cpu::cpu_graph_cycles;
pub use dma_program::{linearize_step, DmaDescriptor, DmaDir, DmaTable, StepDma};
pub use energy::EnergyConfig;
pub use listing::render_listing;
pub use machine::{Machine, RunError};
pub use manifest::{Capabilities, ManifestError, PlatformManifest, PlatformSpec, DEFAULT_PLATFORM};
pub use program::{
    AccelLayerDesc, BufferDecl, BufferId, BufferKind, EngineKind, FusedPool, Program, Step,
};
pub use timeline::render_timeline;
