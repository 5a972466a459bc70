//! DORY-style hardware-aware tiling and memory planning.
//!
//! This crate reimplements the memory-planning back-end that HTVM
//! integrates from DORY (Burrello et al., IEEE TC 2021; paper §III-B):
//!
//! - [`LayerGeometry`] describes one accelerator-eligible layer,
//! - [`MemoryBudget`] captures the platform's L1 constraints (shared
//!   activation scratchpad, separate weight memories, and — for analog
//!   in-memory-compute — the 2-D macro array geometry),
//! - [`solve`] finds the tile sizes maximizing the paper's Eq. 1 objective
//!   `α·(L1ʷ + L1ᵒᵘᵗ + L1ⁱⁿ) + Σᵢ βᵢ·Hᵢ` subject to the Eq. 2 capacity
//!   constraint, with the DIANA heuristics of Eq. 3–5 available as
//!   [`Heuristic`] terms; [`feasible`] answers only whether any tile
//!   fits, which is all dispatch needs,
//! - [`TileCache`] memoizes [`solve`] outcomes across layers, threads and
//!   compiles — the solver is a pure function of its inputs, and real
//!   networks repeat layer geometries heavily,
//! - [`tiles`] enumerates the tile loop with exact output coverage (the
//!   contract the simulator's tile executor and the property tests rely on),
//! - [`memplan`] assigns non-overlapping L2 offsets to intermediate
//!   activation buffers (the "memory schedule" HTVM emits alongside code).
//!
//! # Examples
//!
//! ```
//! use htvm_dory::{LayerGeometry, MemoryBudget, TilingObjective, solve};
//!
//! # fn main() -> Result<(), htvm_dory::TilingError> {
//! // A 64-channel 3x3 conv over 32x32, too big for a 32 kB scratchpad.
//! let geom = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
//! let budget = MemoryBudget {
//!     act_bytes: 32 * 1024,
//!     weight_bytes: Some(64 * 1024),
//!     array: None,
//! };
//! let solution = solve(&geom, &budget, &TilingObjective::diana_digital())?;
//! assert!(solution.tile.c_t.is_multiple_of(16)); // Eq. 3 heuristic
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod cache;
mod cost;
mod error;
mod geometry;
pub mod memplan;
mod objective;
mod solver;
mod tile;

pub use budget::{tile_fits, tile_memory, ArrayDims, MemoryBudget, TileMemory};
pub use cache::{TileCache, TileCacheStats};
pub use cost::{CostModel, EngineModel};
pub use error::TilingError;
pub use geometry::{LayerGeometry, LayerKind};
pub use objective::{Heuristic, TilingObjective};
pub use solver::{feasible, solve, TileSolution};
pub use tile::{mapped_weight_rows, staged_weight_elems, tiles, TileConfig, TileInstance};
