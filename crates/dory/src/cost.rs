//! The accelerators' price list, and predicted cycles for candidate tiles.
//!
//! A [`CostModel`] holds one engine's coefficients, read off the platform
//! description (`htvm_soc::DianaConfig::cost_model`, see
//! `docs/CALIBRATION.md`), and prices every unit an accelerator layer is
//! charged in: a tile's compute ([`EngineModel::tile_cycles`]), a weight
//! slice's analog row programming ([`EngineModel::program_cycles`]), a DMA
//! transaction ([`CostModel::transfer_cycles`]) and a layer call's host
//! overhead ([`CostModel::overhead_cycles`]).
//!
//! # One price list, two summations
//!
//! The simulator sums these prices over the tile walk.
//! [`CostModel::predicted_cycles`] sums them over a candidate [`TileConfig`]
//! in *closed form*, never enumerating tile instances, and the objective
//! scores the tile by `γ · predicted(full) / predicted(tile)` in `(0, 1]`
//! instead of the paper's Eq. 3–5 proxies. It counts transfers with the
//! walk's own rules — [`input_chunks`] and [`output_chunks`] on each axis's
//! actual window extents, one load of [`staged_weight_elems`] per change of
//! the tile's [`weight_slice`](crate::TileInstance::weight_slice) — but
//! prices compute once per (k run, c run, x tile) at the layer's full
//! output height and transfers once per aggregate, so it tracks rather than
//! reproduces simulated totals. That is the right trade: the solver
//! compares thousands of candidates per layer and only the *ordering*
//! matters.
//!
//! # Solver contract: monotone in `o_yᵗ`
//!
//! [`solve`](crate::solve) closes the output-height dimension analytically
//! and requires every objective term to be non-decreasing in `o_yᵗ`. The
//! predictor is built to honor that: every aggregate is a product of
//! factors that are constant or non-increasing in `o_yᵗ`. The one subtle
//! term is the input-row sum over the y partition, which collapses to
//!
//! ```text
//! Σ_y rows = s_y · o_y + n_y · (max(F_y, s_y) − s_y)
//! ```
//!
//! — clamping the halo below at the stride keeps the sum non-increasing in
//! the tile height even for stride > filter layers (where real halos would
//! shrink under splitting). It is exact for unpadded layers with
//! `F_y ≥ s_y`. Compute, priced at full height, is constant in `o_yᵗ`.
//! `tests::score_is_monotone_in_oy` sweeps the invariant.

use crate::tile::{col_window, input_chunks, output_chunks, row_window, weights_follow_batch};
use crate::{
    mapped_weight_rows, staged_weight_elems, LayerGeometry, LayerKind, TileConfig, TileInstance,
};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Elements per cycle through the analog engine's digital output stage.
const ANALOG_OUTPUT_ELEMS_PER_CYCLE: u64 = 16;

/// Per-engine compute coefficients of a [`CostModel`].
///
/// The variants mirror the two DIANA accelerators' architectural shapes;
/// the values come from the platform description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EngineModel {
    /// A digital PE array: compute quantized to `⌈Cᵗ/rows⌉·⌈i_xᵗ/cols⌉`
    /// blocks, weights streamed in over the DMA.
    Digital {
        /// Input-channel lanes (the Eq. 3 alignment quantum).
        pe_rows: usize,
        /// Input-width lanes (the Eq. 4 alignment quantum).
        pe_cols: usize,
        /// Depthwise throughput in MACs per cycle × 100.
        dw_macs_per_cycle_x100: u64,
        /// Element-wise add throughput, elements per cycle.
        add_elems_per_cycle: u64,
        /// Pipeline efficiency percent (`cycles = ideal · 100 / eff`).
        efficiency_pct: u64,
    },
    /// An analog in-memory-compute macro: weight-stationary row
    /// programming, then one pass per output spatial position.
    Analog {
        /// Array rows (caps the mapped `Cᵗ·Fy·Fx`).
        rows: usize,
        /// Array columns (output channels per pass).
        cols: usize,
        /// Cycles to program one weight row.
        row_load_cycles: u64,
        /// Cycles per analog pass.
        pass_cycles: u64,
        /// Pipeline efficiency percent.
        efficiency_pct: u64,
    },
}

impl EngineModel {
    /// Compute cycles for one tile invocation, rounded up per tile by the
    /// engine's pipeline efficiency.
    ///
    /// The digital PE array unrolls input channels across its rows and input
    /// columns across its columns (paper §III-C):
    ///
    /// ```text
    /// conv = Kᵗ · o_yᵗ · Fy · Fx · ⌈Cᵗ/rows⌉ · ⌈i_xᵗ/cols⌉ / efficiency
    /// ```
    ///
    /// so `Cᵗ = 17` takes two row passes where `Cᵗ = 16` takes one — the
    /// utilization cliff the Eq. 3–4 heuristics avoid and Fig. 4 measures.
    /// Dense unrolls `C` and `K` (`⌈Cᵗ/rows⌉·⌈Kᵗ/cols⌉`), matmul does so once
    /// per sequence row, and depthwise runs on one PE row at the paper's
    /// measured 3.75 MAC/cycle.
    ///
    /// The analog array makes one DAC → MAC → ADC pass per output position,
    /// reading out up to `cols` output channels at once. The solver caps
    /// `Cᵗ·Fy·Fx` at its rows, so rows never take a second pass:
    ///
    /// ```text
    /// conv, dense = o_yᵗ · o_xᵗ · ⌈Kᵗ/cols⌉ · pass_cycles / efficiency
    /// ```
    ///
    /// Depthwise and matmul are never dispatched to analog; they are priced
    /// at one cycle per MAC, so a hand-built step cannot panic here. On both
    /// engines element-wise add streams through the
    /// [output stage](EngineModel::output_stage_cycles).
    ///
    /// # Examples
    ///
    /// ```
    /// use htvm_dory::{EngineModel, LayerGeometry, TileConfig, tiles};
    ///
    /// let diana = EngineModel::Digital {
    ///     pe_rows: 16, pe_cols: 16, dw_macs_per_cycle_x100: 375,
    ///     add_elems_per_cycle: 16, efficiency_pct: 40,
    /// };
    /// let g = LayerGeometry::conv2d(16, 16, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1));
    /// let all = tiles(&g, &TileConfig::full(&g));
    /// let aligned = diana.tile_cycles(&g, &all[0]);
    ///
    /// let g17 = LayerGeometry::conv2d(17, 16, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1));
    /// let all17 = tiles(&g17, &TileConfig::full(&g17));
    /// // One extra input channel doubles the row passes (± rounding).
    /// assert!(diana.tile_cycles(&g17, &all17[0]) > aligned * 19 / 10);
    /// ```
    #[must_use]
    pub fn tile_cycles(&self, geom: &LayerGeometry, tile: &TileInstance) -> u64 {
        use EngineModel::{Analog, Digital};
        use LayerKind::{Add, Conv2d, Dense, DepthwiseConv2d, MatMul};
        let (k, positions) = (tile.k.len(), (tile.oy.len() * tile.ox.len()) as u64);
        let ideal = match (*self, geom.kind) {
            (_, Add) => self.output_stage_cycles(k as u64 * positions),
            (
                Digital {
                    pe_rows, pe_cols, ..
                },
                Conv2d,
            ) => {
                let c_blocks = tile.c.len().div_ceil(pe_rows) as u64;
                let x_blocks = tile.input_cols(geom).len().max(1).div_ceil(pe_cols) as u64;
                (k * tile.oy.len() * geom.fy * geom.fx) as u64 * c_blocks * x_blocks
            }
            // One pass per sequence row per batch (dense has one).
            (
                Digital {
                    pe_rows, pe_cols, ..
                },
                Dense | MatMul,
            ) => positions * (tile.c.len().div_ceil(pe_rows) * k.div_ceil(pe_cols)) as u64,
            (
                Digital {
                    dw_macs_per_cycle_x100: rate,
                    ..
                },
                DepthwiseConv2d,
            ) => tile.macs(geom) * 100 / rate,
            (
                Analog {
                    cols, pass_cycles, ..
                },
                Conv2d | Dense,
            ) => positions * k.div_ceil(cols) as u64 * pass_cycles,
            (Analog { .. }, DepthwiseConv2d | MatMul) => tile.macs(geom),
        };
        let (Digital { efficiency_pct, .. } | Analog { efficiency_pct, .. }) = *self;
        (ideal * 100).div_ceil(efficiency_pct.max(1))
    }

    /// Cycles to program the weights of a `c`-channel slice into the engine.
    ///
    /// The analog array is weight-stationary: the slice's
    /// [`mapped_weight_rows`], capped at the array's rows, are written at
    /// `row_load_cycles` each — the per-layer "filling the analog accelerator
    /// weight memory" overhead the paper cites, and why small-channel
    /// networks run slower on analog despite its peak. Digital weights are a
    /// DMA transfer ([`CostModel::transfer_cycles`]) instead, so 0.
    #[must_use]
    pub fn program_cycles(&self, geom: &LayerGeometry, c: usize) -> u64 {
        match *self {
            EngineModel::Digital { .. } => 0,
            EngineModel::Analog {
                rows,
                row_load_cycles: cycles,
                ..
            } => mapped_weight_rows(geom, c).min(rows) as u64 * cycles,
        }
    }

    /// Cycles to stream `elems` elements through the engine's output SIMD
    /// stage, which runs element-wise add and fused output pooling.
    #[must_use]
    pub fn output_stage_cycles(&self, elems: u64) -> u64 {
        let rate = match *self {
            EngineModel::Digital {
                add_elems_per_cycle: rate,
                ..
            } => rate,
            EngineModel::Analog { .. } => ANALOG_OUTPUT_ELEMS_PER_CYCLE,
        };
        elems.div_ceil(rate)
    }
}

/// One accelerator's price list on one platform (module docs).
///
/// [`TilingObjective::calibrated`](crate::TilingObjective::calibrated)
/// scores tiles with it. The `version` is part of the model's cache
/// identity: it is bumped whenever predictions change, so artifacts
/// produced under different models never alias in the tile cache or the
/// artifact store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Prediction version (mixed into cache keys).
    pub version: u32,
    /// Weight of the predicted-cycle term in the Eq. 1 sum.
    pub gamma: f64,
    /// DMA setup cycles per 1-D transfer.
    pub dma_setup: u64,
    /// DMA payload bytes per cycle.
    pub dma_bytes_per_cycle: u64,
    /// Host cycles per kernel invocation (once per layer).
    pub kernel_call_overhead: u64,
    /// Host cycles per tile dispatch.
    pub tile_overhead: u64,
    /// Engine compute coefficients.
    pub engine: EngineModel,
}

impl CostModel {
    /// The model's identity as a flat bit vector, for exact (bitwise)
    /// cache keying — the same convention the tile cache already uses for
    /// objective weights.
    #[must_use]
    pub fn identity_bits(&self) -> Vec<u64> {
        let engine = match self.engine {
            EngineModel::Digital {
                pe_rows: rows,
                pe_cols: cols,
                dw_macs_per_cycle_x100: a,
                add_elems_per_cycle: b,
                efficiency_pct,
            } => [0, rows as u64, cols as u64, a, b, efficiency_pct],
            EngineModel::Analog {
                rows,
                cols,
                row_load_cycles: a,
                pass_cycles: b,
                efficiency_pct,
            } => [1, rows as u64, cols as u64, a, b, efficiency_pct],
        };
        let head = [
            u64::from(self.version),
            self.gamma.to_bits(),
            self.dma_setup,
            self.dma_bytes_per_cycle,
            self.kernel_call_overhead,
            self.tile_overhead,
        ];
        head.into_iter().chain(engine).collect()
    }

    /// The objective term: `predicted(full tile) / predicted(tile)`, in
    /// `(0, 1]`. Non-decreasing in `o_yᵗ` (see the module docs).
    #[must_use]
    pub fn score_term(&self, geom: &LayerGeometry, tile: &TileConfig) -> f64 {
        let full = self.predicted_cycles(geom, &TileConfig::full(geom)).max(1);
        let this = self.predicted_cycles(geom, tile).max(1);
        full as f64 / this as f64
    }

    /// Cycles for a DMA transaction of `bytes` split over `chunks`
    /// contiguous 1-D transfers.
    ///
    /// Each chunk pays the setup cost; the payload then streams at the bus
    /// width. This makes transfer *count* matter as much as volume, which is
    /// exactly what the paper's `H_DMA = i_yᵗ` heuristic (Eq. 5) exploits:
    /// taller full-width tiles need fewer, longer transfers from a C–y–x
    /// laid-out tensor. A zero-byte transaction (the store slot of a
    /// non-final reduction slice) is free.
    ///
    /// # Examples
    ///
    /// ```
    /// use htvm_dory::{CostModel, EngineModel};
    /// let dma = CostModel {
    ///     version: 3, gamma: 4.0, dma_setup: 30, dma_bytes_per_cycle: 8,
    ///     kernel_call_overhead: 800, tile_overhead: 300,
    ///     engine: EngineModel::Analog {
    ///         rows: 1152, cols: 512, row_load_cycles: 140, pass_cycles: 8, efficiency_pct: 50,
    ///     },
    /// };
    /// // Same bytes, 10x the chunks: strictly slower.
    /// assert!(dma.transfer_cycles(4096, 40) > dma.transfer_cycles(4096, 4));
    /// ```
    #[must_use]
    pub fn transfer_cycles(&self, bytes: u64, chunks: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.dma_setup * chunks.max(1) + bytes.div_ceil(self.dma_bytes_per_cycle)
    }

    /// Host cycles of one layer call dispatching `n_tiles` tiles.
    #[must_use]
    pub fn overhead_cycles(&self, n_tiles: u64) -> u64 {
        self.kernel_call_overhead + self.tile_overhead * n_tiles
    }

    /// Predicted end-to-end cycles for executing the layer under `tile`:
    /// host overhead + input/weight/output DMA + engine compute, as a
    /// closed form over the tile partition (no instance enumeration).
    #[must_use]
    pub fn predicted_cycles(&self, geom: &LayerGeometry, tile: &TileConfig) -> u64 {
        let p = Partition::new(geom, tile);
        let overhead = self.overhead_cycles((p.n_k * p.n_y * p.n_x * p.n_c) as u64);

        // Input traffic, two operands for element-wise add.
        let operands = if geom.kind == LayerKind::Add { 2 } else { 1 };
        let (total_rows, total_cols) = p.input_extents();
        let in_elems = geom.c * total_rows * total_cols * p.input_passes();
        let in_bytes = (geom.act_dtype.storage_bytes(in_elems) * operands) as u64;
        let input_dma = self.transfer_cycles(in_bytes, (operands * p.input_chunks()) as u64);

        // Weight traffic: a digital load is one DMA transfer of the staged
        // slice; an analog load programs the mapped rows into the array.
        let weight = match self.engine {
            EngineModel::Digital { .. } => {
                let loads = p.over_weight_loads(|_, _, _| 1);
                let elems =
                    p.over_weight_loads(|k, c, ox| staged_weight_elems(geom, k, c, ox) as u64);
                self.transfer_cycles(geom.w_dtype.storage_bytes(elems as usize) as u64, loads)
            }
            EngineModel::Analog { .. } => {
                p.over_weight_loads(|_, c, _| self.engine.program_cycles(geom, c))
            }
        };

        // Output traffic: every output element exactly once.
        let out_bytes = geom.act_dtype.storage_bytes(geom.k * geom.oy() * geom.ox()) as u64;
        let output_dma = self.transfer_cycles(out_bytes, p.output_chunks() as u64);

        let compute = p.over_compute(|inst| self.engine.tile_cycles(geom, inst));
        overhead + input_dma + weight + output_dma + compute
    }
}

/// A tile partition summarised per axis, from which the tile walk's
/// transfers and compute are summed without enumerating its instances.
struct Partition<'a> {
    geom: &'a LayerGeometry,
    tile: &'a TileConfig,
    /// Depthwise and add: the channel slice *is* the k block.
    lockstep: bool,
    n_k: usize,
    n_y: usize,
    n_x: usize,
    /// Reduction slices per output block (1 when lockstep).
    n_c: usize,
}

impl<'a> Partition<'a> {
    fn new(geom: &'a LayerGeometry, tile: &'a TileConfig) -> Self {
        let lockstep = matches!(geom.kind, LayerKind::DepthwiseConv2d | LayerKind::Add);
        Partition {
            geom,
            tile,
            lockstep,
            n_k: geom.k.div_ceil(tile.k_t),
            n_y: geom.oy().div_ceil(tile.oy_t),
            n_x: geom.ox().div_ceil(tile.ox_t),
            n_c: if lockstep {
                1
            } else {
                geom.c.div_ceil(tile.c_t)
            },
        }
    }

    /// How often the walk fetches each `(c, y, x)` input slice: once per k
    /// block, unless a single slice covers the layer (it stays resident)
    /// or channels lockstep with k.
    fn input_passes(&self) -> usize {
        if self.lockstep || self.n_y * self.n_x * self.n_c == 1 {
            1
        } else {
            self.n_k
        }
    }

    /// Input rows and columns summed over the y and x tile grids, with the
    /// halo clamped below at the stride (module docs).
    fn input_extents(&self) -> (usize, usize) {
        let geom = self.geom;
        let (sy, sx) = geom.strides;
        (
            sy * geom.oy() + self.n_y * (geom.fy.max(sy) - sy),
            sx * geom.ox() + self.n_x * (geom.fx.max(sx) - sx),
        )
    }

    /// Input transfers per operand: every fetched slice costs what
    /// [`input_chunks`] says for its window extents. Rows enter that rule
    /// only as the per-row count of a partial-width slice, so such a
    /// column's y tiles are priced together over the clamped row total.
    fn input_chunks(&self) -> usize {
        let (geom, tile) = (self.geom, self.tile);
        let total_rows = self.input_extents().0;
        let all_rows = || extents(geom.oy(), tile.oy_t, |r| row_window(geom, r));
        let column = |cols: usize| -> usize {
            runs(geom.c, tile.c_t)
                .iter()
                .map(|&(c, n)| {
                    n * if cols == geom.ix {
                        all_rows()
                            .map(|rows| input_chunks(geom, c, rows, cols))
                            .sum()
                    } else {
                        input_chunks(geom, c, total_rows, cols)
                    }
                })
                .sum()
        };
        let all_cols = extents(geom.ox(), tile.ox_t, |r| col_window(geom, r));
        self.input_passes() * all_cols.map(column).sum::<usize>()
    }

    /// Output transfers: [`output_chunks`] of every output block, stored
    /// once after its last reduction slice.
    fn output_chunks(&self) -> usize {
        let (geom, tile) = (self.geom, self.tile);
        let mut chunks = 0;
        for (k, n_k) in runs(geom.k, tile.k_t) {
            for (oy, n_y) in runs(geom.oy(), tile.oy_t) {
                for (ox, n_x) in runs(geom.ox(), tile.ox_t) {
                    chunks += n_k * n_y * n_x * output_chunks(geom, k, oy, ox);
                }
            }
        }
        chunks
    }

    /// `Σ f(k, c, ox)` over the walk's weight loads, `(k, c, ox)` being
    /// each load's slice extents: one load per k block while the weight
    /// slice stays the same across the block, one per tile otherwise. Add
    /// carries no weights.
    fn over_weight_loads(&self, f: impl Fn(usize, usize, usize) -> u64) -> u64 {
        let (geom, tile) = (self.geom, self.tile);
        if geom.kind == LayerKind::Add {
            return 0;
        }
        let resident = self.n_c == 1 && !(weights_follow_batch(geom.kind) && self.n_x > 1);
        let slice = |k: usize, c: usize| -> u64 {
            if resident {
                f(k, c, geom.ox())
            } else {
                let xs = runs(geom.ox(), tile.ox_t).map(|(ox, n)| n as u64 * f(k, c, ox));
                self.n_y as u64 * xs.iter().sum::<u64>()
            }
        };
        self.over_kc(slice)
    }

    /// `Σ price(tile)` over the partition, each tile priced at the layer's
    /// full output height: one call per (k run, c run, x tile), which
    /// equals the walk's sum when `o_yᵗ = o_y` and is constant in `o_yᵗ`.
    fn over_compute(&self, price: impl Fn(&TileInstance) -> u64) -> u64 {
        let (geom, tile) = (self.geom, self.tile);
        let ox = geom.ox();
        self.over_kc(|k, c| {
            (0..ox)
                .step_by(tile.ox_t)
                .map(|x0| {
                    price(&TileInstance {
                        k: 0..k,
                        oy: 0..geom.oy(),
                        ox: x0..(x0 + tile.ox_t).min(ox),
                        c: 0..c,
                        first_c: true,
                        last_c: true,
                    })
                })
                .sum()
        })
    }

    /// `Σ n · f(k, c)` over the partition's `(k, c)` block extents, `n`
    /// being how many blocks share them (c is k when lockstep).
    fn over_kc(&self, f: impl Fn(usize, usize) -> u64) -> u64 {
        let (geom, tile) = (self.geom, self.tile);
        let mut total = 0;
        for (k, n_k) in runs(geom.k, tile.k_t) {
            if self.lockstep {
                total += n_k as u64 * f(k, k);
                continue;
            }
            for (c, n_c) in runs(geom.c, tile.c_t) {
                total += (n_k * n_c) as u64 * f(k, c);
            }
        }
        total
    }
}

/// The `(extent, count)` runs of `dim` cut into tiles of `t`: the full
/// tiles, then the tail.
fn runs(dim: usize, t: usize) -> [(usize, usize); 2] {
    let n = dim.div_ceil(t);
    [(t, n - 1), (dim - (n - 1) * t, 1)]
}

/// The input-window extent of every tile of an output axis of `out`
/// positions cut into tiles of `t`.
fn extents(
    out: usize,
    t: usize,
    window: impl Fn(Range<usize>) -> Range<usize>,
) -> impl Iterator<Item = usize> {
    (0..out)
        .step_by(t)
        .map(move |a| window(a..(a + t).min(out)).len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryBudget, TilingObjective};
    use htvm_ir::DType;

    fn digital_model() -> CostModel {
        CostModel {
            version: 1,
            gamma: 4.0,
            dma_setup: 30,
            dma_bytes_per_cycle: 8,
            kernel_call_overhead: 800,
            tile_overhead: 300,
            engine: EngineModel::Digital {
                pe_rows: 16,
                pe_cols: 16,
                dw_macs_per_cycle_x100: 375,
                add_elems_per_cycle: 16,
                efficiency_pct: 40,
            },
        }
    }

    fn analog_model() -> CostModel {
        CostModel {
            version: 1,
            gamma: 4.0,
            dma_setup: 30,
            dma_bytes_per_cycle: 8,
            kernel_call_overhead: 800,
            tile_overhead: 300,
            engine: EngineModel::Analog {
                rows: 1152,
                cols: 512,
                row_load_cycles: ROW_LOAD_CYCLES,
                pass_cycles: PASS_CYCLES,
                efficiency_pct: 50,
            },
        }
    }

    const ROW_LOAD_CYCLES: u64 = 140;
    const PASS_CYCLES: u64 = 8;

    fn with_efficiency(mut engine: EngineModel, pct: u64) -> EngineModel {
        let (EngineModel::Digital { efficiency_pct, .. }
        | EngineModel::Analog { efficiency_pct, .. }) = &mut engine;
        *efficiency_pct = pct;
        engine
    }

    /// DIANA's digital engine at 100 % efficiency: exact arithmetic.
    fn digital() -> EngineModel {
        with_efficiency(digital_model().engine, 100)
    }

    /// DIANA's analog engine at 100 % efficiency.
    fn analog() -> EngineModel {
        with_efficiency(analog_model().engine, 100)
    }

    fn one_tile(g: &LayerGeometry) -> TileInstance {
        crate::tiles(g, &TileConfig::full(g)).remove(0)
    }

    #[test]
    fn aligned_conv_hits_peak_blocks() {
        // c=16, ix=16, fx=3 pad 1 -> ox=16, oy=16, k=16.
        let g = LayerGeometry::conv2d(16, 16, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1));
        let t = one_tile(&g);
        // k*oy*fy*fx * 1 * 1 = 16*16*9 = 2304 cycles.
        assert_eq!(digital().tile_cycles(&g, &t), 2304);
        // 256 MACs/cycle when perfectly aligned: macs = 16*16*9*256 = 589824.
        assert_eq!(t.macs(&g) / 2304, 256);
    }

    #[test]
    fn misaligned_channels_double_cost() {
        let a = LayerGeometry::conv2d(16, 8, 8, 16, 3, 3, (1, 1), (1, 1, 1, 1));
        let b = LayerGeometry::conv2d(17, 8, 8, 16, 3, 3, (1, 1), (1, 1, 1, 1));
        let ca = digital().tile_cycles(&a, &one_tile(&a));
        let cb = digital().tile_cycles(&b, &one_tile(&b));
        assert_eq!(cb, 2 * ca);
    }

    #[test]
    fn fc_unrolls_c_and_k() {
        let g = LayerGeometry::dense(64, 32);
        let t = one_tile(&g);
        // ceil(64/16) * ceil(32/16) = 4 * 2.
        assert_eq!(digital().tile_cycles(&g, &t), 8);
    }

    #[test]
    fn depthwise_is_slow() {
        let g = LayerGeometry::depthwise(64, 25, 5, 3, 3, (1, 1), (1, 1, 1, 1));
        let t = one_tile(&g);
        let macs = t.macs(&g);
        let cycles = digital().tile_cycles(&g, &t);
        let rate = macs as f64 / cycles as f64;
        assert!(
            rate <= 3.76,
            "depthwise must not beat 3.75 MAC/cycle, got {rate}"
        );
        assert!(rate > 3.5);
    }

    #[test]
    fn add_streams_elements() {
        let g = LayerGeometry::add(16, 8, 8);
        let t = one_tile(&g);
        assert_eq!(digital().tile_cycles(&g, &t), (16 * 64) / 16);
    }

    #[test]
    fn efficiency_scales_cycles() {
        let g = LayerGeometry::dense(64, 32);
        let t = one_tile(&g);
        let full = digital().tile_cycles(&g, &t);
        let half = with_efficiency(digital(), 50);
        assert_eq!(half.tile_cycles(&g, &t), 2 * full);
    }

    #[test]
    fn weight_load_scales_with_mapped_rows() {
        let g = LayerGeometry::conv2d(64, 64, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1))
            .with_weight_dtype(DType::Ternary);
        let t = one_tile(&g);
        // 64 * 9 = 576 rows.
        assert_eq!(
            analog().program_cycles(&g, t.c.len()),
            576 * ROW_LOAD_CYCLES
        );
    }

    #[test]
    fn compute_is_per_spatial_position() {
        let g = LayerGeometry::conv2d(64, 64, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1))
            .with_weight_dtype(DType::Ternary);
        let t = one_tile(&g);
        // 16x16 output positions, K=64 <= 512 cols -> one pass each.
        assert_eq!(analog().tile_cycles(&g, &t), 256 * PASS_CYCLES);
    }

    #[test]
    fn wide_k_needs_multiple_column_passes() {
        // K > cols: not representable in one tile on the real array, but
        // the cost model still charges the extra passes defensively.
        let g = LayerGeometry::conv2d(8, 1024, 4, 4, 1, 1, (1, 1), (0, 0, 0, 0))
            .with_weight_dtype(DType::Ternary);
        let t = one_tile(&g);
        assert_eq!(analog().tile_cycles(&g, &t), 16 * 2 * PASS_CYCLES);
    }

    #[test]
    fn small_layer_is_load_dominated() {
        // The DS-CNN pointwise shape: tiny compute, non-trivial load.
        let g = LayerGeometry::conv2d(64, 64, 25, 5, 1, 1, (1, 1), (0, 0, 0, 0))
            .with_weight_dtype(DType::Ternary);
        let t = one_tile(&g);
        let load = analog().program_cycles(&g, t.c.len());
        let compute = analog().tile_cycles(&g, &t);
        assert!(
            load > compute * 5,
            "load {load} should dominate compute {compute}"
        );
    }

    #[test]
    fn dense_maps_c_rows() {
        let g = LayerGeometry::dense(640, 128).with_weight_dtype(DType::Ternary);
        let t = one_tile(&g);
        assert_eq!(
            analog().program_cycles(&g, t.c.len()),
            640 * ROW_LOAD_CYCLES
        );
        assert_eq!(analog().tile_cycles(&g, &t), PASS_CYCLES);
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(digital_model().transfer_cycles(0, 5), 0);
    }

    #[test]
    fn streaming_rate() {
        // 800 bytes over one chunk: 30 setup + 100 stream.
        assert_eq!(digital_model().transfer_cycles(800, 1), 130);
    }

    #[test]
    fn chunk_count_scales_setup() {
        assert_eq!(digital_model().transfer_cycles(800, 10), 300 + 100);
    }

    #[test]
    fn chunks_clamped_to_one() {
        assert_eq!(digital_model().transfer_cycles(8, 0), 30 + 1);
    }

    #[test]
    fn partial_beat_rounds_up() {
        assert_eq!(digital_model().transfer_cycles(9, 1), 30 + 2);
    }

    #[test]
    fn full_tile_scores_one() {
        let g = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let cm = digital_model();
        let t = cm.score_term(&g, &TileConfig::full(&g));
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn splitting_costs_cycles() {
        let g = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let cm = digital_model();
        let full = cm.predicted_cycles(&g, &TileConfig::full(&g));
        let split = cm.predicted_cycles(
            &g,
            &TileConfig {
                c_t: 32,
                k_t: 32,
                oy_t: 8,
                ox_t: 16,
            },
        );
        assert!(
            split > full,
            "splitting must predict more cycles ({split} vs {full})"
        );
    }

    #[test]
    fn misalignment_penalized_like_eq3() {
        // 17 channels cost a second row pass just like the simulator.
        let g16 = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let cm = digital_model();
        let aligned = cm.predicted_cycles(
            &g16,
            &TileConfig {
                c_t: 16,
                k_t: 64,
                oy_t: 32,
                ox_t: 32,
            },
        );
        let misaligned = cm.predicted_cycles(
            &g16,
            &TileConfig {
                c_t: 17,
                k_t: 64,
                oy_t: 32,
                ox_t: 32,
            },
        );
        assert!(misaligned > aligned);
    }

    #[test]
    fn reduction_split_pays_weight_reloads() {
        let g = LayerGeometry::conv2d(64, 64, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1));
        let cm = digital_model();
        let unsplit = cm.predicted_cycles(
            &g,
            &TileConfig {
                c_t: 64,
                k_t: 16,
                oy_t: 8,
                ox_t: 16,
            },
        );
        let split = cm.predicted_cycles(
            &g,
            &TileConfig {
                c_t: 32,
                k_t: 16,
                oy_t: 8,
                ox_t: 16,
            },
        );
        assert!(
            split > unsplit,
            "reduction splits reload weights per tile ({split} vs {unsplit})"
        );
    }

    #[test]
    fn analog_charges_row_programming() {
        let g = LayerGeometry::conv2d(64, 64, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1))
            .with_weight_dtype(DType::Ternary);
        let cm = analog_model();
        let one = cm.predicted_cycles(&g, &TileConfig::full(&g));
        // Splitting k doubles the weight-programming passes.
        let split = cm.predicted_cycles(
            &g,
            &TileConfig {
                c_t: 64,
                k_t: 32,
                oy_t: 16,
                ox_t: 16,
            },
        );
        assert!(split > one);
    }

    #[test]
    fn score_is_monotone_in_oy() {
        // The solver's o_y bisection requires every objective term to be
        // non-decreasing in o_yᵗ. Sweep the predictor across shapes that
        // exercise halos, strides > filter, padding and both engines.
        let geoms = [
            LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1)),
            LayerGeometry::conv2d(3, 16, 32, 32, 3, 3, (2, 2), (1, 1, 1, 1)),
            LayerGeometry::conv2d(16, 32, 25, 5, 1, 1, (1, 1), (0, 0, 0, 0)),
            LayerGeometry::conv2d(8, 8, 24, 24, 1, 1, (2, 2), (0, 0, 0, 0)), // stride > filter
            LayerGeometry::depthwise(64, 25, 5, 3, 3, (1, 1), (1, 1, 1, 1)),
            LayerGeometry::add(32, 16, 16),
        ];
        for cm in [digital_model(), analog_model()] {
            for g in &geoms {
                for c_t in [1, 3, 16, g.c] {
                    if c_t > g.c {
                        continue;
                    }
                    for ox_t in [1, g.ox().div_ceil(2), g.ox()] {
                        let k_t = if matches!(g.kind, LayerKind::DepthwiseConv2d | LayerKind::Add) {
                            c_t
                        } else {
                            g.k
                        };
                        let mut prev = f64::NEG_INFINITY;
                        for oy_t in 1..=g.oy() {
                            let tile = TileConfig {
                                c_t,
                                k_t,
                                oy_t,
                                ox_t,
                            };
                            let s = cm.score_term(g, &tile);
                            assert!(
                                s >= prev - 1e-12,
                                "score must not decrease in oy_t: {:?} c_t={c_t} ox_t={ox_t} \
                                 oy_t={oy_t} gave {s} after {prev}",
                                g.kind
                            );
                            prev = s;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn objective_with_cost_model_prefers_cheaper_tiles() {
        let g = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let budget = MemoryBudget::unified(1 << 20);
        let obj = TilingObjective::calibrated(digital_model());
        let tall = TileConfig {
            c_t: 64,
            k_t: 64,
            oy_t: 16,
            ox_t: 32,
        };
        let shredded = TileConfig {
            c_t: 8,
            k_t: 8,
            oy_t: 2,
            ox_t: 4,
        };
        assert!(obj.score(&g, &tall, &budget) > obj.score(&g, &shredded, &budget));
    }

    #[test]
    fn identity_bits_distinguish_models() {
        let a = digital_model();
        let mut b = a;
        b.version = 2;
        assert_ne!(a.identity_bits(), b.identity_bits());
        let mut c = a;
        c.gamma = 3.0;
        assert_ne!(a.identity_bits(), c.identity_bits());
        assert_ne!(a.identity_bits(), analog_model().identity_bits());
    }

    /// The tile walk summed over `tiles()`: input chunks of every fetched
    /// slice (a tile re-fetches only when its `(c, oy, ox)` slice changes),
    /// output chunks of every tile, one weight load per change of the
    /// weight slice with the elements it stages, and each engine's compute.
    fn walked(g: &LayerGeometry, t: &TileConfig, engines: [EngineModel; 2]) -> [u64; 6] {
        let [mut input, mut output, mut loads, mut staged, mut digital, mut analog] = [0; 6];
        let (mut prev_input, mut prev_weights) = (None, None);
        for inst in crate::tiles(g, t) {
            let slice = (inst.c.clone(), inst.oy.clone(), inst.ox.clone());
            if prev_input.as_ref() != Some(&slice) {
                input += inst.input_chunks(g) as u64;
                prev_input = Some(slice);
            }
            output += inst.output_chunks(g) as u64;
            let weights = Some(inst.weight_slice(g));
            if g.kind != LayerKind::Add && prev_weights != weights {
                loads += 1;
                staged += staged_weight_elems(g, inst.k.len(), inst.c.len(), inst.ox.len()) as u64;
                prev_weights = weights;
            }
            digital += engines[0].tile_cycles(g, &inst);
            analog += engines[1].tile_cycles(g, &inst);
        }
        [input, output, loads, staged, digital, analog]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn closed_form_counts_transfers_like_the_tile_walk(
            kind in 0usize..5,
            c in 1usize..=6,
            k in 1usize..=6,
            iy in 1usize..=8,
            ix in 1usize..=8,
            f in 1usize..=3,
            s in 1usize..=3,
        ) {
            // Unpadded, filter ≥ stride: the clamped row total is exact.
            let s = s.min(f);
            let (iy, ix) = (iy.max(f), ix.max(f));
            let g = match kind {
                0 => LayerGeometry::conv2d(c, k, iy, ix, f, f, (s, s), (0, 0, 0, 0)),
                1 => LayerGeometry::depthwise(c, iy, ix, f, f, (s, s), (0, 0, 0, 0)),
                2 => LayerGeometry::dense(c, k),
                3 => LayerGeometry::matmul(c, k, iy, ix.min(3), s == 2),
                _ => LayerGeometry::add(c, iy, ix),
            };
            let engines = [digital_model().engine, analog_model().engine];
            let lockstep = matches!(g.kind, LayerKind::DepthwiseConv2d | LayerKind::Add);
            for c_t in 1..=g.c {
                for k_t in 1..=g.k {
                    if lockstep && k_t != c_t {
                        continue;
                    }
                    for oy_t in 1..=g.oy() {
                        for ox_t in 1..=g.ox() {
                            let tile = TileConfig { c_t, k_t, oy_t, ox_t };
                            let p = Partition::new(&g, &tile);
                            let compute = |e: EngineModel| p.over_compute(|i| e.tile_cycles(&g, i));
                            let closed = [
                                p.input_chunks() as u64,
                                p.output_chunks() as u64,
                                p.over_weight_loads(|_, _, _| 1),
                                p.over_weight_loads(|k, c, ox| staged_weight_elems(&g, k, c, ox) as u64),
                                compute(engines[0]),
                                compute(engines[1]),
                            ];
                            let walk = walked(&g, &tile, engines);
                            proptest::prop_assert_eq!(
                                closed[..4],
                                walk[..4],
                                "closed form {closed:?} vs walk {walk:?} for {g:?} {tile:?}"
                            );
                            // Compute is priced at full height: exact when
                            // the tile is, else one rounding per tile apart.
                            let slack = if oy_t == g.oy() { 0 } else { 3 * tile.num_tiles(&g) as u64 };
                            for (closed, walk) in closed[4..].iter().zip(&walk[4..]) {
                                proptest::prop_assert!(
                                    closed.abs_diff(*walk) <= slack,
                                    "compute {closed} vs walk {walk} for {g:?} {tile:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
