//! Predicted cycles for candidate tiles.
//!
//! The paper's Eq. 3–5 heuristics reward *proxies* for speed (PE
//! alignment, transfer coalescing). A [`CostModel`] instead predicts the
//! cycles a candidate [`TileConfig`] would cost end to end — DMA traffic,
//! weight (re)loads, per-tile host overhead and engine compute — from
//! per-engine coefficients read off the platform description
//! (`htvm_soc::DianaConfig::cost_model`, see `docs/CALIBRATION.md`). The
//! objective then scores a tile by `γ · predicted(full) / predicted(tile)`,
//! a number in `(0, 1]` that is 1 exactly when tiling costs nothing.
//!
//! # Prediction, not simulation
//!
//! [`CostModel::predicted_cycles`] is a *closed form* over the tile
//! partition — it never enumerates tile instances — but it counts DMA
//! transfers with the tile walk's own rules: [`input_chunks`] and
//! [`output_chunks`] on each axis's actual window extents, and one weight
//! load per change of the tile's
//! [`weight_slice`](crate::TileInstance::weight_slice), each staging
//! [`staged_weight_elems`]. It rounds byte and compute ceilings at the
//! aggregate level and prices input rows over a stride-clamped total
//! (below), so it tracks rather than reproduces simulated totals. That is
//! the right trade: the solver compares thousands of candidates per layer
//! and only the *ordering* matters.
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
//! `F_y ≥ s_y`. `tests::score_is_monotone_in_oy` sweeps the invariant.

use crate::tile::{col_window, input_chunks, output_chunks, row_window, weights_follow_batch};
use crate::{mapped_weight_rows, staged_weight_elems, LayerGeometry, LayerKind, TileConfig};
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// A per-engine cycle model for scoring candidate tiles.
///
/// Attach one to a [`TilingObjective`](crate::TilingObjective) with
/// [`TilingObjective::calibrated`](crate::TilingObjective::calibrated) and
/// the objective gains a `γ · predicted(full) / predicted(tile)` term. The
/// `version` is part of the model's cache identity: it is bumped whenever
/// predictions change, so artifacts produced under different models never
/// alias in the tile cache or the artifact store.
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
        let mut v = vec![
            u64::from(self.version),
            self.gamma.to_bits(),
            self.dma_setup,
            self.dma_bytes_per_cycle,
            self.kernel_call_overhead,
            self.tile_overhead,
        ];
        match self.engine {
            EngineModel::Digital {
                pe_rows,
                pe_cols,
                dw_macs_per_cycle_x100,
                add_elems_per_cycle,
                efficiency_pct,
            } => {
                v.push(0);
                v.extend([
                    pe_rows as u64,
                    pe_cols as u64,
                    dw_macs_per_cycle_x100,
                    add_elems_per_cycle,
                    efficiency_pct,
                ]);
            }
            EngineModel::Analog {
                rows,
                cols,
                row_load_cycles,
                pass_cycles,
                efficiency_pct,
            } => {
                v.push(1);
                v.extend([
                    rows as u64,
                    cols as u64,
                    row_load_cycles,
                    pass_cycles,
                    efficiency_pct,
                ]);
            }
        }
        v
    }

    /// The objective term: `predicted(full tile) / predicted(tile)`, in
    /// `(0, 1]`. Non-decreasing in `o_yᵗ` (see the module docs).
    #[must_use]
    pub fn score_term(&self, geom: &LayerGeometry, tile: &TileConfig) -> f64 {
        let full = self.predicted_cycles(geom, &TileConfig::full(geom)).max(1);
        let this = self.predicted_cycles(geom, tile).max(1);
        full as f64 / this as f64
    }

    /// Predicted end-to-end cycles for executing the layer under `tile`:
    /// host overhead + input/weight/output DMA + engine compute, as a
    /// closed form over the tile partition (no instance enumeration).
    #[must_use]
    pub fn predicted_cycles(&self, geom: &LayerGeometry, tile: &TileConfig) -> u64 {
        let p = Partition::new(geom, tile);
        let n_tiles = (p.n_k * p.n_y * p.n_x * p.n_c) as u64;
        let overhead = self.kernel_call_overhead + self.tile_overhead * n_tiles;

        // Input traffic, two operands for element-wise add.
        let operands = if geom.kind == LayerKind::Add { 2 } else { 1 };
        let (total_rows, total_cols) = p.input_extents();
        let in_elems = geom.c * total_rows * total_cols * p.input_passes();
        let in_bytes = (geom.act_dtype.storage_bytes(in_elems) * operands) as u64;
        let in_chunks = (operands * p.input_chunks()) as u64;
        let input_dma = self.dma_setup * in_chunks + in_bytes.div_ceil(self.dma_bytes_per_cycle);

        // Weight traffic: a digital load is one DMA transfer of the staged
        // slice; an analog load programs the mapped rows into the array.
        let weight = match self.engine {
            EngineModel::Digital { .. } => {
                let loads = p.over_weight_loads(|_, _, _| 1) as u64;
                let elems = p.over_weight_loads(|k, c, ox| staged_weight_elems(geom, k, c, ox));
                let bytes = geom.w_dtype.storage_bytes(elems) as u64;
                self.dma_setup * loads + bytes.div_ceil(self.dma_bytes_per_cycle)
            }
            EngineModel::Analog {
                rows,
                row_load_cycles,
                ..
            } => {
                let mapped = p.over_weight_loads(|_, c, _| mapped_weight_rows(geom, c).min(rows));
                mapped as u64 * row_load_cycles
            }
        };

        // Output traffic: every output element exactly once.
        let out_bytes = geom.act_dtype.storage_bytes(geom.k * geom.oy() * geom.ox()) as u64;
        let out_chunks = p.output_chunks() as u64;
        let output_dma = self.dma_setup * out_chunks + out_bytes.div_ceil(self.dma_bytes_per_cycle);

        overhead + input_dma + weight + output_dma + self.compute_cycles(&p)
    }

    /// Engine compute over the whole partition (constant in `o_yᵗ`: the
    /// output-height tiles always sum to `o_y` and the alignment ceilings
    /// quantize only channel and width dimensions).
    fn compute_cycles(&self, p: &Partition) -> u64 {
        let (geom, tile) = (p.geom, p.tile);
        let (oy, ox) = (geom.oy(), geom.ox());
        // Σ of `⌈f(len)/q⌉` over the tiles of `dim` cut into `t`.
        let blocks = |dim: usize, t: usize, q: usize, f: &dyn Fn(usize) -> usize| -> u64 {
            let runs = runs(dim, t);
            runs.iter()
                .map(|&(len, n)| (n * f(len).div_ceil(q)) as u64)
                .sum()
        };
        match self.engine {
            EngineModel::Digital {
                pe_rows,
                pe_cols,
                dw_macs_per_cycle_x100,
                add_elems_per_cycle,
                efficiency_pct,
            } => {
                let ideal = match geom.kind {
                    LayerKind::Conv2d => {
                        // Interior input width per x tile, clamped to the
                        // real input; the x tail uses its own halo.
                        let ix_of = |ox: usize| ((ox - 1) * geom.strides.1 + geom.fx).min(geom.ix);
                        (geom.k * oy * geom.fy * geom.fx) as u64
                            * blocks(geom.c, tile.c_t, pe_rows, &|c| c)
                            * blocks(ox, tile.ox_t, pe_cols, &ix_of)
                    }
                    LayerKind::Dense => {
                        blocks(geom.c, tile.c_t, pe_rows, &|c| c)
                            * blocks(geom.k, tile.k_t, pe_cols, &|k| k)
                    }
                    // One PE-array pass per (sequence row, c block, k
                    // block); constant in `o_yᵗ` like dense.
                    LayerKind::MatMul => {
                        (oy * ox) as u64
                            * blocks(geom.c, tile.c_t, pe_rows, &|c| c)
                            * blocks(geom.k, tile.k_t, pe_cols, &|k| k)
                    }
                    LayerKind::DepthwiseConv2d => geom.macs() * 100 / dw_macs_per_cycle_x100.max(1),
                    LayerKind::Add => {
                        ((geom.k * oy * ox) as u64).div_ceil(add_elems_per_cycle.max(1))
                    }
                };
                (ideal * 100).div_ceil(efficiency_pct.max(1))
            }
            EngineModel::Analog {
                cols,
                pass_cycles,
                efficiency_pct,
                ..
            } => {
                let ideal = match geom.kind {
                    LayerKind::Conv2d | LayerKind::Dense => {
                        let k_blk = blocks(geom.k, tile.k_t, cols, &|k| k);
                        (p.n_c * oy * ox) as u64 * k_blk * pass_cycles
                    }
                    LayerKind::Add => ((geom.k * oy * ox) as u64).div_ceil(16),
                    // Never dispatched to analog; priced as raw MACs so
                    // the term stays defined.
                    LayerKind::DepthwiseConv2d | LayerKind::MatMul => geom.macs(),
                };
                (ideal * 100).div_ceil(efficiency_pct.max(1))
            }
        }
    }
}

/// A tile partition summarised per axis, from which the tile walk's
/// transfers are summed without enumerating its instances.
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
    fn over_weight_loads(&self, f: impl Fn(usize, usize, usize) -> usize) -> usize {
        let (geom, tile) = (self.geom, self.tile);
        if geom.kind == LayerKind::Add {
            return 0;
        }
        let resident = self.n_c == 1 && !(weights_follow_batch(geom.kind) && self.n_x > 1);
        let slice = |k: usize, c: usize| -> usize {
            if resident {
                f(k, c, geom.ox())
            } else {
                let xs = runs(geom.ox(), tile.ox_t);
                self.n_y * xs.iter().map(|&(ox, n)| n * f(k, c, ox)).sum::<usize>()
            }
        };
        runs(geom.k, tile.k_t)
            .iter()
            .map(|&(k, n_k)| {
                n_k * if self.lockstep {
                    slice(k, k)
                } else {
                    let cs = runs(geom.c, tile.c_t);
                    cs.iter().map(|&(c, n_c)| n_c * slice(k, c)).sum()
                }
            })
            .sum()
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
                row_load_cycles: 140,
                pass_cycles: 8,
                efficiency_pct: 50,
            },
        }
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
        use htvm_ir::DType;
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

    /// The tile walk's transfers summed over `tiles()`: input chunks of
    /// every fetched slice (a tile re-fetches only when its `(c, oy, ox)`
    /// slice changes), output chunks of every tile, and one weight load
    /// per change of the weight slice, with the elements it stages.
    fn walked(g: &LayerGeometry, t: &TileConfig) -> [usize; 4] {
        let [mut input, mut output, mut loads, mut staged] = [0; 4];
        let (mut prev_input, mut prev_weights) = (None, None);
        for inst in crate::tiles(g, t) {
            let slice = (inst.c.clone(), inst.oy.clone(), inst.ox.clone());
            if prev_input.as_ref() != Some(&slice) {
                input += inst.input_chunks(g);
                prev_input = Some(slice);
            }
            output += inst.output_chunks(g);
            let weights = Some(inst.weight_slice(g));
            if g.kind != LayerKind::Add && prev_weights != weights {
                loads += 1;
                staged += staged_weight_elems(g, inst.k.len(), inst.c.len(), inst.ox.len());
                prev_weights = weights;
            }
        }
        [input, output, loads, staged]
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
                            let closed = [
                                p.input_chunks(),
                                p.output_chunks(),
                                p.over_weight_loads(|_, _, _| 1),
                                p.over_weight_loads(|k, c, ox| staged_weight_elems(&g, k, c, ox)),
                            ];
                            let walk = walked(&g, &tile);
                            proptest::prop_assert_eq!(
                                closed,
                                walk,
                                "closed form {closed:?} vs walk {walk:?} for {g:?} {tile:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}
