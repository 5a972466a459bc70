//! Measurement-calibrated cycle prediction for candidate tiles.
//!
//! The paper's Eq. 3–5 heuristics reward *proxies* for speed (PE
//! alignment, transfer coalescing). A [`CostModel`] instead predicts the
//! cycles a candidate [`TileConfig`] would cost end to end — DMA traffic,
//! weight (re)loads, per-tile host overhead and engine compute — from
//! per-engine coefficients derived offline from the platform description
//! (`CALIBRATION.json`, see `docs/CALIBRATION.md`). The objective then
//! scores a tile by `γ · predicted(full) / predicted(tile)`, a number in
//! `(0, 1]` that is 1 exactly when tiling costs nothing.
//!
//! # Prediction, not simulation
//!
//! [`CostModel::predicted_cycles`] is a *closed-form estimate* over the
//! tile partition, evaluated in `O(1)` per candidate — it never enumerates
//! tile instances. It mirrors the simulator's accounting (transfer counts
//! from the C–y–x layout, weight reloads on reduction splits, alignment
//! quantization of the PE array) but rounds per-transfer and per-pass
//! ceilings at the aggregate level and ignores border-halo clamping, so it
//! tracks rather than reproduces simulated totals. That is the right
//! trade: the solver compares thousands of candidates per layer and only
//! the *ordering* matters.
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
//! shrink under splitting). `tests::score_is_monotone_in_oy` sweeps the
//! invariant.

use crate::{LayerGeometry, LayerKind, TileConfig};
use serde::{Deserialize, Serialize};

/// Per-engine compute coefficients of a [`CostModel`].
///
/// The variants mirror the two DIANA accelerators' architectural shapes;
/// the *values* come from calibration, not from the platform defaults.
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

/// A calibrated per-engine cycle model for scoring candidate tiles.
///
/// Attach one to a [`TilingObjective`](crate::TilingObjective) (via
/// [`TilingObjective::calibrated`](crate::TilingObjective::calibrated) or
/// the `cost_model` field) and the objective gains a
/// `γ · predicted(full) / predicted(tile)` term. The `version` is part of
/// the model's cache identity: bumping it (as the `calibrate` tool does
/// when the fit procedure changes) keeps artifacts produced under
/// different calibrations from ever aliasing in the tile cache or the
/// artifact store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Calibration schema/fit version (mixed into cache keys).
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
        let lockstep = matches!(geom.kind, LayerKind::DepthwiseConv2d | LayerKind::Add);
        let (oy, ox) = (geom.oy(), geom.ox());
        let n_k = geom.k.div_ceil(tile.k_t);
        let n_y = oy.div_ceil(tile.oy_t);
        let n_x = ox.div_ceil(tile.ox_t);
        let n_c = if lockstep {
            1
        } else {
            geom.c.div_ceil(tile.c_t)
        };
        let n_tiles = (n_k * n_y * n_x * n_c) as u64;

        let overhead = self.kernel_call_overhead + self.tile_overhead * n_tiles;

        // Exact partition sums of input rows/cols over the y/x tile grids,
        // with the halo clamped below at the stride (module docs).
        let (sy, sx) = geom.strides;
        let total_rows = sy * oy + n_y * (geom.fy.max(sy) - sy);
        let total_cols = sx * ox + n_x * (geom.fx.max(sx) - sx);

        // Input traffic. Every (y, x, c) position fetches its slice; the
        // simulator re-fetches per output-channel block unless a single
        // slice stays resident across the whole layer. Lockstep layers
        // fetch each channel block exactly once.
        let k_fetch = if lockstep || n_y * n_x * n_c == 1 {
            1
        } else {
            n_k
        };
        let operands = if geom.kind == LayerKind::Add { 2 } else { 1 };
        let in_elems = geom.c * total_rows * total_cols * k_fetch;
        let in_bytes = (geom.act_dtype.storage_bytes(in_elems) * operands) as u64;
        // Transfer counts from the C–y–x layout (one per contiguous run).
        let in_chunks = (operands
            * if n_x > 1 {
                k_fetch * geom.c * total_rows * n_x
            } else if n_y > 1 {
                k_fetch * geom.c * n_y
            } else if lockstep {
                n_k
            } else if n_c == 1 {
                1
            } else {
                n_k * n_c
            }) as u64;
        let input_dma = self.dma_setup * in_chunks + in_bytes.div_ceil(self.dma_bytes_per_cycle);

        // Weight traffic. Weights reload whenever the (k, c) slice
        // changes: once per k block when the reduction is unsplit, once
        // per tile otherwise.
        let weight = if geom.kind == LayerKind::Add {
            0
        } else {
            // Matmul stages its b operand per (k, c, batch) slice: it stays
            // resident across output rows only when reduction *and* batch
            // are unsplit. Conv/dense weights key on (k, c) alone.
            let resident = if geom.kind == LayerKind::MatMul {
                n_c == 1 && n_x == 1
            } else {
                n_c == 1
            };
            let loads = if resident { n_k as u64 } else { n_tiles };
            match self.engine {
                EngineModel::Digital { .. } => {
                    let sweeps = if resident {
                        1
                    } else if geom.kind == LayerKind::MatMul {
                        n_y
                    } else {
                        n_y * n_x
                    };
                    let bytes = (geom.weight_bytes() * sweeps) as u64;
                    self.dma_setup * loads + bytes.div_ceil(self.dma_bytes_per_cycle)
                }
                EngineModel::Analog {
                    rows,
                    row_load_cycles,
                    ..
                } => {
                    let per_load = match geom.kind {
                        LayerKind::Conv2d => tile.c_t * geom.fy * geom.fx,
                        LayerKind::Dense | LayerKind::MatMul => tile.c_t,
                        LayerKind::DepthwiseConv2d | LayerKind::Add => 0,
                    };
                    loads * per_load.min(rows) as u64 * row_load_cycles
                }
            }
        };

        // Output traffic: every output element exactly once.
        let out_bytes = geom.act_dtype.storage_bytes(geom.k * oy * ox) as u64;
        let out_chunks = (if n_x > 1 {
            geom.k * oy * n_x
        } else if n_k * n_y > 1 {
            geom.k * n_y
        } else {
            1
        }) as u64;
        let output_dma = self.dma_setup * out_chunks + out_bytes.div_ceil(self.dma_bytes_per_cycle);

        overhead + input_dma + weight + output_dma + self.compute_cycles(geom, tile)
    }

    /// Engine compute over the whole partition (constant in `o_yᵗ`: the
    /// output-height tiles always sum to `o_y` and the alignment ceilings
    /// quantize only channel and width dimensions).
    fn compute_cycles(&self, geom: &LayerGeometry, tile: &TileConfig) -> u64 {
        let lockstep = matches!(geom.kind, LayerKind::DepthwiseConv2d | LayerKind::Add);
        let (oy, ox) = (geom.oy(), geom.ox());
        let n_c = if lockstep {
            1
        } else {
            geom.c.div_ceil(tile.c_t)
        };
        let n_k = geom.k.div_ceil(tile.k_t);
        let n_x = ox.div_ceil(tile.ox_t);
        // Σ over a partition of `dim` into `n` tiles of `t` (plus a tail)
        // of `⌈len/q⌉`.
        let blocks = |dim: usize, t: usize, n: usize, q: usize| -> u64 {
            let tail = dim - (n - 1) * t;
            ((n - 1) * t.div_ceil(q) + tail.div_ceil(q)) as u64
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
                        let c_blk = blocks(geom.c, tile.c_t, n_c, pe_rows);
                        // Interior input-width per x tile, clamped to the
                        // real input; the x tail uses its own halo.
                        let ix_of =
                            |ox_len: usize| ((ox_len - 1) * geom.strides.1 + geom.fx).min(geom.ix);
                        let ox_tail = ox - (n_x - 1) * tile.ox_t;
                        let x_blk = ((n_x - 1) * ix_of(tile.ox_t).div_ceil(pe_cols)
                            + ix_of(ox_tail).div_ceil(pe_cols))
                            as u64;
                        (geom.k * oy * geom.fy * geom.fx) as u64 * c_blk * x_blk
                    }
                    LayerKind::Dense => {
                        blocks(geom.c, tile.c_t, n_c, pe_rows)
                            * blocks(geom.k, tile.k_t, n_k, pe_cols)
                    }
                    // One PE-array pass per (sequence row, c block, k
                    // block); constant in `o_yᵗ` like dense.
                    LayerKind::MatMul => {
                        (oy * ox) as u64
                            * blocks(geom.c, tile.c_t, n_c, pe_rows)
                            * blocks(geom.k, tile.k_t, n_k, pe_cols)
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
                        (n_c * oy * ox) as u64 * blocks(geom.k, tile.k_t, n_k, cols) * pass_cycles
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
}
