//! The tiling objective: Eq. 1 of the paper, with the DIANA heuristics of
//! Eq. 3–5 as pluggable terms, or — calibrated — one predicted-cycle term
//! from the platform's [`CostModel`].

use crate::{
    tile_fits, tile_memory, CostModel, LayerGeometry, LayerKind, MemoryBudget, TileConfig,
};
use serde::{Deserialize, Serialize};

/// An accelerator-aware tiling heuristic `Hᵢ` (paper §III-B/C).
///
/// Each heuristic scores a candidate tile in `[0, 1]`; the solver maximizes
/// `α·(memory utilization) + Σᵢ βᵢ·Hᵢ` (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Heuristic {
    /// Eq. 3: `H = (Cᵗ − 1) mod m`, maximal when the input-channel tile is
    /// a multiple of the PE-array row count `m` (16 on DIANA's digital
    /// accelerator).
    PeAlignC {
        /// PE-array row count.
        modulo: usize,
    },
    /// Eq. 4: `H = (i_xᵗ − 1) mod m`, maximal when the input-width tile is
    /// a multiple of the PE-array column count.
    PeAlignIx {
        /// PE-array column count.
        modulo: usize,
    },
    /// Eq. 5: `H = i_yᵗ` — maximize the input-height tile to coalesce DMA
    /// transfers. In the C–y–x layout rows are only contiguous across `y`
    /// when the tile spans the full width, so the score is gated on
    /// `i_xᵗ = i_x`: growing `i_yᵗ` while splitting `x` would *increase*
    /// the transfer count, the opposite of what Eq. 5 is for.
    DmaMaxIy,
    /// Analog IMC: maximize the fraction of array rows occupied by the
    /// tile's `Cᵗ·Fy·Fx` weight rows ("spatially unroll C as much as
    /// possible").
    ImcFillRows {
        /// Total array rows (1152 on DIANA).
        rows: usize,
    },
    /// Analog IMC: maximize the fraction of array columns occupied by `Kᵗ`
    /// ("spatially unroll K as much as possible").
    ImcFillCols {
        /// Total array columns (512 on DIANA).
        cols: usize,
    },
}

impl Heuristic {
    /// Scores a candidate tile in `[0, 1]` (1 is best).
    #[must_use]
    pub fn score(&self, geom: &LayerGeometry, tile: &TileConfig) -> f64 {
        let (_iy_t, ix_t) = tile.in_dims(geom);
        match *self {
            Heuristic::PeAlignC { modulo } => {
                // (c_t - 1) mod m is maximal (m - 1) when c_t ≡ 0 (mod m);
                // also maximal when c_t equals the whole (smaller) layer dim.
                // Degenerate moduli (0, 1) score 1: every size is
                // trivially aligned to a 1-lane array, and `% 0` / `/ 0`
                // must not reach the solver.
                if modulo <= 1 || tile.c_t == geom.c {
                    1.0
                } else {
                    ((tile.c_t + modulo - 1) % modulo) as f64 / (modulo - 1) as f64
                }
            }
            Heuristic::PeAlignIx { modulo } => {
                if modulo <= 1 || ix_t == geom.ix {
                    1.0
                } else {
                    ((ix_t + modulo - 1) % modulo) as f64 / (modulo - 1) as f64
                }
            }
            Heuristic::DmaMaxIy => {
                // Gate on full *output* width: an ox split always forces
                // non-contiguous input fetches, even when the halo formula
                // caps i_xᵗ at the input width. Score the *output* rows
                // rather than the capped input rows — near the top of the
                // range the cap would otherwise make an oy-split tile look
                // as tall as the full layer while doubling the tile count.
                if tile.ox_t == geom.ox() {
                    tile.oy_t as f64 / geom.oy() as f64
                } else {
                    0.0
                }
            }
            Heuristic::ImcFillRows { rows } => {
                let used = (tile.c_t * geom.fy * geom.fx).min(rows);
                used as f64 / rows as f64
            }
            Heuristic::ImcFillCols { cols } => (tile.k_t.min(cols)) as f64 / cols as f64,
        }
    }
}

/// The full Eq. 1 objective: a memory-utilization weight `α` plus weighted
/// heuristic terms `βᵢ·Hᵢ`, optionally augmented with a predicted-cycle
/// term (see [`CostModel`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TilingObjective {
    /// Weight of the memory-utilization term.
    pub alpha: f64,
    /// Heuristic terms and their weights.
    pub terms: Vec<(Heuristic, f64)>,
    /// Cycle model scoring tiles by predicted cycles
    /// (`γ · predicted(full) / predicted(tile)`). `None` — the default,
    /// and what every pre-calibration serialized objective deserializes
    /// to — falls back to the Eq. 3–5 heuristics alone. Skipped when
    /// absent so the canonical JSON encoding (and with it every persisted
    /// artifact key) is unchanged for uncalibrated objectives.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cost_model: Option<CostModel>,
}

impl TilingObjective {
    /// Hardware-agnostic baseline: maximize memory utilization only
    /// (the round markers of Fig. 4).
    #[must_use]
    pub fn memory_only() -> Self {
        TilingObjective {
            alpha: 1.0,
            terms: Vec::new(),
            cost_model: None,
        }
    }

    /// DIANA digital-accelerator heuristics Eq. 3 and Eq. 4 only
    /// (the square markers of Fig. 4).
    #[must_use]
    pub fn diana_digital_pe_only() -> Self {
        TilingObjective {
            alpha: 1.0,
            terms: vec![
                (Heuristic::PeAlignC { modulo: 16 }, 2.0),
                (Heuristic::PeAlignIx { modulo: 16 }, 2.0),
            ],
            cost_model: None,
        }
    }

    /// The full DIANA digital objective: Eq. 3, 4 and 5 (the diamond
    /// markers of Fig. 4 and the configuration HTVM deploys with).
    #[must_use]
    pub fn diana_digital() -> Self {
        TilingObjective {
            alpha: 1.0,
            terms: vec![
                (Heuristic::PeAlignC { modulo: 16 }, 2.0),
                (Heuristic::PeAlignIx { modulo: 16 }, 2.0),
                // Sub-unit weight: Eq. 5 should steer among comparable
                // tiles, not trade away memory utilization (and with it
                // tile count) for height.
                (Heuristic::DmaMaxIy, 0.2),
            ],
            cost_model: None,
        }
    }

    /// The DIANA analog objective: fill the 1152×512 IMC macro ("spatially
    /// unroll C and K as much as possible", paper §III-C).
    #[must_use]
    pub fn diana_analog() -> Self {
        TilingObjective {
            alpha: 1.0,
            terms: vec![
                (Heuristic::ImcFillRows { rows: 1152 }, 2.0),
                (Heuristic::ImcFillCols { cols: 512 }, 2.0),
            ],
            cost_model: None,
        }
    }

    /// The calibrated objective: memory utilization plus the model's
    /// predicted-cycle term, with no Eq. 3–5 heuristics — the alignment
    /// and transfer-count effects they proxy are captured directly by the
    /// predictor. The platform derives each engine's model
    /// (`htvm_soc::DianaConfig::cost_model`).
    #[must_use]
    pub fn calibrated(cost_model: CostModel) -> Self {
        TilingObjective {
            alpha: 1.0,
            terms: Vec::new(),
            cost_model: Some(cost_model),
        }
    }

    /// Evaluates Eq. 1 for a candidate tile. Higher is better.
    ///
    /// The memory term is the mean occupied fraction of the budget's
    /// activation (and, if present, weight) capacities.
    #[must_use]
    pub fn score(&self, geom: &LayerGeometry, tile: &TileConfig, budget: &MemoryBudget) -> f64 {
        let mem_term = mem_fraction(tile_memory(geom, tile).total(), budget);
        let h: f64 = self
            .terms
            .iter()
            .map(|(heur, beta)| beta * heur.score(geom, tile))
            .sum();
        let cost = self
            .cost_model
            .map_or(0.0, |cm| cm.gamma * cm.score_term(geom, tile));
        self.alpha * mem_term + h + cost
    }

    /// An upper bound on [`score`](Self::score) over the tiles with input
    /// slice `c_t` that fit `b`, or `None` if none does: `score`'s own
    /// operations on inputs at least as large, so never below a score.
    pub(crate) fn bound(&self, geom: &LayerGeometry, c_t: usize, b: &MemoryBudget) -> Option<f64> {
        // At fixed Cᵗ, Eq. 2 and memory use are monotone in the other three
        // sizes: the smallest tile decides fit, the largest bounds bytes.
        let lockstep = matches!(geom.kind, LayerKind::DepthwiseConv2d | LayerKind::Add);
        let (full, k_t) = (TileConfig::full(geom), if lockstep { c_t } else { geom.k });
        let largest = TileConfig { c_t, k_t, ..full };
        let smallest = TileConfig {
            k_t: if lockstep { c_t } else { 1 },
            oy_t: 1,
            ox_t: 1,
            ..largest
        };
        if !tile_fits(geom, &smallest, b) {
            return None;
        }
        let mem = tile_memory(geom, &largest);
        let act = (mem.input + mem.output).min(b.act_bytes);
        let bytes = match (b.array, b.weight_bytes) {
            (Some(_), _) => act + mem.weight,
            (None, Some(wb)) => act + mem.weight.min(wb),
            (None, None) => mem.total().min(b.act_bytes),
        };
        // A term scoring in [0, max] adds at most w·max, or 0 if w < 0.
        let capped = |w: f64, max: f64| if w < 0.0 { 0.0 } else { w * max };
        let h: f64 = self
            .terms
            .iter()
            .map(|&(heur, beta)| {
                let top = heur.score(geom, &largest);
                match heur {
                    // Functions of Cᵗ alone: exact.
                    Heuristic::PeAlignC { .. } | Heuristic::ImcFillRows { .. } => beta * top,
                    // Eq. 4 is periodic in i_xᵗ; Eq. 5 and the column fill
                    // peak on the largest tile.
                    Heuristic::PeAlignIx { .. } => capped(beta, 1.0),
                    Heuristic::DmaMaxIy | Heuristic::ImcFillCols { .. } => capped(beta, top),
                }
            })
            .sum();
        // Calibrated solves stay exhaustive: the cycle ratio is unbounded.
        let cost = self.cost_model.map_or(0.0, |_| f64::INFINITY);
        let bound = capped(self.alpha, mem_fraction(bytes, b)) + h + cost;
        // A NaN weight orders nothing, so it prunes nothing either.
        Some(if bound.is_nan() { f64::INFINITY } else { bound })
    }
}

/// Eq. 1's memory term: the single sum L1ʷ + L1ᵒᵘᵗ + L1ⁱⁿ over DIANA's
/// combined capacity, so leaving the weight store idle costs utilization.
fn mem_fraction(bytes: usize, budget: &MemoryBudget) -> f64 {
    let capacity = budget.act_bytes + budget.weight_bytes.unwrap_or(0);
    (bytes as f64 / capacity as f64).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> LayerGeometry {
        LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1))
    }

    fn tile(c: usize, k: usize, oy: usize, ox: usize) -> TileConfig {
        TileConfig {
            c_t: c,
            k_t: k,
            oy_t: oy,
            ox_t: ox,
        }
    }

    #[test]
    fn pe_align_c_peaks_at_multiples_of_16() {
        let h = Heuristic::PeAlignC { modulo: 16 };
        let g = geom();
        assert_eq!(h.score(&g, &tile(16, 64, 32, 32)), 1.0);
        assert_eq!(h.score(&g, &tile(32, 64, 32, 32)), 1.0);
        assert!(h.score(&g, &tile(17, 64, 32, 32)) < 0.1);
        // Whole-dimension tiles always score 1 (nothing to align).
        assert_eq!(h.score(&g, &tile(64, 64, 32, 32)), 1.0);
    }

    #[test]
    fn pe_align_ix_uses_derived_input_width() {
        let h = Heuristic::PeAlignIx { modulo: 16 };
        let g = geom();
        // ox_t = 14 -> ix_t = 16: aligned.
        assert_eq!(h.score(&g, &tile(64, 64, 32, 14)), 1.0);
        // ox_t = 15 -> ix_t = 17: misaligned.
        assert!(h.score(&g, &tile(64, 64, 32, 15)) < 0.1);
    }

    #[test]
    fn dma_heuristic_prefers_tall_tiles() {
        let h = Heuristic::DmaMaxIy;
        let g = geom();
        assert!(h.score(&g, &tile(64, 64, 32, 32)) > h.score(&g, &tile(64, 64, 8, 32)));
    }

    #[test]
    fn imc_heuristics_reward_array_fill() {
        let rows = Heuristic::ImcFillRows { rows: 1152 };
        let cols = Heuristic::ImcFillCols { cols: 512 };
        let g = geom(); // c*fy*fx = 64*9 = 576 rows
        let full = tile(64, 64, 32, 32);
        assert!((rows.score(&g, &full) - 0.5).abs() < 1e-9);
        assert!((cols.score(&g, &full) - 0.125).abs() < 1e-9);
        assert!(rows.score(&g, &tile(32, 64, 32, 32)) < rows.score(&g, &full));
    }

    #[test]
    fn degenerate_modulus_literals_score_finite() {
        // A hand-built literal may carry any modulus; the score must
        // neither panic (`% 0`) nor go NaN (`/ 0`) — a 1-lane array is
        // always perfectly aligned.
        let g = geom();
        for modulo in [0, 1] {
            for h in [
                Heuristic::PeAlignC { modulo },
                Heuristic::PeAlignIx { modulo },
            ] {
                let s = h.score(&g, &tile(17, 64, 32, 15));
                assert_eq!(s, 1.0, "{h:?} must score 1.0, got {s}");
            }
        }
    }

    #[test]
    fn objective_combines_terms() {
        let g = geom();
        let budget = MemoryBudget::unified(1 << 20);
        let obj = TilingObjective::diana_digital();
        let aligned = tile(16, 64, 32, 14);
        let misaligned = tile(17, 64, 32, 15);
        assert!(obj.score(&g, &aligned, &budget) > obj.score(&g, &misaligned, &budget));
        // The memory-only baseline prefers the (bigger) misaligned tile.
        let base = TilingObjective::memory_only();
        assert!(base.score(&g, &misaligned, &budget) > base.score(&g, &aligned, &budget));
    }
}
