//! The tiling solver: discrete maximization of Eq. 1 under Eq. 2.

use crate::{
    tile_fits, tile_memory, LayerGeometry, LayerKind, MemoryBudget, TileConfig, TileMemory,
    TilingError, TilingObjective,
};
use serde::{Deserialize, Serialize};

/// A solved tiling for one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileSolution {
    /// The chosen tile sizes.
    pub tile: TileConfig,
    /// L1 bytes the chosen tile occupies.
    pub mem: TileMemory,
    /// Number of accelerator invocations the tile loop will issue.
    pub n_tiles: usize,
    /// `true` if the whole layer fits untiled (the grey region of Fig. 4).
    pub fits_untiled: bool,
    /// The Eq. 1 objective value of the chosen tile.
    pub score: f64,
}

/// Finds the tile maximizing `objective` subject to `budget` (Eq. 1–2).
///
/// The search space is candidate sizes for the channel dimensions and the
/// output width, with the output height closed over analytically: for fixed
/// `(Cᵗ, Kᵗ, o_xᵗ)` every objective term is non-decreasing in `o_yᵗ`
/// (memory use and `H_DMA` grow, the PE-alignment terms are unaffected, and
/// the calibrated predicted-cycle term is non-decreasing in tile height by
/// construction — see [`crate::CostModel`]), so the maximal feasible
/// `o_yᵗ` is optimal and found by bisection.
///
/// The search is exact and bound-pruned. Each `Cᵗ` whose smallest tile
/// fits gets an upper bound on its tiles' scores: Eq. 1 on its largest tile
/// with the bytes clamped to Eq. 2, the `Cᵗ`-only terms exact, the other
/// heuristics at their maximum and a calibrated cost term at `+∞`. Slices
/// are visited by descending bound until one falls strictly below the best
/// score found.
///
/// Ties are broken deterministically but *arbitrarily* (by a hash of the
/// tile sizes), modeling the unspecified solution order of DORY's
/// constraint-programming solver. This is what produces the paper's Fig. 4
/// observation that heuristic-free tiling yields "either good tiles or
/// very bad tiles": a memory-maximal tile that splits the input width ties
/// with one that splits the height, and without the Eq. 5 term nothing
/// steers the choice toward the DMA-friendly one. Distinct tiles equal in
/// score and hash go to the smallest `(Cᵗ, Kᵗ, o_xᵗ)`, as in an exhaustive
/// walk, so the visiting order never shows.
///
/// # Errors
///
/// Returns [`TilingError::DoesNotFit`] when even the minimal tile violates
/// the budget (the layer cannot run on this engine).
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn solve(
    geom: &LayerGeometry,
    budget: &MemoryBudget,
    objective: &TilingObjective,
) -> Result<TileSolution, TilingError> {
    let full = TileConfig::full(geom);
    if tile_fits(geom, &full, budget) {
        // Grey region of Fig. 4: no tiling required.
        return Ok(make_solution(geom, budget, objective, full, true));
    }

    let mut by_bound: Vec<(f64, usize)> = candidates(geom.c)
        .into_iter()
        .filter_map(|c_t| Some((objective.bound(geom, c_t, budget)?, c_t)))
        .collect();
    by_bound.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut best: Option<(f64, TileConfig)> = None;
    for (bound, c_t) in by_bound {
        if best.is_some_and(|(score, _)| bound < score) {
            break;
        }
        any_fitting_tile(geom, budget, [c_t], |tile| {
            let score = objective.score(geom, &tile, budget);
            if is_better(score, &tile, &best) {
                best = Some((score, tile));
            }
            false // an optimum needs every tile of the slice seen
        });
    }

    match best {
        Some((_, tile)) => Ok(make_solution(geom, budget, objective, tile, false)),
        None => Err(TilingError::DoesNotFit {
            geom: Box::new(geom.clone()),
        }),
    }
}

/// Can `geom` be tiled into `budget` at all? Equal to
/// `solve(geom, budget, _).is_ok()` for every objective — the same
/// untiled shortcut and the same candidate enumeration — but stops at the
/// first tile that fits instead of scoring all of them. This is the
/// question dispatch asks; the optimising solve happens once, in lowering.
#[must_use]
pub fn feasible(geom: &LayerGeometry, budget: &MemoryBudget) -> bool {
    tile_fits(geom, &TileConfig::full(geom), budget)
        || any_fitting_tile(geom, budget, candidates(geom.c), |_| true)
}

/// Walks the solver's search space over the given `Cᵗ` slices — candidate
/// `(Kᵗ, o_xᵗ)` pairs, `Kᵗ` in lockstep with `Cᵗ` for depthwise and add,
/// each at its maximal feasible `o_yᵗ` — handing every tile that fits to
/// `visit` until it returns `true`. Returns whether it did.
fn any_fitting_tile(
    geom: &LayerGeometry,
    budget: &MemoryBudget,
    c_ts: impl IntoIterator<Item = usize>,
    mut visit: impl FnMut(TileConfig) -> bool,
) -> bool {
    let lockstep = matches!(geom.kind, LayerKind::DepthwiseConv2d | LayerKind::Add);
    let k_candidates = if lockstep {
        vec![0]
    } else {
        candidates(geom.k)
    };
    let ox_candidates = candidates(geom.ox());
    for c_t in c_ts {
        for &k_raw in &k_candidates {
            let k_t = if lockstep { c_t } else { k_raw };
            for &ox_t in &ox_candidates {
                let row = TileConfig {
                    c_t,
                    k_t,
                    oy_t: 1,
                    ox_t,
                };
                if max_feasible_oy(geom, budget, row).is_some_and(&mut visit) {
                    return true;
                }
            }
        }
    }
    false
}

fn make_solution(
    geom: &LayerGeometry,
    budget: &MemoryBudget,
    objective: &TilingObjective,
    tile: TileConfig,
    fits_untiled: bool,
) -> TileSolution {
    TileSolution {
        mem: tile_memory(geom, &tile),
        n_tiles: tile.num_tiles(geom),
        score: objective.score(geom, &tile, budget),
        tile,
        fits_untiled,
    }
}

/// A full tie goes to the smaller `(Cᵗ, Kᵗ, o_xᵗ)`, met first when walked.
fn is_better(score: f64, tile: &TileConfig, best: &Option<(f64, TileConfig)>) -> bool {
    let Some((bs, bt)) = best else { return true };
    let key = |t: &TileConfig| (tile_hash(t), std::cmp::Reverse((t.c_t, t.k_t, t.ox_t)));
    (score, key(tile)) > (*bs, key(bt))
}

/// Deterministic pseudo-arbitrary order among equal-score tiles (a stand-in
/// for a CP solver's unspecified enumeration order).
fn tile_hash(t: &TileConfig) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for v in [t.c_t, t.k_t, t.oy_t, t.ox_t] {
        h ^= v as u64;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
    }
    h
}

/// `tile` at its largest feasible `o_yᵗ`, via bisection over the monotone
/// feasibility predicate; `None` if even `o_yᵗ = 1` fails.
fn max_feasible_oy(geom: &LayerGeometry, b: &MemoryBudget, tile: TileConfig) -> Option<TileConfig> {
    let fits = |oy_t| tile_fits(geom, &TileConfig { oy_t, ..tile }, b);
    if !fits(1) {
        return None;
    }
    let (mut lo, mut hi) = (1, geom.oy());
    if fits(hi) {
        lo = hi;
    }
    // Invariant: fits(lo), and !fits(hi) unless lo == hi.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(TileConfig { oy_t: lo, ..tile })
}

/// Candidate tile sizes for a dimension: exhaustive for small dimensions,
/// pruned to small sizes, 8-aligned sizes, divisors and the full extent for
/// large ones.
fn candidates(dim: usize) -> Vec<usize> {
    if dim <= 96 {
        return (1..=dim).collect();
    }
    let mut v: Vec<usize> = (1..=32).collect();
    v.extend((40..=dim).step_by(8));
    // Divisors in O(√dim): every divisor d <= √dim pairs with dim / d.
    let mut d = 1;
    while d * d <= dim {
        if dim.is_multiple_of(d) {
            v.push(d);
            v.push(dim / d);
        }
        d += 1;
    }
    v.push(dim);
    v.sort_unstable();
    v.dedup();
    v.retain(|&d| d <= dim);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(act_kb: usize, w_kb: usize) -> MemoryBudget {
        MemoryBudget {
            act_bytes: act_kb * 1024,
            weight_bytes: Some(w_kb * 1024),
            array: None,
        }
    }

    #[test]
    fn untiled_when_it_fits() {
        let g = LayerGeometry::conv2d(16, 16, 8, 8, 3, 3, (1, 1), (1, 1, 1, 1));
        let s = solve(&g, &budget(256, 64), &TilingObjective::diana_digital()).unwrap();
        assert!(s.fits_untiled);
        assert_eq!(s.n_tiles, 1);
        assert!(s.tile.is_full(&g));
    }

    #[test]
    fn solution_always_fits() {
        let g = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        for kb in [4usize, 8, 16, 32, 64] {
            let s = solve(&g, &budget(kb, 16), &TilingObjective::diana_digital()).unwrap();
            assert!(
                tile_fits(&g, &s.tile, &budget(kb, 16)),
                "solution must satisfy eq. 2 at {kb} kB"
            );
        }
    }

    #[test]
    fn heuristics_align_channels() {
        let g = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let s = solve(&g, &budget(16, 16), &TilingObjective::diana_digital()).unwrap();
        assert!(
            s.tile.c_t.is_multiple_of(16) || s.tile.c_t == 64,
            "eq. 3 should align c_t, got {}",
            s.tile.c_t
        );
    }

    #[test]
    fn memory_only_scores_lower_or_equal_on_heuristics() {
        let g = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let b = budget(16, 16);
        let obj = TilingObjective::diana_digital();
        let with_h = solve(&g, &b, &obj).unwrap();
        let without = solve(&g, &b, &TilingObjective::memory_only()).unwrap();
        // Scored under the heuristic objective, the heuristic solution
        // must dominate.
        assert!(obj.score(&g, &with_h.tile, &b) >= obj.score(&g, &without.tile, &b));
    }

    #[test]
    fn dense_layer_splits_weights() {
        // ToyAdmos first layer: 640 -> 128, 80 kB of weights vs 64 kB store.
        let g = LayerGeometry::dense(640, 128);
        let s = solve(&g, &budget(256, 64), &TilingObjective::diana_digital()).unwrap();
        assert!(!s.fits_untiled);
        assert!(s.n_tiles > 1);
        assert!(s.mem.weight <= 64 * 1024);
    }

    #[test]
    fn matmul_splits_sequence_rows() {
        // tiny_transformer QK^T: D=32, N=256, M=256, H=2. The 128 kB i8
        // score matrix plus its input exceeds a 128 kB activation budget,
        // so the solver must carve rectangular sequence×head partitions.
        let g = LayerGeometry::matmul(32, 256, 256, 2, true);
        let b = budget(128, 64);
        let s = solve(&g, &b, &TilingObjective::diana_digital()).unwrap();
        assert!(!s.fits_untiled);
        assert!(s.n_tiles > 1);
        assert!(tile_fits(&g, &s.tile, &b));
        assert!(
            s.tile.oy_t < 256 || s.tile.k_t < 256,
            "a rectangular split of the 256×256 output is required, got {:?}",
            s.tile
        );
        // The staged b slab must respect the weight store.
        assert!(s.mem.weight <= 64 * 1024);
    }

    #[test]
    fn matmul_reduction_split_survives_tiny_budgets() {
        // Force even the reduction to split: partial sums widen to i32 and
        // the solution must still satisfy Eq. 2.
        let g = LayerGeometry::matmul(256, 64, 256, 2, false);
        for kb in [16usize, 32, 64] {
            let b = budget(kb, 8);
            let s = solve(&g, &b, &TilingObjective::diana_digital()).unwrap();
            assert!(tile_fits(&g, &s.tile, &b), "must fit at {kb} kB");
        }
    }

    #[test]
    fn depthwise_locksteps_channel_tiles() {
        let g = LayerGeometry::depthwise(64, 50, 10, 3, 3, (1, 1), (1, 1, 1, 1));
        let s = solve(&g, &budget(2, 64), &TilingObjective::diana_digital()).unwrap();
        assert_eq!(s.tile.c_t, s.tile.k_t);
    }

    #[test]
    fn analog_array_forces_channel_split() {
        use htvm_ir::DType;
        let g = LayerGeometry::conv2d(256, 256, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1))
            .with_weight_dtype(DType::Ternary);
        let b = MemoryBudget {
            act_bytes: 256 * 1024,
            weight_bytes: None,
            array: Some(crate::ArrayDims {
                rows: 1152,
                cols: 512,
            }),
        };
        let s = solve(&g, &b, &TilingObjective::diana_analog()).unwrap();
        // 256*9 = 2304 rows > 1152: c must be split to <= 128.
        assert!(s.tile.c_t * 9 <= 1152);
        assert!(
            s.tile.c_t == 128,
            "analog fill-rows should pick 128, got {}",
            s.tile.c_t
        );
    }

    #[test]
    fn impossible_budget_errors() {
        let g = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let b = MemoryBudget {
            act_bytes: 8,
            weight_bytes: Some(8),
            array: None,
        };
        assert!(matches!(
            solve(&g, &b, &TilingObjective::diana_digital()),
            Err(TilingError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn candidates_cover_small_dims_exhaustively() {
        assert_eq!(candidates(5), vec![1, 2, 3, 4, 5]);
        let c = candidates(256);
        assert!(c.contains(&256));
        assert!(c.contains(&128));
        assert!(c.contains(&16));
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn candidates_match_naive_divisor_scan_on_large_dims() {
        // The O(√dim) divisor enumeration must produce exactly the set the
        // old O(dim) scan did, including primes, perfect squares and
        // highly-composite sizes.
        for dim in [97usize, 101, 128, 144, 169, 224, 360, 1009, 1024, 2520] {
            let mut naive: Vec<usize> = (1..=32).collect();
            naive.extend((40..=dim).step_by(8));
            naive.extend((1..=dim).filter(|d| dim.is_multiple_of(*d)));
            naive.push(dim);
            naive.sort_unstable();
            naive.dedup();
            naive.retain(|&d| d <= dim);
            assert_eq!(candidates(dim), naive, "candidate mismatch for dim {dim}");
        }
    }

    #[test]
    fn solver_is_deterministic() {
        let g = LayerGeometry::conv2d(32, 48, 24, 24, 3, 3, (1, 1), (1, 1, 1, 1));
        let b = budget(12, 24);
        let obj = TilingObjective::diana_digital();
        let a = solve(&g, &b, &obj).unwrap();
        let c = solve(&g, &b, &obj).unwrap();
        assert_eq!(a, c);
    }

    /// The walk `solve` prunes: every candidate slice in ascending order,
    /// the first tile seen kept on a full tie, and the tile count taken
    /// from the walk itself.
    fn unpruned(
        geom: &LayerGeometry,
        budget: &MemoryBudget,
        objective: &TilingObjective,
    ) -> Result<TileSolution, TilingError> {
        let full = TileConfig::full(geom);
        let mut best: Option<(f64, TileConfig)> = None;
        let fits_untiled = tile_fits(geom, &full, budget);
        if fits_untiled {
            best = Some((0.0, full));
        } else {
            any_fitting_tile(geom, budget, candidates(geom.c), |tile| {
                let score = objective.score(geom, &tile, budget);
                if best.is_none_or(|(bs, bt)| (score, tile_hash(&tile)) > (bs, tile_hash(&bt))) {
                    best = Some((score, tile));
                }
                false
            });
        }
        let (_, tile) = best.ok_or_else(|| TilingError::DoesNotFit {
            geom: Box::new(geom.clone()),
        })?;
        Ok(TileSolution {
            tile,
            mem: tile_memory(geom, &tile),
            n_tiles: crate::tiles(geom, &tile).len(),
            fits_untiled,
            score: objective.score(geom, &tile, budget),
        })
    }

    fn objectives() -> Vec<TilingObjective> {
        use crate::{CostModel, EngineModel, Heuristic};
        let calibrated = TilingObjective::calibrated(CostModel {
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
        });
        // No memory term, and weights of both signs on every heuristic.
        let signed = TilingObjective {
            alpha: 0.0,
            terms: vec![
                (Heuristic::PeAlignC { modulo: 4 }, -1.0),
                (Heuristic::PeAlignIx { modulo: 3 }, 1.5),
                (Heuristic::DmaMaxIy, -0.5),
                (Heuristic::ImcFillRows { rows: 64 }, 0.7),
                (Heuristic::ImcFillCols { cols: 16 }, -2.0),
            ],
            cost_model: None,
        };
        vec![
            TilingObjective::memory_only(),
            TilingObjective::diana_digital_pe_only(),
            TilingObjective::diana_digital(),
            TilingObjective::diana_analog(),
            calibrated,
            signed,
        ]
    }

    /// Split, array and unified budgets over `act_bytes` of activations.
    fn shapes(
        act_bytes: usize,
        weight_bytes: usize,
        rows: usize,
        cols: usize,
    ) -> [MemoryBudget; 3] {
        [
            MemoryBudget {
                act_bytes,
                weight_bytes: Some(weight_bytes),
                array: None,
            },
            MemoryBudget {
                act_bytes,
                weight_bytes: None,
                array: Some(crate::ArrayDims { rows, cols }),
            },
            MemoryBudget::unified(act_bytes),
        ]
    }

    fn assert_same_as_unpruned(g: &LayerGeometry, b: &MemoryBudget, obj: &TilingObjective) {
        let pruned = solve(g, b, obj);
        let oracle = unpruned(g, b, obj);
        assert_eq!(pruned, oracle, "{g:?} in {b:?} under {obj:?}");
        if let (Ok(p), Ok(o)) = (&pruned, &oracle) {
            assert_eq!(p.score.to_bits(), o.score.to_bits(), "{g:?} in {b:?}");
        }
    }

    #[test]
    fn pruned_search_returns_the_unpruned_tile() {
        use htvm_ir::DType;
        // The zoo's dense layers that tile, and its attention matmuls, at
        // the zoo's budget sizes: double-buffered 128 kB activations, the
        // 64 kB digital weight store, the 1152×512 analog array.
        let zoo = [
            LayerGeometry::dense(16384, 10),
            LayerGeometry::dense(640, 128),
            LayerGeometry::dense(128, 640),
            LayerGeometry::matmul(32, 256, 256, 2, true),
            LayerGeometry::matmul(256, 32, 256, 2, false),
        ];
        for g in zoo {
            let ternary = g.clone().with_weight_dtype(DType::Ternary);
            for b in shapes(128 * 1024, 64 * 1024, 1152, 512) {
                for obj in &objectives() {
                    assert_same_as_unpruned(&g, &b, obj);
                    assert_same_as_unpruned(&ternary, &b, obj);
                }
            }
        }
        // Seeded small layers of every kind against log-spread budgets.
        let mut rng = proptest::test_runner::TestRng::new(0x7113_5EED);
        let mut draw = |lo: usize, hi: usize| lo + rng.below((hi - lo + 1) as u64) as usize;
        for _ in 0..120 {
            let (c, k, f, s, p) = (draw(1, 20), draw(1, 20), draw(1, 3), draw(1, 2), draw(0, 1));
            let (iy, ix) = (draw(f, 12), draw(f, 12));
            let g = match draw(0, 4) {
                0 => LayerGeometry::conv2d(c, k, iy, ix, f, f, (s, s), (p, p, p, p)),
                1 => LayerGeometry::depthwise(c, iy, ix, f, f, (s, s), (p, p, p, p)),
                2 => LayerGeometry::dense(c * 17, k * 5),
                3 => LayerGeometry::matmul(c, k, iy, ix.min(4), p == 1),
                _ => LayerGeometry::add(c, iy, ix),
            };
            let g = if draw(0, 1) == 1 {
                g.with_weight_dtype(DType::Ternary)
            } else {
                g
            };
            let act = (1 << draw(4, 13)) + draw(0, 1 << 12);
            let (w, rows, cols) = (draw(16, 4096), draw(4, 160), draw(2, 24));
            let b = shapes(act, w, rows, cols)[draw(0, 2)];
            for obj in &objectives() {
                assert_same_as_unpruned(&g, &b, obj);
            }
        }
    }

    #[test]
    fn bound_covers_every_fitting_tile_and_is_none_exactly_when_none_fits() {
        use htvm_ir::DType;
        let geoms = [
            LayerGeometry::conv2d(6, 5, 7, 7, 3, 3, (1, 1), (1, 1, 1, 1)),
            LayerGeometry::conv2d(5, 4, 9, 8, 3, 3, (2, 2), (0, 0, 0, 0))
                .with_weight_dtype(DType::Ternary),
            // The whole output row reads 11 of 12 input columns, so Eq. 4
            // scores a narrower tile higher under an odd modulus.
            LayerGeometry::conv2d(4, 3, 6, 12, 1, 1, (2, 2), (0, 0, 0, 0)),
            LayerGeometry::depthwise(6, 8, 7, 3, 3, (1, 1), (1, 1, 1, 1)),
            LayerGeometry::dense(40, 12),
            LayerGeometry::matmul(6, 8, 6, 2, true),
            LayerGeometry::add(6, 5, 4),
        ];
        let lockstep =
            |g: &LayerGeometry| matches!(g.kind, LayerKind::DepthwiseConv2d | LayerKind::Add);
        for g in &geoms {
            for act in [48, 160, 600, 4096] {
                for b in shapes(act, 96, 20, 4) {
                    for obj in &objectives() {
                        for c_t in 1..=g.c {
                            let bound = obj.bound(g, c_t, &b);
                            let mut fits = false;
                            for k_t in 1..=g.k {
                                if lockstep(g) && k_t != c_t {
                                    continue;
                                }
                                for oy_t in 1..=g.oy() {
                                    for ox_t in 1..=g.ox() {
                                        let t = TileConfig {
                                            c_t,
                                            k_t,
                                            oy_t,
                                            ox_t,
                                        };
                                        if !tile_fits(g, &t, &b) {
                                            continue;
                                        }
                                        fits = true;
                                        let s = obj.score(g, &t, &b);
                                        assert!(
                                            bound.is_some_and(|bound| s <= bound),
                                            "{t:?} scores {s} over {bound:?} for {g:?} in {b:?}"
                                        );
                                    }
                                }
                            }
                            assert_eq!(bound.is_some(), fits, "c_t {c_t} of {g:?} in {b:?}");
                        }
                    }
                }
            }
        }
    }
}
