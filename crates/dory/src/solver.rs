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
/// The search enumerates candidate sizes for the channel dimensions and the
/// output width, and closes over the output height analytically: for fixed
/// `(Cᵗ, Kᵗ, o_xᵗ)` every objective term is non-decreasing in `o_yᵗ`
/// (memory use, `H_DMA`, and the PE-alignment terms are unaffected, and the
/// calibrated predicted-cycle term is non-increasing in tile height by
/// construction — see [`crate::CostModel`]), so the maximal feasible
/// `o_yᵗ` is optimal and found by bisection.
///
/// Ties are broken deterministically but *arbitrarily* (by a hash of the
/// tile sizes), modeling the unspecified solution order of DORY's
/// constraint-programming solver. This is what produces the paper's Fig. 4
/// observation that heuristic-free tiling yields "either good tiles or
/// very bad tiles": a memory-maximal tile that splits the input width ties
/// with one that splits the height, and without the Eq. 5 term nothing
/// steers the choice toward the DMA-friendly one.
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

    let mut best: Option<(f64, TileConfig)> = None;
    any_fitting_tile(geom, budget, |tile| {
        let score = objective.score(geom, &tile, budget);
        if is_better(score, &tile, &best) {
            best = Some((score, tile));
        }
        false // an optimum needs every candidate seen
    });

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
    tile_fits(geom, &TileConfig::full(geom), budget) || any_fitting_tile(geom, budget, |_| true)
}

/// Walks the solver's search space — candidate `(Cᵗ, Kᵗ, o_xᵗ)` triples,
/// `Kᵗ` in lockstep with `Cᵗ` for depthwise and add, each at its maximal
/// feasible `o_yᵗ` — handing every tile that fits to `visit` until it
/// returns `true`. Returns whether it did.
fn any_fitting_tile(
    geom: &LayerGeometry,
    budget: &MemoryBudget,
    mut visit: impl FnMut(TileConfig) -> bool,
) -> bool {
    let lockstep = matches!(geom.kind, LayerKind::DepthwiseConv2d | LayerKind::Add);
    let c_candidates = candidates(geom.c);
    let k_candidates = if lockstep {
        vec![0]
    } else {
        candidates(geom.k)
    };
    let ox_candidates = candidates(geom.ox());
    for &c_t in &c_candidates {
        for &k_raw in &k_candidates {
            let k_t = if lockstep { c_t } else { k_raw };
            for &ox_t in &ox_candidates {
                let Some(oy_t) = max_feasible_oy(geom, budget, c_t, k_t, ox_t) else {
                    continue;
                };
                let tile = TileConfig {
                    c_t,
                    k_t,
                    oy_t,
                    ox_t,
                };
                if visit(tile) {
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

fn is_better(score: f64, tile: &TileConfig, best: &Option<(f64, TileConfig)>) -> bool {
    let Some((bs, bt)) = best else { return true };
    (score, tile_hash(tile)) > (*bs, tile_hash(bt))
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

/// Largest feasible `o_yᵗ` for fixed other dimensions, via bisection over
/// the monotone feasibility predicate; `None` if even `o_yᵗ = 1` fails.
fn max_feasible_oy(
    geom: &LayerGeometry,
    budget: &MemoryBudget,
    c_t: usize,
    k_t: usize,
    ox_t: usize,
) -> Option<usize> {
    let fits = |oy_t: usize| {
        tile_fits(
            geom,
            &TileConfig {
                c_t,
                k_t,
                oy_t,
                ox_t,
            },
            budget,
        )
    };
    if !fits(1) {
        return None;
    }
    let (mut lo, mut hi) = (1usize, geom.oy());
    if fits(hi) {
        return Some(hi);
    }
    // Invariant: fits(lo), !fits(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Candidate tile sizes for a dimension: exhaustive for small dimensions,
/// pruned to small sizes, 8-aligned sizes, divisors and the full extent for
/// large ones (keeps the search ~10⁶ points for MobileNet-scale layers).
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
}
