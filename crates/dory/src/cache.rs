//! Cross-compile memoization of tiling solves.
//!
//! [`solve`] is a pure function of `(LayerGeometry, MemoryBudget,
//! TilingObjective)`, and real networks repeat geometries heavily (every
//! MobileNet block at a given resolution shares one pointwise geometry, a
//! model recompiled under a second deployment configuration repeats them
//! all). [`TileCache`] is a concurrent memo table over exactly that triple:
//! cloning it is cheap (the table is behind an [`Arc`]) and every clone
//! shares the same entries, so one cache can serve all regions of a
//! lowering pass, all compiles of a [`Compiler`], and all workers of a
//! compile service at once.
//!
//! Keying: geometries and budgets are hashed structurally. Objectives
//! contain `f64` weights, which have no `Hash`/`Eq`; the key stores their
//! IEEE-754 bit patterns instead ([`f64::to_bits`]). Bitwise keying is
//! *stricter* than numeric equality — `0.0` and `-0.0` key differently —
//! which is the safe direction for a memo table: distinct keys only cost a
//! redundant solve, never a wrong reuse. Infeasibility is cached too
//! (negative entries), so a layer that fits nowhere is proven once.
//!
//! There is no invalidation: a solve's output depends on nothing but its
//! key, so entries never go stale. A cache only needs dropping to bound
//! its footprint, for which [`TileCache::clear`] exists.
//!
//! [`Compiler`]: ../htvm/struct.Compiler.html

use crate::{
    solve, Heuristic, LayerGeometry, MemoryBudget, TileSolution, TilingError, TilingObjective,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The full solve input, with objective weights keyed by bit pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    geom: LayerGeometry,
    budget: MemoryBudget,
    alpha_bits: u64,
    terms: Vec<(Heuristic, u64)>,
    /// Calibrated cost-model identity ([`CostModel::identity_bits`],
    /// which includes the model's version): two objectives differing only
    /// in their cost model must never alias to one solution.
    cost_model: Option<Vec<u64>>,
}

impl CacheKey {
    fn new(geom: &LayerGeometry, budget: &MemoryBudget, objective: &TilingObjective) -> Self {
        CacheKey {
            geom: geom.clone(),
            budget: *budget,
            alpha_bits: objective.alpha.to_bits(),
            terms: objective
                .terms
                .iter()
                .map(|(h, beta)| (*h, beta.to_bits()))
                .collect(),
            cost_model: objective
                .cost_model
                .as_ref()
                .map(super::CostModel::identity_bits),
        }
    }
}

#[derive(Default)]
struct CacheInner {
    map: Mutex<HashMap<CacheKey, Result<TileSolution, TilingError>>>,
    solves: AtomicU64,
    hits: AtomicU64,
    negatives: AtomicU64,
    negative_hits: AtomicU64,
}

/// A concurrent, shareable memo table for [`solve`] (see the module
/// docs above).
///
/// Clones share storage and counters; [`TileCache::default`] starts empty.
#[derive(Clone, Default)]
pub struct TileCache {
    inner: Arc<CacheInner>,
}

impl TileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        TileCache::default()
    }

    /// [`solve`], memoized: returns the cached outcome (including cached
    /// infeasibility) when this triple has been solved before, and solves
    /// and records it otherwise. The boolean is `true` on a cache hit.
    ///
    /// Two threads racing on the same fresh key may both solve it; the
    /// solver is pure, so both compute the identical entry and either
    /// insert is fine.
    ///
    /// # Errors
    ///
    /// Returns [`TilingError::DoesNotFit`] exactly when [`solve`] does.
    pub fn solve_cached(
        &self,
        geom: &LayerGeometry,
        budget: &MemoryBudget,
        objective: &TilingObjective,
    ) -> (Result<TileSolution, TilingError>, bool) {
        let key = CacheKey::new(geom, budget, objective);
        if let Some(cached) = self.map().get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            if cached.is_err() {
                self.inner.negative_hits.fetch_add(1, Ordering::Relaxed);
            }
            return (cached.clone(), true);
        }
        // Solve outside the lock: solves dominate, and holding the mutex
        // across one would serialize the service workers sharing the cache.
        let result = solve(geom, budget, objective);
        self.inner.solves.fetch_add(1, Ordering::Relaxed);
        if result.is_err() {
            self.inner.negatives.fetch_add(1, Ordering::Relaxed);
        }
        self.map().insert(key, result.clone());
        (result, false)
    }

    /// The table, poisoned or not: it only holds finished solves and
    /// [`solve`] runs outside the lock, so a panic leaves nothing half-written.
    fn map(&self) -> MutexGuard<'_, HashMap<CacheKey, Result<TileSolution, TilingError>>> {
        let map = &self.inner.map;
        map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Solves performed through this cache (misses), over its lifetime.
    #[must_use]
    pub fn solves(&self) -> u64 {
        self.inner.solves.load(Ordering::Relaxed)
    }

    /// Lookups answered from the table, over the cache's lifetime.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Infeasible (negative) outcomes recorded by the solver — layers
    /// proven not to fit their budget, each proven exactly once.
    #[must_use]
    pub fn negatives(&self) -> u64 {
        self.inner.negatives.load(Ordering::Relaxed)
    }

    /// Lookups answered from a negative entry (a subset of
    /// [`TileCache::hits`]): re-asked infeasibilities that skipped the
    /// solver.
    #[must_use]
    pub fn negative_hits(&self) -> u64 {
        self.inner.negative_hits.load(Ordering::Relaxed)
    }

    /// Number of distinct solve inputs currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// `true` if nothing has been cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (counters are kept: they describe history, not
    /// contents).
    pub fn clear(&self) {
        self.map().clear();
    }

    /// A point-in-time snapshot of the cache's counters, in a plain
    /// serializable struct — service stats endpoints and bench reports
    /// embed this rather than holding the live cache.
    #[must_use]
    pub fn stats(&self) -> TileCacheStats {
        TileCacheStats {
            entries: self.len() as u64,
            solves: self.solves(),
            hits: self.hits(),
            negatives: self.negatives(),
            negative_hits: self.negative_hits(),
        }
    }
}

/// Snapshot of a [`TileCache`]'s counters (see [`TileCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TileCacheStats {
    /// Distinct solve inputs currently stored.
    pub entries: u64,
    /// Solves performed (misses) over the cache's lifetime.
    pub solves: u64,
    /// Lookups answered from the table.
    pub hits: u64,
    /// Infeasible outcomes recorded.
    pub negatives: u64,
    /// Lookups answered from a negative entry.
    pub negative_hits: u64,
}

impl fmt::Debug for TileCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TileCache")
            .field("entries", &self.len())
            .field("solves", &self.solves())
            .field("hits", &self.hits())
            .field("negatives", &self.negatives())
            .field("negative_hits", &self.negative_hits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> MemoryBudget {
        MemoryBudget {
            act_bytes: 32 * 1024,
            weight_bytes: Some(64 * 1024),
            array: None,
        }
    }

    #[test]
    fn repeat_solves_hit_and_match_direct_solve() {
        let cache = TileCache::new();
        let geom = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let obj = TilingObjective::diana_digital();
        let (first, hit1) = cache.solve_cached(&geom, &budget(), &obj);
        let (second, hit2) = cache.solve_cached(&geom, &budget(), &obj);
        assert!(!hit1);
        assert!(hit2);
        assert_eq!(first.as_ref().unwrap(), second.as_ref().unwrap());
        assert_eq!(first.unwrap(), solve(&geom, &budget(), &obj).unwrap());
        assert_eq!((cache.solves(), cache.hits(), cache.len()), (1, 1, 1));
    }

    #[test]
    fn infeasible_outcomes_are_cached_too() {
        let cache = TileCache::new();
        let geom = LayerGeometry::dense(4096, 4096);
        let tiny = MemoryBudget::unified(4);
        let obj = TilingObjective::memory_only();
        let (r1, _) = cache.solve_cached(&geom, &tiny, &obj);
        let (r2, hit) = cache.solve_cached(&geom, &tiny, &obj);
        assert!(matches!(r1, Err(TilingError::DoesNotFit { .. })));
        assert_eq!(r1, r2);
        assert!(hit);
        assert_eq!(cache.solves(), 1);
        assert_eq!(
            (cache.negatives(), cache.negative_hits()),
            (1, 1),
            "one infeasibility proven, one answered from the negative entry"
        );
    }

    #[test]
    fn feasible_solves_leave_negative_counters_untouched() {
        let cache = TileCache::new();
        let geom = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let obj = TilingObjective::diana_digital();
        let (ok, _) = cache.solve_cached(&geom, &budget(), &obj);
        assert!(ok.is_ok());
        let (_, hit) = cache.solve_cached(&geom, &budget(), &obj);
        assert!(hit);
        assert_eq!((cache.negatives(), cache.negative_hits()), (0, 0));
    }

    #[test]
    fn distinct_objective_weights_do_not_collide() {
        let cache = TileCache::new();
        let geom = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        let (a, _) = cache.solve_cached(&geom, &budget(), &TilingObjective::memory_only());
        let (b, hit) = cache.solve_cached(&geom, &budget(), &TilingObjective::diana_digital());
        assert!(!hit, "different weights must miss");
        // Different objectives really do pick different tiles here.
        assert_ne!(a.unwrap().tile, b.unwrap().tile);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_cost_models_do_not_collide() {
        use crate::{CostModel, EngineModel};
        let cm = |version| CostModel {
            version,
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
        };
        let cache = TileCache::new();
        let geom = LayerGeometry::conv2d(64, 64, 32, 32, 3, 3, (1, 1), (1, 1, 1, 1));
        // Identical α and terms; only the calibration differs.
        let heuristic = TilingObjective::memory_only();
        let calibrated = TilingObjective::calibrated(cm(1));
        let recalibrated = TilingObjective::calibrated(cm(2));
        let (_, _) = cache.solve_cached(&geom, &budget(), &heuristic);
        let (_, hit_cal) = cache.solve_cached(&geom, &budget(), &calibrated);
        assert!(
            !hit_cal,
            "a calibrated objective must miss the heuristic entry"
        );
        let (_, hit_ver) = cache.solve_cached(&geom, &budget(), &recalibrated);
        assert!(!hit_ver, "a calibration version bump must miss");
        assert_eq!(cache.len(), 3, "three distinct identities, three entries");
        // And the calibrated key is stable: re-asking hits.
        let (_, hit) = cache.solve_cached(&geom, &budget(), &calibrated);
        assert!(hit);
    }

    #[test]
    fn clones_share_entries_across_threads() {
        let cache = TileCache::new();
        let geom = LayerGeometry::conv2d(128, 128, 16, 16, 3, 3, (1, 1), (1, 1, 1, 1));
        let obj = TilingObjective::diana_digital();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = cache.clone();
                let (g, o) = (geom.clone(), obj.clone());
                s.spawn(move || c.solve_cached(&g, &budget(), &o).0.unwrap());
            }
        });
        // Racing threads may each solve the fresh key once, but the table
        // converges to one entry and later lookups all hit.
        assert_eq!(cache.len(), 1);
        let (_, hit) = cache.solve_cached(&geom, &budget(), &obj);
        assert!(hit);
    }

    #[test]
    fn a_poisoned_table_keeps_serving() {
        let cache = TileCache::new();
        let geom = LayerGeometry::dense(640, 128);
        let obj = TilingObjective::memory_only();
        let (before, _) = cache.solve_cached(&geom, &budget(), &obj);
        let holder = cache.clone();
        let panicked = std::thread::spawn(move || {
            let _table = holder.inner.map.lock().unwrap();
            panic!("poisoning the tile cache on purpose");
        })
        .join();
        assert!(panicked.is_err());
        assert!(cache.inner.map.is_poisoned());
        // A get (hit), an insert (miss), the length and a clear all work.
        let (again, hit) = cache.solve_cached(&geom, &budget(), &obj);
        assert!(hit);
        assert_eq!(again, before);
        let other = LayerGeometry::dense(128, 640);
        let (fresh, hit) = cache.solve_cached(&other, &budget(), &obj);
        assert!(!hit);
        assert_eq!(fresh, solve(&other, &budget(), &obj));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.solves(), cache.hits()), (2, 1));
    }

    #[test]
    fn clear_empties_but_keeps_history() {
        let cache = TileCache::new();
        let geom = LayerGeometry::dense(640, 128);
        let (first, _) = cache.solve_cached(&geom, &budget(), &TilingObjective::memory_only());
        assert!(first.is_ok());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.solves(), 1);
        let (_, hit) = cache.solve_cached(&geom, &budget(), &TilingObjective::memory_only());
        assert!(!hit, "cleared entries are gone");
    }
}
