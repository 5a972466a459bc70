//! The content-addressed artifact cache.
//!
//! Maps [`ArtifactKey`] → [`StoredArtifact`] under a byte budget with
//! least-recently-used eviction. An entry's size is the length of its
//! stored bytes ([`StoredArtifact::json`]) — the same serde encoding the
//! byte-identity tests compare — so the budget bounds what a client
//! would actually receive over the wire, not Rust in-memory overhead.
//!
//! The cache is internally synchronized: one instance is shared by every
//! worker thread of a [`CompileService`](crate::CompileService). All
//! operations take the lock once and do O(entries) work at worst (the
//! LRU victim scan), which is fine at the few-hundred-entry scale a
//! byte-budgeted artifact cache reaches.

use crate::key::ArtifactKey;
use crate::lock;
use crate::stored::StoredArtifact;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;

/// Counters and occupancy of an [`ArtifactCache`], serializable for
/// bench reports and service stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactCacheStats {
    /// Artifacts currently resident.
    pub entries: u64,
    /// Serialized bytes currently resident.
    pub bytes: u64,
    /// The configured byte budget.
    pub budget_bytes: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Artifacts admitted.
    pub insertions: u64,
    /// Artifacts evicted to make room.
    pub evictions: u64,
    /// Artifacts refused admission because they alone exceed the budget.
    pub oversized: u64,
}

struct Entry {
    stored: StoredArtifact,
    last_used: u64,
}

#[derive(Default)]
pub(crate) struct Inner {
    entries: HashMap<ArtifactKey, Entry>,
    /// Monotonic access clock; strictly increasing, so LRU victims are
    /// unique and eviction order is deterministic.
    tick: u64,
    /// The budget and the live counters, as reported; only `entries` is
    /// filled in at snapshot time.
    stats: ArtifactCacheStats,
}

/// A thread-safe LRU artifact cache bounded by serialized size.
pub struct ArtifactCache {
    pub(crate) inner: Mutex<Inner>,
}

impl ArtifactCache {
    /// An empty cache that will hold at most `budget_bytes` of
    /// serialized artifacts. A zero budget admits nothing: every
    /// insert is refused as oversized and every lookup misses.
    #[must_use]
    pub fn new(budget_bytes: usize) -> Self {
        let mut inner = Inner::default();
        inner.stats.budget_bytes = budget_bytes as u64;
        ArtifactCache {
            inner: Mutex::new(inner),
        }
    }

    /// Probes for residency without touching the hit/miss counters or
    /// the entry's recency. This is the admission-control cost probe: a
    /// resident key means the job is near-free (a shared handle), so
    /// the scheduler can rank it ahead of cold compiles without
    /// perturbing the counters the determinism tests assert on.
    #[must_use]
    pub fn contains(&self, key: &ArtifactKey) -> bool {
        lock(&self.inner).entries.contains_key(key)
    }

    /// Looks up a key, refreshing its recency on hit. Returns a handle
    /// sharing the cached entry's artifact and bytes — the very bytes a
    /// cold compile of the same key serialized to.
    #[must_use]
    pub fn get(&self, key: &ArtifactKey) -> Option<StoredArtifact> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let stored = entry.stored.clone();
                inner.stats.hits += 1;
                Some(stored)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Admits an artifact, evicting least-recently-used entries until it
    /// fits. Returns `false` when the artifact alone exceeds the budget
    /// (it is not admitted, and nothing is evicted for it). Re-inserting
    /// an existing key refreshes the entry in place. A plain
    /// `&Artifact` is converted (cloned and serialized) on the way in;
    /// the service passes the [`StoredArtifact`] it already holds.
    pub fn insert(&self, key: ArtifactKey, artifact: impl Into<StoredArtifact>) -> bool {
        let stored = artifact.into();
        let bytes = stored.json().len() as u64;
        let mut inner = lock(&self.inner);
        if bytes > inner.stats.budget_bytes {
            inner.stats.oversized += 1;
            return false;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.remove(&key) {
            inner.stats.bytes -= old.stored.json().len() as u64;
        }
        while inner.stats.bytes + bytes > inner.stats.budget_bytes {
            // The recency tick is strictly monotonic, so `last_used` is
            // unique today — but the victim scan iterates a `HashMap`,
            // whose order varies across runs. Break any tie on
            // `last_used` by the key's digest so the choice never
            // depends on iteration order, even if recency semantics
            // ever coarsen (e.g. batched ticks). The digest is stored in
            // the key, so the scan under this lock reads two integers
            // per resident entry. Both `expect`s fire before this
            // iteration writes anything, and nothing can panic between
            // removing the victim and un-counting its bytes, so an
            // unwind leaves `entries` and `stats.bytes` agreeing
            // (see `crate::lock`).
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.last_used, k.digest()))
                .map(|(k, _)| k.clone())
                .expect("over budget implies a resident entry");
            let evicted = inner.entries.remove(&victim).expect("victim is resident");
            inner.stats.bytes -= evicted.stored.json().len() as u64;
            inner.stats.evictions += 1;
        }
        inner.stats.bytes += bytes;
        inner.stats.insertions += 1;
        inner.entries.insert(
            key,
            Entry {
                stored,
                last_used: tick,
            },
        );
        true
    }

    /// A snapshot of the counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> ArtifactCacheStats {
        let inner = lock(&self.inner);
        ArtifactCacheStats {
            entries: inner.entries.len() as u64,
            ..inner.stats
        }
    }
}

impl std::fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm::{Artifact, DeployConfig, DianaConfig, LowerOptions};
    use htvm_ir::{DType, Graph, GraphBuilder};
    use htvm_soc::Program;

    fn graph(tag: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[tag, 4, 4], DType::I8);
        let y = b.relu(x).unwrap();
        b.finish(&[y]).unwrap()
    }

    fn key(tag: usize) -> ArtifactKey {
        ArtifactKey::new(
            "diana",
            &graph(tag),
            DeployConfig::Both,
            &DianaConfig::default(),
            &LowerOptions::default(),
        )
    }

    fn artifact() -> Artifact {
        Artifact {
            program: Program {
                buffers: vec![],
                steps: vec![],
                inputs: vec![],
                outputs: vec![],
                activation_peak: 0,
                dma: Default::default(),
            },
            binary: Default::default(),
            stats: Default::default(),
        }
    }

    fn entry_bytes() -> usize {
        serde_json::to_string(&artifact()).unwrap().len()
    }

    #[test]
    fn hit_returns_equal_artifact_and_counts() {
        let cache = ArtifactCache::new(1 << 20);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.insert(key(1), &artifact()));
        let back = cache.get(&key(1)).expect("resident");
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&artifact()).unwrap()
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, entry_bytes() as u64);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        // Budget for exactly two entries.
        let cache = ArtifactCache::new(2 * entry_bytes());
        assert!(cache.insert(key(1), &artifact()));
        assert!(cache.insert(key(2), &artifact()));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.insert(key(3), &artifact()));
        assert!(cache.get(&key(1)).is_some(), "recently used survives");
        assert!(cache.get(&key(2)).is_none(), "LRU entry was evicted");
        assert!(cache.get(&key(3)).is_some(), "new entry is resident");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= stats.budget_bytes);
    }

    #[test]
    fn oversized_artifacts_are_refused_without_evicting() {
        let cache = ArtifactCache::new(entry_bytes());
        assert!(cache.insert(key(1), &artifact()));
        let tiny = ArtifactCache::new(entry_bytes() - 1);
        assert!(!tiny.insert(key(2), &artifact()));
        assert_eq!(tiny.stats().oversized, 1);
        assert_eq!(tiny.stats().entries, 0);
        // A zero-budget cache admits nothing: the no-cache baseline.
        let never = ArtifactCache::new(0);
        assert!(!never.insert(key(3), &artifact()));
        assert!(never.get(&key(3)).is_none());
    }

    #[test]
    fn contains_probe_touches_no_counters_or_recency() {
        let cache = ArtifactCache::new(2 * entry_bytes());
        assert!(!cache.contains(&key(1)));
        assert!(cache.insert(key(1), &artifact()));
        assert!(cache.insert(key(2), &artifact()));
        // Probe 1 many times; if probes refreshed recency, 2 would be
        // the LRU victim below. They must not.
        for _ in 0..8 {
            assert!(cache.contains(&key(1)));
        }
        assert!(cache.insert(key(3), &artifact()));
        assert!(
            cache.get(&key(2)).is_some(),
            "probes must not refresh recency: 1 (older) is the victim"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (1, 0),
            "contains() must not count as a lookup"
        );
    }

    #[test]
    fn eviction_order_is_deterministic_across_runs() {
        // Two caches fed the identical op sequence must evict the
        // identical victims, leaving identical residents — regardless of
        // HashMap iteration order. Run the sequence several times so an
        // order-dependent victim scan would almost surely diverge.
        let run = || {
            let cache = ArtifactCache::new(3 * entry_bytes());
            for tag in 1..=3 {
                assert!(cache.insert(key(tag), &artifact()));
            }
            // All three entries share insertion-time recency patterns;
            // now push four more keys through, each evicting one victim.
            for tag in 4..=7 {
                assert!(cache.insert(key(tag), &artifact()));
            }
            let mut resident: Vec<usize> = (1..=7).filter(|&t| cache.contains(&key(t))).collect();
            resident.sort_unstable();
            (resident, cache.stats().evictions)
        };
        let first = run();
        for _ in 0..4 {
            assert_eq!(run(), first, "eviction must be deterministic");
        }
        // And the determinism is the *right* determinism: strict LRU.
        assert_eq!(first, (vec![5, 6, 7], 4));
    }

    #[test]
    fn reinserting_a_key_replaces_in_place() {
        let cache = ArtifactCache::new(4 * entry_bytes());
        assert!(cache.insert(key(1), &artifact()));
        assert!(cache.insert(key(1), &artifact()));
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, entry_bytes() as u64);
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.evictions, 0);
    }
}
