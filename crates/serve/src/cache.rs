//! The content-addressed artifact cache, and the memo of the uploads
//! that resolved to its keys.
//!
//! Maps [`ArtifactKey`] → [`StoredArtifact`] under a byte budget with
//! least-recently-used eviction. An entry's size is the length of its
//! stored bytes ([`StoredArtifact::json`]) — the same serde encoding the
//! byte-identity tests compare — so the budget bounds what a client
//! would actually receive over the wire, not Rust in-memory overhead.
//!
//! Beside the entries sits the **upload memo**: `(DeployConfig, HTF
//! bytes)` → the key that importing those bytes resolved to, so that a
//! repeat `/v1/import` skips both the import and the keying. It is
//! bucketed by the [`murmur3_128`](htvm_ir::canonical::murmur3_128)
//! digest of the bytes and matched by comparing the stored bytes in
//! full, so a digest collision can never alias two files. An upload is
//! remembered only for a resident key and leaves with its entry
//! (evicted or replaced). Its bytes count against the same budget:
//! an artifact insert evicts until `bytes + upload_bytes` fits, and an
//! upload that does not fit in the free room is not remembered, so the
//! memo never evicts an artifact. The memo is not persisted. Uploads
//! built to share a digest share a bucket, which a lookup scans; the
//! budget bounds how many bytes that scan can compare.
//!
//! The cache is internally synchronized: one instance is shared by every
//! worker thread of a [`CompileService`](crate::CompileService). All
//! operations take the lock once and do O(entries) work at worst (the
//! LRU victim scan), which is fine at the few-hundred-entry scale a
//! byte-budgeted artifact cache reaches.

use crate::key::ArtifactKey;
use crate::lock;
use crate::stored::StoredArtifact;
use htvm::DeployConfig;
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
    /// Uploads remembered for resident entries (the `/v1/import` memo).
    #[serde(default)]
    pub uploads: u64,
    /// Bytes of those uploads. They share `budget_bytes` with `bytes`:
    /// `bytes + upload_bytes <= budget_bytes`.
    #[serde(default)]
    pub upload_bytes: u64,
}

struct Entry {
    stored: StoredArtifact,
    last_used: u64,
    /// Digests of the uploads remembered for this entry.
    uploads: Vec<u128>,
}

/// One remembered upload: the bytes and deploy target a `/v1/import`
/// carried, and what importing them gave.
struct Upload {
    deploy: DeployConfig,
    bytes: Vec<u8>,
    key: ArtifactKey,
    /// What admission charges the upload's job when its key is not
    /// resident: [`estimate_cost`](crate::estimate_cost) of the graph.
    cold_cost: u64,
}

#[derive(Default)]
pub(crate) struct Inner {
    entries: HashMap<ArtifactKey, Entry>,
    /// The upload memo, bucketed by the digest of the bytes. Every
    /// upload's key is resident.
    uploads: HashMap<u128, Vec<Upload>>,
    /// Monotonic access clock; strictly increasing, so LRU victims are
    /// unique and eviction order is deterministic.
    tick: u64,
    /// The budget and the live counters, as reported; only `entries` is
    /// filled in at snapshot time.
    stats: ArtifactCacheStats,
}

impl Inner {
    /// Removes `key`'s entry and the uploads remembered for it, and
    /// un-counts both. Nothing in here can panic between a removal and
    /// its un-count (see `crate::lock`).
    fn remove(&mut self, key: &ArtifactKey) -> Option<Entry> {
        let entry = self.entries.remove(key)?;
        self.stats.bytes -= entry.stored.json().len() as u64;
        for digest in &entry.uploads {
            let Some(bucket) = self.uploads.get_mut(digest) else {
                continue;
            };
            let stats = &mut self.stats;
            bucket.retain(|upload| {
                let keep = upload.key != *key;
                if !keep {
                    stats.uploads -= 1;
                    stats.upload_bytes -= upload.bytes.len() as u64;
                }
                keep
            });
            if bucket.is_empty() {
                self.uploads.remove(digest);
            }
        }
        Some(entry)
    }
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

    /// Admits an artifact, evicting least-recently-used entries (with
    /// their uploads) until it fits beside the resident artifacts and
    /// uploads. Returns `false` when the artifact alone exceeds the
    /// budget (it is not admitted, and nothing is evicted for it).
    /// Re-inserting an existing key replaces the entry and drops its
    /// uploads. A plain `&Artifact` is converted (cloned and serialized)
    /// on the way in; the service passes the [`StoredArtifact`] it
    /// already holds.
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
        inner.remove(&key);
        while inner.stats.bytes + inner.stats.upload_bytes + bytes > inner.stats.budget_bytes {
            // The recency tick is strictly monotonic, so `last_used` is
            // unique today — but the victim scan iterates a `HashMap`,
            // whose order varies across runs. Break any tie on
            // `last_used` by the key's digest so the choice never
            // depends on iteration order, even if recency semantics
            // ever coarsen (e.g. batched ticks). The digest is stored in
            // the key, so the scan under this lock reads two integers
            // per resident entry. Every upload belongs to a resident
            // entry, so while the sum is over budget there is a victim.
            // Both `expect`s fire before this iteration writes anything,
            // and `Inner::remove` cannot panic between a removal and its
            // un-count, so an unwind leaves the maps and the counters
            // agreeing (see `crate::lock`).
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.last_used, k.digest()))
                .map(|(k, _)| k.clone())
                .expect("over budget implies a resident entry");
            inner.remove(&victim).expect("victim is resident");
            inner.stats.evictions += 1;
        }
        inner.stats.bytes += bytes;
        inner.stats.insertions += 1;
        inner.entries.insert(
            key,
            Entry {
                stored,
                last_used: tick,
                uploads: Vec::new(),
            },
        );
        true
    }

    /// The key and cold cost remembered for an upload of `bytes` under
    /// `deploy`; `digest` is the bytes' `murmur3_128`. Touches no
    /// counter and no recency: the job this answers probes the cache
    /// like any other.
    pub(crate) fn upload(
        &self,
        digest: u128,
        deploy: DeployConfig,
        bytes: &[u8],
    ) -> Option<(ArtifactKey, u64)> {
        let inner = lock(&self.inner);
        let upload = inner
            .uploads
            .get(&digest)?
            .iter()
            .find(|upload| upload.deploy == deploy && upload.bytes == bytes)?;
        Some((upload.key.clone(), upload.cold_cost))
    }

    /// Remembers that importing `bytes` (digest `digest`) for `deploy`
    /// gave `key`, whose cold compile [`estimate_cost`](crate::estimate_cost)
    /// puts at `cold_cost`. Only for a resident key, and only in free
    /// room: an upload never evicts an artifact. Returns whether the
    /// upload is remembered (it may have been already).
    pub(crate) fn remember_upload(
        &self,
        digest: u128,
        deploy: DeployConfig,
        bytes: &[u8],
        key: ArtifactKey,
        cold_cost: u64,
    ) -> bool {
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;
        let Some(entry) = inner.entries.get_mut(&key) else {
            return false;
        };
        let bucket = inner.uploads.get(&digest);
        if bucket.is_some_and(|b| b.iter().any(|u| u.deploy == deploy && u.bytes == bytes)) {
            return true;
        }
        let len = bytes.len() as u64;
        if inner.stats.bytes + inner.stats.upload_bytes + len > inner.stats.budget_bytes {
            return false;
        }
        entry.uploads.push(digest);
        inner.uploads.entry(digest).or_default().push(Upload {
            deploy,
            bytes: bytes.to_vec(),
            key,
            cold_cost,
        });
        inner.stats.uploads += 1;
        inner.stats.upload_bytes += len;
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

    #[test]
    fn uploads_need_a_resident_key_and_free_room() {
        let upload = [7u8; 64];
        let cache = ArtifactCache::new(entry_bytes() + upload.len());
        let remember = |digest, bytes: &[u8]| {
            cache.remember_upload(digest, DeployConfig::Both, bytes, key(1), 10)
        };
        assert!(!remember(1, &upload), "no entry, no upload");
        assert!(cache.insert(key(1), &artifact()));
        assert!(remember(1, &upload));
        assert!(remember(1, &upload), "remembered already");
        assert!(!remember(2, &[8]), "no free room left");
        assert_eq!(
            cache.upload(1, DeployConfig::Both, &upload),
            Some((key(1), 10))
        );
        let stats = cache.stats();
        assert_eq!((stats.uploads, stats.upload_bytes), (1, 64));
        assert_eq!(stats.bytes + stats.upload_bytes, stats.budget_bytes);
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 0),
            "the memo counts nothing"
        );
    }

    #[test]
    fn a_digest_collision_cannot_alias_two_uploads() {
        let cache = ArtifactCache::new(1 << 20);
        assert!(cache.insert(key(1), &artifact()));
        assert!(cache.insert(key(2), &artifact()));
        // Two files made to share one digest each keep their own key.
        let both = DeployConfig::Both;
        assert!(cache.remember_upload(9, both, b"first file", key(1), 10));
        assert!(cache.remember_upload(9, both, b"other file", key(2), 20));
        assert_eq!(cache.upload(9, both, b"first file"), Some((key(1), 10)));
        assert_eq!(cache.upload(9, both, b"other file"), Some((key(2), 20)));
        assert_eq!(cache.upload(9, both, b"third file"), None);
        assert_eq!(
            cache.upload(9, DeployConfig::Digital, b"first file"),
            None,
            "the deploy target is part of the match"
        );
        assert_eq!(cache.stats().uploads, 2);
    }

    #[test]
    fn an_entry_leaves_with_its_uploads() {
        let cache = ArtifactCache::new(2 * entry_bytes() + 16);
        let both = DeployConfig::Both;
        for tag in [1, 2] {
            assert!(cache.insert(key(tag), &artifact()));
            let bytes = [tag as u8; 8];
            assert!(cache.remember_upload(tag as u128, both, &bytes, key(tag), 10));
        }
        // The uploads take the room a third artifact needs: 1, the LRU
        // entry, is evicted, and its upload with it.
        assert!(cache.insert(key(3), &artifact()));
        assert_eq!(cache.upload(1, both, &[1; 8]), None);
        assert_eq!(cache.upload(2, both, &[2; 8]), Some((key(2), 10)));
        let stats = cache.stats();
        assert_eq!(
            (stats.evictions, stats.uploads, stats.upload_bytes),
            (1, 1, 8)
        );
        // Re-inserting 2 replaces its entry, uploads and all.
        assert!(cache.insert(key(2), &artifact()));
        assert_eq!(cache.upload(2, both, &[2; 8]), None);
        let stats = cache.stats();
        assert_eq!(
            (stats.entries, stats.uploads, stats.upload_bytes),
            (2, 0, 0)
        );
    }
}
