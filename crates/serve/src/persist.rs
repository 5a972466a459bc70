//! The on-disk spill of the artifact cache: restart durability.
//!
//! An in-memory [`ArtifactCache`] dies with its process, so every
//! service restart used to be a cold-compile storm. A [`PersistStore`]
//! writes each freshly compiled artifact to disk and re-admits the
//! whole directory into the cache at startup, making restarts *warm*:
//! previously served keys hit without recompiling, and the returned
//! bytes are identical to the pre-restart artifacts because the entry
//! embeds the [`StoredArtifact`]'s bytes verbatim.
//!
//! # Layout
//!
//! ```text
//! <root>/v1/<platform_id>/<key_id>.json
//! ```
//!
//! `v1` is the layout version ([`CACHE_LAYOUT_DIR`]); `<platform_id>` is
//! `diana` for every store a `CompileService` opens; `<key_id>` is the
//! 32-hex-digit [`ArtifactKey::id`]. Each entry file is one JSON
//! envelope: the cache-format version ([`CACHE_FORMAT_VERSION`]), the
//! compiler stamp ([`compiler_stamp`]), the key digest, the **full**
//! key bytes as hex (cache lookup compares bytes, never digests), the
//! artifact digest (32 hex digits of [`murmur3_128`] over the stored
//! artifact bytes), and the artifact.
//!
//! # Durability and corruption policy
//!
//! Writes are atomic: the entry is written to a `.tmp` sibling and
//! `rename`d into place, so a crash mid-write never leaves a partial
//! `.json` entry. Loading is corruption-tolerant by construction —
//! unparseable JSON, a format or compiler-stamp mismatch, a digest that
//! does not match the recorded key bytes, a filename that does not
//! match the digest, or an artifact whose re-serialized bytes do not
//! match the artifact digest all cause the entry to be **skipped and
//! counted** ([`PersistStats::load_skipped`]), never a crash. The last
//! check ties an entry to the bytes its compile produced: an edit that
//! still parses (a changed `activation_peak`, say) would otherwise be
//! re-admitted and served as a hit whose bytes differ from a compile.
//! A version bump in either stamp deliberately invalidates old entries
//! the same way.

use crate::cache::ArtifactCache;
use crate::hexfmt;
use crate::key::ArtifactKey;
use crate::stored::StoredArtifact;
use htvm_ir::canonical::murmur3_128;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the entry-envelope schema *and of the key encoding inside
/// it*. Entries recorded under any other version are skipped (counted)
/// at load.
///
/// - `1`: constant payloads keyed by FNV-1a 128, operator attributes as
///   serde JSON.
/// - `2`: constant payloads keyed by `MurmurHash3_x64_128`, operator
///   attributes written directly (see [`htvm_ir::canonical`]). The
///   envelope itself did not change, but a format-1 entry sits under key
///   bytes no format-2 request ever produces, so re-admitting it would
///   only spend cache budget on an unreachable artifact.
/// - `3`: an accelerator step is stored once. The artifact lost its
///   `fallbacks` table (the machine then derived a step's host form from
///   its descriptor) and the key's lowering fingerprint lost the option
///   that selected it, so no format-3 request produces a format-2 key.
/// - `4`: every tensor payload is base64 of its little-endian bytes at
///   the dtype's native width instead of a list of decimal numbers.
///   Keys did not change (they digest the values, not the text), so a
///   format-3 entry is still under a reachable key, but its artifact no
///   longer parses.
/// - `5`: the envelope carries `artifact_digest`, and an entry whose
///   artifact does not re-serialize to those bytes is skipped. Keys and
///   artifact bytes did not change; a format-4 entry has no digest, so
///   its envelope no longer parses and it is skipped.
/// - `6`: a constant payload's digest reads its elements at the dtype's
///   native width (one byte for `I8` and `Ternary`, two for `I16`)
///   instead of widened to `i32`, and the key id is `MurmurHash3_x64_128`
///   of the key bytes instead of FNV-1a. Artifact bytes did not change,
///   but every key holding a non-`I32` constant, and every key id, did:
///   a format-5 entry sits under a key id no format-6 key has.
/// - `7`: an artifact stores only what its steps cannot give back. It
///   lost its per-layer `assignments` rows (a view over the steps) and
///   the DMA table's platform stamp, and both it and this envelope
///   refuse a member they do not declare. Keys did not change, so a
///   format-6 entry is still under a reachable key, but its artifact no
///   longer parses.
/// - `8`: the key's lowering fingerprint is the two tiling objectives
///   alone. It lost `naive_l2` (a function of the deploy target, which
///   the key holds) and the L1-budget override and binary-size model,
///   which are no longer options. Artifact bytes did not change, but
///   every key and key id did: a format-7 entry sits under a key id no
///   format-8 key has.
/// - `9`: a chain whose requantization tail is not `clip(-128, 127) →
///   cast(i8)` runs on the CPU; the accelerator epilogue used to run it
///   with the i8 bounds and dtype instead. Keys did not change, but the
///   artifact of every graph holding such a chain did, so a format-8
///   entry for one sits under a reachable key with the wrong program.
pub const CACHE_FORMAT_VERSION: u32 = 9;

/// Name of the layout-version directory under the persistence root.
/// Bumping the on-disk layout means a new directory, so mixed-version
/// fleets never read each other's entries.
pub const CACHE_LAYOUT_DIR: &str = "v1";

/// The compiler identity baked into every entry. Artifacts are only
/// byte-stable within one compiler version, so entries written by any
/// other build are skipped (counted) at load instead of being trusted.
#[must_use]
pub fn compiler_stamp() -> String {
    format!("htvm-serve {}", env!("CARGO_PKG_VERSION"))
}

/// Counters of one persistent store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PersistStats {
    /// Entries durably written (tmp + rename completed).
    pub writes: u64,
    /// Write attempts that failed on an io error (the artifact is still
    /// served from memory; only durability was lost).
    pub write_errors: u64,
    /// Entries validated and re-admitted into the cache at load.
    pub load_ok: u64,
    /// Entries skipped at load: unparseable, stamp mismatch, key or
    /// artifact digest mismatch, misnamed, or refused admission by the
    /// cache budget.
    pub load_skipped: u64,
}

/// The JSON envelope of one on-disk entry. The artifact rides as an
/// untyped JSON value: on write it is the stored bytes passed through
/// verbatim, and on load the header (format, stamp, digest) validates
/// *before* committing to the artifact schema — a stale entry from an
/// older build is skipped on its stamp even when the artifact shape
/// changed underneath it.
#[derive(Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
struct PersistEntry {
    format: u32,
    compiler: String,
    key_id: String,
    key_hex: String,
    artifact_digest: String,
    artifact: serde_json::Value,
}

/// The envelope's `artifact_digest` of a stored artifact's bytes.
fn artifact_digest(stored: &StoredArtifact) -> String {
    format!("{:032x}", murmur3_128(stored.json().as_bytes()))
}

/// The on-disk artifact cache of one platform id. Thread-safe:
/// counters are atomic, and the atomic rename makes concurrent writers
/// of the same key last-writer-wins with no torn entries.
pub struct PersistStore {
    dir: PathBuf,
    writes: AtomicU64,
    write_errors: AtomicU64,
    load_ok: AtomicU64,
    load_skipped: AtomicU64,
}

impl PersistStore {
    /// Opens (creating if needed) the store for one platform under the
    /// versioned layout: `<root>/v1/<platform_id>/`.
    ///
    /// # Errors
    ///
    /// The underlying `create_dir_all` error when the directory cannot
    /// be created — a service whose persistence root is unusable should
    /// find out at startup, not at the first write.
    pub fn open(root: &Path, platform_id: &str) -> std::io::Result<Self> {
        let dir = root.join(CACHE_LAYOUT_DIR).join(platform_id);
        std::fs::create_dir_all(&dir)?;
        Ok(PersistStore {
            dir,
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            load_ok: AtomicU64::new(0),
            load_skipped: AtomicU64::new(0),
        })
    }

    /// Durably records one artifact: wrap its stored bytes in the
    /// envelope, write that to a `.tmp` sibling, `rename` into place.
    /// Returns whether the entry landed; failures only cost durability
    /// (and a counter), never the request. A plain `&Artifact` is
    /// converted (cloned and serialized) on the way in.
    pub fn write(&self, key: &ArtifactKey, artifact: impl Into<StoredArtifact>) -> bool {
        let stored: StoredArtifact = artifact.into();
        let entry = PersistEntry {
            format: CACHE_FORMAT_VERSION,
            compiler: compiler_stamp(),
            key_id: key.id(),
            key_hex: hexfmt::encode(key.as_bytes()),
            artifact_digest: artifact_digest(&stored),
            artifact: serde_json::to_value(&stored),
        };
        let json = serde_json::to_string(&entry).expect("envelopes serialize infallibly");
        let tmp = self.dir.join(format!("{}.tmp", entry.key_id));
        let path = self.dir.join(format!("{}.json", entry.key_id));
        let landed = std::fs::write(&tmp, json).is_ok() && std::fs::rename(&tmp, &path).is_ok();
        if landed {
            self.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            let _ = std::fs::remove_file(&tmp);
        }
        landed
    }

    /// Re-admits every valid on-disk entry into `cache`, in sorted
    /// filename order so admission (and any budget eviction) is
    /// deterministic. Invalid entries are skipped and counted — a
    /// corrupt file can cost its own entry, never the startup.
    pub fn load_into(&self, cache: &ArtifactCache) -> PersistStats {
        let mut files: Vec<PathBuf> = match std::fs::read_dir(&self.dir) {
            Ok(dir) => dir
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "json") && p.is_file())
                .collect(),
            // An unreadable directory re-admits nothing; the service
            // still starts (cold) and writes will surface io errors.
            Err(_) => Vec::new(),
        };
        files.sort();
        for path in files {
            let admitted = match self.load_one(&path) {
                Some((key, stored)) => cache.insert(key, stored),
                None => false,
            };
            if admitted {
                self.load_ok.fetch_add(1, Ordering::Relaxed);
            } else {
                self.load_skipped.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.stats()
    }

    /// Validates one entry file end to end; `None` means skip.
    fn load_one(&self, path: &Path) -> Option<(ArtifactKey, StoredArtifact)> {
        let json = std::fs::read_to_string(path).ok()?;
        let entry: PersistEntry = serde_json::from_str(&json).ok()?;
        if entry.format != CACHE_FORMAT_VERSION || entry.compiler != compiler_stamp() {
            return None;
        }
        let key = ArtifactKey::from_bytes(hexfmt::decode(&entry.key_hex).ok()?);
        // The digest must match the key bytes, and the filename must
        // match the digest — a renamed or hand-edited entry fails here.
        if key.id() != entry.key_id || path.file_stem()?.to_str()? != entry.key_id {
            return None;
        }
        // The artifact must re-serialize to the bytes that were written.
        let stored: StoredArtifact = serde_json::from_value(entry.artifact).ok()?;
        (artifact_digest(&stored) == entry.artifact_digest).then_some((key, stored))
    }

    /// A snapshot of the store's counters.
    #[must_use]
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            load_ok: self.load_ok.load(Ordering::Relaxed),
            load_skipped: self.load_skipped.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for PersistStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistStore")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}
