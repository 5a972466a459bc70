//! Content-addressed cache keys for compiled artifacts.
//!
//! An [`ArtifactKey`] is the canonical encoding of everything the
//! compiler output depends on: the graph in [`canonical_form`] (stable
//! under node-id permutation), the [`DeployConfig`], the platform id,
//! the [`DianaConfig`] platform model, and the two tiling
//! objectives of [`LowerOptions`] (the *fingerprint* — `naive_l2`
//! follows the deploy target, and runtime plumbing like the tile cache
//! handle and the tracer is deliberately excluded because it never
//! changes the produced artifact; `tests/determinism.rs` in `htvm`
//! asserts exactly that).
//!
//! # What equality compares
//!
//! The key stores the complete encoded bytes and equality is
//! byte-for-byte, so graph structure, operator attributes, shapes,
//! dtypes, names, the deploy target and both configs are compared
//! **verbatim**: two requests that differ in any of them can never share
//! a cache slot. Constant payloads are the exception. The canonical form
//! carries each payload as its 128-bit `MurmurHash3_x64_128` digest
//! (seed 0, see [`htvm_ir::canonical`]), so two graphs that differ *only*
//! in weight values alias if — and only if — those payloads collide
//! under a 128-bit non-cryptographic hash. That does not happen by
//! accident; it is not a defence against weights crafted to collide.
//!
//! The 128-bit `MurmurHash3_x64_128` digest of the whole key
//! ([`htvm_ir::canonical::murmur3_128`], the payloads' hash over plain
//! bytes; a soak-mix key is several kilobytes, so a hash that reads eight
//! bytes per step) is [`ArtifactKey::id`]: a display and routing handle
//! — log lines, spans, entry filenames, the shard ring. It is computed
//! once, when the key is built; cache lookup buckets by it and then
//! compares the full bytes. The ring places that id with FNV-1a (see
//! `shard.rs`), a short input.

use htvm::{DeployConfig, DianaConfig, LowerOptions};
use htvm_ir::canonical::murmur3_128;
use htvm_ir::{canonical_form, Graph};
use serde::Serialize;
use std::hash::{Hash, Hasher};

/// The part of [`LowerOptions`] a caller chooses that determines the
/// artifact: the two tiling objectives. `naive_l2` is a function of the
/// deploy target, which the key already holds; everything else
/// (`tile_cache`, `tracer`) is observational or a pure-function memo and
/// cannot change the output bytes.
#[derive(Serialize)]
struct LowerFingerprint {
    digital_objective: htvm::TilingObjective,
    analog_objective: htvm::TilingObjective,
}

/// The part of a key no request changes: platform id, SoC model and
/// lowering fingerprint, encoded once per service and appended to every
/// key it builds.
pub(crate) struct KeyContext {
    suffix: Vec<u8>,
}

impl KeyContext {
    pub(crate) fn new(platform_id: &str, platform: &DianaConfig, opts: &LowerOptions) -> Self {
        let fingerprint = LowerFingerprint {
            digital_objective: opts.digital_objective.clone(),
            analog_objective: opts.analog_objective.clone(),
        };
        let mut suffix = Vec::new();
        suffix.extend_from_slice(b"\0platform_id:");
        suffix.extend_from_slice(platform_id.as_bytes());
        suffix.extend_from_slice(b"\0platform:");
        suffix.extend_from_slice(json(platform).as_bytes());
        suffix.extend_from_slice(b"\0lower:");
        suffix.extend_from_slice(json(&fingerprint).as_bytes());
        KeyContext { suffix }
    }

    /// The key for compiling `graph` for `deploy` in this context.
    pub(crate) fn key(&self, graph: &Graph, deploy: DeployConfig) -> ArtifactKey {
        let mut bytes = canonical_form(graph);
        bytes.extend_from_slice(b"\0deploy:");
        bytes.extend_from_slice(json(&deploy).as_bytes());
        bytes.extend_from_slice(&self.suffix);
        ArtifactKey::from_bytes(bytes)
    }
}

/// A content-addressed identity for one compile request.
///
/// Two requests with equal keys compile to byte-identical artifacts, up
/// to a collision of the constant-payload digest (what equality does
/// and does not compare is spelled out in `key.rs`'s module docs, and
/// in docs/SERVING.md under "The cache key"). The `platform_id` is the
/// id the service names its SoC by (`diana`, `htvm_soc::DEFAULT_PLATFORM`);
/// it is part of every key, so changing it would change every key id and
/// orphan every persisted entry.
#[derive(Clone)]
pub struct ArtifactKey {
    bytes: Vec<u8>,
    /// [`murmur3_128`] of `bytes`, taken once at construction.
    digest: u128,
}

impl ArtifactKey {
    /// Builds the key for compiling `graph` on the platform named
    /// `platform_id`, under the given deploy target, SoC model and
    /// lowering options.
    #[must_use]
    pub fn new(
        platform_id: &str,
        graph: &Graph,
        deploy: DeployConfig,
        platform: &DianaConfig,
        opts: &LowerOptions,
    ) -> Self {
        KeyContext::new(platform_id, platform, opts).key(graph, deploy)
    }

    /// The 128-bit MurmurHash3 digest of the encoded key, as 32 hex digits.
    /// A display handle for logs, spans, entry filenames and the shard
    /// ring — cache lookup always compares the full bytes as well.
    #[must_use]
    pub fn id(&self) -> String {
        format!("{:032x}", self.digest)
    }

    /// The digest [`ArtifactKey::id`] renders.
    pub(crate) fn digest(&self) -> u128 {
        self.digest
    }

    /// Size of the encoded key in bytes.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// The full encoded key bytes — what the persistent store writes so
    /// a restarted service can re-admit entries under the *exact* key
    /// (cache lookup compares these bytes, never only the digest).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Rebuilds a key from previously persisted [`ArtifactKey::as_bytes`]
    /// output. For cache re-admission only: the bytes are trusted to be
    /// a real encoding, and the persistence layer cross-checks the
    /// recorded digest against [`ArtifactKey::id`] before using one.
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        let digest = murmur3_128(&bytes);
        ArtifactKey { bytes, digest }
    }
}

impl PartialEq for ArtifactKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for ArtifactKey {}

impl Hash for ArtifactKey {
    /// Feeds the stored digest — a function of `bytes`, so equal keys
    /// hash equally — instead of re-hashing kilobytes on every probe.
    /// Keys built to share a digest would share a bucket; every
    /// map keyed by this type is small and bounded (the cache by its
    /// byte budget, the in-flight table by the requests in flight, a
    /// batch's leader table by the batch), and equality still reads the
    /// bytes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u128(self.digest);
    }
}

impl std::fmt::Debug for ArtifactKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactKey")
            .field("id", &self.id())
            .field("encoded_len", &self.bytes.len())
            .finish()
    }
}

fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("config types serialize infallibly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_ir::{DType, GraphBuilder, Tensor};

    fn conv_graph(channels: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[channels, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[channels, channels, 3, 3]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let y = b.requantize(c, 7, true).unwrap();
        b.finish(&[y]).unwrap()
    }

    #[test]
    fn same_request_same_key() {
        let platform = DianaConfig::default();
        let opts = LowerOptions::default();
        let a = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &opts,
        );
        let b = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &opts,
        );
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn every_component_feeds_the_key() {
        let platform = DianaConfig::default();
        let opts = LowerOptions::default();
        let base = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &opts,
        );

        let other_graph = ArtifactKey::new(
            "diana",
            &conv_graph(16),
            DeployConfig::Both,
            &platform,
            &opts,
        );
        assert_ne!(base, other_graph, "graph must feed the key");

        let other_deploy = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Digital,
            &platform,
            &opts,
        );
        assert_ne!(base, other_deploy, "deploy target must feed the key");

        let other_id =
            ArtifactKey::new("gap9", &conv_graph(8), DeployConfig::Both, &platform, &opts);
        assert_ne!(base, other_id, "the platform id must feed the key");

        let mut small = DianaConfig::default();
        small.l1_act_bytes /= 2;
        let other_platform =
            ArtifactKey::new("diana", &conv_graph(8), DeployConfig::Both, &small, &opts);
        assert_ne!(base, other_platform, "platform model must feed the key");

        let memory_only = LowerOptions {
            digital_objective: htvm::TilingObjective::memory_only(),
            ..LowerOptions::default()
        };
        let other_opts = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &memory_only,
        );
        assert_ne!(base, other_opts, "lowering options must feed the key");
    }

    #[test]
    fn calibrated_cost_models_feed_the_key() {
        // A calibrated objective must never alias with the heuristic one,
        // and two calibrations must never alias with each other — the
        // calibration version is part of the serialized cost model.
        let platform = DianaConfig::default();
        let graph = conv_graph(8);
        let base = ArtifactKey::new(
            "diana",
            &graph,
            DeployConfig::Both,
            &platform,
            &LowerOptions::default(),
        );
        let model = htvm::CostModel {
            version: 1,
            gamma: 4.0,
            dma_setup: 30,
            dma_bytes_per_cycle: 8,
            kernel_call_overhead: 800,
            tile_overhead: 300,
            engine: htvm::EngineModel::Digital {
                pe_rows: 16,
                pe_cols: 16,
                dw_macs_per_cycle_x100: 375,
                add_elems_per_cycle: 16,
                efficiency_pct: 40,
            },
        };
        let calibrated = LowerOptions {
            digital_objective: htvm::TilingObjective::calibrated(model),
            ..LowerOptions::default()
        };
        let with_model =
            ArtifactKey::new("diana", &graph, DeployConfig::Both, &platform, &calibrated);
        assert_ne!(
            base, with_model,
            "a calibrated objective must produce a distinct key"
        );

        let mut bumped_model = model;
        bumped_model.version = 2;
        let bumped = LowerOptions {
            digital_objective: htvm::TilingObjective::calibrated(bumped_model),
            ..LowerOptions::default()
        };
        let with_bumped = ArtifactKey::new("diana", &graph, DeployConfig::Both, &platform, &bumped);
        assert_ne!(
            with_model, with_bumped,
            "bumping the calibration version must re-key the artifact"
        );
    }

    #[test]
    fn runtime_only_options_do_not_feed_the_key() {
        let platform = DianaConfig::default();
        let base = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &LowerOptions::default(),
        );
        let runtime = LowerOptions {
            tile_cache: Some(htvm::TileCache::new()),
            tracer: htvm::Tracer::new(),
            ..LowerOptions::default()
        };
        let same = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &platform,
            &runtime,
        );
        assert_eq!(
            base, same,
            "tile cache and tracing never change the artifact"
        );
    }

    #[test]
    fn the_ten_serve_mix_keys_are_pairwise_distinct() {
        // The soak mix: every zoo model under `Both` (mixed recipe) and
        // `Digital` (8-bit). Within one deploy target the keys share
        // their whole suffix, so only the graph forms tell them apart.
        use htvm_models::{all_models, QuantScheme};
        let (platform, opts) = (DianaConfig::default(), LowerOptions::default());
        let mut keys = Vec::new();
        for (deploy, scheme) in [
            (DeployConfig::Both, QuantScheme::Mixed),
            (DeployConfig::Digital, QuantScheme::Int8),
        ] {
            for model in all_models(scheme) {
                keys.push(ArtifactKey::new(
                    "diana",
                    &model.graph,
                    deploy,
                    &platform,
                    &opts,
                ));
            }
        }
        assert_eq!(keys.len(), 10);
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "keys {i} and {j}");
                assert_ne!(a.id(), b.id(), "key ids {i} and {j}");
            }
        }
    }

    #[test]
    fn bytes_round_trip_preserves_identity() {
        let key = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &DianaConfig::default(),
            &LowerOptions::default(),
        );
        let back = ArtifactKey::from_bytes(key.as_bytes().to_vec());
        assert_eq!(back, key, "persisted bytes rebuild the exact key");
        assert_eq!(back.id(), key.id());
        assert_eq!(back.encoded_len(), key.encoded_len());
    }

    #[test]
    fn id_is_stable_hex() {
        let key = ArtifactKey::new(
            "diana",
            &conv_graph(8),
            DeployConfig::Both,
            &DianaConfig::default(),
            &LowerOptions::default(),
        );
        let id = key.id();
        assert_eq!(id.len(), 32);
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(id, key.id());
    }
}
