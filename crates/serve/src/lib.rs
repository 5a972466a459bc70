//! Multi-tenant compile serving for HTVM-RS.
//!
//! Deploying to a TinyML fleet rarely means one compile: a serving tier
//! receives batches of jobs — the same handful of network architectures
//! under different deploy targets and tiling experiments, over and over.
//! This crate turns the HTVM compiler into that tier:
//!
//! - The [`http`] module is the **network front door**: a vendored,
//!   dependency-free HTTP/1.1 server (`POST /v1/compile`,
//!   `POST /v1/batch`, `POST /v1/import`, `GET /v1/stats`) with
//!   keep-alive framing and typed JSON error responses, run as the
//!   `httpd` bin.
//! - [`CompileService`] schedules [`JobRequest`] batches on a bounded
//!   worker pool ([`ServeConfig::workers`]) and returns results in
//!   request order. **Admission control** estimates each job's cost
//!   ([`estimate_cost`]: graph size × cache state), enforces per-tenant
//!   quotas, and sheds load with a typed [`JobError::Rejected`] when
//!   the queued cost would exceed [`ServeConfig::queue_cost_budget`].
//!   Admitted jobs are ordered **cost-aware** by default
//!   ([`SchedPolicy`]): cache hits run before cold compiles, and
//!   identical keys within a batch are coalesced onto one compile.
//! - Repeat requests hit a **content-addressed artifact cache**: the key
//!   ([`ArtifactKey`]) is the canonical encoding of the graph (stable
//!   under node-id permutation — see `htvm_ir::canonical_form`) plus the
//!   deploy config, platform model and compile-relevant lowering
//!   options. Because compilation is deterministic, a cache hit returns
//!   an artifact byte-identical to a cold compile.
//! - The cache holds a bounded number of serialized bytes
//!   ([`ServeConfig::cache_budget_bytes`]) with least-recently-used
//!   eviction ([`ArtifactCache`]); every consumer of an artifact
//!   shares one serialization of it ([`StoredArtifact`]).
//! - A repeat `/v1/import` of the same bytes skips import and keying:
//!   the cache remembers which key each upload resolved to, matches a
//!   new upload byte for byte, and forgets it with its artifact
//!   ([`CompileService::submit_model`]).
//! - All tenants share one base [`Compiler`](htvm::Compiler), so tiling
//!   solves memoized for one tenant's layers accelerate every other
//!   tenant's cold compiles too ([`ServiceStats::tile_cache`]).
//! - The service compiles; it never simulates. A client runs the returned
//!   artifact with `htvm::Machine::run`.
//! - One service compiles for one SoC. Its keys carry the id
//!   [`DEFAULT_PLATFORM`](htvm_soc::DEFAULT_PLATFORM) (`diana`) and the
//!   compiler's SoC model; another SoC is served by another service,
//!   built with [`CompileService::with_compiler`] over
//!   `Compiler::new().with_platform(cfg)`.
//! - With [`ServeConfig::persist_root`] set, the artifact cache is
//!   **restart-durable**: artifacts spill to a versioned on-disk layout
//!   ([`persist`]) with atomic writes and corruption-tolerant loading,
//!   and a restarted service re-admits them (warm start — zero
//!   recompiles for previously served keys). The [`fleet`] module
//!   simulates N sharded instances ([`ShardRing`]) with mid-soak
//!   restarts on top of exactly that.
//!
//! See `docs/SERVING.md` for the architecture and the determinism
//! argument.
//!
//! # Example
//!
//! ```
//! use htvm_serve::{CompileService, JobRequest, ServeConfig};
//! use htvm::DeployConfig;
//! use htvm_ir::{DType, GraphBuilder, Tensor};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = GraphBuilder::new();
//! let x = b.input("x", &[8, 8, 8], DType::I8);
//! let w = b.constant("w", Tensor::zeros(DType::I8, &[8, 8, 3, 3]));
//! let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1))?;
//! let y = b.requantize(c, 7, true)?;
//! let graph = b.finish(&[y])?;
//!
//! let service = CompileService::new(ServeConfig::default());
//! let cold = service.submit(JobRequest::compile_only("a", graph.clone(), DeployConfig::Both))?;
//! let warm = service.submit(JobRequest::compile_only("b", graph, DeployConfig::Both))?;
//! assert!(!cold.cache_hit);
//! assert!(warm.cache_hit);
//! assert_eq!(cold.artifact, warm.artifact);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod fleet;
mod hexfmt;
pub mod http;
mod key;
pub mod persist;
mod service;
pub mod shard;
mod stored;

pub use cache::{ArtifactCache, ArtifactCacheStats};
pub use fleet::{Fleet, InstanceStats};
pub use key::ArtifactKey;
pub use persist::{compiler_stamp, PersistStats, PersistStore, CACHE_FORMAT_VERSION};
pub use service::{
    estimate_cost, CompileService, JobError, JobRequest, JobResult, RejectReason, Rejection,
    SchedPolicy, ServeConfig, ServiceStats, HIT_COST,
};
pub use shard::ShardRing;
pub use stored::StoredArtifact;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering it when a thread panicked while holding it.
/// Every lock in this crate is taken through here (a condvar wait and a
/// consumed result slot recover the same way). That is sound because no
/// critical section has a panic point between two writes that must agree
/// (the artifact cache, the one lock with paired writes, un-counts an
/// entry's bytes and its uploads right after removing them, and counts
/// an upload right after remembering it), so the guarded state is whole
/// whenever a holder unwinds.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm::{Compiler, DeployConfig, Tracer};
    use htvm_ir::{DType, Graph, GraphBuilder, Tensor};

    fn conv_graph(channels: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[channels, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[channels, channels, 3, 3]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let y = b.requantize(c, 7, true).unwrap();
        b.finish(&[y]).unwrap()
    }

    fn config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            cache_budget_bytes: 16 << 20,
            tracer: Tracer::disabled(),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn warm_artifact_is_byte_identical_to_cold() {
        let service = CompileService::new(config());
        let cold = service
            .submit(JobRequest::compile_only(
                "cold",
                conv_graph(8),
                DeployConfig::Both,
            ))
            .expect("cold compile succeeds");
        let warm = service
            .submit(JobRequest::compile_only(
                "warm",
                conv_graph(8),
                DeployConfig::Both,
            ))
            .expect("warm compile succeeds");
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(cold.key_id, warm.key_id);
        // Byte identity, not just logical equality: serialize both.
        assert_eq!(
            serde_json::to_string(&cold.artifact).unwrap(),
            serde_json::to_string(&warm.artifact).unwrap()
        );
        // And byte-identical to a standalone cold compile outside the
        // service entirely.
        let standalone = Compiler::new()
            .with_deploy(DeployConfig::Both)
            .compile(&conv_graph(8))
            .expect("standalone compile succeeds");
        assert_eq!(
            serde_json::to_string(&standalone).unwrap(),
            serde_json::to_string(&warm.artifact).unwrap()
        );
        let stats = service.stats();
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.artifact_cache.hits, 1);
        assert_eq!(stats.artifact_cache.misses, 1);
    }

    #[test]
    fn different_deploy_targets_do_not_alias() {
        let service = CompileService::new(config());
        let both = service
            .submit(JobRequest::compile_only(
                "both",
                conv_graph(8),
                DeployConfig::Both,
            ))
            .unwrap();
        let digital = service
            .submit(JobRequest::compile_only(
                "digital",
                conv_graph(8),
                DeployConfig::Digital,
            ))
            .unwrap();
        assert_ne!(both.key_id, digital.key_id);
        assert!(!digital.cache_hit, "a different deploy is a different key");
    }

    #[test]
    fn batch_returns_results_in_request_order() {
        let service = CompileService::new(config());
        let jobs: Vec<JobRequest> = (0..6)
            .map(|i| {
                JobRequest::compile_only(
                    &format!("job{i}"),
                    conv_graph(if i % 2 == 0 { 8 } else { 16 }),
                    DeployConfig::Both,
                )
            })
            .collect();
        let results = service.submit_batch(jobs);
        assert_eq!(results.len(), 6);
        for (i, result) in results.iter().enumerate() {
            let result = result.as_ref().expect("all jobs compile");
            assert_eq!(result.job, format!("job{i}"));
        }
        let stats = service.stats();
        assert_eq!(stats.jobs, 6);
        assert_eq!(stats.artifact_cache.misses, 2, "two distinct graphs");
        assert_eq!(
            stats.coalesced, 4,
            "in-batch repeats coalesce onto the two leaders"
        );
        assert_eq!(stats.artifact_cache.hits, 0);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn cost_aware_schedules_hits_before_cold_compiles() {
        // One worker makes the schedule exactly the dispatch order, so
        // the policy is asserted deterministically via `sched_seq`, not
        // wall timing. Warm three cheap keys, then submit a batch with
        // an expensive cold compile at the *front*.
        let run = |policy: SchedPolicy| {
            let service = CompileService::new(ServeConfig {
                workers: 1,
                policy,
                ..config()
            });
            for ch in [4usize, 6, 8] {
                service
                    .submit(JobRequest::compile_only(
                        "warm",
                        conv_graph(ch),
                        DeployConfig::Both,
                    ))
                    .expect("warmup compiles");
            }
            let batch = vec![
                JobRequest::compile_only("cold", conv_graph(24), DeployConfig::Both),
                JobRequest::compile_only("hit4", conv_graph(4), DeployConfig::Both),
                JobRequest::compile_only("hit6", conv_graph(6), DeployConfig::Both),
                JobRequest::compile_only("hit8", conv_graph(8), DeployConfig::Both),
            ];
            let results = service.submit_batch(batch);
            results
                .into_iter()
                .map(|r| {
                    let r = r.expect("batch compiles");
                    (r.job, r.sched_seq, r.cache_hit)
                })
                .collect::<Vec<_>>()
        };

        let cost_aware = run(SchedPolicy::CostAware);
        let cold_seq = cost_aware[0].1;
        for (job, seq, hit) in &cost_aware[1..] {
            assert!(*hit, "warmed job '{job}' must be a cache hit");
            assert!(
                *seq < cold_seq,
                "cost-aware must run hit '{job}' (seq {seq}) before the cold compile (seq {cold_seq})"
            );
        }

        let fifo = run(SchedPolicy::Fifo);
        let cold_seq = fifo[0].1;
        for (job, seq, _) in &fifo[1..] {
            assert!(
                *seq > cold_seq,
                "fifo must run '{job}' (seq {seq}) after the head-of-line cold compile (seq {cold_seq})"
            );
        }
    }

    #[test]
    fn saturation_sheds_typed_rejections_not_unbounded_queues() {
        // Budget fits one cold compile; everything behind it is shed
        // with a typed rejection instead of queuing without bound. The
        // admission pass is synchronous and in request order, so the
        // outcome is fully deterministic.
        let cost = estimate_cost(&conv_graph(8), false);
        let service = CompileService::new(ServeConfig {
            workers: 2,
            queue_cost_budget: cost,
            ..config()
        });
        let jobs: Vec<JobRequest> = (0..5)
            .map(|i| {
                // Distinct graphs: no coalescing can rescue them.
                JobRequest::compile_only(&format!("job{i}"), conv_graph(8 + i), DeployConfig::Both)
            })
            .collect();
        let results = service.submit_batch(jobs);
        assert!(results[0].is_ok(), "an idle service always admits one");
        for (i, result) in results.iter().enumerate().skip(1) {
            match result {
                Err(JobError::Rejected { job, rejection }) => {
                    assert_eq!(job, &format!("job{i}"));
                    assert!(
                        matches!(rejection.reason, RejectReason::QueueBudget { .. }),
                        "shed reason must be the queue budget: {rejection:?}"
                    );
                    assert!(rejection.retry_after_ms > 0);
                }
                other => panic!("job{i} must be shed, got {other:?}"),
            }
        }
        let stats = service.stats();
        assert_eq!(stats.shed, 4);
        assert_eq!(stats.shed_budget, 4);
        assert_eq!(stats.jobs, 1, "shed jobs never reach a worker");

        // The queue drained: the same service admits new work again.
        let retry = service.submit(JobRequest::compile_only(
            "retry",
            conv_graph(9),
            DeployConfig::Both,
        ));
        assert!(retry.is_ok(), "admission units must be released");
    }

    #[test]
    fn tenant_quota_sheds_only_the_greedy_tenant() {
        let service = CompileService::new(ServeConfig {
            workers: 2,
            tenant_quota: 2,
            ..config()
        });
        let jobs = vec![
            JobRequest::compile_only("a0", conv_graph(4), DeployConfig::Both).with_tenant("acme"),
            JobRequest::compile_only("a1", conv_graph(6), DeployConfig::Both).with_tenant("acme"),
            JobRequest::compile_only("a2", conv_graph(8), DeployConfig::Both).with_tenant("acme"),
            JobRequest::compile_only("b0", conv_graph(10), DeployConfig::Both).with_tenant("bcorp"),
        ];
        let results = service.submit_batch(jobs);
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        match &results[2] {
            Err(JobError::Rejected { rejection, .. }) => match &rejection.reason {
                RejectReason::TenantQuota {
                    tenant,
                    inflight,
                    quota,
                } => {
                    assert_eq!(tenant, "acme");
                    assert_eq!((*inflight, *quota), (2, 2));
                }
                other => panic!("expected a tenant-quota shed, got {other:?}"),
            },
            other => panic!("acme's third job must be shed, got {other:?}"),
        }
        assert!(
            results[3].is_ok(),
            "another tenant is unaffected by acme's quota"
        );
        let stats = service.stats();
        assert_eq!((stats.shed, stats.shed_quota), (1, 1));
    }

    #[test]
    fn oversized_artifacts_are_returned_but_never_cached() {
        // A cache too small for any artifact: every compile succeeds
        // and returns its artifact, the oversized counter advances, and
        // nothing becomes resident — so repeats are misses, not hits.
        let service = CompileService::new(ServeConfig {
            cache_budget_bytes: 64, // far below any serialized artifact
            ..config()
        });
        let first = service
            .submit(JobRequest::compile_only(
                "first",
                conv_graph(8),
                DeployConfig::Both,
            ))
            .expect("compile succeeds even when caching fails");
        assert!(!first.cache_hit);
        let again = service
            .submit(JobRequest::compile_only(
                "again",
                conv_graph(8),
                DeployConfig::Both,
            ))
            .expect("repeat compiles again");
        assert!(!again.cache_hit, "nothing was admitted to hit on");
        assert_eq!(
            serde_json::to_string(&first.artifact).unwrap(),
            serde_json::to_string(&again.artifact).unwrap()
        );
        let stats = service.stats();
        assert_eq!(stats.artifact_cache.oversized, 2);
        assert_eq!(stats.artifact_cache.entries, 0);
        assert_eq!(stats.artifact_cache.insertions, 0);
        assert_eq!(stats.artifact_cache.misses, 2);
        assert_eq!(stats.artifact_cache.hits, 0);
    }

    #[test]
    fn zero_budget_admits_nothing_and_coalesces_as_usual() {
        let service = CompileService::new(ServeConfig {
            cache_budget_bytes: 0,
            ..config()
        });
        let jobs: Vec<JobRequest> = (0..4)
            .map(|i| {
                JobRequest::compile_only(&format!("job{i}"), conv_graph(8), DeployConfig::Both)
            })
            .collect();
        let results = service.submit_batch(jobs);
        for (i, result) in results.iter().enumerate() {
            let result = result.as_ref().expect("all compile");
            assert!(!result.cache_hit);
            assert_eq!(result.coalesced, i > 0, "repeats ride the one compile");
        }
        let stats = service.stats();
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.coalesced, 3);
        assert_eq!(stats.artifact_cache.misses, 1, "only the leader probes");
        assert_eq!(stats.artifact_cache.hits, 0);
        assert_eq!(stats.artifact_cache.entries, 0);
        assert_eq!(
            stats.artifact_cache.oversized, 1,
            "the one compile is refused admission"
        );
    }

    #[test]
    fn tracer_records_job_spans_with_counters() {
        let tracer = Tracer::new();
        let service = CompileService::new(ServeConfig {
            workers: 2,
            cache_budget_bytes: 16 << 20,
            tracer: tracer.clone(),
            ..ServeConfig::default()
        });
        service
            .submit(JobRequest::compile_only(
                "traced",
                conv_graph(8),
                DeployConfig::Both,
            ))
            .unwrap();
        service
            .submit(JobRequest::compile_only(
                "traced",
                conv_graph(8),
                DeployConfig::Both,
            ))
            .unwrap();
        let trace = service.take_trace();
        let jobs: Vec<_> = trace.on_track(htvm::tracks::SERVICE).collect();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].arg_u64("cache_hit"), Some(0));
        assert_eq!(jobs[1].arg_u64("cache_hit"), Some(1));
        assert!(jobs.iter().all(|s| s.arg_u64("ok") == Some(1)));
        // Compiler phase spans share the trace (the miss compiled).
        assert!(trace.span("partition").is_some());
    }

    #[test]
    fn shared_tile_cache_spans_tenants() {
        let service = CompileService::new(config());
        service
            .submit(JobRequest::compile_only(
                "a",
                conv_graph(8),
                DeployConfig::Digital,
            ))
            .unwrap();
        // Same layer geometry under a different deploy: artifact-cache
        // miss, but the tiling solve is already memoized.
        service
            .submit(JobRequest::compile_only(
                "b",
                conv_graph(8),
                DeployConfig::Both,
            ))
            .unwrap();
        let stats = service.stats();
        assert_eq!(stats.artifact_cache.hits, 0);
        assert!(
            stats.tile_cache.hits > 0,
            "second tenant's solve must come from the shared tile cache: {:?}",
            stats.tile_cache
        );
    }
}
