//! The serving soak benchmark: throughput and latency of the
//! `htvm-serve` compile service over a zoo-derived, repeat-heavy
//! request mix, with and without the content-addressed artifact cache.
//!
//! Emitted as `SERVE_BENCH.json` — its own document with its own schema,
//! like `KERNELS_BENCH.json` — and compared warn-only by
//! `bench-diff --serve` (service throughput is host wall time; it never
//! gates). The headline number is `speedup`: cached throughput over the
//! no-reuse baseline on the same mix, which the `serve` bin can enforce
//! a floor on (`--min-speedup`).
//!
//! The `uncached` leg is built here, not by a service mode: every job
//! compiled from scratch and serialized, on the same number of threads,
//! off one shared base compiler (tiling solves stay memoized across
//! jobs, as in the service). Documents from before PR 12 measured a
//! zero-budget `CompileService` instead (plus key, queue, clone and
//! probe per job) and are not comparable on `uncached`/`speedup`.

use htvm::{Compiler, DeployConfig};
use htvm_models::all_models;
use htvm_serve::http::wire::{encode_hex, WireJob, WireResult};
use htvm_serve::http::{HttpConfig, HttpServer};
use htvm_serve::{CompileService, Fleet, JobRequest, SchedPolicy, ServeConfig, ServiceStats};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema version of `SERVE_BENCH.json`. v2 added the `skewed`
/// scheduling comparison and the optional `front_door` section; v3
/// added the optional `fleet` warm-vs-cold restart section. All are
/// `Option`s with serde defaults, so older documents still parse.
pub const SERVE_SCHEMA_VERSION: u32 = 3;

/// Knobs for one soak run.
#[derive(Debug, Clone, Copy)]
pub struct ServeBenchConfig {
    /// Total jobs in the mix (cycled over the distinct keys, so larger
    /// values make the mix more repeat-heavy).
    pub jobs: usize,
    /// Worker threads in the service pool.
    pub workers: usize,
    /// Hot (warmed-key) jobs in the skewed scheduling mix.
    pub skewed_hot_jobs: usize,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            jobs: 60,
            workers: 4,
            skewed_hot_jobs: 30,
        }
    }
}

/// Validates a `--min-speedup` floor: must be finite and non-negative
/// (zero disables the floor). `NaN`, infinities and negative values are
/// configuration errors, not "no floor".
pub fn validate_min_speedup(value: f64) -> Result<f64, String> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(format!(
            "--min-speedup must be a finite, non-negative number, got {value}"
        ))
    }
}

/// Wall-clock measurements of one pass of the mix through a service.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServeRunStats {
    /// End-to-end wall time of the batch, in milliseconds.
    pub wall_ms: f64,
    /// Jobs per second over the batch.
    pub throughput_jobs_per_s: f64,
    /// Median per-job latency (queue wait + service time), microseconds.
    pub p50_us: u64,
    /// 99th-percentile per-job latency, microseconds.
    pub p99_us: u64,
    /// 99th-percentile queue wait alone, microseconds.
    pub queue_p99_us: u64,
}

/// The FIFO-vs-cost-aware scheduling comparison on a skewed
/// (hot-key-heavy) mix with cold compiles at the head of the queue.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SkewedReport {
    /// Jobs in the skewed batch (cold head + hot repeats).
    pub jobs: u64,
    /// Cold (uncached) compiles heading the batch.
    pub cold_jobs: u64,
    /// The batch under strict request-order scheduling: the cold head
    /// occupies every worker, so hot cache hits queue behind it.
    pub fifo: ServeRunStats,
    /// The same batch under cost-aware scheduling: near-free hits run
    /// first, cold compiles last.
    pub cost_aware: ServeRunStats,
    /// FIFO p99 queue wait over cost-aware p99 queue wait (>1 means
    /// cost-aware wins head-of-line blocking back).
    pub queue_p99_ratio: f64,
}

/// The full soak report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeReport {
    /// Schema version ([`SERVE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Jobs in the mix.
    pub jobs: u64,
    /// Worker threads used.
    pub workers: u64,
    /// Distinct `(model, deploy)` keys in the mix.
    pub distinct_keys: u64,
    /// The mix through a service with the artifact cache enabled.
    pub cached: ServeRunStats,
    /// The same mix with no reuse at all: every job compiled from
    /// scratch and serialized, outside any service.
    pub uncached: ServeRunStats,
    /// Cached throughput over uncached throughput.
    pub speedup: f64,
    /// Service counters from the cached run (artifact-cache hit/miss/
    /// eviction counts, shared tile-cache counters).
    pub stats: ServiceStats,
    /// Scheduling-policy comparison on a skewed mix (since schema v2).
    #[serde(default)]
    pub skewed: Option<SkewedReport>,
    /// The cached mix driven through the HTTP front door, measured at
    /// the client (only when the soak ran with `--front-door`).
    #[serde(default)]
    pub front_door: Option<ServeRunStats>,
    /// Warm-vs-cold restart metrics from the simulated multi-instance
    /// fleet soak (since schema v3; only when the soak ran with
    /// `--instances`).
    #[serde(default)]
    pub fleet: Option<FleetReport>,
}

/// Warm-start evidence from the simulated fleet soak: one instance is
/// killed and rebooted from its persisted cache mid-soak, then the mix
/// replays. A working warm start means the restarted instance re-admits
/// everything it had spilled, serves the replay without recompiling,
/// and returns byte-identical artifacts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// Instances in the simulated fleet.
    pub instances: u64,
    /// Whether the probe instance was actually killed and rebooted
    /// between the passes (`--restart`); without it the warm replay
    /// only witnesses memory-cache affinity.
    pub restarted: bool,
    /// Index of the probe instance (the busiest one — killed and
    /// rebooted mid-soak when `restarted`).
    pub restarted_instance: u64,
    /// Jobs submitted per pass (one per distinct key).
    pub jobs: u64,
    /// Keys the restarted instance owned (and therefore persisted).
    pub restarted_instance_keys: u64,
    /// Fleet-wide cold-pass misses (one per distinct key by key
    /// affinity: the shard ring sends every repeat to the same
    /// instance).
    pub cold_misses: u64,
    /// Artifacts durably spilled across the fleet during the cold pass.
    pub persist_writes: u64,
    /// Entries the restarted instance re-admitted from disk at reboot.
    pub restart_load_ok: u64,
    /// Entries it skipped at reboot (corrupt or stamp-mismatched).
    pub restart_load_skipped: u64,
    /// Misses the probe instance took while serving the warm replay —
    /// the number of *recompiles* the restart cost. Zero when the warm
    /// start fully works; the `fleet` CI job gates on a bound.
    pub warm_restart_misses: u64,
    /// Whether every replayed artifact was byte-identical (under serde)
    /// to its pre-restart counterpart.
    pub byte_identical: bool,
}

/// Runs the simulated fleet soak: `instances` sharded services over one
/// persistence root, a cold pass over every distinct key, then — when
/// `restart` — a kill + reboot of the busiest instance before the warm
/// replay of the same mix.
///
/// # Panics
///
/// When a job in the mix fails to compile or route — the zoo mix is
/// known-good, so any failure is a harness bug worth a loud stop.
#[must_use]
pub fn collect_fleet(instances: usize, workers: usize, restart: bool, root: &Path) -> FleetReport {
    let mut fleet = Fleet::new(
        instances,
        root,
        ServeConfig {
            workers,
            cache_budget_bytes: 256 << 20,
            tracer: htvm::Tracer::disabled(),
            ..ServeConfig::default()
        },
    );
    let mix = || request_mix(distinct_keys());

    // Cold pass: every distinct key compiles exactly once, on the
    // instance the shard ring pins it to.
    let mut owners: Vec<usize> = Vec::new();
    let mut cold_artifacts: Vec<String> = Vec::new();
    for job in mix() {
        let (owner, result) = fleet.submit(job).expect("fleet soak jobs compile");
        owners.push(owner);
        cold_artifacts.push(serde_json::to_string(&result.artifact).expect("artifacts serialize"));
    }
    let cold_misses: u64 = (0..fleet.len())
        .map(|i| fleet.instance(i).stats().artifact_cache.misses)
        .sum();
    let persist_writes: u64 = (0..fleet.len())
        .map(|i| fleet.instance(i).stats().persist_writes)
        .sum();

    // The probe is the busiest instance: it has the most to lose from
    // a cold restart, so it is the strongest warm-start witness.
    let probe = (0..fleet.len())
        .max_by_key(|&i| owners.iter().filter(|&&o| o == i).count())
        .expect("fleet is non-empty");
    let restarted_instance_keys = owners.iter().filter(|&&o| o == probe).count() as u64;
    if restart {
        fleet.restart(probe);
    }
    let baseline = fleet.instance(probe).stats();
    let restart_load_ok = baseline.persist_load_ok;
    let restart_load_skipped = baseline.persist_load_skipped;

    // Warm replay: the same mix again. Keys owned by untouched
    // instances hit their memory caches; keys owned by the probe must
    // hit its re-admitted disk entries. Misses are measured against the
    // post-restart baseline, so they count exactly the recompiles the
    // replay cost.
    let mut byte_identical = true;
    for (index, job) in mix().into_iter().enumerate() {
        let (owner, result) = fleet.submit(job).expect("fleet replay jobs compile");
        assert_eq!(owner, owners[index], "key affinity must survive a restart");
        let bytes = serde_json::to_string(&result.artifact).expect("artifacts serialize");
        byte_identical &= bytes == cold_artifacts[index];
    }
    let warm_restart_misses =
        fleet.instance(probe).stats().artifact_cache.misses - baseline.artifact_cache.misses;

    FleetReport {
        instances: instances as u64,
        restarted: restart,
        restarted_instance: probe as u64,
        jobs: distinct_keys() as u64,
        restarted_instance_keys,
        cold_misses,
        persist_writes,
        restart_load_ok,
        restart_load_skipped,
        warm_restart_misses,
        byte_identical,
    }
}

/// The zoo-derived request mix: every zoo model under the combined and
/// digital-only deployments (with the Table I quantization recipe for
/// each), cycled until `jobs` requests — so past the first cycle every
/// request repeats an earlier key.
#[must_use]
pub fn request_mix(jobs: usize) -> Vec<JobRequest> {
    let deploys = [DeployConfig::Both, DeployConfig::Digital];
    let mut distinct = Vec::new();
    for deploy in deploys {
        for model in all_models(crate::scheme_for(deploy)) {
            distinct.push((model, deploy));
        }
    }
    (0..jobs)
        .map(|i| {
            let (model, deploy) = &distinct[i % distinct.len()];
            JobRequest::compile_only(
                &format!("{}/{:?}#{}", model.name, deploy, i / distinct.len()),
                model.graph.clone(),
                *deploy,
            )
        })
        .collect()
}

/// Number of distinct keys [`request_mix`] draws from.
#[must_use]
pub fn distinct_keys() -> usize {
    2 * all_models(htvm_models::QuantScheme::Mixed).len()
}

/// Nearest-rank percentile with the ceiling convention: the p-th
/// percentile of `n` samples is the value at 1-based rank
/// `ceil(p/100 * n)`. Unlike rounding, this never reports a value that
/// fewer than `p` percent of samples are ≤ — in particular, p99 of 50
/// samples is the maximum, not the second-largest.
fn percentile(sorted: &[u64], pct: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Folds per-job `(latency_us, queue_us)` samples into wall-clock run
/// stats.
fn run_stats(samples: &[(u64, u64)], wall_s: f64) -> ServeRunStats {
    let mut latencies: Vec<u64> = samples.iter().map(|&(latency, _)| latency).collect();
    let mut queues: Vec<u64> = samples.iter().map(|&(_, queue)| queue).collect();
    latencies.sort_unstable();
    queues.sort_unstable();
    ServeRunStats {
        wall_ms: wall_s * 1e3,
        throughput_jobs_per_s: samples.len() as f64 / wall_s.max(1e-9),
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
        queue_p99_us: percentile(&queues, 99.0),
    }
}

/// Submits one batch and folds its results into run stats.
fn run_batch(service: &CompileService, jobs: Vec<JobRequest>) -> ServeRunStats {
    let t0 = Instant::now();
    let results = service.submit_batch(jobs);
    let wall_s = t0.elapsed().as_secs_f64();
    let samples: Vec<(u64, u64)> = results
        .into_iter()
        .map(|result| {
            let result = result.expect("bench mixes compile");
            (result.queue_us + result.service_us, result.queue_us)
        })
        .collect();
    run_stats(&samples, wall_s)
}

/// The mix through a caching service, as one batch.
fn run_cached(config: ServeBenchConfig) -> (ServeRunStats, ServiceStats) {
    let service = CompileService::new(ServeConfig {
        workers: config.workers,
        cache_budget_bytes: 256 << 20,
        tracer: htvm::Tracer::disabled(),
        ..ServeConfig::default()
    });
    let stats = run_batch(&service, request_mix(config.jobs));
    (stats, service.stats())
}

/// The no-reuse baseline: every job of the mix compiled from scratch and
/// serialized (what a client is owed per job), by `config.workers`
/// threads draining one queue in request order.
fn run_uncached(config: ServeBenchConfig) -> ServeRunStats {
    let base = Compiler::new();
    let queue: Mutex<VecDeque<JobRequest>> = Mutex::new(request_mix(config.jobs).into());
    let t0 = Instant::now();
    let samples: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..config.workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    loop {
                        let next = queue.lock().expect("job queue poisoned").pop_front();
                        let Some(job) = next else { break samples };
                        let queue_us = t0.elapsed().as_micros() as u64;
                        let artifact = base
                            .clone()
                            .with_deploy(job.deploy)
                            .compile(&job.graph)
                            .expect("bench mixes compile");
                        std::hint::black_box(
                            serde_json::to_string(&artifact).expect("artifacts serialize"),
                        );
                        samples.push((t0.elapsed().as_micros() as u64, queue_us));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("bench worker panicked"))
            .collect()
    });
    run_stats(&samples, t0.elapsed().as_secs_f64())
}

/// Workers (and cold compiles) in the skewed scheduling comparison.
/// Fixed rather than taken from the soak config: the comparison is a
/// head-of-line-blocking demonstration, and it is only well-posed when
/// the cold head exactly saturates the pool.
const SKEWED_WORKERS: usize = 2;

/// The skewed mix: `SKEWED_WORKERS` cold compiles at the *front* of the
/// batch, followed by `hot_jobs` repeats of a key the service has
/// already cached. Under FIFO the cold head occupies every worker and
/// each near-free hit waits a full compile; cost-aware scheduling runs
/// the hits first.
fn run_skewed(policy: SchedPolicy, hot_jobs: usize) -> ServeRunStats {
    let models = all_models(crate::scheme_for(DeployConfig::Both));
    assert!(
        models.len() > SKEWED_WORKERS,
        "zoo too small for a skewed mix"
    );
    let service = CompileService::new(ServeConfig {
        workers: SKEWED_WORKERS,
        cache_budget_bytes: 256 << 20,
        tracer: htvm::Tracer::disabled(),
        policy,
        ..ServeConfig::default()
    });
    let hot = &models[0];
    // Warm the hot key so its batch repeats are genuine cache hits.
    service
        .submit(JobRequest::compile_only(
            &format!("warm/{}", hot.name),
            hot.graph.clone(),
            DeployConfig::Both,
        ))
        .expect("hot model compiles");

    let mut jobs: Vec<JobRequest> = models[1..=SKEWED_WORKERS]
        .iter()
        .map(|m| {
            JobRequest::compile_only(
                &format!("cold/{}", m.name),
                m.graph.clone(),
                DeployConfig::Both,
            )
        })
        .collect();
    jobs.extend((0..hot_jobs).map(|i| {
        JobRequest::compile_only(
            &format!("hot/{}#{i}", hot.name),
            hot.graph.clone(),
            DeployConfig::Both,
        )
    }));

    run_batch(&service, jobs)
}

/// Runs the scheduling comparison: the identical skewed batch under
/// FIFO and under cost-aware ordering, each on a fresh service.
#[must_use]
pub fn collect_skewed(hot_jobs: usize) -> SkewedReport {
    let fifo = run_skewed(SchedPolicy::Fifo, hot_jobs);
    let cost_aware = run_skewed(SchedPolicy::CostAware, hot_jobs);
    SkewedReport {
        jobs: (hot_jobs + SKEWED_WORKERS) as u64,
        cold_jobs: SKEWED_WORKERS as u64,
        fifo,
        cost_aware,
        queue_p99_ratio: fifo.queue_p99_us as f64 / cost_aware.queue_p99_us.max(1) as f64,
    }
}

/// Drives the cached repeat-heavy mix through an in-process HTTP front
/// door with `clients` keep-alive connections, measuring latency at the
/// client (so framing, parsing and serialization are on the clock).
pub fn run_front_door(
    config: ServeBenchConfig,
    clients: usize,
) -> Result<(ServeRunStats, ServiceStats), String> {
    let service = Arc::new(CompileService::new(ServeConfig {
        workers: config.workers,
        cache_budget_bytes: 256 << 20,
        tracer: htvm::Tracer::disabled(),
        ..ServeConfig::default()
    }));
    let server = HttpServer::spawn(Arc::clone(&service), "127.0.0.1:0", HttpConfig::default())
        .map_err(|e| format!("front door failed to bind: {e}"))?;
    let addr = server.addr();

    // The mix cycles over its distinct models: emit and hex-encode each
    // one once, here, outside the timed loop.
    let mix = request_mix(config.jobs);
    let models: Vec<String> = mix
        .iter()
        .take(distinct_keys())
        .map(|job| htvm_frontend::emit(&job.graph).map(|bytes| encode_hex(&bytes)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("mix model failed to emit: {e}"))?;
    // Shard the mix round-robin across the client connections, so every
    // client sees a repeat-heavy stream.
    let bodies: Vec<String> = mix
        .into_iter()
        .zip(models.iter().cycle())
        .map(|(job, model_hex)| {
            let wire = WireJob {
                name: job.name,
                tenant: None,
                model_hex: model_hex.clone(),
                deploy: job.deploy,
                include_artifact: false,
            };
            serde_json::to_string(&wire).expect("wire jobs serialize")
        })
        .collect();
    let clients = clients.clamp(1, bodies.len().max(1));

    let t0 = Instant::now();
    let samples: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let bodies = &bodies;
                scope.spawn(move || {
                    let mut stream = std::net::TcpStream::connect(addr)
                        .expect("front door accepts bench clients");
                    bodies
                        .iter()
                        .skip(c)
                        .step_by(clients)
                        .map(|body| {
                            let t = Instant::now();
                            let response = http_post(&mut stream, "/v1/compile", body);
                            let latency_us = t.elapsed().as_micros() as u64;
                            let result: WireResult = serde_json::from_str(&response)
                                .expect("front door answers with WireResult");
                            (latency_us, result.queue_us)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("bench client panicked"))
            .collect()
    });
    let stats = run_stats(&samples, t0.elapsed().as_secs_f64());
    let service_stats = service.stats();
    server.shutdown();
    Ok((stats, service_stats))
}

/// One blocking HTTP/1.1 POST over an existing keep-alive stream,
/// returning the response body (and asserting a 200).
fn http_post(stream: &mut std::net::TcpStream, path: &str, body: &str) -> String {
    use std::io::{BufRead, BufReader, Read, Write};
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("POST writes");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status reads");
    assert!(
        status_line.contains("200"),
        "front door answered {status_line:?}"
    );
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header reads");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("Content-Length parses");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body reads");
    String::from_utf8(body).expect("JSON bodies are UTF-8")
}

/// Runs the soak: the same repeat-heavy mix through a cached service and
/// through the no-reuse baseline, on the same worker count, plus the
/// skewed FIFO-vs-cost-aware scheduling comparison.
#[must_use]
pub fn collect(config: ServeBenchConfig) -> ServeReport {
    let uncached = run_uncached(config);
    let (cached, stats) = run_cached(config);
    ServeReport {
        schema_version: SERVE_SCHEMA_VERSION,
        jobs: config.jobs as u64,
        workers: config.workers as u64,
        distinct_keys: distinct_keys() as u64,
        speedup: cached.throughput_jobs_per_s / uncached.throughput_jobs_per_s.max(1e-9),
        cached,
        uncached,
        stats,
        skewed: Some(collect_skewed(config.skewed_hot_jobs)),
        front_door: None,
        fleet: None,
    }
}

/// Compares two soak reports. Purely informational — service throughput
/// is host wall time, so `bench-diff --serve` prints these warn-only and
/// they never affect the exit code.
#[must_use]
pub fn diff_serve(
    base: &ServeReport,
    new: &ServeReport,
    tol_pct: f64,
) -> (Vec<String>, Vec<String>) {
    let mut warnings = Vec::new();
    let mut improvements = Vec::new();
    if base.schema_version != new.schema_version {
        warnings.push(format!(
            "serve bench schema changed: v{} -> v{}",
            base.schema_version, new.schema_version
        ));
        return (warnings, improvements);
    }
    let mut metrics = vec![
        (
            "serve: cached throughput",
            base.cached.throughput_jobs_per_s,
            new.cached.throughput_jobs_per_s,
            // Higher is better.
            true,
        ),
        ("serve: cache speedup", base.speedup, new.speedup, true),
        (
            "serve: cached p99 latency",
            base.cached.p99_us as f64,
            new.cached.p99_us as f64,
            false,
        ),
    ];
    if let (Some(b), Some(n)) = (&base.skewed, &new.skewed) {
        metrics.push((
            "serve: skewed cost-aware queue p99",
            b.cost_aware.queue_p99_us as f64,
            n.cost_aware.queue_p99_us as f64,
            false,
        ));
        metrics.push((
            "serve: skewed queue p99 ratio (fifo/cost)",
            b.queue_p99_ratio,
            n.queue_p99_ratio,
            true,
        ));
    }
    for (label, b, n, higher_is_better) in metrics {
        if b <= 0.0 {
            continue;
        }
        let delta_pct = (n - b) / b * 100.0;
        let regressed = if higher_is_better {
            delta_pct < -tol_pct
        } else {
            delta_pct > tol_pct
        };
        let improved = if higher_is_better {
            delta_pct > tol_pct
        } else {
            delta_pct < -tol_pct
        };
        if regressed {
            warnings.push(format!(
                "{label} regressed {delta_pct:+.1}% ({b:.1} -> {n:.1})"
            ));
        } else if improved {
            improvements.push(format!(
                "{label} improved {delta_pct:+.1}% ({b:.1} -> {n:.1})"
            ));
        }
    }
    (warnings, improvements)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_repeat_heavy_and_labeled() {
        let jobs = request_mix(2 * distinct_keys() + 3);
        assert_eq!(jobs.len(), 2 * distinct_keys() + 3);
        // The first cycle is all-distinct, later cycles repeat it.
        assert!(jobs[0].name.ends_with("#0"));
        assert!(jobs[distinct_keys()].name.ends_with("#1"));
    }

    #[test]
    fn percentile_uses_ceil_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        // One sample is every percentile.
        assert_eq!(percentile(&[7], 1.0), 7);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[7], 99.0), 7);
        // Two samples: p50 is the first (ceil(1.0) = 1), anything above
        // is the second.
        assert_eq!(percentile(&[1, 2], 50.0), 1);
        assert_eq!(percentile(&[1, 2], 51.0), 2);
        assert_eq!(percentile(&[1, 2], 99.0), 2);
        // p99 of 50 samples is the maximum (ceil(49.5) = 50) — the
        // rounding convention would have under-reported rank 50 as 49.
        let fifty: Vec<u64> = (1..=50).collect();
        assert_eq!(percentile(&fifty, 99.0), 50);
        // p99 of 100 samples is exactly rank 99.
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 99.0), 99);
        assert_eq!(percentile(&hundred, 100.0), 100);
    }

    #[test]
    fn min_speedup_floor_rejects_nan_and_negative() {
        assert_eq!(validate_min_speedup(0.0), Ok(0.0));
        assert_eq!(validate_min_speedup(5.5), Ok(5.5));
        assert!(validate_min_speedup(f64::NAN).is_err());
        assert!(validate_min_speedup(f64::INFINITY).is_err());
        assert!(validate_min_speedup(-1.0).is_err());
    }

    #[test]
    fn soak_small_mix_reports_exact_counters_and_speedup() {
        let report = collect(ServeBenchConfig {
            jobs: distinct_keys() * 3,
            workers: 2,
            skewed_hot_jobs: 8,
        });
        assert_eq!(report.schema_version, SERVE_SCHEMA_VERSION);
        // The whole mix is one batch, so every repeat of a key coalesces
        // onto its leader instead of probing the cache.
        assert_eq!(report.stats.artifact_cache.misses, report.distinct_keys);
        assert_eq!(report.stats.coalesced, report.jobs - report.distinct_keys);
        assert_eq!(
            report.stats.artifact_cache.hits
                + report.stats.artifact_cache.misses
                + report.stats.coalesced,
            report.jobs
        );
        assert!(report.cached.throughput_jobs_per_s > 0.0);
        assert!(report.speedup > 1.0, "cache must help: {:#?}", report);
        let skewed = report.skewed.expect("v2 reports carry the comparison");
        assert_eq!(skewed.jobs, 8 + skewed.cold_jobs);
        let json = serde_json::to_string(&report).unwrap();
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.jobs, report.jobs);
        assert!(back.skewed.is_some());
    }

    #[test]
    fn cost_aware_beats_fifo_on_skewed_queue_p99() {
        let skewed = collect_skewed(12);
        assert!(
            skewed.cost_aware.queue_p99_us < skewed.fifo.queue_p99_us,
            "cost-aware must cut p99 queue wait on the skewed mix: {skewed:#?}"
        );
        assert!(skewed.queue_p99_ratio > 1.0);
    }

    #[test]
    fn front_door_soak_round_trips_the_mix() {
        let jobs = distinct_keys() * 2;
        let (stats, service_stats) = run_front_door(
            ServeBenchConfig {
                jobs,
                workers: 2,
                skewed_hot_jobs: 0,
            },
            3,
        )
        .expect("front door binds an ephemeral port");
        assert!(stats.throughput_jobs_per_s > 0.0);
        assert_eq!(service_stats.jobs, jobs as u64);
        assert_eq!(
            service_stats.artifact_cache.misses as usize,
            distinct_keys(),
            "racing HTTP clients still compile each key exactly once"
        );
        assert_eq!(
            service_stats.artifact_cache.hits
                + service_stats.artifact_cache.misses
                + service_stats.coalesced,
            jobs as u64
        );
    }

    #[test]
    fn diff_serve_warns_on_regression_and_praises_improvement() {
        let report = ServeReport {
            schema_version: SERVE_SCHEMA_VERSION,
            jobs: 10,
            workers: 2,
            distinct_keys: 5,
            cached: ServeRunStats {
                wall_ms: 100.0,
                throughput_jobs_per_s: 100.0,
                p50_us: 50,
                p99_us: 500,
                queue_p99_us: 10,
            },
            uncached: ServeRunStats {
                wall_ms: 1000.0,
                throughput_jobs_per_s: 10.0,
                p50_us: 500,
                p99_us: 5000,
                queue_p99_us: 10,
            },
            speedup: 10.0,
            stats: Default::default(),
            skewed: Some(SkewedReport {
                jobs: 32,
                cold_jobs: 2,
                fifo: ServeRunStats {
                    wall_ms: 100.0,
                    throughput_jobs_per_s: 100.0,
                    p50_us: 50,
                    p99_us: 50_000,
                    queue_p99_us: 40_000,
                },
                cost_aware: ServeRunStats {
                    wall_ms: 100.0,
                    throughput_jobs_per_s: 100.0,
                    p50_us: 50,
                    p99_us: 500,
                    queue_p99_us: 100,
                },
                queue_p99_ratio: 400.0,
            }),
            front_door: None,
            fleet: None,
        };
        let mut slower = report.clone();
        slower.cached.throughput_jobs_per_s = 10.0;
        slower.speedup = 1.0;
        slower.cached.p99_us = 5000;
        let skewed = slower.skewed.as_mut().unwrap();
        skewed.cost_aware.queue_p99_us = 40_000;
        skewed.queue_p99_ratio = 1.0;
        let (warn, good) = diff_serve(&report, &slower, 20.0);
        assert_eq!(warn.len(), 5, "{warn:?}");
        assert!(good.is_empty());
        let (warn, good) = diff_serve(&slower, &report, 20.0);
        assert!(warn.is_empty());
        assert_eq!(good.len(), 5, "{good:?}");
        // Identical reports are silent.
        let (warn, good) = diff_serve(&report, &report, 20.0);
        assert!(warn.is_empty() && good.is_empty());
        // A v1 baseline without the skewed section only diffs the
        // shared metrics.
        let mut v1 = report.clone();
        v1.skewed = None;
        let (warn, good) = diff_serve(&v1, &slower, 20.0);
        assert_eq!(warn.len(), 3, "{warn:?}");
        assert!(good.is_empty());
    }
}
