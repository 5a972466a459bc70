//! `serve_cold`: the write side of the compile service. Every round
//! builds a fresh `CompileService` over an empty persistence directory
//! (construction and teardown off the clock) and two client threads
//! submit the ten keys of the soak mix in seeded order, so every job is
//! a miss that pays compile + cache admission + persist write.

use super::{clock, closed_loop, Layer, Round, Tally, Workload};
use crate::matrix::{build_cells, input_for, quality, serialized_hash};
use crate::matrix::{Cell, Quality, SERVE_DEPLOYS};
use crate::scratch;
use crate::spans::{stage_dur_by_round, Recorder};
use crate::stats::{median, Rng};
use htvm::{Artifact, Compiler};
use htvm_serve::{ArtifactCache, CompileService, JobError, JobRequest, JobResult};
use htvm_serve::{PersistStore, ServeConfig, ServiceStats};
use htvm_soc::DEFAULT_PLATFORM;
use std::path::Path;

/// Every this-many rounds the served artifacts are also compared with
/// the direct compile as serialized bytes (off the clock).
const BYTES_CHECK_EVERY: usize = 32;

pub struct ServeCold {
    cells: Vec<Cell>,
    /// A direct `Compiler::compile` of each key, outside any service.
    reference: Vec<Artifact>,
    reference_hash: Vec<u64>,
    quality: Quality,
    build_us: f64,
    rounds_done: usize,
    last_stats: ServiceStats,
    persist_bytes: u64,
}

/// One served job as its client thread saw it.
struct Served {
    key: usize,
    latency_ns: u64,
    outcome: Result<JobResult, JobError>,
}

/// What the traced run re-measures standalone right after each submit,
/// on the same thread, to split the submit's time into stages.
struct StageProbes<'a> {
    compiler: &'a Compiler,
    cache: &'a ArtifactCache,
    store: &'a PersistStore,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl ServeCold {
    fn job(&self, key: usize) -> JobRequest {
        let cell = &self.cells[key];
        JobRequest::compile_only(&cell.name(), cell.model.graph.clone(), cell.deploy)
    }

    /// Submits one job and clocks it as its client sees it; with a
    /// recorder, wraps it in spans and splits its time by re-running
    /// each stage standalone right after the answer.
    fn submit(
        service: &CompileService,
        job: JobRequest,
        request: u64,
        trace: Option<(&mut Recorder, &StageProbes<'_>)>,
    ) -> (Result<JobResult, JobError>, u64) {
        let Some((rec, probes)) = trace else {
            return clock(|| service.submit(job));
        };
        let twin = job.clone();
        let outer = rec.open("round.job", request);
        let submit = rec.open("serve.submit", request);
        let outcome = service.submit(job);
        rec.close(submit);
        rec.close(outer);
        if let Ok(result) = &outcome {
            let (key, key_ns) = clock(|| service.key_of(&twin));
            let (compiled, compile_ns) = clock(|| {
                probes
                    .compiler
                    .clone()
                    .with_deploy(twin.deploy)
                    .compile(&twin.graph)
            });
            if let (Ok(key), Ok(artifact)) = (key, compiled) {
                let (_, insert_ns) = clock(|| probes.cache.insert(key.clone(), &artifact));
                let (_, persist_ns) = clock(|| probes.store.write(&key, &artifact));
                let parts = rec.derive_children(
                    submit,
                    &[
                        ("ir.canonical", key_ns),
                        ("serve.queue", result.queue_us * 1000),
                        ("serve.service", result.service_us * 1000),
                    ],
                );
                rec.derive_children(
                    parts[2],
                    &[
                        ("core.compile", compile_ns),
                        ("serve.cache_insert", insert_ns),
                        ("serve.persist_write", persist_ns),
                    ],
                );
            }
        }
        (outcome, rec.spans[submit].dur_ns())
    }

    fn check_round(&self, served: &[Served], stats: &ServiceStats, tally: &mut Tally) {
        let check_bytes = self.rounds_done.is_multiple_of(BYTES_CHECK_EVERY);
        for job in served {
            let name = || self.cells[job.key].name();
            match &job.outcome {
                Err(e) => tally.check(false, || format!("{}: submit failed: {e}", name())),
                Ok(result) => {
                    tally.check(!result.cache_hit && !result.coalesced, || {
                        format!("{}: a cold job was served from a cache", name())
                    });
                    tally.check(result.artifact == self.reference[job.key], || {
                        format!("{}: served artifact differs from a direct compile", name())
                    });
                    if check_bytes {
                        tally.check(
                            serialized_hash(&result.artifact) == self.reference_hash[job.key],
                            || format!("{}: served artifact bytes differ", name()),
                        );
                    }
                }
            }
        }
        let jobs = served.len() as u64;
        let cache = &stats.artifact_cache;
        for (what, got, want) in [
            ("jobs", stats.jobs, jobs),
            ("misses", cache.misses, jobs),
            ("hits", cache.hits, 0),
            ("coalesced", stats.coalesced, 0),
            ("shed", stats.shed, 0),
            ("persist_writes", stats.persist_writes, jobs),
        ] {
            tally.check(got == want, || {
                format!("serve_cold: service counter {what} reads {got}, expected {want}")
            });
        }
    }
}

impl Workload for ServeCold {
    const NAME: &'static str = "serve_cold";
    const WARMUP_ROUNDS: usize = 1;
    const THREADS: usize = 2;

    fn setup(seed: u64, _traced: bool, tally: &mut Tally) -> Self {
        let (cells, build_us) = build_cells(&SERVE_DEPLOYS);
        let mut reference = Vec::with_capacity(cells.len());
        for cell in &cells {
            match cell.compile() {
                Ok(artifact) => reference.push(artifact),
                Err(e) => {
                    tally.check(false, || format!("{}: compile failed: {e}", cell.name()));
                }
            }
        }
        assert_eq!(
            reference.len(),
            cells.len(),
            "every key of the soak mix compiles: {:?}",
            tally.notes
        );
        let reference_hash = reference.iter().map(serialized_hash).collect();
        let inputs: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| input_for(c, seed, i))
            .collect();
        let items: Vec<_> = reference.iter().zip(&inputs).collect();
        let (quality, _) = quality(&items);
        ServeCold {
            cells,
            reference,
            reference_hash,
            quality,
            build_us,
            rounds_done: 0,
            last_stats: ServiceStats::default(),
            persist_bytes: 0,
        }
    }

    fn classes(&self) -> Vec<String> {
        self.cells.iter().map(Cell::name).collect()
    }

    fn round(&mut self, rng: &mut Rng, tally: &mut Tally, trace: Option<&mut [Recorder]>) -> Round {
        let n = self.cells.len();
        let dir = scratch::fresh_dir(Self::NAME);
        let service = CompileService::new(ServeConfig {
            persist_root: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let order = rng.permutation(n);
        let traced = trace.is_some();
        let probe_compiler = Compiler::new();
        let probe_cache = ArtifactCache::new(64 << 20);
        let probe_store = PersistStore::open(&dir.join("probe"), DEFAULT_PLATFORM)
            .expect("the probe store opens under the scratch directory");
        let probes = StageProbes {
            compiler: &probe_compiler,
            cache: &probe_cache,
            store: &probe_store,
        };
        let recorders: Vec<Option<&mut Recorder>> = match trace {
            Some(recorders) => recorders.iter_mut().map(Some).collect(),
            None => (0..Self::THREADS).map(|_| None).collect(),
        };
        let base = (self.rounds_done * n) as u64;
        let this = &*self;
        let per_thread = closed_loop(recorders, n, |rec, slot| {
            let key = order[slot];
            let trace = rec.as_deref_mut().map(|rec| (rec, &probes));
            let (outcome, latency_ns) =
                ServeCold::submit(&service, this.job(key), base + key as u64, trace);
            Served {
                key,
                latency_ns,
                outcome,
            }
        });

        // A round lasts as long as its busier client was on the clock.
        let wall_ns = per_thread
            .iter()
            .map(|thread| thread.iter().map(|s| s.latency_ns).sum())
            .max()
            .unwrap_or(0);
        let served: Vec<Served> = per_thread.into_iter().flatten().collect();
        let round = Round {
            wall_ns,
            jobs: served.iter().map(|s| (s.key, s.latency_ns)).collect(),
        };
        let stats = service.stats();
        self.check_round(&served, &stats, tally);
        if traced {
            self.persist_bytes = dir_bytes(&dir.join("v1").join(DEFAULT_PLATFORM));
        }
        self.last_stats = stats;
        self.rounds_done += 1;
        drop(served);
        drop(service);
        scratch::remove(&dir);
        round
    }

    fn quality(&self) -> &Quality {
        &self.quality
    }

    fn layer_metrics(
        &mut self,
        recorders: &mut [Recorder],
        rounds: usize,
        _reps: usize,
        layer: &mut Layer,
    ) {
        layer.set("models.build_us", self.build_us);
        let durs = stage_dur_by_round(recorders, rounds);
        let dur_us = |name: &str| durs.get(name).map_or(0.0, |v| median(v) / 1e3);
        // Containers read as totals (children included); their self
        // time is the numerator of `serve.unattributed_share`.
        let submit_us = dur_us("serve.submit");
        layer.set("serve.submit_miss_us", submit_us);
        layer.set("serve.service_us", dur_us("serve.service"));
        let selfs = crate::spans::stage_self_by_round(recorders, rounds);
        let self_us = |name: &str| selfs.get(name).map_or(0.0, |v| median(v) / 1e3);
        layer.set(
            "serve.unattributed_share",
            (self_us("serve.submit") + self_us("serve.service")) / submit_us,
        );
        let stats = &self.last_stats;
        let cache = &stats.artifact_cache;
        layer.set("serve.hits", cache.hits as f64);
        layer.set("serve.misses", cache.misses as f64);
        layer.set("serve.coalesced", stats.coalesced as f64);
        layer.set("serve.shed", stats.shed as f64);
        layer.set("serve.persist_writes", stats.persist_writes as f64);
        layer.set(
            "serve.hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        layer.set("serve.persist_bytes", self.persist_bytes as f64);
        layer.set("codegen.artifact_bytes", cache.bytes as f64);
        layer.set("dory.solves", stats.tile_cache.solves as f64);
        layer.set("dory.tile_cache_hits", stats.tile_cache.hits as f64);
    }
}
