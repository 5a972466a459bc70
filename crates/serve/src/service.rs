//! The multi-tenant compile service.
//!
//! One [`CompileService`] compiles for one SoC: it owns one base
//! [`Compiler`] (and with it one shared `TileCache`), one
//! [`ArtifactCache`] and one single-flight table. Every key carries the
//! id [`DEFAULT_PLATFORM`] and the compiler's SoC model; another SoC is
//! served by another service, built with
//! [`CompileService::with_compiler`] over
//! `Compiler::new().with_platform(cfg)`.
//!
//! Jobs pass through **admission control** before any work is
//! scheduled: each job's cost is estimated from its graph size and the
//! cache state (a resident key makes the job near-free), per-tenant
//! quotas cap how much any one tenant can have in flight, and when the
//! queued cost would exceed the service's budget the job is **shed**
//! with a typed [`JobError::Rejected`] instead of letting latency grow
//! without bound.
//!
//! Admitted batches are scheduled **cost-aware** by default
//! ([`SchedPolicy::CostAware`]): cheap jobs (cache hits) run before
//! expensive cold compiles, so one heavy miss cannot head-of-line-block
//! a batch of hits. Identical [`ArtifactKey`]s within a batch are
//! **coalesced** before they reach the pool — one leader does the work,
//! its followers are serviced from the leader's artifact the moment it
//! lands.
//!
//! With [`ServeConfig::persist_root`] set, every freshly compiled
//! artifact is also spilled to disk ([`PersistStore`]) and the whole
//! store is re-admitted at construction — a restarted service starts
//! *warm*: previously served keys hit without recompiling, and the
//! artifacts are byte-identical to the pre-restart ones.
//!
//! Repeat requests are served from the cache; the returned artifact is
//! byte-identical (under serde) to a cold compile of the same request,
//! because compilation is deterministic and the cache key
//! ([`ArtifactKey`]) covers everything the output depends on.
//!
//! An artifact is serialized once, when its leader wraps the fresh
//! compile in a [`StoredArtifact`]; the cache entry, hits, coalesced
//! followers, the disk envelope and the HTTP body share that allocation.
//! A zero [`ServeConfig::cache_budget_bytes`] is not a mode: the cache
//! admits nothing, and coalescing behaves as everywhere else.
//!
//! A repeat upload is recognised by its bytes.
//! [`CompileService::submit_model`] looks the `(deploy, HTF bytes)` pair
//! up in the cache's upload memo before it imports anything; a hit hands
//! admission the remembered key, and the job then goes the way every job
//! goes (admission, the single-flight probe, the cache counters, the
//! spans). Such a job carries the upload bytes instead of a graph, and
//! the one compile site imports them only if the key's artifact was
//! evicted before the probe. A memo miss imports and keys as before,
//! then remembers the upload once its key is resident.

use crate::cache::{ArtifactCache, ArtifactCacheStats};
use crate::key::{ArtifactKey, KeyContext};
use crate::lock;
use crate::persist::PersistStore;
use crate::stored::StoredArtifact;
use htvm::{
    tracks, CompileError, Compiler, DeployConfig, Span, TileCacheStats, TimeDomain, Trace, Tracer,
};
use htvm_frontend::ImportError;
use htvm_ir::canonical::murmur3_128;
use htvm_ir::Graph;
use htvm_soc::DEFAULT_PLATFORM;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// How admitted jobs are ordered onto the worker pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Strict request order — the PR-5 behavior. A cold compile at the
    /// head of a batch blocks every cache hit behind it.
    Fifo,
    /// Cheapest-estimated-cost first (ties broken by request order, so
    /// scheduling stays deterministic). Cache hits and coalesced
    /// followers are near-free and jump ahead of cold compiles.
    #[default]
    CostAware,
}

/// Construction parameters for a [`CompileService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum worker threads a [`CompileService::submit_batch`] call
    /// fans out to (at least 1; batches smaller than this use fewer).
    pub workers: usize,
    /// Byte budget of the artifact cache (serialized size). Zero admits
    /// nothing, so every non-coalesced job compiles; single-flight and
    /// in-batch coalescing are unaffected.
    pub cache_budget_bytes: usize,
    /// Span collector for per-job service spans and compiler phase
    /// spans. Disabled by default; drain with
    /// [`CompileService::take_trace`].
    pub tracer: Tracer,
    /// Scheduling order for admitted jobs.
    pub policy: SchedPolicy,
    /// Admission budget in [`estimate_cost`] units: when the summed
    /// estimated cost of admitted-but-unfinished jobs would exceed this,
    /// new jobs are shed with [`RejectReason::QueueBudget`]. An idle
    /// service (nothing queued) always admits one job, so a single
    /// over-budget request can still make progress. `u64::MAX`
    /// (the default) never sheds.
    pub queue_cost_budget: u64,
    /// Maximum jobs one tenant may have admitted-but-unfinished at a
    /// time; exceeding it sheds with [`RejectReason::TenantQuota`].
    /// `usize::MAX` (the default) is unmetered.
    pub tenant_quota: usize,
    /// Root directory of the persistent artifact cache; `None` (the
    /// default) keeps the cache memory-only. When set, freshly compiled
    /// artifacts are spilled under `<root>/v1/diana/` and the
    /// whole store is re-admitted at construction (warm start).
    pub persist_root: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            cache_budget_bytes: 64 << 20,
            tracer: Tracer::disabled(),
            policy: SchedPolicy::CostAware,
            queue_cost_budget: u64::MAX,
            tenant_quota: usize::MAX,
            persist_root: None,
        }
    }
}

/// Estimated cost of serving one job, in abstract scheduler units.
///
/// A resident cache key makes the job a shared handle — near-free,
/// cost [`HIT_COST`]. A cold compile scales with the graph: tiling
/// solves are per-layer and MAC volume tracks how much constant data
/// the emit phase must move, so `nodes + MACs/10k` is a serviceable
/// monotone proxy. The absolute scale only matters relative to
/// [`ServeConfig::queue_cost_budget`].
#[must_use]
pub fn estimate_cost(graph: &Graph, cached: bool) -> u64 {
    if cached {
        HIT_COST
    } else {
        10 + graph.len() as u64 + graph.total_macs() / 10_000
    }
}

/// [`estimate_cost`] of a job whose key is resident in the cache.
pub const HIT_COST: u64 = 1;

/// The tenant a job that names none is accounted to.
const ANON: &str = "anon";

/// One unit of work: compile a graph for a deploy target.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Client-chosen label, echoed in results, errors and trace spans.
    pub name: String,
    /// Tenant the job is accounted to, for per-tenant admission quotas.
    pub tenant: String,
    /// The quantized graph to compile.
    pub graph: Graph,
    /// Deploy target (which accelerators to dispatch to).
    pub deploy: DeployConfig,
}

impl JobRequest {
    /// A compile-only job under the anonymous tenant.
    #[must_use]
    pub fn compile_only(name: &str, graph: Graph, deploy: DeployConfig) -> Self {
        JobRequest {
            name: name.to_owned(),
            tenant: ANON.to_owned(),
            graph,
            deploy,
        }
    }

    /// The same job accounted to a named tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: &str) -> Self {
        self.tenant = tenant.to_owned();
        self
    }
}

/// Why admission control refused a job. Serializable so the HTTP front
/// door can return it verbatim as a `429` body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// The queued estimated cost would exceed the service budget.
    QueueBudget {
        /// This job's estimated cost.
        estimated_cost: u64,
        /// Cost already admitted and not yet finished.
        queued_cost: u64,
        /// The configured [`ServeConfig::queue_cost_budget`].
        budget: u64,
    },
    /// The tenant is at its in-flight quota.
    TenantQuota {
        /// The tenant that hit its quota.
        tenant: String,
        /// Jobs the tenant currently has admitted-but-unfinished.
        inflight: u64,
        /// The configured [`ServeConfig::tenant_quota`].
        quota: u64,
    },
}

/// A typed load-shed: the `429 Too Many Requests` of the service layer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rejection {
    /// Which admission rule refused the job.
    pub reason: RejectReason,
    /// Client backoff hint in milliseconds.
    pub retry_after_ms: u64,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.reason {
            RejectReason::QueueBudget {
                estimated_cost,
                queued_cost,
                budget,
            } => write!(
                f,
                "queue budget exhausted (job cost {estimated_cost}, queued {queued_cost}, budget {budget})"
            ),
            RejectReason::TenantQuota {
                tenant,
                inflight,
                quota,
            } => write!(
                f,
                "tenant '{tenant}' at quota ({inflight} in flight, quota {quota})"
            ),
        }
    }
}

/// Why a job failed. Every variant carries the job's label so batch
/// clients can attribute it.
#[derive(Debug)]
pub enum JobError {
    /// The graph failed to compile.
    Compile {
        /// The failing job's label.
        job: String,
        /// The underlying compiler error.
        error: CompileError,
    },
    /// Admission control shed the job before any work was done.
    Rejected {
        /// The shed job's label.
        job: String,
        /// The typed rejection (reason + backoff hint).
        rejection: Rejection,
    },
    /// The job's model bytes failed to import (malformed, truncated, or
    /// unsupported file). The error's `Display` leads with the
    /// [`ImportError::variant_name`], so wire-level details stay
    /// machine-matchable.
    Import {
        /// The failing job's label.
        job: String,
        /// The typed importer rejection.
        error: ImportError,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Compile { job, error } => write!(f, "job '{job}' failed to compile: {error}"),
            JobError::Rejected { job, rejection } => {
                write!(f, "job '{job}' shed by admission control: {rejection}")
            }
            JobError::Import { job, error } => write!(f, "job '{job}' failed to import: {error}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Compile { error, .. } => Some(error),
            JobError::Rejected { .. } => None,
            JobError::Import { error, .. } => Some(error),
        }
    }
}

/// A completed job.
#[derive(Debug)]
pub struct JobResult {
    /// The job's label, echoed from the request.
    pub job: String,
    /// Display digest of the job's [`ArtifactKey`].
    pub key_id: String,
    /// Whether the artifact came from the cache.
    pub cache_hit: bool,
    /// Whether the job was coalesced onto another job's compile (it
    /// never touched the cache counters itself).
    pub coalesced: bool,
    /// The compiled deployment and its serialized bytes, shared with
    /// the cache entry and every other job served from the same compile.
    pub artifact: StoredArtifact,
    /// Wall microseconds the job waited in the batch queue before a
    /// worker picked it up.
    pub queue_us: u64,
    /// Wall microseconds of service time (compile or cache hit).
    pub service_us: u64,
    /// Order in which the service started this job, across the service's
    /// lifetime (0-based). With one worker this is exactly the schedule,
    /// which the policy tests assert on.
    pub sched_seq: u64,
}

/// A snapshot of the service's counters, serializable for bench
/// reports. The exact-accounting invariant is
/// `artifact_cache.hits + artifact_cache.misses + coalesced == jobs`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Jobs processed to completion (success or failure). Shed jobs are
    /// counted in `shed`, not here.
    pub jobs: u64,
    /// Jobs serviced from another job's in-flight compile without
    /// touching the cache counters (batch coalescing + single-flight
    /// followers).
    pub coalesced: u64,
    /// Jobs shed by admission control (total).
    pub shed: u64,
    /// Shed because the queue cost budget was exhausted.
    pub shed_budget: u64,
    /// Shed because the tenant was at its in-flight quota.
    pub shed_quota: u64,
    /// Model files rejected by the importer (`/v1/import` payloads that
    /// never became jobs; not counted in `jobs` or `shed`).
    #[serde(default)]
    pub rejected_import: u64,
    /// Artifacts durably spilled to disk.
    #[serde(default)]
    pub persist_writes: u64,
    /// Persisted entries re-admitted at startup.
    #[serde(default)]
    pub persist_load_ok: u64,
    /// Persisted entries skipped at startup (corrupt, stamp mismatch,
    /// or refused admission).
    #[serde(default)]
    pub persist_load_skipped: u64,
    /// Artifact-cache counters (hits, misses, evictions, occupancy).
    pub artifact_cache: ArtifactCacheStats,
    /// Tiling-solve memo counters (all tenants share one tile cache).
    pub tile_cache: TileCacheStats,
}

/// A single-flight rendezvous: the first thread to miss a key becomes
/// the *leader* and compiles; concurrent requesters for the same key
/// wait here instead of duplicating the compile (thundering-herd
/// protection), then take the leader's artifact directly — a
/// *coalesced* serve that never touches the cache counters. A `None`
/// outcome means the leader failed (or unwound); followers re-enter and
/// compile for themselves.
#[derive(Default)]
struct Flight {
    slot: Mutex<Option<Option<StoredArtifact>>>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) -> Option<StoredArtifact> {
        self.cv
            .wait_while(lock(&self.slot), |slot| slot.is_none())
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
            .expect("wait_while guarantees a landed flight")
    }
}

/// A leader's obligation to its followers, discharged on drop — on
/// every exit from the leader's compile, including a compile error and
/// an unwind out of a panicking dispatch hook: the key leaves the
/// in-flight table (so later requests probe the cache or lead afresh)
/// and then the flight lands with whatever `outcome` holds.
struct Lead<'a> {
    inflight: &'a Mutex<HashMap<ArtifactKey, Arc<Flight>>>,
    key: &'a ArtifactKey,
    flight: Arc<Flight>,
    outcome: Option<StoredArtifact>,
}

impl Drop for Lead<'_> {
    fn drop(&mut self) {
        // Runs during unwinds; `lock` never panics on a poisoned lock.
        lock(self.inflight).remove(self.key);
        *lock(&self.flight.slot) = Some(self.outcome.take());
        self.flight.cv.notify_all();
    }
}

/// Live admission-control state: cost and per-tenant counts of every
/// admitted-but-unfinished job, across `submit` and `submit_batch`
/// callers alike.
#[derive(Default)]
struct Admission {
    queued_cost: u64,
    tenant_inflight: HashMap<String, u64>,
}

/// Admission units taken by one job, returned on drop — on every exit,
/// including an unwind out of a panicking dispatch hook and a batch
/// queue dropped, leaders and followers still in it, by a panicking
/// worker.
struct Units<'a> {
    admission: &'a Mutex<Admission>,
    tenant: String,
    cost: u64,
}

impl Drop for Units<'_> {
    fn drop(&mut self) {
        // Runs during unwinds; as in `Lead`, `lock` never panics.
        let mut adm = lock(self.admission);
        adm.queued_cost = adm.queued_cost.saturating_sub(self.cost);
        if let Some(count) = adm.tenant_inflight.get_mut(&self.tenant) {
            *count -= 1;
            if *count == 0 {
                adm.tenant_inflight.remove(&self.tenant);
            }
        }
    }
}

/// What a job compiles: a graph in hand, or the bytes of an upload the
/// memo recognised, imported only if the job has to compile after all.
enum Model<'a> {
    Graph(Graph),
    Upload {
        bytes: &'a [u8],
        /// [`estimate_cost`] of the imported graph, as a miss.
        cold_cost: u64,
    },
}

impl Model<'_> {
    /// [`estimate_cost`] of compiling this model, or of a hit.
    fn cost(&self, cached: bool) -> u64 {
        match self {
            Model::Graph(graph) => estimate_cost(graph, cached),
            Model::Upload { .. } if cached => HIT_COST,
            Model::Upload { cold_cost, .. } => *cold_cost,
        }
    }
}

/// A job as the service holds it from admission to its result.
struct Job<'a> {
    name: String,
    tenant: String,
    deploy: DeployConfig,
    model: Model<'a>,
}

impl From<JobRequest> for Job<'_> {
    fn from(job: JobRequest) -> Self {
        Job {
            name: job.name,
            tenant: job.tenant,
            deploy: job.deploy,
            model: Model::Graph(job.graph),
        }
    }
}

/// A keyed job holding its admission units until it is dropped.
struct Admitted<'a> {
    index: usize,
    job: Job<'a>,
    key: ArtifactKey,
    units: Units<'a>,
}

/// One batch queue entry: a leader plus the jobs coalesced onto its key.
struct Scheduled<'a> {
    leader: Admitted<'a>,
    followers: Vec<Admitted<'a>>,
}

/// A multi-tenant compile service with a content-addressed artifact
/// cache, optional disk persistence, cost-aware scheduling and typed
/// load shedding. See the [crate docs](crate) for the architecture.
pub struct CompileService {
    base: Compiler,
    keys: KeyContext,
    cache: ArtifactCache,
    inflight: Mutex<HashMap<ArtifactKey, Arc<Flight>>>,
    persist: Option<PersistStore>,
    admission: Mutex<Admission>,
    tracer: Tracer,
    workers: usize,
    policy: SchedPolicy,
    queue_cost_budget: u64,
    tenant_quota: u64,
    jobs: AtomicU64,
    coalesced: AtomicU64,
    shed_budget: AtomicU64,
    shed_quota: AtomicU64,
    rejected_import: AtomicU64,
    seq: AtomicU64,
}

impl CompileService {
    /// A service over the default DIANA compiler:
    /// `with_compiler(config, Compiler::new())`.
    ///
    /// # Panics
    ///
    /// As [`CompileService::with_compiler`].
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        CompileService::with_compiler(config, Compiler::new())
    }

    /// A service over a custom base compiler (SoC model, tiling
    /// objectives, dispatch hook). The config's tracer is installed on
    /// the compiler so phase spans land in the same trace as job spans;
    /// each job still overrides the deploy target from its request.
    ///
    /// The artifact key does not cover a dispatch hook, so a hook installed
    /// here must not change engine choices.
    ///
    /// # Panics
    ///
    /// When [`ServeConfig::persist_root`] is set but not creatable — a
    /// construction-time misconfiguration a service should refuse to
    /// start on, not a runtime job error.
    #[must_use]
    pub fn with_compiler(config: ServeConfig, base: Compiler) -> Self {
        let base = base.with_tracer(config.tracer.clone());
        let cache = ArtifactCache::new(config.cache_budget_bytes);
        let persist = config.persist_root.as_ref().map(|root| {
            let store = PersistStore::open(root, DEFAULT_PLATFORM)
                .expect("the persistence root must be creatable at service construction");
            store.load_into(&cache);
            store
        });
        CompileService {
            keys: KeyContext::new(DEFAULT_PLATFORM, base.platform(), base.lower_options()),
            base,
            cache,
            inflight: Mutex::new(HashMap::new()),
            persist,
            admission: Mutex::new(Admission::default()),
            tracer: config.tracer,
            workers: config.workers.max(1),
            policy: config.policy,
            queue_cost_budget: config.queue_cost_budget,
            tenant_quota: u64::try_from(config.tenant_quota).unwrap_or(u64::MAX),
            jobs: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            shed_budget: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            rejected_import: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        }
    }

    /// The content-addressed key a job resolves to.
    ///
    /// # Errors
    ///
    /// None: every job has a key. The `Result` is kept so that callers
    /// which `expect` or `?` it keep compiling.
    pub fn key_of(&self, job: &JobRequest) -> Result<ArtifactKey, JobError> {
        Ok(self.keys.key(&job.graph, job.deploy))
    }

    /// Processes one job on the calling thread, through admission
    /// control: the result is [`JobError::Rejected`] when the service
    /// is saturated or the tenant is over quota.
    pub fn submit(&self, job: JobRequest) -> Result<JobResult, JobError> {
        let key = self.keys.key(&job.graph, job.deploy);
        self.submit_keyed(job.into(), key)
    }

    /// Admits and serves one keyed job on the calling thread.
    fn submit_keyed(&self, job: Job<'_>, key: ArtifactKey) -> Result<JobResult, JobError> {
        let admitted = self.admit_job(0, job, key, &HashMap::new())?;
        self.serve(admitted, 0, None)
    }

    /// Imports raw model-file bytes into a validated graph, counting
    /// rejections in [`ServiceStats::rejected_import`].
    ///
    /// The importer produces the *same* graph an in-process
    /// [`GraphBuilder`](htvm_ir::GraphBuilder) build of the model
    /// would, so a subsequent [`CompileService::submit`] resolves to
    /// the same [`ArtifactKey`] — file-imported and in-process jobs
    /// share cache entries and coalesce with each other.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Import`] carrying the typed
    /// [`ImportError`] when the bytes are malformed; no input panics.
    pub fn import_model(&self, job: &str, model: &[u8]) -> Result<Graph, JobError> {
        htvm_frontend::import(model).map_err(|error| {
            self.rejected_import.fetch_add(1, Ordering::Relaxed);
            JobError::Import {
                job: job.to_owned(),
                error,
            }
        })
    }

    /// Imports model bytes and submits the resulting compile-only job
    /// through the normal admission/cache path (the `/v1/import` entry
    /// point).
    ///
    /// Bytes seen before skip the import and the keying: the cache's
    /// upload memo matches `(deploy, bytes)` byte for byte and hands
    /// back the key they resolved to, and the job goes on from
    /// admission like any other. Bytes not seen before are imported and
    /// keyed, and remembered once their key is resident. Refused bytes
    /// are never remembered.
    ///
    /// # Errors
    ///
    /// [`JobError::Import`] for malformed bytes, otherwise whatever
    /// [`CompileService::submit`] returns.
    pub fn submit_model(
        &self,
        name: &str,
        tenant: Option<&str>,
        deploy: DeployConfig,
        model: &[u8],
    ) -> Result<JobResult, JobError> {
        let digest = murmur3_128(model);
        let job = |source| Job {
            name: name.to_owned(),
            tenant: tenant.unwrap_or(ANON).to_owned(),
            deploy,
            model: source,
        };
        if let Some((key, cold_cost)) = self.cache.upload(digest, deploy, model) {
            let source = Model::Upload {
                bytes: model,
                cold_cost,
            };
            return self.submit_keyed(job(source), key);
        }
        let graph = self.import_model(name, model)?;
        let key = self.keys.key(&graph, deploy);
        let cold_cost = estimate_cost(&graph, false);
        let result = self.submit_keyed(job(Model::Graph(graph)), key.clone());
        self.cache
            .remember_upload(digest, deploy, model, key, cold_cost);
        result
    }

    /// Schedules a batch through admission control and the worker pool,
    /// returning results in request order.
    ///
    /// Before anything reaches the pool, jobs with identical
    /// [`ArtifactKey`]s are coalesced (one leader, the rest followers —
    /// serviced from the leader's artifact by the leader's worker the
    /// moment it lands) and each leader passes admission control in
    /// request order; shed jobs get [`JobError::Rejected`] without ever
    /// queuing. Admitted leaders are ordered by
    /// [`SchedPolicy`]: under [`SchedPolicy::CostAware`], cache hits
    /// run before cold compiles, so an expensive miss cannot
    /// head-of-line-block a batch of hits.
    pub fn submit_batch(&self, jobs: Vec<JobRequest>) -> Vec<Result<JobResult, JobError>> {
        let epoch = Instant::now();
        let results: Vec<Mutex<Option<Result<JobResult, JobError>>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let finish = |index: usize, result| {
            *lock(&results[index]) = Some(result);
        };

        // Admission + coalescing pass, in request order.
        let mut leaders: Vec<Scheduled> = Vec::new();
        let mut lead_of: HashMap<ArtifactKey, usize> = HashMap::new();
        for (index, job) in jobs.into_iter().enumerate() {
            let key = self.keys.key(&job.graph, job.deploy);
            match self.admit_job(index, job.into(), key, &lead_of) {
                Err(error) => finish(index, Err(error)),
                Ok(admitted) => match lead_of.get(&admitted.key) {
                    Some(&leader) => leaders[leader].followers.push(admitted),
                    None => {
                        lead_of.insert(admitted.key.clone(), leaders.len());
                        leaders.push(Scheduled {
                            leader: admitted,
                            followers: Vec::new(),
                        });
                    }
                },
            }
        }

        match self.policy {
            SchedPolicy::Fifo => {} // already in request order
            SchedPolicy::CostAware => {
                leaders.sort_by_key(|s| (s.leader.units.cost, s.leader.index));
            }
        }

        let workers = self.workers.min(leaders.len()).max(1);
        let queue: Mutex<VecDeque<Scheduled>> = Mutex::new(leaders.into());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let next = lock(&queue).pop_front();
                    let Some(Scheduled { leader, followers }) = next else {
                        break;
                    };
                    let index = leader.index;
                    let result = self.serve(leader, epoch.elapsed().as_micros() as u64, None);
                    // Service this leader's followers right here, right
                    // now: they are near-free (a shared handle), and
                    // running them on the leader's
                    // worker means a follower never occupies a pool
                    // slot waiting for a compile that hasn't started.
                    // When the leader failed, each follower finds out
                    // for itself (deterministic error per job, and a
                    // fresh attempt might succeed).
                    let ready = result.as_ref().ok().map(|r| r.artifact.clone());
                    finish(index, result);
                    for follower in followers {
                        let index = follower.index;
                        let queue_us = epoch.elapsed().as_micros() as u64;
                        finish(index, self.serve(follower, queue_us, ready.as_ref()));
                    }
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every scheduled job writes its slot")
            })
            .collect()
    }

    /// The one way into the service: estimates the keyed job's cost
    /// against the cache state and takes that many admission units — or
    /// sheds it. A job whose key already has a leader in `lead_of` (its
    /// batch) rides that leader's units.
    fn admit_job<'a>(
        &'a self,
        index: usize,
        job: Job<'a>,
        key: ArtifactKey,
        lead_of: &HashMap<ArtifactKey, usize>,
    ) -> Result<Admitted<'a>, JobError> {
        let cost = if lead_of.contains_key(&key) {
            0
        } else {
            job.model.cost(self.cache.contains(&key))
        };
        match self.admit(&job.tenant, cost) {
            Err(rejection) => Err(self.shed_job(job.name, &job.tenant, cost, rejection)),
            Ok(units) => Ok(Admitted {
                index,
                job,
                key,
                units,
            }),
        }
    }

    /// Admits `cost` units for `tenant`, or returns the typed rejection.
    /// An idle service (nothing queued) always admits, so one
    /// over-budget job can still make progress.
    fn admit(&self, tenant: &str, cost: u64) -> Result<Units<'_>, Rejection> {
        let mut adm = lock(&self.admission);
        let inflight = adm.tenant_inflight.get(tenant).copied().unwrap_or(0);
        if inflight >= self.tenant_quota {
            return Err(Rejection {
                reason: RejectReason::TenantQuota {
                    tenant: tenant.to_owned(),
                    inflight,
                    quota: self.tenant_quota,
                },
                retry_after_ms: 50,
            });
        }
        if adm.queued_cost > 0 && adm.queued_cost.saturating_add(cost) > self.queue_cost_budget {
            return Err(Rejection {
                reason: RejectReason::QueueBudget {
                    estimated_cost: cost,
                    queued_cost: adm.queued_cost,
                    budget: self.queue_cost_budget,
                },
                retry_after_ms: 50,
            });
        }
        adm.queued_cost = adm.queued_cost.saturating_add(cost);
        *adm.tenant_inflight.entry(tenant.to_owned()).or_insert(0) += 1;
        Ok(Units {
            admission: &self.admission,
            tenant: tenant.to_owned(),
            cost,
        })
    }

    /// Counts and traces a shed, returning the typed error.
    fn shed_job(&self, job: String, tenant: &str, cost: u64, rejection: Rejection) -> JobError {
        let (counter, reason) = match rejection.reason {
            RejectReason::QueueBudget { .. } => (&self.shed_budget, "queue_budget"),
            RejectReason::TenantQuota { .. } => (&self.shed_quota, "tenant_quota"),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if self.tracer.is_enabled() {
            self.tracer.record(
                Span::new(
                    &format!("shed:{job}"),
                    tracks::SERVICE,
                    self.tracer.elapsed_us(),
                    0,
                )
                .with_arg("reason", reason)
                .with_arg("tenant", tenant)
                .with_arg("estimated_cost", cost),
            );
        }
        JobError::Rejected { job, rejection }
    }

    /// The one way out: obtains the admitted job's artifact (`ready` is
    /// its in-batch leader's, when it has one), counts and traces the
    /// job, and returns its admission units.
    fn serve(
        &self,
        admitted: Admitted<'_>,
        queue_us: u64,
        ready: Option<&StoredArtifact>,
    ) -> Result<JobResult, JobError> {
        // `_units` is held to the end, however this returns or unwinds.
        let Admitted {
            job,
            key,
            units: _units,
            ..
        } = admitted;
        let started = Instant::now();
        let sched_seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.tracer.is_enabled() && queue_us > 0 {
            // The wait is over by the time we learn its length, so
            // record it retroactively: a span ending "now", starting
            // `queue_us` ago, on the same track as the job span.
            let now = self.tracer.elapsed_us();
            self.tracer.record(
                Span::new(
                    &format!("queue:{}", job.name),
                    tracks::SERVICE,
                    now.saturating_sub(queue_us),
                    queue_us,
                )
                .with_arg("tenant", job.tenant.as_str()),
            );
        }
        let mut span = self
            .tracer
            .scope(tracks::SERVICE, &format!("job:{}", job.name));
        let key_id = key.id();
        span.arg("key", key_id.as_str());
        span.arg("queue_us", queue_us);
        span.arg("tenant", job.tenant.as_str());
        let result =
            self.artifact_for(&job, &key, ready)
                .map(|(artifact, cache_hit, coalesced)| {
                    span.arg("cache_hit", cache_hit);
                    span.arg("coalesced", coalesced);
                    JobResult {
                        job: job.name,
                        key_id,
                        cache_hit,
                        coalesced,
                        artifact,
                        queue_us,
                        service_us: started.elapsed().as_micros() as u64,
                        sched_seq,
                    }
                });
        self.jobs.fetch_add(1, Ordering::Relaxed);
        span.arg("ok", result.is_ok());
        result
    }

    /// Fetches the job's artifact from the cache or compiles it, coalescing concurrent misses on the same key: exactly one
    /// thread (the *leader*) compiles while the rest wait and take the
    /// leader's artifact directly. Only threads that actually probe the
    /// cache touch its counters — a leader registers one miss, a repeat
    /// after landing one hit, and a coalesced follower none (it shows
    /// up in [`ServiceStats::coalesced`] instead) — so
    /// `hits + misses + coalesced == jobs` deterministically even under
    /// races, with `misses` exactly the number of distinct compiles. A
    /// leader's artifact is also spilled to the [`PersistStore`] when
    /// persistence is on. Returns the
    /// artifact with its `(cache_hit, coalesced)` flags.
    fn artifact_for(
        &self,
        job: &Job<'_>,
        key: &ArtifactKey,
        ready: Option<&StoredArtifact>,
    ) -> Result<(StoredArtifact, bool, bool), JobError> {
        if let Some(artifact) = ready {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return Ok((artifact.clone(), false, true));
        }
        loop {
            // One critical section decides this thread's role: follower
            // of an in-flight compile (no cache touch), cache hit, or
            // newly appointed leader.
            let mut inflight = lock(&self.inflight);
            if let Some(flight) = inflight.get(key).map(Arc::clone) {
                drop(inflight);
                match flight.wait() {
                    Some(artifact) => {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        return Ok((artifact, false, true));
                    }
                    // The leader failed; re-enter and compile for
                    // ourselves (our own attempt reports its own typed
                    // error).
                    None => continue,
                }
            }
            if let Some(artifact) = self.cache.get(key) {
                return Ok((artifact, true, false));
            }
            let flight = Arc::new(Flight::default());
            inflight.insert(key.clone(), Arc::clone(&flight));
            drop(inflight);
            let mut lead = Lead {
                inflight: &self.inflight,
                key,
                flight,
                outcome: None,
            };
            let graph = match &job.model {
                Model::Graph(graph) => Cow::Borrowed(graph),
                // The memo's key lost its artifact before the probe
                // above. The bytes imported once, so they import again.
                Model::Upload { bytes, .. } => Cow::Owned(self.import_model(&job.name, bytes)?),
            };
            let artifact = self
                .base
                .clone()
                .with_deploy(job.deploy)
                .compile(&graph)
                .map(StoredArtifact::new)
                .map_err(|error| JobError::Compile {
                    job: job.name.clone(),
                    error,
                })?;
            // Publish before `lead` drops and lands the flight, so
            // repeats that arrive after the landing find the artifact
            // resident; followers already waiting take it from the
            // flight itself. The disk spill rides the same publish: one
            // durable write per distinct compile.
            self.cache.insert(key.clone(), artifact.clone());
            if let Some(persist) = &self.persist {
                persist.write(key, artifact.clone());
            }
            lead.outcome = Some(artifact.clone());
            return Ok((artifact, false, false));
        }
    }

    /// A snapshot of the service counters, including the shared
    /// tile-cache and persistent-store counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let persist = self
            .persist
            .as_ref()
            .map(PersistStore::stats)
            .unwrap_or_default();
        let shed_budget = self.shed_budget.load(Ordering::Relaxed);
        let shed_quota = self.shed_quota.load(Ordering::Relaxed);
        ServiceStats {
            jobs: self.jobs.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            shed: shed_budget + shed_quota,
            shed_budget,
            shed_quota,
            rejected_import: self.rejected_import.load(Ordering::Relaxed),
            persist_writes: persist.writes,
            persist_load_ok: persist.load_ok,
            persist_load_skipped: persist.load_skipped,
            artifact_cache: self.cache.stats(),
            tile_cache: self.base.tile_cache().stats(),
        }
    }

    /// Drains everything traced so far (job, queue and shed spans plus
    /// compiler phase spans) into one wall-clock trace on the
    /// [`tracks::serve`] track table.
    #[must_use]
    pub fn take_trace(&self) -> Trace {
        self.tracer.take(TimeDomain::WallMicros, tracks::serve())
    }
}

impl std::fmt::Debug for CompileService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileService")
            .field("workers", &self.workers)
            .field("policy", &self.policy)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm::{Artifact, DispatchHook, TilingObjective};
    use htvm_ir::{DType, GraphBuilder, Tensor};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

    const TIMEOUT: Duration = Duration::from_secs(60);

    fn job(name: &str, channels: usize) -> JobRequest {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[channels, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[channels, channels, 3, 3]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let y = b.requantize(c, 7, true).unwrap();
        JobRequest::compile_only(name, b.finish(&[y]).unwrap(), DeployConfig::Both)
    }

    /// The HTF bytes of `job`'s graph, as a `/v1/import` carries them.
    fn htf(job: &JobRequest) -> Vec<u8> {
        htvm_frontend::emit(&job.graph).expect("the test graphs emit")
    }

    /// Whether every finished job is counted exactly once:
    /// `hits + misses + coalesced == jobs`.
    fn counted_once(service: &CompileService) -> bool {
        let stats = service.stats();
        let cache = stats.artifact_cache;
        cache.hits + cache.misses + stats.coalesced == stats.jobs
    }

    /// Whether the upload memo holds `htf` under `Both`.
    fn remembered(service: &CompileService, htf: &[u8]) -> bool {
        let digest = murmur3_128(htf);
        service
            .cache
            .upload(digest, DeployConfig::Both, htf)
            .is_some()
    }

    /// A service whose first compile parks inside the dispatch hook:
    /// it announces itself on the receiver, then waits for a verdict —
    /// `true` resumes the compile, `false` panics out of it.
    fn gated_service() -> (Arc<CompileService>, mpsc::Receiver<()>, mpsc::Sender<bool>) {
        gated_service_with(ServeConfig::default())
    }

    /// [`gated_service`] under `config`.
    fn gated_service_with(
        config: ServeConfig,
    ) -> (Arc<CompileService>, mpsc::Receiver<()>, mpsc::Sender<bool>) {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (verdict_tx, verdict_rx) = mpsc::channel::<bool>();
        let verdict_rx = Mutex::new(verdict_rx);
        let first = AtomicBool::new(true);
        let hook: DispatchHook = Arc::new(move |_, base| {
            if first.swap(false, Ordering::SeqCst) {
                entered_tx.send(()).expect("the test is listening");
                if !verdict_rx.lock().unwrap().recv().expect("a verdict") {
                    panic!("the dispatch hook panics under the leader");
                }
            }
            base
        });
        let service =
            CompileService::with_compiler(config, Compiler::new().with_dispatch_hook(hook));
        (Arc::new(service), entered_rx, verdict_tx)
    }

    /// Submits on a detached thread, so a wedged service fails the
    /// test on a timeout instead of hanging it.
    fn submit_detached(
        service: &Arc<CompileService>,
        job: JobRequest,
    ) -> mpsc::Receiver<Result<JobResult, JobError>> {
        run_detached(service, move |service| service.submit(job))
    }

    /// Runs `submit` against the service on a detached thread, as
    /// [`submit_detached`] does.
    fn run_detached(
        service: &Arc<CompileService>,
        submit: impl FnOnce(&CompileService) -> Result<JobResult, JobError> + Send + 'static,
    ) -> mpsc::Receiver<Result<JobResult, JobError>> {
        let (tx, rx) = mpsc::channel();
        let service = Arc::clone(service);
        std::thread::spawn(move || drop(tx.send(submit(&service))));
        rx
    }

    /// Spins until a follower is committed to the parked leader's
    /// flight: it cloned the flight under the in-flight lock, on top of
    /// the table's and the leader guard's references.
    fn await_follower(service: &CompileService) {
        while service
            .inflight
            .lock()
            .unwrap()
            .values()
            .all(|flight| Arc::strong_count(flight) < 3)
        {
            std::thread::yield_now();
        }
    }

    /// Whether two handles share one allocation for both the artifact
    /// and its bytes.
    fn same_allocation(a: &StoredArtifact, b: &StoredArtifact) -> bool {
        std::ptr::eq::<Artifact>(&**a, &**b) && std::ptr::eq(a.json(), b.json())
    }

    #[test]
    fn a_slots_keys_are_byte_identical_to_keys_built_from_scratch() {
        // The config suffix is encoded once per service; it must still
        // say what `ArtifactKey::new` says from the same compiler, for
        // every deploy target, on the default compiler and over a custom
        // one alike.
        let lean = Compiler::new().with_objectives(
            TilingObjective::memory_only(),
            TilingObjective::memory_only(),
        );
        let custom = CompileService::with_compiler(ServeConfig::default(), lean.clone());
        let default = CompileService::new(ServeConfig::default());
        for deploy in [
            DeployConfig::CpuTvm,
            DeployConfig::Digital,
            DeployConfig::Analog,
            DeployConfig::Both,
        ] {
            let mut request = job("k", 8);
            request.deploy = deploy;
            for (service, base) in [(&custom, &lean), (&default, &Compiler::new())] {
                let scratch = ArtifactKey::new(
                    DEFAULT_PLATFORM,
                    &request.graph,
                    deploy,
                    base.platform(),
                    base.lower_options(),
                );
                let key = service.key_of(&request).unwrap();
                assert_eq!(key.as_bytes(), scratch.as_bytes(), "{deploy:?}");
                assert_eq!(key.id(), scratch.id(), "{deploy:?}");
            }
        }
        assert_ne!(
            custom.key_of(&job("k", 8)).unwrap(),
            default.key_of(&job("k", 8)).unwrap(),
            "the two services really do differ in their tiling objectives"
        );
    }

    #[test]
    fn every_consumer_of_one_compile_shares_one_allocation() {
        let (service, entered, verdict) = gated_service();
        let cold = submit_detached(&service, job("cold", 8));
        entered.recv_timeout(TIMEOUT).expect("the leader compiles");
        let follower = submit_detached(&service, job("follower", 8));
        await_follower(&service);
        verdict.send(true).unwrap();
        let cold = cold.recv_timeout(TIMEOUT).unwrap().unwrap();
        let follower = follower.recv_timeout(TIMEOUT).unwrap().unwrap();
        let hit = service.submit(job("hit", 8)).unwrap();
        let mut batch = service.submit_batch(vec![job("b0", 8), job("b1", 8)]);
        let in_batch = batch.pop().unwrap().unwrap();

        assert!(!cold.cache_hit && !cold.coalesced);
        assert!(follower.coalesced, "the single-flight follower waited");
        assert!(hit.cache_hit);
        assert!(in_batch.coalesced, "the in-batch follower rode b0");
        for shared in [&follower, &hit, &in_batch] {
            assert!(
                same_allocation(&shared.artifact, &cold.artifact),
                "'{}' must share the cold compile's artifact and bytes",
                shared.job
            );
        }

        // The budget counts exactly the shared bytes, once per entry.
        let other = service.submit(job("other", 12)).unwrap();
        assert_eq!(
            service.stats().artifact_cache.bytes as usize,
            cold.artifact.json().len() + other.artifact.json().len()
        );
    }

    #[test]
    fn a_leader_that_unwinds_still_lands_its_flight() {
        let (service, entered, verdict) = gated_service();
        let leader = submit_detached(&service, job("leader", 8));
        entered.recv_timeout(TIMEOUT).expect("the leader compiles");
        let follower = submit_detached(&service, job("follower", 8));
        await_follower(&service);
        verdict.send(false).unwrap();
        assert!(
            matches!(
                leader.recv_timeout(TIMEOUT),
                Err(mpsc::RecvTimeoutError::Disconnected)
            ),
            "the leader's thread unwound without a result"
        );
        // The waiting follower wakes to a failed flight and compiles
        // for itself; the key is free again for everyone after it.
        let follower = follower
            .recv_timeout(TIMEOUT)
            .expect("the follower must not wedge on the dead leader")
            .unwrap();
        assert!(!follower.cache_hit && !follower.coalesced);
        let later = submit_detached(&service, job("later", 8))
            .recv_timeout(TIMEOUT)
            .expect("later requests must not wedge either")
            .unwrap();
        assert!(later.cache_hit);
        assert!(same_allocation(&later.artifact, &follower.artifact));
    }

    /// Poisons `mutex`: a thread panics while holding it.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _held = mutex.lock();
                panic!("a holder of the lock panics");
            });
            assert!(holder.join().is_err());
        });
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn poisoned_locks_keep_serving_with_exact_counts() {
        let service = CompileService::new(ServeConfig::default());
        poison(&service.admission);
        poison(&service.inflight);
        poison(&service.cache.inner);

        let miss = service.submit(job("miss", 8)).unwrap();
        let hit = service.submit(job("hit", 8)).unwrap();
        let batch = service.submit_batch(vec![job("b0", 12), job("b1", 12)]);
        assert!(!miss.cache_hit && hit.cache_hit);
        assert!(batch[1].as_ref().unwrap().coalesced);
        let stats = service.stats();
        let cache = stats.artifact_cache;
        assert_eq!((cache.hits, cache.misses, stats.coalesced), (1, 2, 1));
        assert_eq!(cache.hits + cache.misses + stats.coalesced, stats.jobs);
        assert_eq!(stats.jobs, 4);
        assert_eq!(cache.entries, 2);
        let admission = lock(&service.admission);
        assert!(admission.queued_cost == 0 && admission.tenant_inflight.is_empty());
        drop(admission);

        // A landed flight whose lock was poisoned still hands followers
        // the leader's artifact.
        let flight = Flight::default();
        *lock(&flight.slot) = Some(Some(miss.artifact.clone()));
        poison(&flight.slot);
        assert!(same_allocation(&flight.wait().unwrap(), &miss.artifact));
    }

    #[test]
    fn admission_units_come_back_when_a_job_unwinds() {
        // A service whose first dispatch-hook call panics, once.
        let panicking = |config: ServeConfig| {
            let first = AtomicBool::new(true);
            let hook: DispatchHook = Arc::new(move |_, base| {
                assert!(!first.swap(false, Ordering::SeqCst), "the hook panics");
                base
            });
            let compiler = Compiler::new().with_dispatch_hook(hook);
            Arc::new(CompileService::with_compiler(config, compiler))
        };
        let idle = |service: &CompileService| {
            let adm = service.admission.lock().unwrap();
            adm.queued_cost == 0 && adm.tenant_inflight.is_empty()
        };

        // A lone job unwinds out of the hook; at quota 1 the tenant's
        // next job must still be admitted.
        let service = panicking(ServeConfig {
            tenant_quota: 1,
            ..ServeConfig::default()
        });
        let s = Arc::clone(&service);
        assert!(std::thread::spawn(move || s.submit(job("boom", 8)))
            .join()
            .is_err());
        assert!(idle(&service), "the unwound job returned its units");
        service
            .submit(job("next", 8))
            .expect("the tenant is not stuck at its quota");

        // One worker panics on whichever leader it takes first: the
        // leader, its follower and the leader still queued behind it all
        // return their units.
        let service = panicking(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let s = Arc::clone(&service);
        let batch = vec![job("a", 8), job("b", 12), job("a-again", 8)];
        assert!(std::thread::spawn(move || s.submit_batch(batch))
            .join()
            .is_err());
        assert!(idle(&service), "a panicked batch returned every unit");
    }

    #[test]
    fn a_remembered_upload_is_answered_without_importing_it() {
        // Bytes the importer refuses, planted in the memo under a
        // resident key: only the memo can answer them.
        let service = CompileService::new(ServeConfig::default());
        let a = job("a", 8);
        let cold = service.submit(a.clone()).unwrap();
        let planted = b"not an HTF file";
        assert!(htvm_frontend::import(planted).is_err());
        let key = service.key_of(&a).unwrap();
        let digest = murmur3_128(planted);
        assert!(service
            .cache
            .remember_upload(digest, DeployConfig::Both, planted, key, 1));

        let served = service
            .submit_model("planted", None, DeployConfig::Both, planted)
            .expect("the memo answers");
        assert!(served.cache_hit);
        assert_eq!(served.key_id, cold.key_id);
        assert!(same_allocation(&served.artifact, &cold.artifact));
        // Under another deploy target the bytes are not remembered, so
        // they are imported, and refused.
        let digital = service.submit_model("planted", None, DeployConfig::Digital, planted);
        assert!(matches!(digital, Err(JobError::Import { .. })));
        assert_eq!(service.stats().rejected_import, 1);
        assert!(counted_once(&service));
    }

    #[test]
    fn an_evicted_entry_takes_its_uploads_with_it() {
        // A budget that fits one artifact and its upload, never two
        // artifacts and an upload.
        let (a, b) = (job("a", 8), job("b", 12));
        let (htf_a, htf_b) = (htf(&a), htf(&b));
        let roomy = CompileService::new(ServeConfig::default());
        let size = |job: &JobRequest| roomy.submit(job.clone()).unwrap().artifact.json().len();
        let (size_a, size_b) = (size(&a), size(&b));
        let budget = (size_a + htf_a.len()).max(size_b + htf_b.len());
        let two = size_a + size_b + htf_a.len().min(htf_b.len());
        assert!(budget < two, "{budget} must not fit {two}");
        let service = CompileService::new(ServeConfig {
            cache_budget_bytes: budget,
            ..ServeConfig::default()
        });
        let upload = |htf: &[u8]| {
            service
                .submit_model("up", None, DeployConfig::Both, htf)
                .unwrap()
        };
        let occupancy = || {
            let cache = service.stats().artifact_cache;
            assert!(cache.bytes + cache.upload_bytes <= cache.budget_bytes);
            (cache.entries, cache.uploads, cache.upload_bytes as usize)
        };

        let first = upload(&htf_a);
        assert!(!first.cache_hit && remembered(&service, &htf_a));
        assert_eq!(occupancy(), (1, 1, htf_a.len()));

        // B's artifact evicts A's, and A's upload goes with it.
        let other = upload(&htf_b);
        assert!(!other.cache_hit && remembered(&service, &htf_b));
        assert!(!remembered(&service, &htf_a), "A's upload left with A");
        assert_eq!(occupancy(), (1, 1, htf_b.len()));

        // So A misses the memo, imports and compiles again.
        let again = upload(&htf_a);
        assert!(!again.cache_hit, "A's artifact was evicted");
        assert_eq!(again.key_id, first.key_id);
        assert_eq!(again.artifact.json(), first.artifact.json());
        assert!(remembered(&service, &htf_a) && !remembered(&service, &htf_b));
        assert_eq!(occupancy(), (1, 1, htf_a.len()));
        let stats = service.stats().artifact_cache;
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 3, 2));
        assert!(counted_once(&service));
    }

    #[test]
    fn a_remembered_key_evicted_before_its_probe_compiles_from_the_upload() {
        let (a, b) = (job("a", 8), job("b", 12));
        let htf_a = htf(&a);
        let cold = |job: &JobRequest| {
            let compiler = Compiler::new().with_deploy(DeployConfig::Both);
            StoredArtifact::new(compiler.compile(&job.graph).unwrap())
        };
        let (cold_a, cold_b) = (cold(&a), cold(&b));
        // Room for A and its upload, or for B alone.
        let budget = (cold_a.json().len() + htf_a.len()).max(cold_b.json().len());
        let service = Arc::new(CompileService::new(ServeConfig {
            cache_budget_bytes: budget,
            ..ServeConfig::default()
        }));
        let first = service
            .submit_model("first", None, DeployConfig::Both, &htf_a)
            .unwrap();
        assert!(remembered(&service, &htf_a));

        // The next upload of A finds its key in the memo, passes
        // admission and parks on the in-flight lock, before its probe.
        let inflight = service.inflight.lock().unwrap();
        let bytes = htf_a.clone();
        let again = run_detached(&service, move |service| {
            service.submit_model("again", None, DeployConfig::Both, &bytes)
        });
        while lock(&service.admission).tenant_inflight.is_empty() {
            std::thread::yield_now();
        }
        // Under it, B's artifact evicts A's.
        let key_b = service.key_of(&b).unwrap();
        assert!(service.cache.insert(key_b, cold_b));
        assert!(!remembered(&service, &htf_a));
        drop(inflight);

        let again = again.recv_timeout(TIMEOUT).unwrap().unwrap();
        assert!(!again.cache_hit && !again.coalesced, "it compiled");
        assert_eq!(again.key_id, first.key_id);
        assert_eq!(again.artifact.json(), cold_a.json());
        let stats = service.stats();
        assert_eq!((stats.artifact_cache.misses, stats.rejected_import), (2, 0));
        assert!(counted_once(&service));
        // The memo forgot A with its artifact; the next upload of A
        // imports once more and is remembered again.
        assert!(!remembered(&service, &htf_a));
        let third = service
            .submit_model("third", None, DeployConfig::Both, &htf_a)
            .unwrap();
        assert!(third.cache_hit && remembered(&service, &htf_a));
    }

    #[test]
    fn a_tenant_over_quota_is_shed_on_a_memo_hit() {
        let (service, entered, verdict) = gated_service_with(ServeConfig {
            tenant_quota: 1,
            ..ServeConfig::default()
        });
        // acme's one unit is held by a compile parked in the hook.
        let parked = submit_detached(&service, job("parked", 12).with_tenant("acme"));
        entered
            .recv_timeout(TIMEOUT)
            .expect("the parked job compiles");
        let htf_a = htf(&job("a", 8));
        let upload = |tenant| service.submit_model("a", Some(tenant), DeployConfig::Both, &htf_a);
        let filled = upload("bcorp").expect("another tenant fills the memo");
        assert!(remembered(&service, &htf_a));

        match upload("acme") {
            Err(JobError::Rejected { rejection, .. }) => assert_eq!(
                rejection.reason,
                RejectReason::TenantQuota {
                    tenant: "acme".to_owned(),
                    inflight: 1,
                    quota: 1,
                }
            ),
            other => panic!("acme's memo hit must be shed, got {other:?}"),
        }
        verdict.send(true).unwrap();
        parked.recv_timeout(TIMEOUT).unwrap().unwrap();
        let hit = upload("acme").expect("acme is under its quota again");
        assert!(hit.cache_hit);
        assert_eq!(hit.key_id, filled.key_id);
        let stats = service.stats();
        assert_eq!((stats.jobs, stats.shed, stats.shed_quota), (3, 1, 1));
        assert!(counted_once(&service));
    }
}
