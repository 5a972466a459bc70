//! The multi-tenant, multi-platform compile service.
//!
//! One [`CompileService`] serves a whole *fleet*: each platform in its
//! [`PlatformManifest`] gets its own base [`Compiler`] (and with it its
//! own shared `TileCache`), its own [`ArtifactCache`], and its own
//! single-flight table. Jobs name their platform on the
//! [`JobRequest::platform`] field and are routed to that slot; an
//! unknown platform — or a deploy target that needs an engine the
//! platform lacks — fails with a typed [`JobError::Platform`], never a
//! panic. Jobs that name no platform go to the manifest's default
//! ([`DEFAULT_PLATFORM`]).
//!
//! Jobs pass through **admission control** before any work is
//! scheduled: each job's cost is estimated from its graph size and the
//! cache state (a resident key makes the job near-free), per-tenant
//! quotas cap how much any one tenant can have in flight, and when the
//! queued cost would exceed the service's budget the job is **shed**
//! with a typed [`JobError::Rejected`] instead of letting latency grow
//! without bound. Admission is global across platforms — the worker
//! pool is one shared resource.
//!
//! Admitted batches are scheduled **cost-aware** by default
//! ([`SchedPolicy::CostAware`]): cheap jobs (cache hits) run before
//! expensive cold compiles, so one heavy miss cannot head-of-line-block
//! a batch of hits. Identical [`ArtifactKey`]s within a batch are
//! **coalesced** before they reach the pool — one leader does the work,
//! its followers are serviced from the leader's artifact the moment it
//! lands. The platform id feeds the key, so jobs for different
//! platforms never coalesce even when their graphs agree.
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

use crate::cache::{ArtifactCache, ArtifactCacheStats};
use crate::key::{ArtifactKey, KeyContext};
use crate::lock;
use crate::persist::{PersistStats, PersistStore};
use crate::stored::StoredArtifact;
use htvm::{
    tracks, CompileError, Compiler, DeployConfig, Span, TileCacheStats, TimeDomain, Trace, Tracer,
};
use htvm_frontend::ImportError;
use htvm_ir::Graph;
use htvm_soc::{Capabilities, PlatformManifest, DEFAULT_PLATFORM};
use serde::{Deserialize, Serialize};
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
    /// Byte budget of *each platform's* artifact cache (serialized
    /// size). Zero admits nothing, so every non-coalesced job compiles;
    /// single-flight and in-batch coalescing are unaffected.
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
    /// The fleet of platforms [`CompileService::new`] serves, one
    /// compiler + tile cache + artifact cache per entry. Defaults to
    /// [`PlatformManifest::builtin`]. Ignored by
    /// [`CompileService::with_compiler`], which is a single-platform
    /// service over the caller's compiler.
    pub manifest: PlatformManifest,
    /// Root directory of the persistent artifact cache; `None` (the
    /// default) keeps the cache memory-only. When set, freshly compiled
    /// artifacts are spilled under `<root>/v1/<platform>/` and the
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
            manifest: PlatformManifest::builtin(),
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

/// One unit of work: compile a graph for a deploy target on one
/// platform of the fleet.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Client-chosen label, echoed in results, errors and trace spans.
    pub name: String,
    /// Tenant the job is accounted to, for per-tenant admission quotas.
    pub tenant: String,
    /// Manifest id of the platform to compile for; `None` routes to the
    /// service's default platform.
    pub platform: Option<String>,
    /// The quantized graph to compile.
    pub graph: Graph,
    /// Deploy target (which accelerators to dispatch to). Must be
    /// within the routed platform's declared capabilities.
    pub deploy: DeployConfig,
}

impl JobRequest {
    /// A compile-only job under the anonymous tenant, on the default
    /// platform.
    #[must_use]
    pub fn compile_only(name: &str, graph: Graph, deploy: DeployConfig) -> Self {
        JobRequest {
            name: name.to_owned(),
            tenant: String::from("anon"),
            platform: None,
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

    /// The same job routed to a named platform of the fleet manifest.
    #[must_use]
    pub fn on_platform(mut self, platform: &str) -> Self {
        self.platform = Some(platform.to_owned());
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
    /// The job could not be routed: it names a platform the manifest
    /// does not declare, or a deploy target that needs an engine the
    /// platform lacks. The HTTP front door maps this to a `422`.
    Platform {
        /// The failing job's label.
        job: String,
        /// The platform the job asked for (or was routed to).
        platform: String,
        /// Why routing refused it.
        detail: String,
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
            JobError::Platform {
                job,
                platform,
                detail,
            } => write!(f, "job '{job}' cannot be served on '{platform}': {detail}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Compile { error, .. } => Some(error),
            JobError::Rejected { .. } => None,
            JobError::Import { error, .. } => Some(error),
            JobError::Platform { .. } => None,
        }
    }
}

/// A completed job.
#[derive(Debug)]
pub struct JobResult {
    /// The job's label, echoed from the request.
    pub job: String,
    /// The manifest id of the platform that served the job.
    pub platform: String,
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

/// Per-platform slice of the service counters. The exact-accounting
/// invariant holds *per platform*:
/// `artifact_cache.hits + artifact_cache.misses + coalesced == jobs`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformStats {
    /// The platform's manifest id.
    pub platform: String,
    /// Jobs this platform processed to completion (success or failure).
    pub jobs: u64,
    /// Jobs serviced from another job's in-flight compile on this
    /// platform.
    pub coalesced: u64,
    /// This platform's artifact-cache counters.
    pub artifact_cache: ArtifactCacheStats,
    /// This platform's shared tiling-solve memo counters.
    pub tile_cache: TileCacheStats,
    /// This platform's persistent-store counters (all zero when
    /// persistence is disabled).
    pub persist: PersistStats,
}

/// A snapshot of the service's counters, serializable for bench
/// reports. The `artifact_cache`, `tile_cache` and persistence fields
/// are field-wise sums across platforms; `platforms` carries the
/// per-platform breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Jobs processed to completion (success or failure), summed across
    /// platforms. Shed jobs are counted in `shed`, not here.
    pub jobs: u64,
    /// Jobs serviced from another job's in-flight compile without
    /// touching the cache counters (batch coalescing + single-flight
    /// followers), summed across platforms.
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
    /// Processed jobs that explicitly named their platform (as opposed
    /// to riding the default route).
    #[serde(default)]
    pub routed_by_platform: u64,
    /// Artifacts durably spilled to disk, summed across platforms.
    #[serde(default)]
    pub persist_writes: u64,
    /// Persisted entries re-admitted at startup, summed across
    /// platforms.
    #[serde(default)]
    pub persist_load_ok: u64,
    /// Persisted entries skipped at startup (corrupt, stamp mismatch,
    /// or refused admission), summed across platforms.
    #[serde(default)]
    pub persist_load_skipped: u64,
    /// Artifact-cache counters (hits, misses, evictions, occupancy),
    /// summed across platforms.
    pub artifact_cache: ArtifactCacheStats,
    /// Tiling-solve memo counters, summed across platforms (each
    /// platform's tenants share one tile cache).
    pub tile_cache: TileCacheStats,
    /// The per-platform breakdown, in manifest declaration order.
    #[serde(default)]
    pub platforms: Vec<PlatformStats>,
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
/// callers alike. Global across platforms — the worker pool is one
/// shared resource.
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

/// A routed, keyed job holding its admission units until it is dropped.
struct Admitted<'a> {
    index: usize,
    slot: usize,
    job: JobRequest,
    key: ArtifactKey,
    units: Units<'a>,
}

/// One batch queue entry: a leader plus the jobs coalesced onto its key.
struct Scheduled<'a> {
    leader: Admitted<'a>,
    followers: Vec<Admitted<'a>>,
}

/// One platform of the fleet: its compiler (with its own shared tile
/// cache), the request-independent part of its keys, its artifact
/// cache, its single-flight table, its optional persistent store, and
/// its slice of the job counters.
struct PlatformSlot {
    id: String,
    capabilities: Capabilities,
    base: Compiler,
    keys: KeyContext,
    cache: ArtifactCache,
    inflight: Mutex<HashMap<ArtifactKey, Arc<Flight>>>,
    persist: Option<PersistStore>,
    jobs: AtomicU64,
    coalesced: AtomicU64,
}

impl PlatformSlot {
    fn build(id: String, capabilities: Capabilities, base: Compiler, config: &ServeConfig) -> Self {
        let cache = ArtifactCache::new(config.cache_budget_bytes);
        let persist = config.persist_root.as_ref().map(|root| {
            let store = PersistStore::open(root, &id)
                .expect("the persistence root must be creatable at service construction");
            store.load_into(&cache);
            store
        });
        PlatformSlot {
            keys: KeyContext::new(&id, base.platform(), base.lower_options()),
            id,
            capabilities,
            base,
            cache,
            inflight: Mutex::new(HashMap::new()),
            persist,
            jobs: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }
}

/// A multi-tenant, multi-platform compile service with
/// per-platform content-addressed artifact caches, optional disk
/// persistence, cost-aware scheduling and typed load shedding. See the
/// [crate docs](crate) for the architecture.
pub struct CompileService {
    slots: Vec<PlatformSlot>,
    index: HashMap<String, usize>,
    default_slot: usize,
    admission: Mutex<Admission>,
    tracer: Tracer,
    workers: usize,
    policy: SchedPolicy,
    queue_cost_budget: u64,
    tenant_quota: u64,
    shed_budget: AtomicU64,
    shed_quota: AtomicU64,
    rejected_import: AtomicU64,
    routed_by_platform: AtomicU64,
    seq: AtomicU64,
}

impl CompileService {
    /// A service over the config's [`PlatformManifest`]: one compiler,
    /// tile cache and artifact cache per declared platform, with the
    /// manifest's [`DEFAULT_PLATFORM`] (or its first entry) as the
    /// default route.
    ///
    /// # Panics
    ///
    /// When the manifest fails [`PlatformManifest::validate`], or when
    /// [`ServeConfig::persist_root`] is set but not creatable — both
    /// are construction-time misconfigurations a service should refuse
    /// to start on, not runtime job errors.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        config
            .manifest
            .validate()
            .expect("the service manifest must validate");
        let slots: Vec<PlatformSlot> = config
            .manifest
            .platforms
            .iter()
            .map(|spec| {
                PlatformSlot::build(
                    spec.id.clone(),
                    spec.capabilities,
                    Compiler::new()
                        .with_platform(spec.soc)
                        .with_tracer(config.tracer.clone()),
                    &config,
                )
            })
            .collect();
        CompileService::assemble(config, slots)
    }

    /// A single-platform service over a custom base compiler (platform,
    /// tiling objectives, dispatch hook), routed as [`DEFAULT_PLATFORM`]
    /// with full capabilities. The config's `manifest` is ignored; its
    /// `persist_root` is honored. The config's tracer is installed on
    /// the compiler so phase spans land in the same trace as job spans;
    /// each job still overrides the deploy target from its request.
    #[must_use]
    pub fn with_compiler(config: ServeConfig, base: Compiler) -> Self {
        let slot = PlatformSlot::build(
            DEFAULT_PLATFORM.to_owned(),
            Capabilities::full(),
            base.with_tracer(config.tracer.clone()),
            &config,
        );
        CompileService::assemble(config, vec![slot])
    }

    fn assemble(config: ServeConfig, slots: Vec<PlatformSlot>) -> Self {
        let index: HashMap<String, usize> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| (slot.id.clone(), i))
            .collect();
        let default_slot = index.get(DEFAULT_PLATFORM).copied().unwrap_or(0);
        CompileService {
            slots,
            index,
            default_slot,
            admission: Mutex::new(Admission::default()),
            tracer: config.tracer,
            workers: config.workers.max(1),
            policy: config.policy,
            queue_cost_budget: config.queue_cost_budget,
            tenant_quota: u64::try_from(config.tenant_quota).unwrap_or(u64::MAX),
            shed_budget: AtomicU64::new(0),
            shed_quota: AtomicU64::new(0),
            rejected_import: AtomicU64::new(0),
            routed_by_platform: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        }
    }

    /// The platform ids this service routes, in manifest order.
    #[must_use]
    pub fn platform_ids(&self) -> Vec<&str> {
        self.slots.iter().map(|slot| slot.id.as_str()).collect()
    }

    /// Routes a job to its platform slot: the named platform must be
    /// declared and its capabilities must cover the deploy target.
    fn resolve(&self, job: &JobRequest) -> Result<usize, JobError> {
        let slot_idx = match job.platform.as_deref() {
            None => self.default_slot,
            Some(id) => match self.index.get(id) {
                Some(&i) => i,
                None => {
                    return Err(JobError::Platform {
                        job: job.name.clone(),
                        platform: id.to_owned(),
                        detail: format!(
                            "unknown platform (serving: {})",
                            self.platform_ids().join(", ")
                        ),
                    })
                }
            },
        };
        let slot = &self.slots[slot_idx];
        let caps = slot.capabilities;
        if (job.deploy.digital_enabled() && !caps.digital)
            || (job.deploy.analog_enabled() && !caps.analog)
        {
            return Err(JobError::Platform {
                job: job.name.clone(),
                platform: slot.id.clone(),
                detail: format!(
                    "deploy target {:?} needs engines the platform lacks \
                     (declared: digital={}, analog={})",
                    job.deploy, caps.digital, caps.analog
                ),
            });
        }
        Ok(slot_idx)
    }

    /// The content-addressed key a job resolves to.
    ///
    /// # Errors
    ///
    /// [`JobError::Platform`] when the job cannot be routed (unknown
    /// platform, or a deploy target outside the platform's
    /// capabilities) — a job with no key has no cache slot.
    pub fn key_of(&self, job: &JobRequest) -> Result<ArtifactKey, JobError> {
        let slot = &self.slots[self.resolve(job)?];
        Ok(slot.keys.key(&job.graph, job.deploy))
    }

    /// Processes one job on the calling thread, through routing and
    /// admission control: the result is [`JobError::Platform`] when the
    /// job cannot be routed and [`JobError::Rejected`] when the service
    /// is saturated or the tenant is over quota.
    pub fn submit(&self, job: JobRequest) -> Result<JobResult, JobError> {
        let admitted = self.admit_job(0, job, &HashMap::new())?;
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
        let graph = self.import_model(name, model)?;
        let mut job = JobRequest::compile_only(name, graph, deploy);
        if let Some(tenant) = tenant {
            job = job.with_tenant(tenant);
        }
        self.submit(job)
    }

    /// Schedules a batch through routing, admission control and the
    /// worker pool, returning results in request order.
    ///
    /// Before anything reaches the pool, jobs with identical
    /// [`ArtifactKey`]s are coalesced (one leader, the rest followers —
    /// serviced from the leader's artifact by the leader's worker the
    /// moment it lands; the platform id feeds the key, so jobs for
    /// different platforms never coalesce) and each leader passes
    /// admission control in request order; unroutable jobs get
    /// [`JobError::Platform`] and shed jobs [`JobError::Rejected`]
    /// without ever queuing. Admitted leaders are ordered by
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

        // Routing + admission + coalescing pass, in request order.
        let mut leaders: Vec<Scheduled> = Vec::new();
        let mut lead_of: HashMap<ArtifactKey, usize> = HashMap::new();
        for (index, job) in jobs.into_iter().enumerate() {
            match self.admit_job(index, job, &lead_of) {
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

    /// The one way into the service: routes the job, derives its key,
    /// estimates its cost against the cache state and takes that many
    /// admission units — or sheds it. A job whose key already has a
    /// leader in `lead_of` (its batch) rides that leader's units.
    fn admit_job(
        &self,
        index: usize,
        job: JobRequest,
        lead_of: &HashMap<ArtifactKey, usize>,
    ) -> Result<Admitted<'_>, JobError> {
        let slot = self.resolve(&job)?;
        let key = self.slots[slot].keys.key(&job.graph, job.deploy);
        let cost = if lead_of.contains_key(&key) {
            0
        } else {
            estimate_cost(&job.graph, self.slots[slot].cache.contains(&key))
        };
        match self.admit(&job.tenant, cost) {
            Err(rejection) => Err(self.shed_job(job.name, &job.tenant, cost, rejection)),
            Ok(units) => Ok(Admitted {
                index,
                slot,
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
            slot,
            job,
            key,
            units: _units,
            ..
        } = admitted;
        let slot = &self.slots[slot];
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
        span.arg("platform", slot.id.as_str());
        let result =
            self.artifact_for(slot, &job, &key, ready)
                .map(|(artifact, cache_hit, coalesced)| {
                    span.arg("cache_hit", cache_hit);
                    span.arg("coalesced", coalesced);
                    JobResult {
                        job: job.name,
                        platform: slot.id.clone(),
                        key_id,
                        cache_hit,
                        coalesced,
                        artifact,
                        queue_us,
                        service_us: started.elapsed().as_micros() as u64,
                        sched_seq,
                    }
                });
        slot.jobs.fetch_add(1, Ordering::Relaxed);
        if job.platform.is_some() {
            self.routed_by_platform.fetch_add(1, Ordering::Relaxed);
        }
        span.arg("ok", result.is_ok());
        result
    }

    /// Fetches the job's artifact from its platform's cache or compiles
    /// it, coalescing concurrent misses on the same key: exactly one
    /// thread (the *leader*) compiles while the rest wait and take the
    /// leader's artifact directly. Only threads that actually probe the
    /// cache touch its counters — a leader registers one miss, a repeat
    /// after landing one hit, and a coalesced follower none (it shows
    /// up in [`ServiceStats::coalesced`] instead) — so
    /// `hits + misses + coalesced == jobs` deterministically even under
    /// races, per platform, with `misses` exactly the number of
    /// distinct compiles. A leader's artifact is also spilled to the
    /// platform's [`PersistStore`] when persistence is on. Returns the
    /// artifact with its `(cache_hit, coalesced)` flags.
    fn artifact_for(
        &self,
        slot: &PlatformSlot,
        job: &JobRequest,
        key: &ArtifactKey,
        ready: Option<&StoredArtifact>,
    ) -> Result<(StoredArtifact, bool, bool), JobError> {
        if let Some(artifact) = ready {
            slot.coalesced.fetch_add(1, Ordering::Relaxed);
            return Ok((artifact.clone(), false, true));
        }
        loop {
            // One critical section decides this thread's role: follower
            // of an in-flight compile (no cache touch), cache hit, or
            // newly appointed leader.
            let mut inflight = lock(&slot.inflight);
            if let Some(flight) = inflight.get(key).map(Arc::clone) {
                drop(inflight);
                match flight.wait() {
                    Some(artifact) => {
                        slot.coalesced.fetch_add(1, Ordering::Relaxed);
                        return Ok((artifact, false, true));
                    }
                    // The leader failed; re-enter and compile for
                    // ourselves (our own attempt reports its own typed
                    // error).
                    None => continue,
                }
            }
            if let Some(artifact) = slot.cache.get(key) {
                return Ok((artifact, true, false));
            }
            let flight = Arc::new(Flight::default());
            inflight.insert(key.clone(), Arc::clone(&flight));
            drop(inflight);
            let mut lead = Lead {
                inflight: &slot.inflight,
                key,
                flight,
                outcome: None,
            };
            let artifact = slot
                .base
                .clone()
                .with_deploy(job.deploy)
                .compile(&job.graph)
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
            slot.cache.insert(key.clone(), artifact.clone());
            if let Some(persist) = &slot.persist {
                persist.write(key, artifact.clone());
            }
            lead.outcome = Some(artifact.clone());
            return Ok((artifact, false, false));
        }
    }

    /// A snapshot of the service counters: fleet-wide sums plus the
    /// per-platform breakdown (including each platform's shared
    /// tile-cache and persistent-store counters).
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let platforms: Vec<PlatformStats> = self
            .slots
            .iter()
            .map(|slot| PlatformStats {
                platform: slot.id.clone(),
                jobs: slot.jobs.load(Ordering::Relaxed),
                coalesced: slot.coalesced.load(Ordering::Relaxed),
                artifact_cache: slot.cache.stats(),
                tile_cache: slot.base.tile_cache().stats(),
                persist: slot
                    .persist
                    .as_ref()
                    .map(PersistStore::stats)
                    .unwrap_or_default(),
            })
            .collect();
        let mut agg = ServiceStats {
            shed_budget: self.shed_budget.load(Ordering::Relaxed),
            shed_quota: self.shed_quota.load(Ordering::Relaxed),
            rejected_import: self.rejected_import.load(Ordering::Relaxed),
            routed_by_platform: self.routed_by_platform.load(Ordering::Relaxed),
            ..ServiceStats::default()
        };
        for p in &platforms {
            agg.jobs += p.jobs;
            agg.coalesced += p.coalesced;
            agg.persist_writes += p.persist.writes;
            agg.persist_load_ok += p.persist.load_ok;
            agg.persist_load_skipped += p.persist.load_skipped;
            let a = &mut agg.artifact_cache;
            a.entries += p.artifact_cache.entries;
            a.bytes += p.artifact_cache.bytes;
            a.budget_bytes += p.artifact_cache.budget_bytes;
            a.hits += p.artifact_cache.hits;
            a.misses += p.artifact_cache.misses;
            a.insertions += p.artifact_cache.insertions;
            a.evictions += p.artifact_cache.evictions;
            a.oversized += p.artifact_cache.oversized;
            let t = &mut agg.tile_cache;
            t.entries += p.tile_cache.entries;
            t.solves += p.tile_cache.solves;
            t.hits += p.tile_cache.hits;
            t.negatives += p.tile_cache.negatives;
            t.negative_hits += p.tile_cache.negative_hits;
        }
        agg.shed = agg.shed_budget + agg.shed_quota;
        agg.platforms = platforms;
        agg
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
            .field("platforms", &self.platform_ids())
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

    /// A service whose first compile parks inside the dispatch hook:
    /// it announces itself on the receiver, then waits for a verdict —
    /// `true` resumes the compile, `false` panics out of it.
    fn gated_service() -> (Arc<CompileService>, mpsc::Receiver<()>, mpsc::Sender<bool>) {
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
        let service = CompileService::with_compiler(
            ServeConfig::default(),
            Compiler::new().with_dispatch_hook(hook),
        );
        (Arc::new(service), entered_rx, verdict_tx)
    }

    /// Submits on a detached thread, so a wedged service fails the
    /// test on a timeout instead of hanging it.
    fn submit_detached(
        service: &Arc<CompileService>,
        job: JobRequest,
    ) -> mpsc::Receiver<Result<JobResult, JobError>> {
        let (tx, rx) = mpsc::channel();
        let service = Arc::clone(service);
        std::thread::spawn(move || drop(tx.send(service.submit(job))));
        rx
    }

    /// Spins until a follower is committed to the parked leader's
    /// flight: it cloned the flight under the in-flight lock, on top of
    /// the table's and the leader guard's references.
    fn await_follower(service: &CompileService) {
        while service.slots[0]
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
        // The config suffix is encoded once per slot; it must still say
        // what `ArtifactKey::new` says from the same compiler, for every
        // deploy target, on a manifest platform and over a custom
        // compiler alike.
        let lean = Compiler::new().with_objectives(
            TilingObjective::memory_only(),
            TilingObjective::memory_only(),
        );
        let custom = CompileService::with_compiler(ServeConfig::default(), lean.clone());
        let fleet = CompileService::new(ServeConfig::default());
        for deploy in [
            DeployConfig::CpuTvm,
            DeployConfig::Digital,
            DeployConfig::Analog,
            DeployConfig::Both,
        ] {
            let mut request = job("k", 8);
            request.deploy = deploy;
            for (service, base) in [(&custom, &lean), (&fleet, &Compiler::new())] {
                let scratch = ArtifactKey::new(
                    DEFAULT_PLATFORM,
                    &request.graph,
                    deploy,
                    base.platform(),
                    base.lower_options(),
                );
                let slot = service.key_of(&request).unwrap();
                assert_eq!(slot.as_bytes(), scratch.as_bytes(), "{deploy:?}");
                assert_eq!(slot.id(), scratch.id(), "{deploy:?}");
            }
        }
        assert_ne!(
            custom.key_of(&job("k", 8)).unwrap(),
            fleet.key_of(&job("k", 8)).unwrap(),
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
        let slot = &service.slots[service.default_slot];
        poison(&service.admission);
        poison(&slot.inflight);
        poison(&slot.cache.inner);

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
}
