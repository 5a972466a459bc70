//! A simulated multi-instance serving fleet, for restart soaks.
//!
//! Real fleet deployments run N service instances behind a
//! key-affinity router; what this module simulates is exactly that
//! shape in one process: a [`Fleet`] owns N [`CompileService`]
//! instances, each with its *own* persistence directory under one
//! root, and routes every job by consistent-hash of its
//! [`ArtifactKey`] digest ([`ShardRing`]) so a given key always lands
//! on the same instance. [`Fleet::restart`] drops one instance and
//! reboots it from its persistence directory — the simulated
//! kill-and-restart the warm-start soak and the `fleet` CI job gate
//! on: a restarted instance re-admits its disk entries, so previously
//! served keys hit (zero recompiles) with byte-identical artifacts.
//!
//! [`ArtifactKey`]: crate::ArtifactKey

use crate::service::{CompileService, JobError, JobRequest, JobResult, ServeConfig, ServiceStats};
use crate::shard::ShardRing;
use std::path::{Path, PathBuf};

/// One instance of the simulated fleet.
struct FleetInstance {
    name: String,
    service: CompileService,
    restarts: u64,
}

impl FleetInstance {
    fn boot(index: usize, root: &Path, config: &ServeConfig) -> Self {
        let name = format!("instance-{index}");
        let mut config = config.clone();
        config.persist_root = Some(root.join(&name));
        FleetInstance {
            name,
            service: CompileService::new(config),
            restarts: 0,
        }
    }
}

/// Counters of one fleet instance, labeled for reports.
#[derive(Debug, Clone)]
pub struct InstanceStats {
    /// The instance's name (`instance-<i>`).
    pub name: String,
    /// How many times [`Fleet::restart`] rebooted it.
    pub restarts: u64,
    /// The instance's service counters.
    pub stats: ServiceStats,
}

/// N sharded [`CompileService`] instances over one persistence root.
pub struct Fleet {
    config: ServeConfig,
    root: PathBuf,
    ring: ShardRing,
    instances: Vec<FleetInstance>,
}

impl Fleet {
    /// Boots `instances` services, each persisting under
    /// `<root>/instance-<i>/`. The config's own `persist_root` is
    /// overridden per instance; everything else (budgets, policy) is
    /// shared.
    ///
    /// # Panics
    ///
    /// When `instances` is zero, or on whatever
    /// [`CompileService::new`] panics on (an uncreatable persistence
    /// directory).
    #[must_use]
    pub fn new(instances: usize, root: &Path, config: ServeConfig) -> Self {
        assert!(instances > 0, "a fleet needs at least one instance");
        let ring = ShardRing::new(instances);
        let instances = (0..instances)
            .map(|i| FleetInstance::boot(i, root, &config))
            .collect();
        Fleet {
            config,
            root: root.to_owned(),
            ring,
            instances,
        }
    }

    /// Number of instances in the fleet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the fleet is empty (never true: construction requires at
    /// least one instance).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Direct access to one instance's service (for stats or
    /// out-of-band submits in tests).
    #[must_use]
    pub fn instance(&self, index: usize) -> &CompileService {
        &self.instances[index].service
    }

    /// The instance a job routes to: consistent-hash of its
    /// [`ArtifactKey`](crate::ArtifactKey) digest. Every instance
    /// compiles for the same SoC, so any of them computes the same key.
    ///
    /// # Errors
    ///
    /// None, as [`CompileService::key_of`].
    pub fn assign(&self, job: &JobRequest) -> Result<usize, JobError> {
        let key = self.instances[0].service.key_of(job)?;
        Ok(self.ring.assign(&key.id()))
    }

    /// Routes one job by key affinity and submits it, returning the
    /// serving instance's index alongside the result.
    ///
    /// # Errors
    ///
    /// Whatever routing or [`CompileService::submit`] reports.
    pub fn submit(&self, job: JobRequest) -> Result<(usize, JobResult), JobError> {
        let index = self.assign(&job)?;
        self.instances[index]
            .service
            .submit(job)
            .map(|result| (index, result))
    }

    /// Kills and reboots one instance from its persistence directory —
    /// the simulated crash/deploy restart. The old service (memory
    /// cache, tile caches, counters) is dropped; the new one re-admits
    /// whatever the old one spilled to disk, so its first hit on a
    /// previously served key costs no recompile.
    pub fn restart(&mut self, index: usize) {
        let restarts = self.instances[index].restarts + 1;
        let mut rebooted = FleetInstance::boot(index, &self.root, &self.config);
        rebooted.restarts = restarts;
        self.instances[index] = rebooted;
    }

    /// Per-instance counters, in instance order.
    #[must_use]
    pub fn stats(&self) -> Vec<InstanceStats> {
        self.instances
            .iter()
            .map(|instance| InstanceStats {
                name: instance.name.clone(),
                restarts: instance.restarts,
                stats: instance.service.stats(),
            })
            .collect()
    }
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("instances", &self.instances.len())
            .field("root", &self.root)
            .finish()
    }
}
