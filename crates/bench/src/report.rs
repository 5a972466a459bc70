//! The machine-readable performance report (`BENCH.json`) and its diff.
//!
//! `cargo run --release -p htvm-bench --bin report` sweeps the MLPerf™
//! Tiny zoo across every deployment configuration and emits one
//! [`BenchReport`]: per-phase compile wall times (from the `htvm-trace`
//! spans), tiling-solver work vs [`TileCache`] hits, and per-layer
//! simulated cycle/energy breakdowns. `bench-diff` compares two reports
//! and fails on regressions — simulated cycles and energy are
//! deterministic, so those gates are hard; wall times are noisy, so that
//! gate warns unless asked to fail. The schema is documented in
//! `docs/OBSERVABILITY.md`; CI regenerates the report on every PR and
//! diffs it against the committed `BENCH_BASELINE.json`.
//!
//! Every accelerator-bearing configuration is measured twice: under the
//! heuristic tiling objective (Eq. 3–5) and, into `*_cal` rows, under the
//! calibrated one, whose per-engine cost models the compiler's own
//! platform derives ([`DianaConfig::cost_model`]).
//!
//! [`TileCache`]: htvm::TileCache
//! [`DianaConfig::cost_model`]: htvm::DianaConfig::cost_model

use htvm::{
    tracks, CompileError, Compiler, DeployConfig, EnergyConfig, EngineKind, LowerError, Machine,
    RunError, TilingObjective, TimeDomain,
};
use htvm_frontend::ImportError;
use htvm_ir::{Graph, Tensor};
use htvm_models::{all_models, random_input, Model, ModelError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Instant;

use crate::scheme_for;

/// An entry could not be measured. The expected plain-TVM MobileNet
/// out-of-memory failure is *not* an error — it is recorded as a normal
/// entry with status `oom` — so any of these aborts the sweep with a
/// value callers can print, instead of a library `panic!` inside a bin.
#[derive(Debug)]
pub enum ReportError {
    /// The zoo model failed IR verification before compilation.
    Model(ModelError),
    /// Compilation failed for a reason other than the expected OOM.
    Compile {
        /// Model name.
        model: String,
        /// Deployment configuration id.
        deploy: &'static str,
        /// The underlying compiler error.
        error: CompileError,
    },
    /// The compiled program rejected the model's own input. Boxed: the
    /// simulator error carries per-layer context and would otherwise
    /// dominate the size of every `Result` on the collect path.
    Run {
        /// Model name.
        model: String,
        /// Deployment configuration id.
        deploy: &'static str,
        /// The underlying simulator error.
        error: Box<RunError>,
    },
    /// A `--from-file` model could not be read from disk.
    Read {
        /// The file path.
        path: String,
        /// The underlying I/O error.
        error: std::io::Error,
    },
    /// A `--from-file` model was rejected by the HTF importer.
    Import {
        /// The file path.
        path: String,
        /// The typed importer rejection.
        error: ImportError,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Model(e) => write!(f, "{e}"),
            ReportError::Compile {
                model,
                deploy,
                error,
            } => write!(
                f,
                "unexpected compile failure for {model}/{deploy}: {error}"
            ),
            ReportError::Run {
                model,
                deploy,
                error,
            } => write!(
                f,
                "compiled program for {model}/{deploy} rejected its own input: {error}"
            ),
            ReportError::Read { path, error } => {
                write!(f, "cannot read model file {path}: {error}")
            }
            ReportError::Import { path, error } => {
                write!(f, "model file {path} was rejected by the importer: {error}")
            }
        }
    }
}

impl std::error::Error for ReportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReportError::Model(e) => Some(e),
            ReportError::Compile { error, .. } => Some(error),
            ReportError::Run { error, .. } => Some(error),
            ReportError::Read { error, .. } => Some(error),
            ReportError::Import { error, .. } => Some(error),
        }
    }
}

impl From<ModelError> for ReportError {
    fn from(e: ModelError) -> Self {
        ReportError::Model(e)
    }
}

/// Version of the `BENCH.json` schema. Bump when fields are added,
/// removed or change meaning — `bench-diff` refuses to compare across
/// versions, and the golden-file test pins the committed fixtures to the
/// current one so a bump cannot land silently.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// A full benchmark report: every zoo model × deployment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// One entry per (model, deploy) pair, in sweep order.
    pub entries: Vec<BenchEntry>,
}

/// One model under one deployment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Model name (`ds_cnn`, `mobilenet_v1`, `resnet8`, `toyadmos_dae`).
    pub model: String,
    /// Deployment configuration id (`cpu_tvm`, `digital`, `analog`,
    /// `both`).
    pub deploy: String,
    /// Quantization scheme the configuration deploys (`Int8`, `Ternary`,
    /// `Mixed`).
    pub scheme: String,
    /// `ok`, or `oom` for the paper's expected plain-TVM MobileNet
    /// out-of-memory failure.
    pub status: String,
    /// Compile-side observability.
    pub compile: CompileReport,
    /// Simulated run (absent when compilation failed).
    pub run: Option<RunSummary>,
}

/// Compile-side measurements for one entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompileReport {
    /// End-to-end compile wall time in microseconds (noisy; `bench-diff`
    /// warns rather than fails on it by default).
    pub wall_us: u64,
    /// Per-phase wall times from the compile trace, in phase order.
    pub phases: Vec<PhaseTime>,
    /// Accelerator regions lowered.
    pub regions: u64,
    /// Tiling-solver invocations actually performed.
    pub solves: u64,
    /// Solves answered from the tile cache.
    pub cache_hits: u64,
    /// Infeasible (negative) solver outcomes recorded.
    pub cache_negatives: u64,
    /// Modeled deployed binary size in bytes (0 when compilation failed).
    pub binary_bytes: u64,
    /// Fraction of MACs offloaded to accelerators (0 when compilation
    /// failed).
    pub offload_fraction: f64,
}

/// Wall time of one compiler phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTime {
    /// Phase name (`fold_constants`, `partition`, `solve`,
    /// `emit`, `l2_plan`).
    pub phase: String,
    /// Wall time in microseconds.
    pub us: u64,
}

/// Simulated-run measurements for one entry. Everything here is
/// deterministic: same artifact, same numbers, bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// End-to-end latency in cycles (the "full kernel" measurement).
    pub total_cycles: u64,
    /// Latency with accelerator layers at peak (trigger → completion).
    pub peak_cycles: u64,
    /// First-order energy estimate in microjoules.
    pub energy_uj: f64,
    /// Total multiply-accumulates executed.
    pub macs: u64,
    /// Per-layer cycle/energy breakdown, in execution order.
    pub layers: Vec<LayerReport>,
}

/// Per-layer breakdown (the report-side mirror of the simulator's
/// `LayerProfile`, plus energy).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Layer or kernel name.
    pub name: String,
    /// Engine that executed it (`cpu`, `digital`, `analog`).
    pub engine: String,
    /// Datapath-busy cycles.
    pub compute: u64,
    /// Activation DMA cycles.
    pub dma: u64,
    /// Weight transfer cycles.
    pub weight_load: u64,
    /// Host overhead cycles.
    pub overhead: u64,
    /// Always 0 on a simulated run (the machine models no stalls); schema
    /// v1 keeps the field.
    pub stall: u64,
    /// Multiply-accumulates.
    pub macs: u64,
    /// Accelerator invocations (tile count).
    pub tiles: u64,
    /// Modeled energy in femtojoules.
    pub energy_fj: u64,
}

/// The four deployment configurations, in report order.
#[must_use]
pub fn all_deploys() -> [DeployConfig; 4] {
    [
        DeployConfig::CpuTvm,
        DeployConfig::Digital,
        DeployConfig::Analog,
        DeployConfig::Both,
    ]
}

/// Stable id for a deployment configuration compiled under the
/// calibrated tiling objective.
#[must_use]
pub fn calibrated_id(deploy: DeployConfig) -> &'static str {
    match deploy {
        DeployConfig::CpuTvm => "cpu_tvm_cal",
        DeployConfig::Digital => "digital_cal",
        DeployConfig::Analog => "analog_cal",
        DeployConfig::Both => "both_cal",
    }
}

/// The deployment configurations that re-run under the calibrated
/// objective: the accelerator-bearing ones (the calibrated cost models
/// only score accelerator tiles — plain TVM never consults them).
#[must_use]
pub fn calibrated_deploys() -> [DeployConfig; 3] {
    [
        DeployConfig::Digital,
        DeployConfig::Analog,
        DeployConfig::Both,
    ]
}

/// Measures one (model, deploy) pair: traced compile, then a simulated
/// run under the default energy model.
///
/// # Errors
///
/// Returns a [`ReportError`] when the model fails verification, when
/// compilation fails for any reason other than the expected plain-TVM
/// out-of-memory case (which becomes a normal `oom` entry), or when the
/// compiled program rejects the model's own input.
pub fn collect_entry(model: &Model, deploy: DeployConfig) -> Result<BenchEntry, ReportError> {
    collect_model(model, deploy, false)
}

/// Measures one zoo model compiled under the calibrated tiling objective:
/// each accelerator's tiles are scored by the cost model the compiler's
/// platform derives for it. The entry is labeled [`calibrated_id`] (e.g.
/// `digital_cal`) so it sits beside the heuristic row for the same model
/// in `BENCH.json`.
///
/// # Errors
///
/// As [`collect_entry`].
pub fn collect_calibrated_entry(
    model: &Model,
    deploy: DeployConfig,
) -> Result<BenchEntry, ReportError> {
    collect_model(model, deploy, true)
}

fn collect_model(
    model: &Model,
    deploy: DeployConfig,
    calibrated: bool,
) -> Result<BenchEntry, ReportError> {
    model.verify()?;
    collect_graph(
        model.name,
        &format!("{:?}", model.scheme),
        &model.graph,
        &model.input(7),
        deploy,
        calibrated,
    )
}

/// Reads an HTF model file and imports it through the vendored
/// front-end — the one way a model file enters `report --from-file` and
/// `htvmc --from-file`.
///
/// # Errors
///
/// Returns [`ReportError::Read`] when the file cannot be read and
/// [`ReportError::Import`] when the importer rejects the bytes.
pub fn import_file(path: &str) -> Result<Graph, ReportError> {
    let bytes = std::fs::read(path).map_err(|error| ReportError::Read {
        path: path.to_owned(),
        error,
    })?;
    htvm_frontend::import(&bytes).map_err(|error| ReportError::Import {
        path: path.to_owned(),
        error,
    })
}

/// Reads an HTF model file ([`import_file`]) and measures it under one
/// deployment configuration. The entry is named after the file and
/// tagged with scheme `imported` — a file model carries its quantization
/// explicitly in the graph, so no zoo scheme label applies. The
/// deterministic input uses the same seed as the zoo sweep (7) over the
/// graph's first declared input shape.
///
/// # Errors
///
/// Returns [`ReportError::Read`] when the file cannot be read,
/// [`ReportError::Import`] when the importer rejects the bytes, and the
/// usual compile/run errors from the shared measurement path afterwards.
pub fn collect_file(path: &str, deploy: DeployConfig) -> Result<BenchEntry, ReportError> {
    let graph = import_file(path)?;
    let input_dims: Vec<usize> = graph
        .inputs()
        .first()
        .map(|&id| graph.node(id).shape.dims().to_vec())
        .unwrap_or_default();
    let input = random_input(7, &input_dims);
    collect_graph(path, "imported", &graph, &input, deploy, false)
}

/// Measures one (graph, deploy) pair: traced compile, then a simulated
/// run under the default energy model. The shared back half of
/// [`collect_entry`], [`collect_calibrated_entry`] (zoo models) and
/// [`collect_file`] (imported HTF files); `name` and `scheme` label the
/// resulting entry verbatim, and `calibrated` compiles under the
/// calibrated tiling objective into a [`calibrated_id`] row.
///
/// # Errors
///
/// Returns a [`ReportError`] when compilation fails for any reason other
/// than the expected plain-TVM out-of-memory case (which becomes a
/// normal `oom` entry), or when the compiled program rejects `input`.
pub fn collect_graph(
    name: &str,
    scheme: &str,
    graph: &Graph,
    input: &Tensor,
    deploy: DeployConfig,
    calibrated: bool,
) -> Result<BenchEntry, ReportError> {
    let tracer = htvm::Tracer::new();
    let mut compiler = Compiler::new();
    let label = if calibrated {
        let platform = *compiler.platform();
        let objective = |engine| TilingObjective::calibrated(platform.cost_model(engine));
        compiler = compiler.with_objectives(
            objective(EngineKind::Digital),
            objective(EngineKind::Analog),
        );
        calibrated_id(deploy)
    } else {
        deploy.id()
    };
    let compiler = compiler.with_deploy(deploy).with_tracer(tracer.clone());
    let t0 = Instant::now();
    let compiled = compiler.compile(graph);
    let wall_us = t0.elapsed().as_micros() as u64;
    let trace = tracer.take(TimeDomain::WallMicros, tracks::compile());

    let phases = ["fold_constants", "partition", "solve", "emit", "l2_plan"]
        .iter()
        .filter_map(|p| {
            trace.dur_of(p).map(|us| PhaseTime {
                phase: (*p).to_owned(),
                us,
            })
        })
        .collect();

    // The compiler's cache is fresh per entry, so its lifetime counters
    // are exactly this compile's — available even when lowering failed.
    let cache = compiler.tile_cache();
    let regions = match &compiled {
        Ok(a) => a.stats.regions as u64,
        Err(_) => trace
            .span("partition")
            .and_then(|s| s.arg_u64("regions"))
            .unwrap_or(0),
    };
    let mut compile = CompileReport {
        wall_us,
        phases,
        regions,
        solves: cache.solves(),
        cache_hits: cache.hits(),
        cache_negatives: cache.negatives(),
        binary_bytes: 0,
        offload_fraction: 0.0,
    };

    let (status, run) = match compiled {
        Ok(artifact) => {
            compile.binary_bytes = artifact.binary.total() as u64;
            compile.offload_fraction = artifact.offload_fraction();
            let machine = Machine::new(*compiler.platform());
            let report = machine
                .run(&artifact.program, std::slice::from_ref(input))
                .map_err(|error| ReportError::Run {
                    model: name.to_owned(),
                    deploy: label,
                    error: Box::new(error),
                })?;
            let energy = EnergyConfig::default();
            let layers = report
                .layers
                .iter()
                .map(|l| LayerReport {
                    name: l.name.clone(),
                    engine: l.engine.to_string(),
                    compute: l.cycles.compute,
                    dma: l.cycles.dma,
                    weight_load: l.cycles.weight_load,
                    overhead: l.cycles.overhead,
                    stall: l.cycles.stall,
                    macs: l.macs,
                    tiles: l.n_tiles as u64,
                    energy_fj: energy.layer_fj(l),
                })
                .collect();
            (
                "ok".to_owned(),
                Some(RunSummary {
                    total_cycles: report.total_cycles(),
                    peak_cycles: report.peak_cycles(),
                    energy_uj: energy.run_uj(&report),
                    macs: report.total_macs(),
                    layers,
                }),
            )
        }
        Err(CompileError::Lower(LowerError::OutOfMemory(_))) => ("oom".to_owned(), None),
        Err(error) => {
            return Err(ReportError::Compile {
                model: name.to_owned(),
                deploy: label,
                error,
            })
        }
    };

    Ok(BenchEntry {
        model: name.to_owned(),
        deploy: label.to_owned(),
        scheme: scheme.to_owned(),
        status,
        compile,
        run,
    })
}

/// Sweeps the zoo × configuration matrix into a report; each
/// accelerator-bearing configuration is compiled a second time under the
/// calibrated objective into `*_cal` rows (same models, same inputs — the
/// rows differ only in the tiling objective).
///
/// # Errors
///
/// Propagates the first [`ReportError`] from either sweep.
pub fn collect() -> Result<BenchReport, ReportError> {
    let mut entries = Vec::new();
    for deploy in all_deploys() {
        for model in all_models(scheme_for(deploy)) {
            entries.push(collect_entry(&model, deploy)?);
        }
    }
    for deploy in calibrated_deploys() {
        for model in all_models(scheme_for(deploy)) {
            entries.push(collect_calibrated_entry(&model, deploy)?);
        }
    }
    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        entries,
    })
}

/// Tolerances for [`diff`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Hard-fail when simulated total cycles or energy regress by more
    /// than this percentage. Cycles are deterministic, so the CI default
    /// of 2% already includes generous headroom.
    pub cycle_tol_pct: f64,
    /// Flag compile wall-time regressions beyond this percentage.
    pub wall_tol_pct: f64,
    /// Treat wall-time regressions as failures instead of warnings.
    pub wall_hard: bool,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            cycle_tol_pct: 2.0,
            wall_tol_pct: 50.0,
            wall_hard: false,
        }
    }
}

/// The outcome of comparing two reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diff {
    /// Gate-breaking regressions (non-empty → `bench-diff` exits 1).
    pub failures: Vec<String>,
    /// Noisy or advisory findings (wall-time drift, new entries).
    pub warnings: Vec<String>,
    /// Measured improvements, for the PR log.
    pub improvements: Vec<String>,
}

impl Diff {
    /// `true` when no hard regression was found.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

fn pct_change(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (new - base) / base * 100.0
    }
}

/// Compares `new` against `base` under the given tolerances.
///
/// Hard failures: schema version mismatch, lost coverage (a baseline
/// entry missing from the new report), a changed compile status, and
/// simulated cycle or energy regressions beyond the tolerance. Wall-time
/// regressions warn unless [`DiffConfig::wall_hard`] is set.
#[must_use]
pub fn diff(base: &BenchReport, new: &BenchReport, cfg: &DiffConfig) -> Diff {
    let mut out = Diff::default();
    if base.schema_version != new.schema_version {
        out.failures.push(format!(
            "schema version changed: baseline v{} vs new v{} — regenerate BENCH_BASELINE.json \
             in the same change that bumps BENCH_SCHEMA_VERSION",
            base.schema_version, new.schema_version
        ));
        return out;
    }
    for b in &base.entries {
        let key = format!("{}/{}", b.model, b.deploy);
        let Some(n) = new
            .entries
            .iter()
            .find(|n| n.model == b.model && n.deploy == b.deploy)
        else {
            out.failures.push(format!(
                "{key}: entry missing from the new report (coverage lost)"
            ));
            continue;
        };
        if b.status != n.status {
            out.failures.push(format!(
                "{key}: status changed {} -> {}",
                b.status, n.status
            ));
            continue;
        }
        if let (Some(br), Some(nr)) = (&b.run, &n.run) {
            let cyc = pct_change(br.total_cycles as f64, nr.total_cycles as f64);
            if cyc > cfg.cycle_tol_pct {
                out.failures.push(format!(
                    "{key}: total cycles regressed {:+.2}% ({} -> {}, tolerance {}%)",
                    cyc, br.total_cycles, nr.total_cycles, cfg.cycle_tol_pct
                ));
            } else if nr.total_cycles < br.total_cycles {
                out.improvements.push(format!(
                    "{key}: total cycles improved {:+.2}% ({} -> {})",
                    cyc, br.total_cycles, nr.total_cycles
                ));
            }
            let en = pct_change(br.energy_uj, nr.energy_uj);
            if en > cfg.cycle_tol_pct {
                out.failures.push(format!(
                    "{key}: energy regressed {:+.2}% ({:.3} uJ -> {:.3} uJ, tolerance {}%)",
                    en, br.energy_uj, nr.energy_uj, cfg.cycle_tol_pct
                ));
            } else if nr.energy_uj < br.energy_uj {
                out.improvements.push(format!(
                    "{key}: energy improved {:+.2}% ({:.3} uJ -> {:.3} uJ)",
                    en, br.energy_uj, nr.energy_uj
                ));
            }
        }
        let wall = pct_change(b.compile.wall_us as f64, n.compile.wall_us as f64);
        if wall > cfg.wall_tol_pct {
            let msg = format!(
                "{key}: compile wall time regressed {:+.1}% ({} us -> {} us, tolerance {}%)",
                wall, b.compile.wall_us, n.compile.wall_us, cfg.wall_tol_pct
            );
            if cfg.wall_hard {
                out.failures.push(msg);
            } else {
                out.warnings.push(msg);
            }
        }
    }
    for n in &new.entries {
        if !base
            .entries
            .iter()
            .any(|b| b.model == n.model && b.deploy == n.deploy)
        {
            out.warnings.push(format!(
                "{}/{}: new entry not in the baseline (extend BENCH_BASELINE.json)",
                n.model, n.deploy
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use htvm_models::QuantScheme;

    fn tiny_report(cycles: u64) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            entries: vec![BenchEntry {
                model: "toyadmos_dae".into(),
                deploy: "digital".into(),
                scheme: "Int8".into(),
                status: "ok".into(),
                compile: CompileReport {
                    wall_us: 1000,
                    phases: vec![PhaseTime {
                        phase: "solve".into(),
                        us: 700,
                    }],
                    regions: 4,
                    solves: 4,
                    cache_hits: 0,
                    cache_negatives: 0,
                    binary_bytes: 100_000,
                    offload_fraction: 0.95,
                },
                run: Some(RunSummary {
                    total_cycles: cycles,
                    peak_cycles: cycles / 2,
                    energy_uj: cycles as f64 / 1000.0,
                    macs: 250_000,
                    layers: vec![],
                }),
            }],
        }
    }

    #[test]
    fn identical_reports_pass() {
        let r = tiny_report(100_000);
        let d = diff(&r, &r.clone(), &DiffConfig::default());
        assert!(d.ok(), "{:?}", d.failures);
        assert!(d.warnings.is_empty());
    }

    #[test]
    fn cycle_regression_beyond_tolerance_fails() {
        let base = tiny_report(100_000);
        let new = tiny_report(105_000); // +5% > 2%
        let d = diff(&base, &new, &DiffConfig::default());
        assert!(!d.ok());
        assert!(
            d.failures.iter().any(|f| f.contains("total cycles")),
            "{d:?}"
        );
    }

    #[test]
    fn cycle_noise_within_tolerance_passes_and_improvements_are_noted() {
        let base = tiny_report(100_000);
        let within = tiny_report(101_000); // +1% < 2%
        assert!(diff(&base, &within, &DiffConfig::default()).ok());
        let faster = tiny_report(90_000);
        let d = diff(&base, &faster, &DiffConfig::default());
        assert!(d.ok());
        assert!(!d.improvements.is_empty());
    }

    #[test]
    fn schema_version_mismatch_fails_closed() {
        let base = tiny_report(100_000);
        let mut new = tiny_report(100_000);
        new.schema_version += 1;
        let d = diff(&base, &new, &DiffConfig::default());
        assert!(!d.ok());
        assert!(d.failures[0].contains("schema version"));
    }

    #[test]
    fn lost_coverage_and_status_changes_fail() {
        let base = tiny_report(100_000);
        let empty = BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            entries: vec![],
        };
        assert!(!diff(&base, &empty, &DiffConfig::default()).ok());
        let mut broken = tiny_report(100_000);
        broken.entries[0].status = "oom".into();
        let d = diff(&base, &broken, &DiffConfig::default());
        assert!(d.failures.iter().any(|f| f.contains("status")), "{d:?}");
    }

    #[test]
    fn wall_time_regressions_warn_by_default_and_fail_when_hard() {
        let base = tiny_report(100_000);
        let mut slow = tiny_report(100_000);
        slow.entries[0].compile.wall_us = 10_000; // 10x
        let soft = diff(&base, &slow, &DiffConfig::default());
        assert!(soft.ok(), "{:?}", soft.failures);
        assert!(soft.warnings.iter().any(|w| w.contains("wall time")));
        let hard = diff(
            &base,
            &slow,
            &DiffConfig {
                wall_hard: true,
                ..DiffConfig::default()
            },
        );
        assert!(!hard.ok());
    }

    #[test]
    fn collect_entry_fills_phases_counters_and_layers() {
        let model = htvm_models::toyadmos_dae(QuantScheme::Int8);
        let entry = collect_entry(&model, DeployConfig::Digital).expect("healthy model measures");
        assert_eq!(entry.status, "ok");
        assert_eq!(entry.deploy, "digital");
        let run = entry.run.as_ref().expect("runs");
        assert!(run.total_cycles > 0);
        assert!(run.energy_uj > 0.0);
        assert!(!run.layers.is_empty());
        assert_eq!(
            run.total_cycles,
            run.layers
                .iter()
                .map(|l| l.compute + l.dma + l.weight_load + l.overhead + l.stall)
                .sum::<u64>(),
            "layer breakdown sums to the total"
        );
        assert!(entry.compile.regions > 0);
        assert_eq!(
            entry.compile.solves + entry.compile.cache_hits,
            entry.compile.regions,
            "every region is either solved or answered from the cache"
        );
        for phase in ["partition", "solve", "emit", "l2_plan"] {
            assert!(
                entry.compile.phases.iter().any(|p| p.phase == phase),
                "missing phase {phase}: {:?}",
                entry.compile.phases
            );
        }
        assert!(entry.compile.binary_bytes > 0);
    }

    #[test]
    fn calibrated_entries_get_their_own_labels() {
        let model = htvm_models::toyadmos_dae(QuantScheme::Int8);
        let entry = collect_calibrated_entry(&model, DeployConfig::Digital)
            .expect("calibrated entry measures");
        assert_eq!(entry.deploy, "digital_cal");
        assert_eq!(entry.status, "ok");
        let run = entry.run.as_ref().expect("runs");
        assert!(run.total_cycles > 0);

        // The calibrated row is a real alternative compile of the same
        // model: same MACs as the heuristic row, deterministic cycles.
        let heuristic = collect_entry(&model, DeployConfig::Digital).unwrap();
        assert_eq!(run.macs, heuristic.run.as_ref().unwrap().macs);
        let again = collect_calibrated_entry(&model, DeployConfig::Digital).unwrap();
        assert_eq!(again.run.as_ref().unwrap().total_cycles, run.total_cycles);
    }

    #[test]
    fn oom_entries_keep_compile_observability() {
        let model = htvm_models::mobilenet_v1(QuantScheme::Int8);
        let entry = collect_entry(&model, DeployConfig::CpuTvm).expect("oom is a normal entry");
        assert_eq!(entry.status, "oom");
        assert!(entry.run.is_none());
        assert!(
            entry.compile.phases.iter().any(|p| p.phase == "partition"),
            "phases survive a failed lowering: {:?}",
            entry.compile.phases
        );
    }

    #[test]
    fn broken_models_surface_as_typed_errors_not_panics() {
        // No `Graph` can be malformed (the builder and deserialization
        // both verify), but a model's input signature can disagree with
        // its graph.
        let mut model = htvm_models::toyadmos_dae(QuantScheme::Int8);
        model.input_dims = vec![64];
        let err = collect_entry(&model, DeployConfig::Digital).unwrap_err();
        assert!(matches!(err, ReportError::Model(_)), "{err}");
        assert!(err.to_string().contains("toyadmos_dae"), "{err}");
    }

    #[test]
    fn file_entries_match_in_process_entries() {
        let model = htvm_models::stress_test(QuantScheme::Int8);
        let bytes = htvm_frontend::emit(&model.graph).expect("zoo models emit");
        let path = std::env::temp_dir().join(format!("htvm-report-{}.htf", std::process::id()));
        std::fs::write(&path, &bytes).expect("temp model file writes");
        let path_str = path.to_str().expect("temp path is utf-8");
        let filed = collect_file(path_str, DeployConfig::Both).expect("file entry measures");
        std::fs::remove_file(&path).ok();
        let direct = collect_entry(&model, DeployConfig::Both).expect("direct entry measures");
        assert_eq!(filed.status, "ok");
        assert_eq!(filed.model, path_str);
        assert_eq!(filed.scheme, "imported");
        // Everything deterministic must agree with the in-process build;
        // only wall times (noisy) and the labels may differ.
        assert_eq!(filed.run, direct.run);
        assert_eq!(filed.compile.binary_bytes, direct.compile.binary_bytes);
        assert_eq!(filed.compile.regions, direct.compile.regions);
        assert_eq!(
            filed.compile.offload_fraction,
            direct.compile.offload_fraction
        );
    }

    #[test]
    fn rejected_files_produce_typed_errors_not_panics() {
        let missing = collect_file("/nonexistent/model.htf", DeployConfig::Both).unwrap_err();
        assert!(matches!(missing, ReportError::Read { .. }), "{missing}");
        assert!(missing.to_string().contains("/nonexistent/model.htf"));

        let path = std::env::temp_dir().join(format!("htvm-report-bad-{}.htf", std::process::id()));
        std::fs::write(&path, b"\x10\x00\x00\x00NOPEgarbage").expect("temp file writes");
        let rejected = collect_file(path.to_str().unwrap(), DeployConfig::Both).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(rejected, ReportError::Import { .. }), "{rejected}");
        assert!(
            rejected.to_string().contains("BadMagic"),
            "detail names the importer variant: {rejected}"
        );
    }
}
