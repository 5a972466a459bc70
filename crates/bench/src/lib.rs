//! Shared harness for the paper-reproduction binaries.
//!
//! Each binary regenerates one table or figure of the HTVM paper:
//!
//! | target | paper artifact |
//! |---|---|
//! | `cargo run -p htvm-bench --bin fig4`   | Fig. 4 — tiling-heuristic latency vs L1 budget |
//! | `cargo run -p htvm-bench --bin fig5`   | Fig. 5 — single-layer overhead characterization |
//! | `cargo run -p htvm-bench --bin table1` | Table I — MLPerf Tiny latency + binary size per config |
//! | `cargo run -p htvm-bench --bin table2` | Table II — cross-platform comparison |
//!
//! Pass `--json` to any binary for machine-readable output.
//!
//! Beyond the paper artifacts, `--bin report` sweeps the zoo into a
//! versioned machine-readable `BENCH.json` and `--bin bench-diff`
//! compares two such reports — the CI benchmark-regression gate (see
//! [`report`] and `docs/OBSERVABILITY.md`). `--bin kernels` times the
//! `htvm-kernels` fast bodies and `_ref` oracles over paper-representative
//! shapes into `KERNELS_BENCH.json` (see [`kernels_bench`] and
//! `docs/KERNELS.md`); `bench-diff --kernels BASE NEW` prints its deltas
//! warn-only. `--bin serve` soaks the `htvm-serve` compile service over
//! a repeat-heavy zoo mix into `SERVE_BENCH.json` (see [`serve_bench`]
//! and `docs/SERVING.md`); `bench-diff --serve BASE NEW` prints its
//! deltas warn-only too.

#![forbid(unsafe_code)]

pub mod kernels_bench;
pub mod report;
pub mod serve_bench;

use htvm::{Artifact, CompileError, Compiler, DeployConfig, Machine, RunReport};
use htvm_models::{Model, QuantScheme};

/// The quantization recipe each Table I configuration deploys, mirroring
/// the paper: plain TVM and the digital configuration use the 8-bit
/// models, the analog configuration the ternary models, and the combined
/// configuration the mixed recipe.
#[must_use]
pub fn scheme_for(deploy: DeployConfig) -> QuantScheme {
    match deploy {
        DeployConfig::CpuTvm | DeployConfig::Digital => QuantScheme::Int8,
        DeployConfig::Analog => QuantScheme::Ternary,
        DeployConfig::Both => QuantScheme::Mixed,
    }
}

/// Human-readable label for a configuration (Table I column headers).
#[must_use]
pub fn config_label(deploy: DeployConfig) -> &'static str {
    match deploy {
        DeployConfig::CpuTvm => "CPU (TVM)",
        DeployConfig::Digital => "CPU + Dig.",
        DeployConfig::Analog => "CPU + Ana.",
        DeployConfig::Both => "CPU + Both",
    }
}

/// Compiles and runs one model under one deployment configuration on the
/// default DIANA platform, returning the artifact and the run report.
///
/// # Errors
///
/// Propagates compile errors — notably the out-of-memory failure that
/// plain TVM hits on MobileNet.
///
/// # Panics
///
/// Panics if the compiled program rejects the model's own input (an
/// internal invariant).
pub fn deploy_and_run(
    model: &Model,
    deploy: DeployConfig,
) -> Result<(Artifact, RunReport), CompileError> {
    let compiler = Compiler::new().with_deploy(deploy);
    let artifact = compiler.compile(&model.graph)?;
    let machine = Machine::new(*compiler.platform());
    let report = machine
        .run(&artifact.program, &[model.input(7)])
        .expect("compiled program accepts the model input");
    Ok((artifact, report))
}

/// Milliseconds at the default 260 MHz clock.
#[must_use]
pub fn ms(cycles: u64) -> f64 {
    htvm::DianaConfig::default().cycles_to_ms(cycles)
}

/// `true` when the CLI asked for JSON output.
#[must_use]
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_mapping_matches_paper() {
        assert_eq!(scheme_for(DeployConfig::CpuTvm), QuantScheme::Int8);
        assert_eq!(scheme_for(DeployConfig::Digital), QuantScheme::Int8);
        assert_eq!(scheme_for(DeployConfig::Analog), QuantScheme::Ternary);
        assert_eq!(scheme_for(DeployConfig::Both), QuantScheme::Mixed);
    }

    #[test]
    fn deploy_and_run_smoke() {
        let model = htvm_models::toyadmos_dae(QuantScheme::Int8);
        let (artifact, report) = deploy_and_run(&model, DeployConfig::Digital).unwrap();
        assert!(artifact.offload_fraction() > 0.9);
        assert!(report.total_cycles() > 0);
    }
}
