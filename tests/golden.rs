//! Golden regression tests: exact cycle counts and binary sizes for every
//! (network, configuration) pair at the committed calibration.
//!
//! They are *expected* to change when someone deliberately retunes
//! `DianaConfig::default()` or `BinarySizeModel::default()`, and then
//! `crates/bench/tests/experiments_doc.rs` names every EXPERIMENTS.md
//! cell to update with them — but any unintended drift in the solver,
//! partitioner, memory planner or cost models fails here first.

use htvm::{Compiler, DeployConfig, Machine};
use htvm_models::{all_models, QuantScheme};

fn scheme_for(deploy: DeployConfig) -> QuantScheme {
    match deploy {
        DeployConfig::CpuTvm | DeployConfig::Digital => QuantScheme::Int8,
        DeployConfig::Analog => QuantScheme::Ternary,
        DeployConfig::Both => QuantScheme::Mixed,
    }
}

/// `Some((total_cycles, binary_bytes))`, or `None` for an expected OoM.
type Expectation = Option<(u64, usize)>;

const GOLDEN: &[(&str, DeployConfig, Expectation)] = &[
    ("ds_cnn", DeployConfig::CpuTvm, Some((9916904, 58488))),
    ("mobilenet_v1", DeployConfig::CpuTvm, None),
    ("resnet8", DeployConfig::CpuTvm, Some((35335199, 119784))),
    (
        "toyadmos_dae",
        DeployConfig::CpuTvm,
        Some((1198460, 303120)),
    ),
    ("ds_cnn", DeployConfig::Digital, Some((429914, 50832))),
    (
        "mobilenet_v1",
        DeployConfig::Digital,
        Some((865141, 256648)),
    ),
    ("resnet8", DeployConfig::Digital, Some((283570, 107328))),
    ("toyadmos_dae", DeployConfig::Digital, Some((68589, 293264))),
    ("ds_cnn", DeployConfig::Analog, Some((3343968, 86992))),
    (
        "mobilenet_v1",
        DeployConfig::Analog,
        Some((9419116, 301680)),
    ),
    ("resnet8", DeployConfig::Analog, Some((389002, 120080))),
    ("toyadmos_dae", DeployConfig::Analog, Some((283664, 266640))),
    ("ds_cnn", DeployConfig::Both, Some((407586, 67216))),
    ("mobilenet_v1", DeployConfig::Both, Some((918111, 265224))),
    ("resnet8", DeployConfig::Both, Some((384002, 104768))),
    ("toyadmos_dae", DeployConfig::Both, Some((181493, 315792))),
    // The attention workload: the only exact-cycle pin on the matmul
    // `(k, c, ox)` weight-residency key of the tile walk.
    (
        "tiny_transformer",
        DeployConfig::CpuTvm,
        Some((47600919, 180720)),
    ),
    (
        "tiny_transformer",
        DeployConfig::Digital,
        Some((9007051, 188664)),
    ),
    (
        "tiny_transformer",
        DeployConfig::Analog,
        Some((49165445, 285768)),
    ),
    (
        "tiny_transformer",
        DeployConfig::Both,
        Some((9007051, 188664)),
    ),
];

#[test]
fn cycle_counts_and_sizes_match_committed_calibration() {
    for &(name, deploy, expected) in GOLDEN {
        let model = all_models(scheme_for(deploy))
            .into_iter()
            .find(|m| m.name == name)
            .expect("model exists");
        let compiler = Compiler::new().with_deploy(deploy);
        match (compiler.compile(&model.graph), expected) {
            (Ok(artifact), Some((cycles, bytes))) => {
                let machine = Machine::new(*compiler.platform());
                let report = machine
                    .run(&artifact.program, &[model.input(7)])
                    .expect("runs");
                assert_eq!(
                    report.total_cycles(),
                    cycles,
                    "{name}/{deploy:?}: cycles drifted"
                );
                assert_eq!(
                    artifact.binary.total(),
                    bytes,
                    "{name}/{deploy:?}: binary size drifted"
                );
            }
            (Err(e), None) => {
                assert!(
                    matches!(
                        e,
                        htvm::CompileError::Lower(htvm::LowerError::OutOfMemory(_))
                    ),
                    "{name}/{deploy:?}: expected OoM, got {e}"
                );
            }
            (Ok(_), None) => panic!("{name}/{deploy:?}: expected OoM but compiled"),
            (Err(e), Some(_)) => panic!("{name}/{deploy:?}: unexpected failure {e}"),
        }
    }
}
