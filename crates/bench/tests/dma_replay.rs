//! The descriptor program against its two neighbours, over every zoo
//! model × deployment configuration.
//!
//! * The compiler's record: every artifact's `Program::dma` is exactly
//!   `linearize_step` of each accelerator step for the artifact's own
//!   platform. The simulator never reads it (`machine.rs`,
//!   `forged_dma_table_cannot_change_a_run`), so the record is all there
//!   is to check.
//! * The closed-form `CostModel::predicted_cycles` against the simulated
//!   layer: the published prediction residual (`docs/CALIBRATION.md`,
//!   "Prediction residual").

use htvm::{Compiler, DmaTable, EngineKind, Machine, Step};
use htvm_bench::report::all_deploys;
use htvm_bench::scheme_for;
use htvm_models::all_models;
use htvm_soc::linearize_step;

#[test]
fn artifact_dma_table_is_each_step_linearized_across_the_zoo() {
    let mut accel_artifacts = 0;
    for deploy in all_deploys() {
        for model in all_models(scheme_for(deploy)) {
            let compiler = Compiler::new().with_deploy(deploy);
            let Ok(artifact) = compiler.compile(&model.graph) else {
                // The paper's expected plain-TVM MobileNet OOM.
                continue;
            };
            let platform = compiler.platform();
            let mut expected = DmaTable::new(platform);
            for (idx, step) in artifact.program.steps.iter().enumerate() {
                if let Step::Accel { engine, desc, .. } = step {
                    expected.insert(idx, linearize_step(platform, *engine, desc));
                }
            }
            accel_artifacts += usize::from(!expected.is_empty());
            assert_eq!(
                artifact.program.dma,
                expected,
                "{}/{}: the stored table must be every accelerator step \
                 linearized for the artifact's own platform",
                model.name,
                deploy.id()
            );
        }
    }
    assert!(
        accel_artifacts >= 6,
        "expected the zoo sweep to cover many accelerator artifacts, got {accel_artifacts}"
    );
}

/// Nearest-rank percentile (ceiling convention) of an ascending slice.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let rank = (pct / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Publishes what the closed-form cost model gets wrong. For every
/// accelerator step the residual is `(predicted − simulated) / simulated`
/// with `simulated` the layer's cycle total minus its fused-pool cycles
/// (`StepDma::pool`), which the closed form does not model. The numbers
/// are the measurement, not a tolerance: whoever changes the closed form
/// or the tile walk re-measures.
#[test]
fn closed_form_prediction_residual_is_as_published() {
    // Layers beyond ±INLIER_PCT. Empty since the closed form counts DMA
    // transfers with the tile walk's own rules: ResNet-8's stride-2 1×1
    // shortcut convs used to be priced at 1 input chunk where the walk
    // issues 496 / 480.
    const OUTLIERS: [&str; 0] = [];
    const INLIER_PCT: f64 = 6.0;

    // Per engine: |residual| in percent of every layer, and the exact hits.
    let mut digital = (Vec::new(), 0usize);
    let mut analog = (Vec::new(), 0usize);
    let mut outliers = std::collections::BTreeSet::new();
    for deploy in all_deploys() {
        for model in all_models(scheme_for(deploy)) {
            let compiler = Compiler::new().with_deploy(deploy);
            let Ok(artifact) = compiler.compile(&model.graph) else {
                continue;
            };
            let platform = compiler.platform();
            let program = &artifact.program;
            let report = Machine::new(*platform)
                .run(program, &[model.input(7)])
                .expect("runs");
            for (idx, step) in program.steps.iter().enumerate() {
                let Step::Accel { engine, desc, .. } = step else {
                    continue;
                };
                let (residuals, exact) = match engine {
                    EngineKind::Digital => &mut digital,
                    _ => &mut analog,
                };
                let predicted = platform
                    .cost_model(*engine)
                    .predicted_cycles(&desc.geom, &desc.tile);
                let pool = linearize_step(platform, *engine, desc).pool;
                let simulated = report.layers[idx].cycles.total() - pool;
                let pct = (predicted as f64 - simulated as f64) / simulated as f64 * 100.0;
                residuals.push(pct.abs());
                *exact += usize::from(predicted == simulated);
                if pct.abs() > INLIER_PCT {
                    outliers.insert(format!("{}/{}", model.name, desc.name));
                }
            }
        }
    }

    let outliers: Vec<String> = outliers.into_iter().collect();
    assert_eq!(outliers, OUTLIERS, "layers beyond ±{INLIER_PCT} %");
    // (n, exact, median |residual| %, p90 |residual| %), outliers included.
    let summary = |(mut residuals, exact): (Vec<f64>, usize)| {
        residuals.sort_by(f64::total_cmp);
        (
            residuals.len(),
            exact,
            format!("{:.2}", percentile(&residuals, 50.0)),
            format!("{:.2}", percentile(&residuals, 90.0)),
        )
    };
    assert_eq!(summary(digital), (95, 45, "0.02".into(), "1.49".into()));
    assert_eq!(summary(analog), (78, 59, "0.00".into(), "0.63".into()));
}
