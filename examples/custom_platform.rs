//! Porting HTVM to a new platform (paper §III-C): "the user has to
//! provide to HTVM only three components: (1) the hardware specifications
//! ... and operations supported by the dedicated hardware, (2) the
//! heuristics to maximize the accelerator utilization and (3) the
//! platform-specific instructions".
//!
//! This example ports the flow to a hypothetical "MEGA" SoC — a scaled-up
//! DIANA with a 32×32 digital PE array, 1 MB of shared L1 and a 256 kB
//! weight store — by supplying exactly those three pieces:
//!
//! 1. hardware specs → a custom [`DianaConfig`],
//! 2. heuristics     → a custom Eq. 1 [`TilingObjective`] aligned to the
//!    32-lane array,
//! 3. instructions   → the cost constants inside the config (the cost
//!    model plays the role of the dedicated kernel library).
//!
//! ```sh
//! cargo run --release -p htvm --example custom_platform
//! ```

use htvm::{Compiler, DeployConfig, DianaConfig, Machine, TilingObjective};
use htvm_dory::Heuristic;
use htvm_models::{resnet8, QuantScheme};

#[allow(clippy::field_reassign_with_default)]
fn mega_soc() -> DianaConfig {
    let mut cfg = DianaConfig::default();
    // (1) hardware specifications.
    cfg.l1_act_bytes = 1024 * 1024;
    cfg.digital.pe_rows = 32;
    cfg.digital.pe_cols = 32;
    cfg.digital.weight_bytes = 256 * 1024;
    // (3) platform-specific instruction costs: a wider array takes a bit
    // longer to configure per tile.
    cfg.digital.tile_overhead = 450;
    cfg
}

/// (2) the utilization heuristics, re-derived for 32 PE lanes.
fn mega_objective() -> TilingObjective {
    TilingObjective {
        alpha: 1.0,
        terms: vec![
            (Heuristic::PeAlignC { modulo: 32 }, 2.0),
            (Heuristic::PeAlignIx { modulo: 32 }, 2.0),
            (Heuristic::DmaMaxIy, 0.4),
        ],
        cost_model: None,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = resnet8(QuantScheme::Int8);

    println!("porting check: ResNet-8, digital-only deployment\n");
    let mut rows = Vec::new();
    for (name, cfg, objective) in [
        (
            "DIANA (16x16)",
            DianaConfig::default(),
            TilingObjective::diana_digital(),
        ),
        ("MEGA (32x32)", mega_soc(), mega_objective()),
    ] {
        let compiler = Compiler::new()
            .with_platform(cfg)
            .with_objectives(objective, TilingObjective::diana_analog())
            .with_deploy(DeployConfig::Digital);
        let artifact = compiler.compile(&model.graph)?;
        let machine = Machine::new(cfg);
        let report = machine.run(&artifact.program, &[model.input(1)])?;
        let ms = cfg.cycles_to_ms(report.total_cycles());
        println!(
            "{:<16} {:>10} cycles = {:.3} ms   (digital layers: {})",
            name,
            report.total_cycles(),
            ms,
            artifact.steps_on(htvm::EngineKind::Digital)
        );
        rows.push(report.total_cycles());
    }
    println!(
        "\nMEGA speedup over DIANA: {:.2}x — the same compiler, retargeted by\n\
         swapping the three §III-C components (specs, heuristics, costs).",
        rows[0] as f64 / rows[1] as f64
    );
    assert!(rows[1] < rows[0], "the 4x bigger array must win");
    Ok(())
}
