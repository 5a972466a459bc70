//! Regenerates **Table I** of the HTVM paper: latency and binary size of
//! the four MLPerf™ Tiny benchmarks on the (simulated) DIANA SoC in the
//! four deployment configurations, with both "Peak" (accelerator trigger →
//! completion) and "HTVM" (full kernel) latencies.
//!
//! Expected shape (paper values in `EXPERIMENTS.md`): plain TVM is orders
//! of magnitude slower and runs out of memory on MobileNet; the digital
//! configuration wins on depthwise-heavy networks; the combined
//! configuration wins overall on DS-CNN and ResNet (~120× over TVM).

use htvm::{CompileError, DeployConfig};
use htvm_bench::{config_label, deploy_and_run, json_mode, ms, scheme_for};
use htvm_models::all_models;

struct Cell {
    peak_ms: Option<f64>,
    full_ms: Option<f64>,
    size_kb: Option<usize>,
    oom: bool,
}

fn measure(deploy: DeployConfig, name: &str) -> Result<Cell, String> {
    let model = all_models(scheme_for(deploy))
        .into_iter()
        .find(|m| m.name == name)
        .ok_or_else(|| format!("no zoo model named {name:?}"))?;
    match deploy_and_run(&model, deploy) {
        Ok((artifact, report)) => Ok(Cell {
            peak_ms: Some(ms(report.peak_cycles())),
            full_ms: Some(ms(report.total_cycles())),
            size_kb: Some(artifact.binary.total_kb()),
            oom: false,
        }),
        Err(CompileError::Lower(htvm::LowerError::OutOfMemory(_))) => {
            // The paper still reports the (link-time) binary size for the
            // MobileNet deployment that fails at runtime allocation;
            // recompile against an oversized L2 to obtain it.
            let big = htvm::DianaConfig {
                l2_bytes: 64 * 1024 * 1024,
                ..htvm::DianaConfig::default()
            };
            let size_kb = htvm::Compiler::new()
                .with_platform(big)
                .with_deploy(deploy)
                .compile(&model.graph)
                .ok()
                .map(|a| a.binary.total_kb());
            Ok(Cell {
                peak_ms: None,
                full_ms: None,
                size_kb,
                oom: true,
            })
        }
        Err(e) => Err(format!("unexpected compile failure for {name}: {e}")),
    }
}

fn fmt_ms(v: Option<f64>, oom: bool) -> String {
    match (v, oom) {
        (_, true) => "OoM*".into(),
        (Some(v), _) => format!("{v:.2}"),
        _ => "-".into(),
    }
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let configs = [
        DeployConfig::CpuTvm,
        DeployConfig::Digital,
        DeployConfig::Analog,
        DeployConfig::Both,
    ];
    let networks = ["ds_cnn", "mobilenet_v1", "resnet8", "toyadmos_dae"];
    let json = json_mode();
    if !json {
        println!("TABLE I: latency and binary size of MLPerf(tm) Tiny on the simulated DIANA SoC");
        println!("(columns: plain TVM; per-accelerator Peak / HTVM full-kernel; sizes in kB)\n");
    }
    let mut json_rows = Vec::new();
    for name in networks {
        let mut cells: Vec<(DeployConfig, Cell)> = Vec::new();
        for &d in &configs {
            cells.push((d, measure(d, name)?));
        }
        if json {
            for (d, c) in &cells {
                json_rows.push(serde_json::json!({
                    "network": name,
                    "config": config_label(*d),
                    "peak_ms": c.peak_ms,
                    "htvm_ms": c.full_ms,
                    "size_kb": c.size_kb,
                    "oom": c.oom,
                }));
            }
            continue;
        }
        println!("== {name} ==");
        print!("{:<12}", "");
        for (d, _) in &cells {
            print!("{:<24}", config_label(*d));
        }
        println!();
        print!("{:<12}", "Lat peak");
        for (d, c) in &cells {
            let s = if *d == DeployConfig::CpuTvm {
                fmt_ms(c.full_ms, c.oom) // no accelerator: peak == full
            } else {
                fmt_ms(c.peak_ms, c.oom)
            };
            print!("{s:<24}");
        }
        println!();
        print!("{:<12}", "Lat HTVM");
        for (_, c) in &cells {
            print!("{:<24}", fmt_ms(c.full_ms, c.oom));
        }
        println!();
        print!("{:<12}", "Size (kB)");
        for (_, c) in &cells {
            let s = match c.size_kb {
                Some(k) => format!("{k}"),
                None => "-".into(),
            };
            print!("{s:<24}");
        }
        println!("\n");
    }
    if json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
        return Ok(());
    }
    // Headline ratios the paper calls out.
    let tvm = measure(DeployConfig::CpuTvm, "resnet8")?;
    let dig = measure(DeployConfig::Digital, "resnet8")?;
    let both = measure(DeployConfig::Both, "resnet8")?;
    if let (Some(t), Some(d), Some(b)) = (tvm.full_ms, dig.full_ms, both.full_ms) {
        println!(
            "ResNet speedup over plain TVM: digital {:.0}x, mixed {:.0}x (paper: 112x / 120x)",
            t / d,
            t / b
        );
    }
    if let (Some(t), Some(d)) = (tvm.size_kb, dig.size_kb) {
        println!(
            "ResNet binary shrink vs TVM: {:.1}% (paper: 12.3%)",
            100.0 * (t as f64 - d as f64) / t as f64
        );
    }
    let ana = measure(DeployConfig::Analog, "ds_cnn")?;
    let mixed = measure(DeployConfig::Both, "ds_cnn")?;
    if let (Some(a), Some(m)) = (ana.full_ms, mixed.full_ms) {
        println!(
            "DS-CNN mixed vs analog-only: {:.1}x faster (paper: 8x)",
            a / m
        );
    }
    Ok(())
}
