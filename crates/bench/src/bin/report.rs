//! Emits the machine-readable benchmark report (`BENCH.json`).
//!
//! ```text
//! cargo run --release -p htvm-bench --bin report [-- --out PATH] [--quiet]
//!     [--from-file MODEL.htf [--deploy cpu_tvm|digital|analog|both]]
//! ```
//!
//! Sweeps every zoo model under every deployment configuration, collecting
//! per-phase compile times, tile-cache behaviour and per-layer simulated
//! cycle/energy breakdowns into one versioned JSON document (schema in
//! `docs/OBSERVABILITY.md`). Every accelerator-bearing configuration is
//! also compiled under the calibrated tiling objective into `*_cal` rows,
//! its cost models derived from the platform (see `docs/CALIBRATION.md`).
//! CI runs this on every PR and diffs the result against
//! `BENCH_BASELINE.json` with `--bin bench-diff`.
//!
//! With `--from-file`, the sweep is replaced by a single entry: the file
//! is read as an HTF container (`docs/FRONTEND.md`), imported through the
//! vendored front-end, and measured under one deployment configuration
//! (`--deploy`, default `both`; it is a usage error without
//! `--from-file`). A rejected file exits 2 with the typed
//! [`ReportError`](htvm_bench::report::ReportError) printed — never a
//! panic.

use htvm::DeployConfig;
use htvm_bench::report::{collect, collect_file, BenchReport, BENCH_SCHEMA_VERSION};
use std::process::ExitCode;

const USAGE: &str = "usage: report [--out PATH] [--quiet] [--from-file MODEL.htf [--deploy ID]]";

fn main() -> ExitCode {
    let mut out = String::from("BENCH.json");
    let mut quiet = false;
    let mut from_file: Option<String> = None;
    let mut deploy: Option<DeployConfig> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("error: --out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--quiet" => quiet = true,
            "--from-file" => match args.next() {
                Some(path) => from_file = Some(path),
                None => {
                    eprintln!("error: --from-file needs a model path");
                    return ExitCode::from(2);
                }
            },
            "--deploy" => match args.next().map(|id| id.parse()) {
                Some(Ok(parsed)) => deploy = Some(parsed),
                Some(Err(e)) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: --deploy needs a configuration id");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("{USAGE} (unknown arg {other:?})");
                return ExitCode::from(2);
            }
        }
    }

    let collected = match (&from_file, deploy) {
        (Some(path), deploy) => {
            collect_file(path, deploy.unwrap_or(DeployConfig::Both)).map(|entry| BenchReport {
                schema_version: BENCH_SCHEMA_VERSION,
                entries: vec![entry],
            })
        }
        (None, Some(_)) => {
            eprintln!("{USAGE} (--deploy selects the configuration of a --from-file model)");
            return ExitCode::from(2);
        }
        (None, None) => collect(),
    };
    let report = match collected {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if !quiet {
        println!(
            "{:<14} {:<8} {:>7} {:>12} {:>10} {:>11} {:>6}",
            "model", "deploy", "status", "cycles", "energy_uJ", "compile_us", "hits"
        );
        for e in &report.entries {
            let (cycles, energy) = e
                .run
                .as_ref()
                .map_or((String::from("-"), String::from("-")), |r| {
                    (r.total_cycles.to_string(), format!("{:.2}", r.energy_uj))
                });
            println!(
                "{:<14} {:<8} {:>7} {:>12} {:>10} {:>11} {:>6}",
                e.model,
                e.deploy,
                e.status,
                cycles,
                energy,
                e.compile.wall_us,
                e.compile.cache_hits
            );
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    if !quiet {
        println!(
            "wrote {out} (schema v{}, {} entries)",
            report.schema_version,
            report.entries.len()
        );
    }
    ExitCode::SUCCESS
}
