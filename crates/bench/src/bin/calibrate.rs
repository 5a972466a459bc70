//! Derives the committed calibration artifact (`CALIBRATION.json`) from
//! the platform description (`DianaConfig::default()`).
//!
//! ```text
//! cargo run -p htvm-bench --bin calibrate [-- --out CALIBRATION.json] [--check] [--quiet]
//! ```
//!
//! The derivation reads no input
//! ([`htvm_bench::calibration::derive`]), so `--check` re-derives the
//! artifact and exits non-zero when the committed file differs — the CI
//! `calibration` job's staleness gate. Without `--check` the derived
//! artifact is written to `--out`.

use htvm_bench::calibration::derive;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut out = String::from("CALIBRATION.json");
    let mut check = false;
    let mut quiet = false;
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
            "--check" => check = true,
            "--quiet" => quiet = true,
            other => {
                eprintln!(
                    "usage: calibrate [--out PATH] [--check] [--quiet] (unknown arg {other:?})"
                );
                return ExitCode::from(2);
            }
        }
    }

    let report = derive();
    let json = serde_json::to_string_pretty(&report).expect("calibration serializes") + "\n";

    if !quiet {
        println!("calibration v{}", report.schema_version);
        for line in &report.fit {
            println!("  fit: {line}");
        }
    }

    if check {
        let committed = match std::fs::read_to_string(&out) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("error: cannot read committed {out}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if committed != json {
            eprintln!(
                "error: {out} is stale: re-deriving from the platform description \
                 produced a different artifact; regenerate with \
                 `cargo run -p htvm-bench --bin calibrate` and commit the result"
            );
            return ExitCode::FAILURE;
        }
        if !quiet {
            println!("{out} matches its derivation");
        }
        return ExitCode::SUCCESS;
    }

    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    if !quiet {
        println!("wrote {out}");
    }
    ExitCode::SUCCESS
}
