//! Emits the kernel microbenchmark report (`KERNELS_BENCH.json`).
//!
//! ```text
//! cargo run --release -p htvm-bench --bin kernels [-- --out PATH] [--quiet]
//! ```
//!
//! Times each `htvm-kernels` fast body and its `_ref` oracle over
//! paper-representative layer shapes and writes one JSON document. Compare two runs with
//! `bench-diff --kernels BASE NEW` (warn-only, like all wall-time
//! fields).

use htvm_bench::kernels_bench::collect;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut out = String::from("KERNELS_BENCH.json");
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
            "--quiet" => quiet = true,
            other => {
                eprintln!("usage: kernels [--out PATH] [--quiet] (unknown arg {other:?})");
                return ExitCode::from(2);
            }
        }
    }

    let report = collect();
    if !quiet {
        println!("{:<26} {:<10} {:>10}", "kernel", "tier", "wall_us");
        for k in &report.kernels {
            println!("{:<26} {:<10} {:>10.1}", k.name, k.tier, k.wall_us);
        }
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::from(2);
    }
    if !quiet {
        println!(
            "wrote {out} (schema v{}, {} kernel timings)",
            report.schema_version,
            report.kernels.len()
        );
    }
    ExitCode::SUCCESS
}
