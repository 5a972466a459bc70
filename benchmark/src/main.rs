//! The repo benchmark: model file → artifact → simulated inference →
//! served job. See `README.md` for every metric's definition.
//!
//! ```text
//! htvm-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file>]
//! htvm-benchmark --smoke
//! htvm-benchmark compare <A> <B>
//! ```

#![forbid(unsafe_code)]

mod compare;
mod env;
mod matrix;
mod metrics;
mod report;
mod scratch;
mod spans;
mod stats;
mod workloads;

use env::Env;
use std::io::Write;
use std::process::ExitCode;
use workloads::serve_cold::ServeCold;
use workloads::serve_hot_http::ServeHotHttp;
use workloads::zoo_deploy::ZooDeploy;
use workloads::zoo_infer::ZooInfer;
use workloads::{Budget, Outcome, Tally};

pub const WORKLOADS: [&str; 4] = ["zoo_deploy", "zoo_infer", "serve_cold", "serve_hot_http"];

const USAGE: &str = "usage:
  htvm-benchmark --workload <zoo_deploy|zoo_infer|serve_cold|serve_hot_http>
                 --seed <n> --seconds <s> --trace <0|1> [--out <file>]
  htvm-benchmark --smoke            one round of every workload, traced, all checks on
  htvm-benchmark compare <A> <B>    two files of --out records -> better/worse/same/unresolved";

/// A run with a failed operation is not a measurement: it exits 1.
pub fn exit_code(tally: &Tally) -> u8 {
    u8::from(tally.failed > 0)
}

fn run_workload(name: &str, seed: u64, budget: Budget, traced: bool) -> Option<Outcome> {
    Some(match name {
        "zoo_deploy" => workloads::run::<ZooDeploy>(seed, budget, traced),
        "zoo_infer" => workloads::run::<ZooInfer>(seed, budget, traced),
        "serve_cold" => workloads::run::<ServeCold>(seed, budget, traced),
        "serve_hot_http" => workloads::run::<ServeHotHttp>(seed, budget, traced),
        _ => return None,
    })
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seconds: 10.0,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => parsed.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 120.0) {
        return Err(format!("--seconds {} is outside (0, 120]", parsed.seconds));
    }
    Ok(parsed)
}

/// One measured run: the report, the trace file, the `--out` record
/// and, last, the result line.
fn measure(args: &Args, workload: &str, env: &mut Env) -> Result<u8, String> {
    let budget = Budget {
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let mut outcome = run_workload(workload, args.seed, budget, args.trace)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    env.finish();
    let values = report::reported(&mut outcome);
    report::print_report(&outcome, &values, env, args.seed, args.seconds);
    if let Some(traced) = &outcome.traced {
        let path = scratch::out_dir().join(format!("trace-{workload}-seed{}.json", args.seed));
        std::fs::write(&path, &traced.chrome_trace)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("chrome trace: {}", path.display());
    }
    if let Some(out) = &args.out {
        let line = report::record(&outcome, &values, env, args.seed, args.seconds);
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)
            .and_then(|mut file| writeln!(file, "{line}"))
            .map_err(|e| format!("{out}: {e}"))?;
    }
    println!("{}", report::result_line(&outcome, &values));
    Ok(exit_code(&outcome.tally))
}

fn real_main() -> Result<u8, String> {
    let mut env = Env::capture();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = raw.as_slice() else {
            return Err("compare takes two files".into());
        };
        let read = |path: &String| {
            std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|text| compare::parse_run_set(&text).map_err(|e| format!("{path}: {e}")))
        };
        let worse = compare::compare(&read(a)?, &read(b)?);
        println!("{worse} row(s) worse");
        return Ok(u8::from(worse > 0));
    }
    let mut args = parse(&raw)?;
    match (args.workload.clone(), args.smoke) {
        (Some(workload), _) => measure(&args, &workload, &mut env),
        (None, true) => {
            // All four in one process: the checks are what matters
            // here, `peak_rss_mib` and `setup_s` are not per workload.
            args.trace = true;
            let mut code = 0;
            for workload in WORKLOADS {
                code |= measure(&args, workload, &mut env)?;
            }
            Ok(code)
        }
        (None, false) => Err("no --workload given".into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => ExitCode::from(code),
        Err(why) => {
            eprintln!("htvm-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&strings(&[
            "--workload",
            "zoo_infer",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("zoo_infer"));
        assert_eq!((args.seed, args.seconds, args.trace), (42, 10.0, true));
        assert!(!args.smoke && args.out.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse(&strings(&["--seed"])).is_err());
        assert!(parse(&strings(&["--seed", "x"])).is_err());
        assert!(parse(&strings(&["--seconds", "0"])).is_err());
        assert!(parse(&strings(&["--frobnicate", "1"])).is_err());
        assert!(run_workload(
            "nope",
            0,
            Budget {
                seconds: 1.0,
                smoke: true
            },
            false
        )
        .is_none());
    }

    #[test]
    fn failed_operations_turn_into_a_non_zero_exit() {
        let mut tally = Tally::default();
        tally.check(true, String::new);
        assert_eq!(exit_code(&tally), 0);
        tally.check(false, || "broken".into());
        assert_eq!(exit_code(&tally), 1);
    }
}
