//! The serving soak binary: runs the repeat-heavy zoo mix through the
//! `htvm-serve` compile service and through a no-reuse baseline (every
//! job compiled and serialized from scratch, outside any service),
//! runs the skewed FIFO-vs-cost-aware scheduling comparison, and writes
//! `SERVE_BENCH.json`.
//!
//! ```text
//! cargo run --release -p htvm-bench --bin serve -- \
//!     [--jobs N] [--workers N] [--hot-jobs N] [--out PATH] \
//!     [--min-speedup X] [--front-door] [--clients N] \
//!     [--instances N [--restart] [--max-restart-misses N] [--fleet-dir PATH]]
//! ```
//!
//! `--front-door` additionally drives the cached mix through the
//! in-process HTTP/1.1 front door with `--clients` keep-alive
//! connections and records client-observed latency in the report.
//!
//! `--instances N` additionally runs the simulated fleet soak: N
//! sharded service instances persisting under `--fleet-dir` (default
//! `target/fleet-cache`, wiped first), a cold pass over every distinct
//! key, then — with `--restart` — a kill + reboot of the busiest
//! instance and a warm replay. The replay's recompile count on the
//! restarted instance must stay within `--max-restart-misses` (default
//! 0: a warm start recompiles nothing), and every replayed artifact
//! must be byte-identical; either violation fails the soak.
//!
//! Exit codes: 0 — soak completed and every gate held; 1 — cache
//! speedup below `--min-speedup` (default 5.0; pass 0 to disable), or
//! the fleet warm-start gate failed; 2 — usage error (including a
//! NaN/negative/non-finite floor).

use htvm_bench::serve_bench::{
    collect, collect_fleet, run_front_door, validate_min_speedup, ServeBenchConfig,
};
use std::process::ExitCode;

fn parse<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<T>()
        .map_err(|_| format!("{flag} needs a number, got {v:?}"))
}

fn run() -> Result<ExitCode, String> {
    let mut config = ServeBenchConfig::default();
    let mut out = String::from("SERVE_BENCH.json");
    let mut min_speedup = 5.0_f64;
    let mut front_door = false;
    let mut clients = 4usize;
    let mut instances = 0usize;
    let mut restart = false;
    let mut max_restart_misses = 0u64;
    let mut fleet_dir = String::from("target/fleet-cache");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => config.jobs = parse(&mut args, "--jobs")?,
            "--workers" => config.workers = parse(&mut args, "--workers")?,
            "--hot-jobs" => config.skewed_hot_jobs = parse(&mut args, "--hot-jobs")?,
            "--out" => out = args.next().ok_or("--out needs a path")?,
            "--min-speedup" => {
                min_speedup = validate_min_speedup(parse(&mut args, "--min-speedup")?)?;
            }
            "--front-door" => front_door = true,
            "--clients" => clients = parse(&mut args, "--clients")?,
            "--instances" => instances = parse(&mut args, "--instances")?,
            "--restart" => restart = true,
            "--max-restart-misses" => {
                max_restart_misses = parse(&mut args, "--max-restart-misses")?;
            }
            "--fleet-dir" => fleet_dir = args.next().ok_or("--fleet-dir needs a path")?,
            other => {
                return Err(format!(
                    "unknown flag {other:?}; usage: serve [--jobs N] [--workers N] [--hot-jobs N] \
                     [--out PATH] [--min-speedup X] [--front-door] [--clients N] \
                     [--instances N [--restart] [--max-restart-misses N] [--fleet-dir PATH]]"
                ))
            }
        }
    }
    if config.jobs == 0 || config.workers == 0 {
        return Err(String::from("--jobs and --workers must be positive"));
    }
    if front_door && clients == 0 {
        return Err(String::from("--clients must be positive"));
    }
    if (restart || max_restart_misses > 0) && instances == 0 {
        return Err(String::from(
            "--restart and --max-restart-misses need --instances N",
        ));
    }

    let mut report = collect(config);
    if front_door {
        let (stats, _) = run_front_door(config, clients)?;
        report.front_door = Some(stats);
    }
    if instances > 0 {
        // A stale directory would turn the cold pass warm and hide a
        // broken spill path, so the fleet root is wiped first.
        let root = std::path::Path::new(&fleet_dir);
        if root.exists() {
            std::fs::remove_dir_all(root)
                .map_err(|e| format!("cannot clear --fleet-dir {fleet_dir}: {e}"))?;
        }
        report.fleet = Some(collect_fleet(instances, config.workers, restart, root));
    }
    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("serialize: {e:?}"))?;
    std::fs::write(&out, &json).map_err(|e| format!("cannot write {out}: {e}"))?;

    println!(
        "serve soak: {} jobs ({} distinct keys) on {} workers",
        report.jobs, report.distinct_keys, report.workers
    );
    println!(
        "  cached:   {:8.1} jobs/s  p50 {:6} us  p99 {:6} us  (wall {:.1} ms)",
        report.cached.throughput_jobs_per_s,
        report.cached.p50_us,
        report.cached.p99_us,
        report.cached.wall_ms
    );
    println!(
        "  uncached: {:8.1} jobs/s  p50 {:6} us  p99 {:6} us  (wall {:.1} ms)",
        report.uncached.throughput_jobs_per_s,
        report.uncached.p50_us,
        report.uncached.p99_us,
        report.uncached.wall_ms
    );
    println!(
        "  speedup {:.1}x — artifact cache {} hits / {} misses / {} evictions; tile cache {} hits; {} coalesced",
        report.speedup,
        report.stats.artifact_cache.hits,
        report.stats.artifact_cache.misses,
        report.stats.artifact_cache.evictions,
        report.stats.tile_cache.hits,
        report.stats.coalesced,
    );
    if let Some(skewed) = &report.skewed {
        println!(
            "  skewed mix ({} jobs, {} cold): queue p99 fifo {} us vs cost-aware {} us ({:.1}x)",
            skewed.jobs,
            skewed.cold_jobs,
            skewed.fifo.queue_p99_us,
            skewed.cost_aware.queue_p99_us,
            skewed.queue_p99_ratio
        );
    }
    if let Some(fd) = &report.front_door {
        println!(
            "  front door ({clients} clients): {:8.1} jobs/s  p50 {:6} us  p99 {:6} us  (wall {:.1} ms)",
            fd.throughput_jobs_per_s, fd.p50_us, fd.p99_us, fd.wall_ms
        );
    }
    if let Some(fleet) = &report.fleet {
        println!(
            "  fleet ({} instances, {} keys): instance {} owned {} keys, {}; \
             re-admitted {} (skipped {}), warm replay recompiled {}, byte-identical: {}",
            fleet.instances,
            fleet.jobs,
            fleet.restarted_instance,
            fleet.restarted_instance_keys,
            if fleet.restarted {
                "killed + rebooted"
            } else {
                "left running"
            },
            fleet.restart_load_ok,
            fleet.restart_load_skipped,
            fleet.warm_restart_misses,
            fleet.byte_identical,
        );
    }
    println!("  wrote {out}");

    if min_speedup > 0.0 && report.speedup < min_speedup {
        eprintln!(
            "serve soak: FAIL — cache speedup {:.1}x below the {min_speedup:.1}x floor",
            report.speedup
        );
        return Ok(ExitCode::FAILURE);
    }
    if let Some(fleet) = &report.fleet {
        if fleet.warm_restart_misses > max_restart_misses {
            eprintln!(
                "serve soak: FAIL — warm replay recompiled {} keys, above the \
                 --max-restart-misses bound of {max_restart_misses}",
                fleet.warm_restart_misses
            );
            return Ok(ExitCode::FAILURE);
        }
        if !fleet.byte_identical {
            eprintln!("serve soak: FAIL — a replayed artifact was not byte-identical");
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
