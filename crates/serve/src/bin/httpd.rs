//! The compile-service daemon: `CompileService` behind the HTTP/1.1
//! front door.
//!
//! ```text
//! cargo run --release -p htvm-serve --bin httpd -- \
//!     [--addr HOST:PORT] [--workers N] [--cache-mb MB] \
//!     [--queue-budget COST] [--tenant-quota N] [--policy fifo|cost] \
//!     [--max-body-mb MB] [--max-connections N] [--persist-dir PATH]
//! ```
//!
//! Routes: `POST /v1/compile`, `POST /v1/batch`, `POST /v1/import`,
//! `GET /v1/stats`, `GET /v1/healthz`. Defaults: `127.0.0.1:7440`,
//! cost-aware scheduling, 64 MiB artifact cache, unlimited
//! admission budget and tenant quota, no persistence. With `--persist-dir`, every freshly compiled artifact
//! spills to `PATH/v1/diana/<key_id>.json` and is re-admitted at
//! the next boot, so restarts are warm. Exit codes: 0 — clean shutdown
//! (never reached; the daemon runs until killed); 2 — usage or bind
//! error.

use htvm_serve::http::{HttpConfig, HttpServer};
use htvm_serve::{CompileService, SchedPolicy, ServeConfig};
use htvm_soc::DEFAULT_PLATFORM;
use std::process::ExitCode;
use std::sync::Arc;

fn parse<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<T>()
        .map_err(|_| format!("{flag} needs a number, got {v:?}"))
}

/// A `MB` flag value as bytes; a count that overflows `usize` is a
/// usage error, not a wrapped (release) or panicking (debug) shift.
fn parse_mib(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<usize, String> {
    parse::<usize>(args, flag)?
        .checked_mul(1 << 20)
        .ok_or_else(|| format!("{flag} is too large to express in bytes"))
}

fn run() -> Result<(), String> {
    let mut addr = String::from("127.0.0.1:7440");
    let mut serve = ServeConfig::default();
    let mut http = HttpConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().ok_or("--addr needs HOST:PORT")?,
            "--workers" => serve.workers = parse(&mut args, "--workers")?,
            "--cache-mb" => serve.cache_budget_bytes = parse_mib(&mut args, "--cache-mb")?,
            "--queue-budget" => serve.queue_cost_budget = parse(&mut args, "--queue-budget")?,
            "--tenant-quota" => serve.tenant_quota = parse(&mut args, "--tenant-quota")?,
            "--policy" => {
                serve.policy = match args.next().as_deref() {
                    Some("fifo") => SchedPolicy::Fifo,
                    Some("cost") | Some("cost-aware") => SchedPolicy::CostAware,
                    other => return Err(format!("--policy needs fifo|cost, got {other:?}")),
                }
            }
            "--max-body-mb" => http.max_body_bytes = parse_mib(&mut args, "--max-body-mb")?,
            "--max-connections" => http.max_connections = parse(&mut args, "--max-connections")?,
            "--persist-dir" => {
                serve.persist_root = Some(args.next().ok_or("--persist-dir needs a path")?.into());
            }
            other => {
                return Err(format!(
                    "unknown flag {other:?}; usage: httpd [--addr HOST:PORT] [--workers N] \
                     [--cache-mb MB] [--queue-budget COST] [--tenant-quota N] \
                     [--policy fifo|cost] [--max-body-mb MB] [--max-connections N] \
                     [--persist-dir PATH]"
                ))
            }
        }
    }
    // A zero quota sheds every job and zero connections refuse every
    // peer; `--cache-mb 0` and `--queue-budget 0` stay valid settings.
    for (flag, value) in [
        ("--workers", serve.workers),
        ("--tenant-quota", serve.tenant_quota),
        ("--max-connections", http.max_connections),
    ] {
        if value == 0 {
            return Err(format!("{flag} must be positive"));
        }
    }

    let policy = serve.policy;
    let persist = serve.persist_root.clone();
    let service = Arc::new(CompileService::new(serve));
    let boot = service.stats();
    let server =
        HttpServer::spawn(service, &addr, http).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    println!("htvm-serve httpd listening on http://{}", server.addr());
    println!(
        "  policy {policy:?}; POST /v1/compile, POST /v1/batch, POST /v1/import, \
         GET /v1/stats, GET /v1/healthz"
    );
    println!("  platform: {DEFAULT_PLATFORM}");
    if let Some(dir) = persist {
        println!(
            "  persistence: {} (re-admitted {} entries, skipped {})",
            dir.display(),
            boot.persist_load_ok,
            boot.persist_load_skipped
        );
    }
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
