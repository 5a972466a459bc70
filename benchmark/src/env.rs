//! The environment block printed with every run: what else could have
//! moved a number besides the code.

use serde_json::Value;
use std::path::Path;

/// Kernel knobs that change `zoo_infer` host time. The benchmark
/// measures the defaults, so it clears them and says so.
const KERNEL_ENV: [&str; 2] = ["HTVM_NUM_THREADS", "HTVM_KERNEL_TIER"];

#[derive(Debug, Clone)]
pub struct Env {
    pub nproc: usize,
    pub load_start: f64,
    pub load_end: f64,
    /// Hypervisor steal over the run, all CPUs, in clock ticks.
    pub steal_ticks: u64,
    pub commit: String,
    /// Which of the kernel knobs were set and have been cleared.
    pub cleared: Vec<&'static str>,
}

impl Env {
    /// Call first thing in `main`, before any thread exists.
    pub fn capture() -> Self {
        let cleared = KERNEL_ENV
            .into_iter()
            .filter(|name| std::env::var_os(name).is_some())
            .inspect(|name| std::env::remove_var(name))
            .collect();
        Env {
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            load_start: load_avg(),
            load_end: 0.0,
            steal_ticks: steal_ticks(),
            commit: commit(),
            cleared,
        }
    }

    pub fn finish(&mut self) {
        self.load_end = load_avg();
        self.steal_ticks = steal_ticks() - self.steal_ticks;
    }

    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "nproc": self.nproc,
            "load_1min_start": self.load_start,
            "load_1min_end": self.load_end,
            "steal_ticks": self.steal_ticks,
            "commit": self.commit,
            "cleared_env": self.cleared.iter().map(|s| Value::Str((*s).into())).collect::<Vec<_>>(),
        })
    }
}

/// The 1-minute load average, or -1 where `/proc/loadavg` is missing.
fn load_avg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// CPU time the hypervisor gave to someone else while this VM wanted
/// it, summed over the CPUs, in clock ticks (10 ms) since boot; 0 where
/// the kernel does not report it. It moves only on a busy host.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The checked-out commit, read from `.git` without running git; the
/// driver's checkouts are not repositories and read `unknown`.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_owned(),
    };
    let hash = hash.trim();
    if hash.len() >= 12 && hash.bytes().all(|b| b.is_ascii_hexdigit()) {
        hash[..12].to_owned()
    } else {
        "unknown".to_owned()
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_a_positive_number_on_linux() {
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn commit_is_a_short_hash_or_unknown() {
        let c = commit();
        assert!(c == "unknown" || (c.len() == 12 && c.bytes().all(|b| b.is_ascii_hexdigit())));
    }
}
