//! `compare A B`: two sets of runs (files of `--out` records), one
//! verdict per (end-to-end metric, workload) row.
//!
//! - **worse**: B's median is worse than A's by more than the metric's
//!   bound.
//! - **better**: B wins at least nine tenths of the pairs (run *i* of A
//!   against run *i* of B, ties counting for neither) and the medians
//!   differ by more than the distance between A's quartiles.
//! - **unresolved**: neither, but A's own spread is wider than the
//!   bound, so "no change" cannot be told from a change of bound size —
//!   unless every run of B reads better than every run of A. A worse
//!   median is also only *unresolved* under that spread, unless every
//!   run of B reads worse than every run of A.
//! - **same**: within the bound, with a spread that can resolve it.
//!
//! Metrics that are not times (sizes, simulated cycles, energy) repeat
//! exactly, so any difference is real: they need no pairs.

use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Same,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` reads than `a`, as a share of `a` (negative when
/// better), whichever direction the metric prefers.
fn worsening(metric: &MetricDef, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(metric: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (mid_a, mid_b) = (median(a), median(b));
    let change = worsening(metric, mid_a, mid_b);
    if metric.exact {
        return match change {
            c if c > bound => Verdict::Worse,
            c if c < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    let beats = |x: f64, y: f64| worsening(metric, y, x) < 0.0; // x better than y
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&x| a.iter().all(|&y| f(x, y)));
    let blurred = iqr_share(a) > bound;
    if change > bound {
        return if blurred && !all(&|x, y| beats(y, x)) {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        };
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&y, &x)| beats(x, y)).count();
    let [q1, _, q3] = quartiles(a);
    if pairs > 0 && wins * 10 >= pairs * 9 && (mid_a - mid_b).abs() > q3 - q1 && change < 0.0 {
        return Verdict::Better;
    }
    if blurred && !all(&beats) {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

/// workload → metric → values, in file order, from the untraced runs.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_run_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record: Value =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if record["trace"].as_u64() != Some(0) {
            continue;
        }
        let workload = record["workload"]
            .as_str()
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let Value::Object(metrics) = &record["metrics"] else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        for (name, metric) in metrics {
            let value = metric["value"]
                .as_f64()
                .ok_or_else(|| format!("line {}: {name} has no value", n + 1))?;
            set.entry(workload.to_owned())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
        if record["failed"].as_u64() != Some(0) {
            return Err(format!(
                "line {}: a run with failed operations is not a measurement",
                n + 1
            ));
        }
    }
    Ok(set)
}

/// Prints the table; returns how many rows read `worse`.
pub fn compare(a: &RunSet, b: &RunSet) -> usize {
    let mut worse = 0;
    println!(
        "{:16} {:20} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "change", "iqr A", "bound"
    );
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            println!("{workload:16} (no runs in B)");
            continue;
        };
        for metric in END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(metric.name), metrics_b.get(metric.name))
            else {
                continue;
            };
            let v = verdict(metric, va, vb);
            worse += usize::from(v == Verdict::Worse);
            println!(
                "{:16} {:20} {:>14.4} {:>14.4} {:>+7.2}% {:>6.2}% {:>6.1}%  {} (n={}/{})",
                workload,
                metric.name,
                median(va),
                median(vb),
                worsening(metric, median(va), median(vb)) * 100.0,
                iqr_share(va) * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                v.as_str(),
                va.len(),
                vb.len(),
            );
        }
    }
    worse
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn around(mid: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| mid * (1.0 + spread * (f64::from(i) - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn times_need_pairs_and_distance_to_read_better() {
        let ms = end_to_end("round_ms").unwrap();
        let base = around(100.0, 0.01);
        assert_eq!(verdict(ms, &base, &around(100.2, 0.01)), Verdict::Same);
        assert_eq!(verdict(ms, &base, &around(80.0, 0.01)), Verdict::Better);
        assert_eq!(verdict(ms, &base, &around(130.0, 0.01)), Verdict::Worse);
        // Half a percent faster: wins every pair, but the medians are
        // closer than A's own quartiles are apart.
        assert_eq!(verdict(ms, &base, &around(99.5, 0.01)), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_row_unresolved() {
        let ms = end_to_end("round_ms").unwrap();
        let noisy = around(100.0, 0.5);
        assert_eq!(
            verdict(ms, &noisy, &around(101.0, 0.5)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(ms, &noisy, &around(115.0, 0.5)),
            Verdict::Unresolved
        );
        // Every run of B worse than every run of A: worse, whatever the spread.
        assert_eq!(verdict(ms, &noisy, &around(400.0, 0.1)), Verdict::Worse);
    }

    #[test]
    fn higher_is_better_metrics_flip_the_sign() {
        let rate = end_to_end("jobs_per_s").unwrap();
        let base = around(1000.0, 0.01);
        assert_eq!(verdict(rate, &base, &around(1300.0, 0.01)), Verdict::Better);
        assert_eq!(verdict(rate, &base, &around(700.0, 0.01)), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_compare_exactly() {
        let cycles = end_to_end("sim_cycles_geomean").unwrap();
        let a = vec![1000.0; 3];
        assert_eq!(verdict(cycles, &a, &[1000.0; 3]), Verdict::Same);
        assert_eq!(verdict(cycles, &a, &[999.0; 3]), Verdict::Better);
        assert_eq!(verdict(cycles, &a, &[1004.0; 3]), Verdict::Same);
        assert_eq!(verdict(cycles, &a, &[1006.0; 3]), Verdict::Worse);
    }

    #[test]
    fn run_sets_parse_and_skip_traced_records() {
        let text = concat!(
            r#"{"workload":"w","trace":0,"failed":0,"metrics":{"round_ms":{"value":1.5,"unit":"ms"}}}"#,
            "\n",
            r#"{"workload":"w","trace":1,"failed":0,"metrics":{"x":{"value":9.0,"unit":"us"}}}"#,
            "\n\n",
            r#"{"workload":"w","trace":0,"failed":0,"metrics":{"round_ms":{"value":2.5,"unit":"ms"}}}"#,
        );
        let set = parse_run_set(text).unwrap();
        assert_eq!(set["w"]["round_ms"], vec![1.5, 2.5]);
        assert!(!set["w"].contains_key("x"));
        let failed = r#"{"workload":"w","trace":0,"failed":2,"metrics":{}}"#;
        assert!(parse_run_set(failed).is_err());
        assert_eq!(compare(&set, &set), 0);
    }
}
