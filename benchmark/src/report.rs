//! From an [`Outcome`] to numbers: the metric values, the result line
//! the driver reads, the readable report above it, and the record
//! `compare` reads back.

use crate::env::Env;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, percentile, quartiles, sorted};
use crate::workloads::{Outcome, Phase};
use serde_json::Value;

/// Median latency of each class, then the geomean over classes: every
/// class weighs the same, so no heavy model hides the others.
fn job_ms(phase: &Phase) -> f64 {
    let per_class: Vec<f64> = phase
        .job_us
        .iter()
        .filter(|samples| !samples.is_empty())
        .map(|samples| median(samples) / 1e3)
        .collect();
    geomean(&per_class)
}

/// The 90th percentile of a job of typical size: every sample as a
/// multiple of its class's median, pooled over all classes (classes
/// differ a hundredfold in size, so raw latencies cannot be pooled, and
/// one class alone has too few samples for a tail), times `job_ms`.
pub fn job_p90_ms(phase: &Phase) -> f64 {
    let ratios: Vec<f64> = phase
        .job_us
        .iter()
        .flat_map(|samples| {
            let mid = median(samples);
            samples.iter().map(move |s| s / mid)
        })
        .collect();
    percentile(&sorted(&ratios), 90.0) * job_ms(phase)
}

/// Every end-to-end metric, in table order. Always taken from the
/// untraced rounds.
pub fn end_to_end_values(outcome: &Outcome) -> Vec<(&'static MetricDef, f64)> {
    let phase = &outcome.untraced;
    // Every round holds the same jobs, so this is the rate of the median
    // round: a burst of host noise moves it no more than `round_ms`.
    let jobs_per_round = phase.jobs() as f64 / phase.rounds() as f64;
    let value = |name: &str| match name {
        "setup_s" => median(&outcome.setup_s),
        "peak_rss_mib" => outcome.peak_rss_mib,
        "round_ms" => median(&phase.round_ms),
        "job_ms" => job_ms(phase),
        "jobs_per_s" => jobs_per_round / (median(&phase.round_ms) / 1e3),
        "binary_kib_geomean" => outcome.quality.binary_kib_geomean,
        "sim_cycles_geomean" => outcome.quality.sim_cycles_geomean,
        "energy_uj_geomean" => outcome.quality.energy_uj_geomean,
        other => unreachable!("end-to-end metric {other} has no definition"),
    };
    END_TO_END.iter().map(|m| (m, value(m.name))).collect()
}

/// Every per-layer metric, in table order; 0 where the workload
/// bypasses the layer.
pub fn per_layer_values(outcome: &Outcome) -> Vec<(&'static MetricDef, f64)> {
    let layer = outcome.traced.as_ref().map(|t| &t.layer);
    PER_LAYER
        .iter()
        .map(|m| {
            let v = layer.and_then(|l| l.get(m.name)).unwrap_or(0.0);
            (m, if v.is_finite() { v } else { 0.0 })
        })
        .collect()
}

fn metrics_json(values: &[(&'static MetricDef, f64)]) -> Value {
    Value::Object(
        values
            .iter()
            .map(|(m, v)| {
                (
                    m.name.to_owned(),
                    serde_json::json!({ "value": *v, "unit": m.unit }),
                )
            })
            .collect(),
    )
}

/// The metrics a run of this kind reports, checked: an end-to-end
/// metric that is not a positive finite number is itself a failure.
pub fn reported(outcome: &mut Outcome) -> Vec<(&'static MetricDef, f64)> {
    if outcome.traced.is_some() {
        return per_layer_values(outcome);
    }
    let values = end_to_end_values(outcome);
    for (m, v) in &values {
        outcome.tally.check(v.is_finite() && *v > 0.0, || {
            format!("end-to-end metric {} reads {v}", m.name)
        });
    }
    values
}

/// The one JSON object the driver reads from the last line.
pub fn result_line(outcome: &Outcome, values: &[(&'static MetricDef, f64)]) -> String {
    let result = serde_json::json!({
        "correct": outcome.tally.failed == 0,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": metrics_json(values),
    });
    serde_json::to_string(&result).expect("the result line serializes")
}

/// One line of the `--out` file: everything `compare` needs, plus the
/// environment and sample counts for whoever reads the file later.
pub fn record(
    outcome: &Outcome,
    values: &[(&'static MetricDef, f64)],
    env: &Env,
    seed: u64,
    seconds: f64,
) -> String {
    let phase = &outcome.untraced;
    let record = serde_json::json!({
        "workload": outcome.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": u64::from(outcome.traced.is_some()),
        "env": env.to_json(),
        "threads": outcome.threads,
        "setups": outcome.setup_s.len(),
        "warmup_rounds": outcome.warmup_rounds,
        "rounds": phase.rounds(),
        "rounds_set_aside": phase.set_aside,
        "traced_rounds": outcome.traced.as_ref().map_or(0, |t| t.phase.rounds()),
        "jobs": phase.jobs(),
        "correct": outcome.tally.failed == 0,
        "attempted": outcome.tally.attempted,
        "failed": outcome.tally.failed,
        "metrics": metrics_json(values),
    });
    serde_json::to_string(&record).expect("the run record serializes")
}

fn quartile_note(values: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(values);
    format!("n={} q1={q1:.4} median={q2:.4} q3={q3:.4}", values.len())
}

/// The readable report: environment, counts, every metric by name with
/// its unit, and for a traced run the stage table with its closure.
pub fn print_report(
    outcome: &Outcome,
    values: &[(&'static MetricDef, f64)],
    env: &Env,
    seed: u64,
    seconds: f64,
) {
    let phase = &outcome.untraced;
    println!("== {} seed={seed} seconds={seconds} ==", outcome.workload);
    println!(
        "env: nproc={} load_1min={:.2}->{:.2} steal_ticks={} commit={} cleared_env={:?}",
        env.nproc, env.load_start, env.load_end, env.steal_ticks, env.commit, env.cleared
    );
    println!(
        "counts: client_threads={} setups={} warmup_rounds={} rounds={} rounds_set_aside={} jobs={} classes={} attempted={} failed={}",
        outcome.threads,
        outcome.setup_s.len(),
        outcome.warmup_rounds,
        phase.rounds(),
        phase.set_aside,
        phase.jobs(),
        outcome.classes.len(),
        outcome.tally.attempted,
        outcome.tally.failed,
    );
    for note in &outcome.tally.notes {
        println!("FAILED: {note}");
    }
    println!("samples: setup_s {}", quartile_note(&outcome.setup_s));
    println!("samples: round_ms {}", quartile_note(&phase.round_ms));
    let width = values.iter().map(|(m, _)| m.name.len()).max().unwrap_or(0);
    for (m, v) in values {
        match m.bound {
            Some(bound) => println!(
                "{:width$}  {v:>16.4} {:<6} ({} is better, bound {:.1}%)",
                m.name,
                m.unit,
                m.better.as_str(),
                bound * 100.0
            ),
            None => println!("{:width$}  {v:>16.4} {}", m.name, m.unit),
        }
    }
    let Some(traced) = &outcome.traced else {
        return;
    };
    println!(
        "-- stages: median self time per round, over {} traced rounds; share of the untraced round's job time ({:.3} ms) --",
        traced.phase.rounds(),
        median(&phase.job_sum_ms)
    );
    for row in &traced.stages {
        println!(
            "{:24} {:>12.1} us {:>6.1}%",
            row.name,
            row.self_us,
            row.share * 100.0
        );
    }
    let closure = traced.layer.get("trace.closure_ratio").unwrap_or(0.0);
    let flag = if (0.9..=1.1).contains(&closure) {
        "ok"
    } else {
        "OUTSIDE 0.9-1.1"
    };
    println!("closure: stage self times add up to {closure:.3} of the untraced job time [{flag}]");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Quality;
    use crate::workloads::{Round, Tally};

    fn outcome() -> Outcome {
        let mut phase = Phase::new(2);
        for (a, b) in [(1000, 4000), (1200, 4400), (1100, 4200)] {
            phase.push(&Round {
                wall_ns: (a + b) * 1000,
                jobs: vec![(0, a * 1000), (1, b * 1000)],
            });
        }
        Outcome {
            workload: "zoo_deploy",
            threads: 1,
            tally: Tally {
                attempted: 6,
                failed: 0,
                notes: Vec::new(),
            },
            setup_s: vec![0.5, 0.4, 0.6],
            peak_rss_mib: 40.0,
            warmup_rounds: 1,
            classes: vec!["a".into(), "b".into()],
            untraced: phase,
            quality: Quality {
                binary_kib_geomean: 100.0,
                sim_cycles_geomean: 1e6,
                energy_uj_geomean: 3.5,
                ..Quality::default()
            },
            traced: None,
        }
    }

    #[test]
    fn end_to_end_values_follow_their_definitions() {
        let out = outcome();
        let values: std::collections::BTreeMap<_, _> = end_to_end_values(&out)
            .into_iter()
            .map(|(m, v)| (m.name, v))
            .collect();
        assert_eq!(values["setup_s"], 0.5);
        assert!((values["round_ms"] - 5.3).abs() < 1e-9);
        // Class medians 1.1 ms and 4.2 ms.
        assert!((values["job_ms"] - (1.1f64 * 4.2).sqrt()).abs() < 1e-9);
        // Two jobs a round, the median round lasting 5.3 ms.
        assert!((values["jobs_per_s"] - 2.0 / 0.0053).abs() < 1e-6);
        // Six samples as multiples of their class median; the p90 of six
        // is the largest, 1200/1100.
        let p90 = (1.1f64 * 4.2).sqrt() * 1200.0 / 1100.0;
        assert!((job_p90_ms(&out.untraced) - p90).abs() < 1e-9);
        assert_eq!(values["sim_cycles_geomean"], 1e6);
        assert_eq!(values["peak_rss_mib"], 40.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = outcome();
        let values = reported(&mut out);
        let line = result_line(&out, &values);
        let parsed: Value = serde_json::from_str(&line).unwrap();
        let Value::Object(fields) = &parsed else {
            panic!("the result is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed["correct"].as_bool(), Some(true));
        // Six operations plus one check per end-to-end metric.
        assert_eq!(
            parsed["attempted"].as_u64(),
            Some(6 + END_TO_END.len() as u64)
        );
        let Value::Object(metrics) = &parsed["metrics"] else {
            panic!("metrics is an object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(parsed["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn a_zero_metric_is_a_failed_operation() {
        let mut out = outcome();
        out.quality.energy_uj_geomean = 0.0;
        reported(&mut out);
        assert_eq!(out.tally.failed, 1);
        assert!(out.tally.notes[0].contains("energy_uj_geomean"));
    }
}
