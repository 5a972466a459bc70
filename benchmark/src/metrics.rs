//! The metric tables: names, units, which direction is better and, for
//! end-to-end metrics, the bound — the share of the parent's median by
//! which a metric may get worse before it counts as a regression.
//! `BENCHMARK.json` carries the same tables; a unit test holds the two
//! together. `README.md` has each definition.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Repeats exactly from run to run (modelled hardware, not host
    /// time or memory), so any difference between two commits is real.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        exact: true,
        ..e2e(name, unit, Better::Lower, bound)
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

/// Printed by every workload of an untraced run. Host-time and memory
/// metrics carry the widest bound the contract allows: on the 2-core
/// sandbox the run-to-run spread of a median reaches 10-18 % when the
/// host is busy (README.md, "How steady the numbers are"), and a bound
/// below the spread would reject changes at random. The modelled-hardware
/// metrics repeat exactly, so theirs is tight.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
    e2e("round_ms", "ms", Better::Lower, 0.25),
    e2e("job_ms", "ms", Better::Lower, 0.25),
    e2e("jobs_per_s", "1/s", Better::Higher, 0.25),
    exact("binary_kib_geomean", "KiB", 0.005),
    exact("sim_cycles_geomean", "cycles", 0.005),
    exact("energy_uj_geomean", "uJ", 0.005),
];

/// Printed by every workload of a traced run; a layer the workload
/// bypasses reads 0. `_us` metrics are the median over traced rounds of
/// the stage's self time summed over the round, unless README.md says
/// otherwise.
pub const PER_LAYER: &[MetricDef] = &[
    // A tail, not a layer: too unsteady between runs to hold to a bound
    // (spread up to 40 % on `zoo_deploy`), so it is reported here, from
    // the untraced rounds of the traced run.
    lower("job_p90_ms", "ms"),
    lower("models.build_us", "us"),
    lower("frontend.import_us", "us"),
    lower("frontend.bytes_in", "bytes"),
    lower("ir.verify_us", "us"),
    lower("ir.fold_constants_us", "us"),
    lower("ir.nodes_before_fold", "count"),
    lower("ir.nodes_after_fold", "count"),
    lower("ir.canonical_us", "us"),
    lower("pattern.partition_us", "us"),
    higher("pattern.regions", "count"),
    higher("core.offload_fraction_mean", "ratio"),
    lower("core.compile_us", "us"),
    lower("dory.solve_us", "us"),
    lower("dory.solves", "count"),
    higher("dory.tile_cache_hits", "count"),
    lower("dory.solve_standalone_us", "us"),
    lower("dory.tiles_total", "count"),
    lower("codegen.lower_us", "us"),
    lower("codegen.emit_us", "us"),
    lower("codegen.binary_size_us", "us"),
    lower("codegen.serialize_us", "us"),
    lower("codegen.dma_descriptors", "count"),
    lower("codegen.artifact_bytes", "bytes"),
    lower("soc.run_us", "us"),
    lower("soc.run_us.cpu_tvm", "us"),
    lower("soc.run_us.digital", "us"),
    lower("soc.run_us.analog", "us"),
    lower("soc.run_us.both", "us"),
    lower("soc.run_us.ds_cnn", "us"),
    lower("soc.run_us.mobilenet_v1", "us"),
    lower("soc.run_us.resnet8", "us"),
    lower("soc.run_us.toyadmos_dae", "us"),
    lower("soc.run_us.tiny_transformer", "us"),
    lower("soc.overhead_us", "us"),
    lower("soc.host_ns_per_mac", "ns"),
    lower("soc.cycles.compute", "cycles"),
    lower("soc.cycles.dma", "cycles"),
    lower("soc.cycles.weight_load", "cycles"),
    lower("soc.cycles.overhead", "cycles"),
    lower("soc.cycles.stall", "cycles"),
    lower("soc.cycles_geomean.cpu_tvm", "cycles"),
    lower("soc.cycles_geomean.digital", "cycles"),
    lower("soc.cycles_geomean.analog", "cycles"),
    lower("soc.cycles_geomean.both", "cycles"),
    higher("soc.speedup_vs_tvm_geomean", "ratio"),
    lower("kernels.evaluate_us", "us"),
    lower("serve.submit_miss_us", "us"),
    lower("serve.submit_hit_us", "us"),
    lower("serve.queue_us", "us"),
    lower("serve.service_us", "us"),
    lower("serve.cache_insert_us", "us"),
    lower("serve.cache_get_us", "us"),
    lower("serve.persist_write_us", "us"),
    lower("serve.persist_load_us", "us"),
    lower("serve.persist_bytes", "bytes"),
    lower("serve.wire_encode_us", "us"),
    lower("serve.http_overhead_us", "us"),
    lower("serve.http_meta_us", "us"),
    lower("serve.http_fetch_us", "us"),
    lower("serve.response_bytes", "bytes"),
    higher("serve.hits", "count"),
    lower("serve.misses", "count"),
    higher("serve.coalesced", "count"),
    lower("serve.shed", "count"),
    lower("serve.persist_writes", "count"),
    higher("serve.hit_ratio", "ratio"),
    lower("serve.unattributed_share", "ratio"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.closure_ratio", "ratio"),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    fn names(defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter().map(|m| m.name).collect()
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&str> = names(END_TO_END)
            .into_iter()
            .chain(names(PER_LAYER))
            .collect();
        assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len());
        for name in &all {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must not drift apart.
    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = json[key].as_array().expect("metric list");
            assert_eq!(declared.len(), defs.len(), "{key} count");
            for (d, m) in declared.iter().zip(defs) {
                assert_eq!(d["name"].as_str(), Some(m.name));
                assert_eq!(d["unit"].as_str(), Some(m.unit), "{}", m.name);
                assert_eq!(d["better"].as_str(), Some(m.better.as_str()), "{}", m.name);
                assert_eq!(
                    d.get("bound").and_then(Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        let workloads: Vec<&str> = json["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
