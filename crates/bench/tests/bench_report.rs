//! Golden-file test for the `BENCH.json` schema.
//!
//! The committed fixture pins the exact serialized form of a
//! representative report. Any change to the report structs — a field
//! added, removed, renamed or reordered — changes the serialization and
//! fails this test, forcing a deliberate [`BENCH_SCHEMA_VERSION`] bump
//! plus fixture and `BENCH_BASELINE.json` regeneration in the same
//! change. Regenerate the fixture with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p htvm-bench --test bench_report
//! ```

use htvm_bench::report::{
    diff, BenchEntry, BenchReport, CompileReport, DiffConfig, LayerReport, PhaseTime, RunSummary,
    BENCH_SCHEMA_VERSION,
};
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden_bench.json")
}

/// A hand-built report exercising every schema field: an `ok` entry with
/// layers on all three engines (one with a nonzero schema-v1 `stall`),
/// and an `oom` entry with no run.
fn golden_report() -> BenchReport {
    let layer = |name: &str, engine: &str, compute, dma, stall| LayerReport {
        name: name.to_owned(),
        engine: engine.to_owned(),
        compute,
        dma,
        weight_load: 40,
        overhead: 12,
        stall,
        macs: 100_000,
        tiles: 4,
        energy_fj: 12_345_678,
    };
    BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        entries: vec![
            BenchEntry {
                model: "ds_cnn".to_owned(),
                deploy: "both".to_owned(),
                scheme: "Mixed".to_owned(),
                status: "ok".to_owned(),
                compile: CompileReport {
                    wall_us: 1500,
                    phases: vec![
                        PhaseTime {
                            phase: "verify".to_owned(),
                            us: 10,
                        },
                        PhaseTime {
                            phase: "fold_constants".to_owned(),
                            us: 20,
                        },
                        PhaseTime {
                            phase: "partition".to_owned(),
                            us: 30,
                        },
                        PhaseTime {
                            phase: "solve".to_owned(),
                            us: 900,
                        },
                        PhaseTime {
                            phase: "emit".to_owned(),
                            us: 400,
                        },
                        PhaseTime {
                            phase: "l2_plan".to_owned(),
                            us: 100,
                        },
                    ],
                    regions: 6,
                    solves: 4,
                    cache_hits: 2,
                    cache_negatives: 1,
                    binary_bytes: 412_000,
                    offload_fraction: 0.97,
                },
                run: Some(RunSummary {
                    total_cycles: 407_586,
                    peak_cycles: 301_200,
                    energy_uj: 0.214,
                    macs: 2_600_000,
                    layers: vec![
                        layer("conv0", "digital", 2000, 800, 0),
                        layer("conv1", "analog", 1500, 600, 25),
                        layer("softmax", "cpu", 9000, 0, 0),
                    ],
                }),
            },
            BenchEntry {
                model: "mobilenet_v1".to_owned(),
                deploy: "cpu_tvm".to_owned(),
                scheme: "Int8".to_owned(),
                status: "oom".to_owned(),
                compile: CompileReport {
                    wall_us: 2000,
                    phases: vec![
                        PhaseTime {
                            phase: "verify".to_owned(),
                            us: 15,
                        },
                        PhaseTime {
                            phase: "partition".to_owned(),
                            us: 40,
                        },
                    ],
                    regions: 0,
                    solves: 0,
                    cache_hits: 0,
                    cache_negatives: 0,
                    binary_bytes: 0,
                    offload_fraction: 0.0,
                },
                run: None,
            },
        ],
    }
}

#[test]
fn golden_fixture_pins_the_schema() {
    let expected = serde_json::to_string_pretty(&golden_report()).expect("serializes") + "\n";
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &expected).expect("fixture written");
    }
    let on_disk = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        on_disk, expected,
        "BENCH.json schema drifted from the committed fixture. If the change is intentional, \
         bump BENCH_SCHEMA_VERSION, regenerate this fixture with UPDATE_GOLDEN=1, and \
         regenerate BENCH_BASELINE.json in the same change."
    );
}

#[test]
fn golden_fixture_round_trips_and_matches_the_current_schema_version() {
    let on_disk = std::fs::read_to_string(golden_path()).expect("fixture present");
    let parsed: BenchReport = serde_json::from_str(&on_disk).expect("fixture parses");
    assert_eq!(
        parsed.schema_version, BENCH_SCHEMA_VERSION,
        "fixture pins a stale schema version — regenerate it with UPDATE_GOLDEN=1"
    );
    assert_eq!(parsed, golden_report(), "deserialization is lossless");
    let re: BenchReport =
        serde_json::from_str(&serde_json::to_string_pretty(&parsed).expect("re-serializes"))
            .expect("re-parses");
    assert_eq!(re, parsed, "serialize/deserialize round trip is stable");
}

#[test]
fn diff_passes_identical_fixture_and_flags_injected_regression() {
    let base = golden_report();
    assert!(diff(&base, &base.clone(), &DiffConfig::default()).ok());

    let mut regressed = golden_report();
    let run = regressed.entries[0].run.as_mut().expect("ok entry runs");
    run.total_cycles = run.total_cycles * 105 / 100; // +5% > the 2% gate
    let d = diff(&base, &regressed, &DiffConfig::default());
    assert!(!d.ok());
    assert!(
        d.failures.iter().any(|f| f.contains("total cycles")),
        "{:?}",
        d.failures
    );
}

#[test]
fn missing_fields_fail_deserialization() {
    // The vendored serde treats missing fields as hard errors, so an
    // older-schema report (absent fields) cannot silently parse as the
    // current schema with defaults.
    let truncated = r#"{"schema_version": 1, "entries": [{"model": "x", "deploy": "both"}]}"#;
    assert!(serde_json::from_str::<BenchReport>(truncated).is_err());
}
