//! Deriving `CALIBRATION.json` from `KERNELS_BENCH.json` measurements.
//!
//! The `calibrate` binary turns the committed microbenchmark sweep into
//! the committed calibration artifact: per-engine [`CostModel`]
//! coefficients for the tiling solver's measurement-calibrated objective,
//! plus the autotuned GEMM reduction-block-size classes the runtime's
//! [`GemmTuning`] consumes. The derivation is a *pure function of the
//! input bytes* — [`derive()`](derive()) takes the raw `KERNELS_BENCH.json` contents
//! and produces an identical [`CalibrationReport`] on every host — so CI
//! re-derives the artifact and fails if the committed file drifts from
//! its source (`calibrate --check`).
//!
//! Two kinds of coefficients come out, with different provenance:
//!
//! * **Engine cycle coefficients** anchor to [`DianaConfig::default`].
//!   The cost model predicts *simulated* cycles (the quantity `BENCH.json`
//!   gates on), and the simulator's constants are themselves the paper
//!   calibration (`docs/CALIBRATION.md`), so the platform model is the
//!   correct fit target — a host-wall fit would calibrate the predictor
//!   against the wrong machine.
//! * **GEMM block-size classes** come from the wall-time sweep: per
//!   reduction-length class `kk`, the fastest measured `kc` wins (ties to
//!   the smaller block). These steer host wall time only and never touch
//!   artifact bits — `htvm-soc`'s `gemm_tuning_is_invisible_in_bits_and_cycles`
//!   proves it.

use crate::kernels_bench::{KernelsReport, KERNELS_SCHEMA_VERSION};
use htvm::{CostModel, DianaConfig, EngineModel, LowerOptions, TilingObjective};
use htvm_kernels::GemmTuning;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema version of `CALIBRATION.json`. Doubles as the [`CostModel`]
/// `version` field, so bumping it re-keys every tile-cache entry and
/// served artifact produced under the previous fit.
pub const CALIBRATION_SCHEMA_VERSION: u32 = 1;

/// Weight of the predicted-cycle term in the calibrated objective. The
/// heuristic objective spreads ~4 units across Eq. 3–5; giving the single
/// calibrated term the same total keeps its scores on a comparable scale.
pub const CALIBRATED_GAMMA: f64 = 4.0;

/// One autotuned GEMM class: reduction lengths `kk <= bound` run the
/// im2col GEMM with block size `kc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GemmClass {
    /// Upper bound (inclusive) of the reduction lengths this class covers.
    pub kk: usize,
    /// Winning reduction block size for this class.
    pub kc: usize,
}

/// The committed calibration artifact (`CALIBRATION.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Schema version ([`CALIBRATION_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// FNV-1a 64-bit digest (hex) of the exact `KERNELS_BENCH.json` bytes
    /// this calibration was derived from. `calibrate --check` recomputes
    /// it, so a stale calibration is caught even when the re-derived
    /// coefficients happen to agree.
    pub source_digest: String,
    /// Calibrated cycle model for the digital accelerator.
    pub digital: CostModel,
    /// Calibrated cycle model for the analog accelerator.
    pub analog: CostModel,
    /// Autotuned GEMM block-size classes, ascending by `kk` bound.
    pub gemm_classes: Vec<GemmClass>,
    /// Human-readable fit log: one line per decision the derivation made.
    pub fit: Vec<String>,
}

impl CalibrationReport {
    /// Lowering options that compile with both calibrated objectives.
    #[must_use]
    pub fn lower_options(&self) -> LowerOptions {
        LowerOptions {
            digital_objective: TilingObjective::calibrated(self.digital),
            analog_objective: TilingObjective::calibrated(self.analog),
            ..LowerOptions::default()
        }
    }

    /// The runtime GEMM tuning table for [`htvm::Machine::with_tuning`].
    #[must_use]
    pub fn tuning(&self) -> GemmTuning {
        GemmTuning::new(self.gemm_classes.iter().map(|c| (c.kk, c.kc)).collect())
    }
}

/// 64-bit FNV-1a over arbitrary bytes (the `source_digest` hash).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derives the calibration artifact from raw `KERNELS_BENCH.json` bytes.
///
/// Deterministic: the same bytes produce the same report on every host
/// (CI relies on this to re-derive and diff the committed artifact).
///
/// # Errors
///
/// Returns a message when the bytes are not a parseable kernels report,
/// the schema version is unknown, or the GEMM sweep section is missing
/// (a pre-sweep report cannot be calibrated from).
pub fn derive(bytes: &[u8]) -> Result<CalibrationReport, String> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| format!("kernels report is not UTF-8: {e}"))?;
    let report: KernelsReport =
        serde_json::from_str(text).map_err(|e| format!("unreadable kernels report: {e}"))?;
    if report.schema_version != KERNELS_SCHEMA_VERSION {
        return Err(format!(
            "kernels report schema v{} unsupported (expected v{KERNELS_SCHEMA_VERSION})",
            report.schema_version
        ));
    }
    if report.gemm_sweep.is_empty() {
        return Err("kernels report has no gemm_sweep section; \
             regenerate it with `cargo run --release -p htvm-bench --bin kernels`"
            .to_string());
    }

    let mut fit = Vec::new();
    let platform = DianaConfig::default();
    let (digital, analog) = engine_models(&platform);
    fit.push(format!(
        "engine coefficients anchored to DianaConfig::default() \
         (predictor targets simulated cycles): digital {}x{} PEs eff {}%, \
         analog {}x{} eff {}%, dma setup {} @ {} B/cycle, gamma {CALIBRATED_GAMMA}",
        platform.digital.pe_rows,
        platform.digital.pe_cols,
        platform.digital.efficiency_pct,
        platform.analog.rows,
        platform.analog.cols,
        platform.analog.efficiency_pct,
        platform.dma.setup_cycles,
        platform.dma.bytes_per_cycle,
    ));

    // Per reduction-length class, the fastest measured block size wins;
    // ties go to the smaller block (less scratch, same speed). BTreeMap
    // keeps the class order — and therefore the artifact bytes —
    // independent of sweep emission order.
    let mut best: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
    for e in &report.gemm_sweep {
        if !e.wall_us.is_finite() || e.wall_us <= 0.0 {
            return Err(format!(
                "gemm_sweep {} kk={} kc={} has non-positive wall time {}",
                e.shape, e.kk, e.kc, e.wall_us
            ));
        }
        match best.get(&e.kk) {
            Some(&(kc, us)) if (e.wall_us, e.kc) >= (us, kc) => {}
            _ => {
                best.insert(e.kk, (e.kc, e.wall_us));
            }
        }
    }
    let gemm_classes: Vec<GemmClass> = best
        .iter()
        .map(|(&kk, &(kc, us))| {
            fit.push(format!("kk<={kk}: kc={kc} fastest at {us:.1} us"));
            GemmClass { kk, kc }
        })
        .collect();

    Ok(CalibrationReport {
        schema_version: CALIBRATION_SCHEMA_VERSION,
        source_digest: format!("{:016x}", fnv1a64(bytes)),
        digital,
        analog,
        gemm_classes,
        fit,
    })
}

/// The two engine cost models anchored to a platform description.
fn engine_models(p: &DianaConfig) -> (CostModel, CostModel) {
    let base = CostModel {
        version: CALIBRATION_SCHEMA_VERSION,
        gamma: CALIBRATED_GAMMA,
        dma_setup: p.dma.setup_cycles,
        dma_bytes_per_cycle: p.dma.bytes_per_cycle,
        kernel_call_overhead: p.digital.kernel_call_overhead,
        tile_overhead: p.digital.tile_overhead,
        engine: EngineModel::Digital {
            pe_rows: p.digital.pe_rows,
            pe_cols: p.digital.pe_cols,
            dw_macs_per_cycle_x100: p.digital.dw_macs_per_cycle_x100,
            add_elems_per_cycle: p.digital.add_elems_per_cycle,
            efficiency_pct: p.digital.efficiency_pct,
        },
    };
    let analog = CostModel {
        kernel_call_overhead: p.analog.kernel_call_overhead,
        tile_overhead: p.analog.tile_overhead,
        engine: EngineModel::Analog {
            rows: p.analog.rows,
            cols: p.analog.cols,
            row_load_cycles: p.analog.row_load_cycles,
            pass_cycles: p.analog.pass_cycles,
            efficiency_pct: p.analog.efficiency_pct,
        },
        ..base
    };
    (base, analog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels_bench::{GemmSweepEntry, KernelEntry};

    fn sample_report() -> KernelsReport {
        KernelsReport {
            schema_version: KERNELS_SCHEMA_VERSION,
            kernels: vec![KernelEntry {
                name: "conv3x3_c16_k16_32x32".into(),
                tier: "gemm".into(),
                wall_us: 100.0,
            }],
            gemm_sweep: vec![
                GemmSweepEntry {
                    shape: "a".into(),
                    kk: 144,
                    kc: 64,
                    wall_us: 90.0,
                },
                GemmSweepEntry {
                    shape: "a".into(),
                    kk: 144,
                    kc: 128,
                    wall_us: 80.0,
                },
                GemmSweepEntry {
                    shape: "b".into(),
                    kk: 576,
                    kc: 256,
                    wall_us: 70.0,
                },
                GemmSweepEntry {
                    shape: "b".into(),
                    kk: 576,
                    kc: 512,
                    wall_us: 70.0, // tie: smaller kc must win
                },
            ],
        }
    }

    fn sample_bytes() -> Vec<u8> {
        serde_json::to_string(&sample_report())
            .unwrap()
            .into_bytes()
    }

    #[test]
    fn derivation_is_deterministic() {
        let bytes = sample_bytes();
        let a = derive(&bytes).unwrap();
        let b = derive(&bytes).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn digest_tracks_input_bytes() {
        let bytes = sample_bytes();
        let a = derive(&bytes).unwrap();
        assert_eq!(a.source_digest, format!("{:016x}", fnv1a64(&bytes)));
        let mut other = sample_report();
        other.kernels[0].wall_us = 101.0;
        let b = derive(&serde_json::to_string(&other).unwrap().into_bytes()).unwrap();
        assert_ne!(a.source_digest, b.source_digest);
    }

    #[test]
    fn fastest_block_wins_each_class_and_ties_go_small() {
        let report = derive(&sample_bytes()).unwrap();
        assert_eq!(
            report.gemm_classes,
            vec![
                GemmClass { kk: 144, kc: 128 },
                GemmClass { kk: 576, kc: 256 }
            ]
        );
        let tuning = report.tuning();
        assert_eq!(tuning.kc_for(100), 128);
        assert_eq!(tuning.kc_for(144), 128);
        assert_eq!(tuning.kc_for(145), 256);
        assert_eq!(tuning.kc_for(576), 256);
    }

    #[test]
    fn engine_models_anchor_to_platform_defaults() {
        let report = derive(&sample_bytes()).unwrap();
        let p = DianaConfig::default();
        assert_eq!(report.digital.dma_setup, p.dma.setup_cycles);
        assert_eq!(
            report.digital.kernel_call_overhead,
            p.digital.kernel_call_overhead
        );
        assert!(matches!(
            report.digital.engine,
            EngineModel::Digital { pe_rows, pe_cols, .. }
                if pe_rows == p.digital.pe_rows && pe_cols == p.digital.pe_cols
        ));
        assert!(matches!(
            report.analog.engine,
            EngineModel::Analog { rows, cols, .. }
                if rows == p.analog.rows && cols == p.analog.cols
        ));
        assert_eq!(report.digital.version, CALIBRATION_SCHEMA_VERSION);
        assert_eq!(report.analog.version, CALIBRATION_SCHEMA_VERSION);
    }

    #[test]
    fn lower_options_carry_both_calibrated_objectives() {
        let report = derive(&sample_bytes()).unwrap();
        let opts = report.lower_options();
        assert_eq!(opts.digital_objective.cost_model, Some(report.digital));
        assert_eq!(opts.analog_objective.cost_model, Some(report.analog));
    }

    #[test]
    fn unusable_inputs_are_rejected() {
        assert!(derive(b"not json").is_err());
        let mut wrong_schema = sample_report();
        wrong_schema.schema_version = 99;
        assert!(derive(&serde_json::to_string(&wrong_schema).unwrap().into_bytes()).is_err());
        let mut no_sweep = sample_report();
        no_sweep.gemm_sweep.clear();
        assert!(derive(&serde_json::to_string(&no_sweep).unwrap().into_bytes()).is_err());
        let mut bad_wall = sample_report();
        bad_wall.gemm_sweep[0].wall_us = 0.0;
        assert!(derive(&serde_json::to_string(&bad_wall).unwrap().into_bytes()).is_err());
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = derive(&sample_bytes()).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: CalibrationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
