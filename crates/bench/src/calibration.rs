//! Deriving `CALIBRATION.json` from the platform description.
//!
//! The `calibrate` binary writes the committed calibration artifact:
//! per-engine [`CostModel`] coefficients for the tiling solver's
//! measurement-calibrated objective. The derivation is a *pure function
//! of [`DianaConfig::default`]* — [`derive()`](derive()) reads nothing
//! else and produces an identical [`CalibrationReport`] on every host —
//! so CI re-derives the artifact and fails if the committed file drifts
//! from the platform model (`calibrate --check`).
//!
//! The cost model predicts *simulated* cycles (the quantity `BENCH.json`
//! gates on), and the simulator's constants are themselves the paper
//! calibration (`docs/CALIBRATION.md`), so the platform model is the
//! correct fit target — a host-wall fit would calibrate the predictor
//! against the wrong machine.

use htvm::{CostModel, DianaConfig, EngineModel, LowerOptions, TilingObjective};
use serde::{Deserialize, Serialize};

/// Schema version of `CALIBRATION.json`. Doubles as the [`CostModel`]
/// `version` field, so bumping it re-keys every tile-cache entry and
/// served artifact produced under the previous fit.
pub const CALIBRATION_SCHEMA_VERSION: u32 = 1;

/// Weight of the predicted-cycle term in the calibrated objective. The
/// heuristic objective spreads ~4 units across Eq. 3–5; giving the single
/// calibrated term the same total keeps its scores on a comparable scale.
pub const CALIBRATED_GAMMA: f64 = 4.0;

/// The committed calibration artifact (`CALIBRATION.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationReport {
    /// Schema version ([`CALIBRATION_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Calibrated cycle model for the digital accelerator.
    pub digital: CostModel,
    /// Calibrated cycle model for the analog accelerator.
    pub analog: CostModel,
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
}

/// Derives the calibration artifact from [`DianaConfig::default`].
///
/// Deterministic: every host produces the same report (CI relies on this
/// to re-derive and diff the committed artifact).
#[must_use]
pub fn derive() -> CalibrationReport {
    let platform = DianaConfig::default();
    let (digital, analog) = engine_models(&platform);
    let fit = vec![format!(
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
    )];
    CalibrationReport {
        schema_version: CALIBRATION_SCHEMA_VERSION,
        digital,
        analog,
        fit,
    }
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

    #[test]
    fn derivation_is_deterministic() {
        let (a, b) = (derive(), derive());
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn engine_models_anchor_to_platform_defaults() {
        let report = derive();
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
        let report = derive();
        let opts = report.lower_options();
        assert_eq!(opts.digital_objective.cost_model, Some(report.digital));
        assert_eq!(opts.analog_objective.cost_model, Some(report.analog));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let report = derive();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: CalibrationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
