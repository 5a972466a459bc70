//! Energy model.
//!
//! The paper's motivation is energy at the edge ("reducing energy
//! consumption by more than one order of magnitude compared to
//! general-purpose processors"); DIANA's ISSCC 2022 paper reports per-
//! engine efficiencies around 600 TOPS/W (analog) and 14 TOPS/W
//! (digital). This module extends the reproduction with a first-order
//! energy estimate computed from the same per-layer profile that yields
//! latency: MAC counts per engine, DMA traffic, weight staging and host
//! overhead cycles.

use crate::{CycleBreakdown, EngineKind, LayerProfile, RunReport};
use serde::{Deserialize, Serialize};

/// First-order per-event energy constants, in femtojoules so integer
/// arithmetic stays exact (1 pJ = 1000 fJ).
///
/// Defaults are derived from the DIANA ISSCC 2022 efficiency figures at
/// 0.8 V nominal: analog ≈ 600 TOPS/W → ~1.7 fJ/MAC, digital ≈
/// 14 TOPS/W → ~70 fJ/MAC, a scalar RISC-V at a few pJ per arithmetic
/// op, and DRAM-free on-chip SRAM transfers at ~1 pJ/byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyConfig {
    /// Femtojoules per MAC on the analog IMC array.
    pub analog_fj_per_mac: u64,
    /// Femtojoules per MAC on the digital PE array.
    pub digital_fj_per_mac: u64,
    /// Femtojoules per MAC on the host CPU.
    pub cpu_fj_per_mac: u64,
    /// Femtojoules per byte moved by the DMA (L2 ↔ L1 SRAM).
    pub dma_fj_per_byte: u64,
    /// Femtojoules per analog macro row-programming cycle / digital
    /// weight-stream cycle.
    pub weight_fj_per_cycle: u64,
    /// Femtojoules per host cycle of glue/overhead (and per CPU cycle of
    /// non-MAC kernel work).
    pub host_fj_per_cycle: u64,
    /// DMA payload bytes per cycle (to convert DMA cycles back to bytes).
    pub dma_bytes_per_cycle: u64,
}

impl Default for EnergyConfig {
    fn default() -> Self {
        EnergyConfig {
            analog_fj_per_mac: 2,
            digital_fj_per_mac: 70,
            cpu_fj_per_mac: 4_000,
            dma_fj_per_byte: 1_000,
            weight_fj_per_cycle: 500,
            host_fj_per_cycle: 120,
            dma_bytes_per_cycle: 8,
        }
    }
}

impl EnergyConfig {
    /// Estimated energy of one layer in femtojoules.
    #[must_use]
    pub fn layer_fj(&self, layer: &LayerProfile) -> u64 {
        let CycleBreakdown {
            compute,
            dma,
            weight_load,
            overhead,
            ..
        } = layer.cycles;
        let mac_energy = match layer.engine {
            EngineKind::Analog => layer.macs * self.analog_fj_per_mac,
            EngineKind::Digital => layer.macs * self.digital_fj_per_mac,
            // CPU kernels: MAC work plus per-cycle core energy for the
            // non-MAC remainder (pooling, softmax, requant).
            EngineKind::Cpu => layer.macs * self.cpu_fj_per_mac + compute * self.host_fj_per_cycle,
        };
        let dma_bytes = dma * self.dma_bytes_per_cycle;
        mac_energy
            + dma_bytes * self.dma_fj_per_byte
            + weight_load * self.weight_fj_per_cycle
            + overhead * self.host_fj_per_cycle
    }

    /// Estimated energy of a whole run in microjoules.
    #[must_use]
    pub fn run_uj(&self, report: &RunReport) -> f64 {
        let fj: u64 = report.layers.iter().map(|l| self.layer_fj(l)).sum();
        fj as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(engine: EngineKind, macs: u64, cycles: CycleBreakdown) -> LayerProfile {
        LayerProfile {
            name: "l".into(),
            engine,
            cycles,
            macs,
            n_tiles: 1,
        }
    }

    #[test]
    fn analog_macs_are_cheapest() {
        let cfg = EnergyConfig::default();
        let c = CycleBreakdown::default();
        let ana = cfg.layer_fj(&layer(EngineKind::Analog, 1_000_000, c));
        let dig = cfg.layer_fj(&layer(EngineKind::Digital, 1_000_000, c));
        let cpu = cfg.layer_fj(&layer(EngineKind::Cpu, 1_000_000, c));
        assert!(ana < dig && dig < cpu);
        // "more than one order of magnitude" CPU vs accelerator.
        assert!(cpu > 10 * dig);
    }

    #[test]
    fn dma_and_overhead_counted() {
        let cfg = EnergyConfig::default();
        let quiet = cfg.layer_fj(&layer(EngineKind::Digital, 0, CycleBreakdown::default()));
        assert_eq!(quiet, 0);
        let busy = cfg.layer_fj(&layer(
            EngineKind::Digital,
            0,
            CycleBreakdown {
                compute: 0,
                dma: 100,
                weight_load: 10,
                overhead: 10,
                stall: 0,
            },
        ));
        assert_eq!(
            busy,
            100 * 8 * cfg.dma_fj_per_byte
                + 10 * cfg.weight_fj_per_cycle
                + 10 * cfg.host_fj_per_cycle
        );
    }

    #[test]
    fn run_energy_sums_layers() {
        let cfg = EnergyConfig::default();
        let report = RunReport {
            outputs: vec![],
            layers: vec![
                layer(EngineKind::Digital, 1000, CycleBreakdown::default()),
                layer(EngineKind::Analog, 1000, CycleBreakdown::default()),
            ],
        };
        let expect = (1000 * cfg.digital_fj_per_mac + 1000 * cfg.analog_fj_per_mac) as f64 / 1e9;
        assert!((cfg.run_uj(&report) - expect).abs() < 1e-12);
    }
}
