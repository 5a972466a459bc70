//! Architectural parameters and calibrated cost constants.

use crate::EngineKind;
use htvm_dory::{CostModel, EngineModel};
use serde::{Deserialize, Serialize};

/// DMA engine model: each 1-D transfer pays a setup cost, then streams at
/// the bus width.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DmaConfig {
    /// Cycles to program and launch one 1-D transfer.
    pub setup_cycles: u64,
    /// Payload bytes moved per cycle once streaming (64-bit bus → 8).
    pub bytes_per_cycle: u64,
    /// Overlap activation DMA with accelerator compute across tile
    /// iterations (DORY's double-buffering). Off by default: the
    /// committed calibration serializes DMA, which matches the paper's
    /// network-level peak→full spreads; enabling this is the ablation the
    /// `ablation` binary sweeps.
    pub double_buffer: bool,
}

/// Digital accelerator model: a 16×16 PE array that spatially unrolls
/// input channels and input columns (paper §III-C), with a separate 64 kB
/// weight memory streamed over the DMA.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DigitalConfig {
    /// PE rows: input-channel lanes (16 on DIANA).
    pub pe_rows: usize,
    /// PE columns: input-width lanes (16 on DIANA).
    pub pe_cols: usize,
    /// Weight memory capacity in bytes (64 kB on DIANA).
    pub weight_bytes: usize,
    /// Effective depthwise throughput in MACs per cycle × 100 (DIANA's
    /// depthwise mapping uses one PE row: 3.75 MAC/cycle → 375).
    pub dw_macs_per_cycle_x100: u64,
    /// Element-wise add throughput, elements per cycle.
    pub add_elems_per_cycle: u64,
    /// Pipeline efficiency in percent (`cycles = ideal / efficiency`);
    /// captures array refill bubbles, accumulator drain and bank conflicts.
    pub efficiency_pct: u64,
    /// Host cycles to configure and hand-shake one tile invocation.
    pub tile_overhead: u64,
    /// Host cycles per generated kernel call (entry/exit, arg marshalling).
    pub kernel_call_overhead: u64,
}

/// Analog in-memory-compute accelerator model: a 1152×512 ternary SRAM
/// macro; weights are *written into the array* before compute, costing
/// cycles per mapped row, then each output spatial position is one
/// DAC→MAC→ADC pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalogConfig {
    /// Array rows (input-channel × filter unrolling), 1152 on DIANA.
    pub rows: usize,
    /// Array columns (output channels), 512 on DIANA.
    pub cols: usize,
    /// Cycles to load one row of the macro with weights.
    pub row_load_cycles: u64,
    /// Cycles per analog pass (one output spatial position, all mapped
    /// rows/cols at once), including DAC/ADC conversion.
    pub pass_cycles: u64,
    /// Pipeline efficiency in percent, as for the digital engine.
    pub efficiency_pct: u64,
    /// Host cycles to configure one tile invocation.
    pub tile_overhead: u64,
    /// Host cycles per generated kernel call.
    pub kernel_call_overhead: u64,
    /// Model the 7-bit DAC on the analog input path: activations are
    /// clamped to ±63 before the MAC array, as on the real silicon. Off
    /// by default so accelerated execution stays bit-exact against the
    /// 8-bit reference interpreter (the paper's networks are quantized
    /// for 7-bit analog inputs, so on-silicon no clamping occurs either).
    pub clamp_inputs_7bit: bool,
}

/// RISC-V host cost model for TVM-generated fused CPU kernels
/// (XpulpV2-aware GCC at `-O3`, per the paper's measurement setup).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Cycles per MAC for standard convolutions ×100 (calibrated so the
    /// ResNet-8 TVM baseline lands near the paper's 134 ms).
    pub conv_cycles_per_mac_x100: u64,
    /// Cycles per MAC for depthwise convolutions ×100 (depthwise has no
    /// data reuse on a scalar core; much slower).
    pub dw_cycles_per_mac_x100: u64,
    /// Cycles per MAC for dense layers ×100.
    pub dense_cycles_per_mac_x100: u64,
    /// Cycles per element for element-wise ops (add/relu/requant) ×100.
    pub elem_cycles_x100: u64,
    /// Cycles per pooled element × window size ×100.
    pub pool_cycles_x100: u64,
    /// Cycles per softmax element (exp + normalize).
    pub softmax_cycles_per_elem: u64,
    /// Cycles per kernel call (prologue/epilogue, argument setup).
    pub kernel_call_overhead: u64,
}

/// Full DIANA platform description: memories, engines and clock.
///
/// [`DianaConfig::default`] is calibrated against the paper's Table I
/// measurements at 260 MHz; see `EXPERIMENTS.md` for the paper-vs-model
/// comparison. All constants are plain fields so ablations can perturb
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DianaConfig {
    /// Host/system clock in MHz (260 on the measured silicon).
    pub clock_mhz: u64,
    /// Main (L2) memory in bytes, holding code, weights and activations.
    pub l2_bytes: usize,
    /// Shared L1 activation scratchpad in bytes (256 kB, shared by both
    /// accelerators).
    pub l1_act_bytes: usize,
    /// DMA engine.
    pub dma: DmaConfig,
    /// Digital accelerator.
    pub digital: DigitalConfig,
    /// Analog accelerator.
    pub analog: AnalogConfig,
    /// Host CPU.
    pub cpu: CpuConfig,
}

impl Default for DianaConfig {
    fn default() -> Self {
        DianaConfig {
            clock_mhz: 260,
            l2_bytes: 512 * 1024,
            l1_act_bytes: 256 * 1024,
            dma: DmaConfig {
                setup_cycles: 30,
                bytes_per_cycle: 8,
                double_buffer: false,
            },
            digital: DigitalConfig {
                pe_rows: 16,
                pe_cols: 16,
                weight_bytes: 64 * 1024,
                dw_macs_per_cycle_x100: 375,
                add_elems_per_cycle: 16,
                efficiency_pct: 40,
                tile_overhead: 300,
                kernel_call_overhead: 800,
            },
            analog: AnalogConfig {
                rows: 1152,
                cols: 512,
                row_load_cycles: 140,
                pass_cycles: 8,
                efficiency_pct: 50,
                tile_overhead: 300,
                kernel_call_overhead: 800,
                clamp_inputs_7bit: false,
            },
            cpu: CpuConfig {
                conv_cycles_per_mac_x100: 280,
                dw_cycles_per_mac_x100: 1100,
                dense_cycles_per_mac_x100: 450,
                elem_cycles_x100: 60,
                pool_cycles_x100: 60,
                softmax_cycles_per_elem: 60,
                kernel_call_overhead: 500,
            },
        }
    }
}

impl DianaConfig {
    /// Converts a cycle count to milliseconds at the configured clock.
    #[must_use]
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz as f64 * 1e3)
    }

    /// The price list of `engine` on this platform: what the simulator
    /// charges each tile, DMA transfer and layer call, and what
    /// [`TilingObjective::calibrated`](htvm_dory::TilingObjective::calibrated)
    /// predicts with.
    ///
    /// # Panics
    ///
    /// Panics if `engine` is [`EngineKind::Cpu`]; CPU steps have no tiles
    /// to score.
    #[must_use]
    pub fn cost_model(&self, engine: EngineKind) -> CostModel {
        let (d, a) = (&self.digital, &self.analog);
        let digital = CostModel {
            // Bumped whenever predictions change; part of every cache key.
            version: 3,
            // The heuristic objective spreads ~4 units over Eq. 3–5; the
            // single predicted-cycle term gets the same total weight.
            gamma: 4.0,
            dma_setup: self.dma.setup_cycles,
            dma_bytes_per_cycle: self.dma.bytes_per_cycle,
            kernel_call_overhead: d.kernel_call_overhead,
            tile_overhead: d.tile_overhead,
            engine: EngineModel::Digital {
                pe_rows: d.pe_rows,
                pe_cols: d.pe_cols,
                dw_macs_per_cycle_x100: d.dw_macs_per_cycle_x100,
                add_elems_per_cycle: d.add_elems_per_cycle,
                efficiency_pct: d.efficiency_pct,
            },
        };
        match engine {
            EngineKind::Digital => digital,
            EngineKind::Analog => CostModel {
                kernel_call_overhead: a.kernel_call_overhead,
                tile_overhead: a.tile_overhead,
                engine: EngineModel::Analog {
                    rows: a.rows,
                    cols: a.cols,
                    row_load_cycles: a.row_load_cycles,
                    pass_cycles: a.pass_cycles,
                    efficiency_pct: a.efficiency_pct,
                },
                ..digital
            },
            EngineKind::Cpu => panic!("cpu steps have no tiles to score"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_diana_datasheet() {
        let c = DianaConfig::default();
        assert_eq!(c.l2_bytes, 512 * 1024);
        assert_eq!(c.l1_act_bytes, 256 * 1024);
        assert_eq!(c.digital.weight_bytes, 64 * 1024);
        assert_eq!(c.analog.rows, 1152);
        assert_eq!(c.analog.cols, 512);
    }

    #[test]
    fn cycles_to_ms_at_260mhz() {
        let c = DianaConfig::default();
        assert!((c.cycles_to_ms(260_000) - 1.0).abs() < 1e-12);
        assert!((c.cycles_to_ms(130_000) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn engine_models_anchor_to_platform_defaults() {
        let p = DianaConfig::default();
        let (digital, analog) = (
            p.cost_model(EngineKind::Digital),
            p.cost_model(EngineKind::Analog),
        );
        assert_eq!(digital.dma_setup, p.dma.setup_cycles);
        assert_eq!(digital.kernel_call_overhead, p.digital.kernel_call_overhead);
        assert!(matches!(
            digital.engine,
            EngineModel::Digital { pe_rows, pe_cols, .. }
                if pe_rows == p.digital.pe_rows && pe_cols == p.digital.pe_cols
        ));
        assert!(matches!(
            analog.engine,
            EngineModel::Analog { rows, cols, .. }
                if rows == p.analog.rows && cols == p.analog.cols
        ));
        for model in [digital, analog] {
            assert_eq!((model.version, model.gamma), (3, 4.0));
        }
    }

    #[test]
    fn every_field_the_closed_form_reads_reaches_its_model() {
        use EngineKind::{Analog, Digital};
        let base = DianaConfig::default();
        type Edit = (&'static str, EngineKind, fn(&mut DianaConfig));
        let edits: [Edit; 18] = [
            ("dma.setup_cycles", Digital, |c| c.dma.setup_cycles += 1),
            ("dma.setup_cycles", Analog, |c| c.dma.setup_cycles += 1),
            ("dma.bytes_per_cycle", Digital, |c| {
                c.dma.bytes_per_cycle += 1
            }),
            ("dma.bytes_per_cycle", Analog, |c| {
                c.dma.bytes_per_cycle += 1
            }),
            ("digital.kernel_call_overhead", Digital, |c| {
                c.digital.kernel_call_overhead += 1;
            }),
            ("digital.tile_overhead", Digital, |c| {
                c.digital.tile_overhead += 1
            }),
            ("digital.pe_rows", Digital, |c| c.digital.pe_rows += 1),
            ("digital.pe_cols", Digital, |c| c.digital.pe_cols += 1),
            ("digital.dw_macs_per_cycle_x100", Digital, |c| {
                c.digital.dw_macs_per_cycle_x100 += 1;
            }),
            ("digital.add_elems_per_cycle", Digital, |c| {
                c.digital.add_elems_per_cycle += 1;
            }),
            ("digital.efficiency_pct", Digital, |c| {
                c.digital.efficiency_pct += 1
            }),
            ("analog.kernel_call_overhead", Analog, |c| {
                c.analog.kernel_call_overhead += 1;
            }),
            ("analog.tile_overhead", Analog, |c| {
                c.analog.tile_overhead += 1
            }),
            ("analog.efficiency_pct", Analog, |c| {
                c.analog.efficiency_pct += 1
            }),
            ("analog.rows", Analog, |c| c.analog.rows += 1),
            ("analog.cols", Analog, |c| c.analog.cols += 1),
            ("analog.row_load_cycles", Analog, |c| {
                c.analog.row_load_cycles += 1
            }),
            ("analog.pass_cycles", Analog, |c| c.analog.pass_cycles += 1),
        ];
        for (field, engine, edit) in edits {
            let mut cfg = base;
            edit(&mut cfg);
            assert_ne!(
                cfg.cost_model(engine).identity_bits(),
                base.cost_model(engine).identity_bits(),
                "{field} must reach the {engine} cost model"
            );
        }
    }
}
