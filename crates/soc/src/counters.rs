//! Performance counters and run reports.

use crate::{EnergyConfig, EngineKind};
use htvm_ir::Tensor;
use htvm_trace::{Span, TimeDomain, Trace, Track};
use serde::{Deserialize, Serialize};

/// Cycle breakdown for one layer/kernel, mirroring DIANA's hardware
/// performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Cycles the engine's datapath was busy.
    pub compute: u64,
    /// Activation DMA cycles (L2 ↔ L1).
    pub dma: u64,
    /// Weight transfer cycles (DMA to the digital weight memory, or analog
    /// macro row programming).
    pub weight_load: u64,
    /// Host overhead: kernel calls, per-tile configuration/handshake.
    pub overhead: u64,
    /// Always 0: the machine models no stalls, and [`total`](Self::total)
    /// does not count this field. It stays only because readers outside
    /// this workspace still name it (the repository benchmark and the
    /// bench report schema v1's `LayerReport::stall`).
    #[serde(default)]
    pub stall: u64,
}

impl CycleBreakdown {
    /// All cycles: what the host observes between kernel call and return
    /// (the paper's "full kernel" measurement).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.compute + self.dma + self.weight_load + self.overhead
    }

    /// Accelerator-only cycles: trigger to completion, weight transfer
    /// included (the paper's "peak performance" measurement, §IV-B).
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.compute + self.weight_load
    }
}

/// Per-layer execution profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProfile {
    /// Layer or kernel name.
    pub name: String,
    /// Engine that executed it.
    pub engine: EngineKind,
    /// Cycle breakdown.
    pub cycles: CycleBreakdown,
    /// Multiply-accumulates performed.
    pub macs: u64,
    /// Accelerator invocations (tile count); 1 for CPU kernels.
    pub n_tiles: usize,
}

/// The result of running a program on the simulated SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Network outputs, in signature order.
    pub outputs: Vec<Tensor>,
    /// Per-layer profiles, in execution order.
    pub layers: Vec<LayerProfile>,
}

impl RunReport {
    /// Total cycles (the "full kernel" end-to-end latency).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles.total()).sum()
    }

    /// End-to-end cycles with accelerator layers counted at peak (trigger
    /// to completion) — the Table I "Peak" columns: CPU kernels keep their
    /// full cost ("Peak measurements... do not affect TVM-generated
    /// kernels", §IV-C).
    #[must_use]
    pub fn peak_cycles(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| match l.engine {
                EngineKind::Cpu => l.cycles.total(),
                _ => l.cycles.peak(),
            })
            .sum()
    }

    /// Total cycles spent on one engine.
    #[must_use]
    pub fn engine_cycles(&self, engine: EngineKind) -> u64 {
        self.layers
            .iter()
            .filter(|l| l.engine == engine)
            .map(|l| l.cycles.total())
            .sum()
    }

    /// Total MACs executed.
    #[must_use]
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Rebuilds the run as a cycles-domain [`Trace`] in the unified
    /// `htvm-trace` event model: one span per layer on its engine's
    /// track, with the full cycle breakdown (and per-layer energy, when a
    /// model is given) attached as arguments.
    ///
    /// Track ids follow [`RunReport::track_of`]: cpu 0, digital 1,
    /// analog 2 — the same rows the compile trace never uses,
    /// so compile and run traces can be inspected with one mental model.
    #[must_use]
    pub fn to_trace(&self, energy: Option<&EnergyConfig>) -> Trace {
        let mut trace = Trace::new(
            TimeDomain::Cycles,
            vec![
                Track::new(0, "cpu"),
                Track::new(1, "digital"),
                Track::new(2, "analog"),
            ],
        );
        let mut cursor: u64 = 0;
        for layer in &self.layers {
            // Zero-cycle layers are emitted with a 1-cycle floor so they
            // stay visible in the viewer; the cursor must advance by the
            // same emitted duration or they would overlap their successor.
            let dur = layer.cycles.total().max(1);
            let mut span = Span::new(&layer.name, Self::track_of(layer.engine), cursor, dur)
                .with_arg("engine", layer.engine.to_string())
                .with_arg("compute_cycles", layer.cycles.compute)
                .with_arg("dma_cycles", layer.cycles.dma)
                .with_arg("weight_load_cycles", layer.cycles.weight_load)
                .with_arg("overhead_cycles", layer.cycles.overhead)
                .with_arg("macs", layer.macs)
                .with_arg("tiles", layer.n_tiles);
            if let Some(cfg) = energy {
                span = span.with_arg("energy_fj", cfg.layer_fj(layer));
            }
            trace.spans.push(span);
            cursor += dur;
        }
        trace
    }

    /// Trace track id for an engine (cpu 0, digital 1, analog 2).
    #[must_use]
    pub fn track_of(engine: EngineKind) -> u32 {
        match engine {
            EngineKind::Cpu => 0,
            EngineKind::Digital => 1,
            EngineKind::Analog => 2,
        }
    }

    /// Exports the run as Chrome trace-event JSON (load it in
    /// `chrome://tracing` or Perfetto). Shorthand for
    /// [`RunReport::to_trace`] without an energy model, rendered through
    /// the shared [`Trace::to_chrome_trace`] writer.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        self.to_trace(None).to_chrome_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(engine: EngineKind, compute: u64, dma: u64, wl: u64, ovh: u64) -> LayerProfile {
        LayerProfile {
            name: "l".into(),
            engine,
            cycles: CycleBreakdown {
                compute,
                dma,
                weight_load: wl,
                overhead: ovh,
                stall: 0,
            },
            macs: 100,
            n_tiles: 1,
        }
    }

    fn report(layers: Vec<LayerProfile>) -> RunReport {
        RunReport {
            outputs: vec![],
            layers,
        }
    }

    #[test]
    fn chrome_trace_is_valid_json_with_sequential_events() {
        let report = report(vec![
            profile(EngineKind::Digital, 100, 50, 20, 30),
            profile(EngineKind::Cpu, 1000, 0, 0, 10),
        ]);
        let trace = report.to_chrome_trace();
        let v: serde_json::Value = serde_json::from_str(&trace).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        // 2 duration events + 3 thread-name metadata events.
        assert_eq!(events.len(), 5);
        assert_eq!(events[0]["ts"], 0);
        assert_eq!(events[0]["dur"], 200);
        assert_eq!(events[1]["ts"], 200);
        assert_eq!(events[0]["args"]["dma_cycles"], 50);
    }

    #[test]
    fn chrome_trace_zero_cycle_layers_do_not_overlap() {
        // A zero-cost layer renders with a 1-cycle floor; its successor
        // must start after it, not on top of it.
        let report = report(vec![
            profile(EngineKind::Cpu, 0, 0, 0, 0),
            profile(EngineKind::Cpu, 100, 0, 0, 0),
        ]);
        let trace = report.to_chrome_trace();
        let v: serde_json::Value = serde_json::from_str(&trace).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events[0]["ts"], 0);
        assert_eq!(events[0]["dur"], 1);
        assert_eq!(events[1]["ts"], 1);
    }

    #[test]
    fn chrome_trace_events_never_overlap_within_a_row() {
        // Mixed zero-cycle and plain layers: on every row, events must be
        // disjoint and the timeline cursor strictly advances.
        let report = report(vec![
            profile(EngineKind::Cpu, 0, 0, 0, 0),
            profile(EngineKind::Analog, 10, 5, 0, 1),
            profile(EngineKind::Digital, 20, 0, 0, 0),
            profile(EngineKind::Cpu, 0, 0, 0, 0),
        ]);
        let v: serde_json::Value = serde_json::from_str(&report.to_chrome_trace()).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        let mut rows: std::collections::HashMap<u64, Vec<(u64, u64)>> =
            std::collections::HashMap::new();
        let mut last_end = 0u64;
        for e in events.iter().filter(|e| e["ph"] == "X") {
            let (ts, dur) = (e["ts"].as_u64().unwrap(), e["dur"].as_u64().unwrap());
            assert!(dur >= 1, "every span has visible width");
            rows.entry(e["tid"].as_u64().unwrap())
                .or_default()
                .push((ts, dur));
            last_end = last_end.max(ts + dur);
        }
        for spans in rows.values_mut() {
            spans.sort_unstable();
            for pair in spans.windows(2) {
                assert!(
                    pair[0].0 + pair[0].1 <= pair[1].0,
                    "spans overlap within a row: {pair:?}"
                );
            }
        }
        // Cursor advanced strictly: total timeline is at least one cycle
        // per layer.
        assert!(last_end >= report.layers.len() as u64);
    }

    #[test]
    fn peak_excludes_dma_overhead_and_stall_for_accels_only() {
        let report = report(vec![
            profile(EngineKind::Digital, 100, 50, 20, 30),
            profile(EngineKind::Cpu, 1000, 0, 0, 10),
        ]);
        assert_eq!(report.total_cycles(), 200 + 1010);
        assert_eq!(report.peak_cycles(), 120 + 1010);
        assert_eq!(report.engine_cycles(EngineKind::Digital), 200);
        assert_eq!(report.engine_cycles(EngineKind::Analog), 0);
        assert_eq!(report.total_macs(), 200);
    }
}
