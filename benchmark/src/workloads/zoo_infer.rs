//! `zoo_infer`: the paper's headline numbers and the simulator's own
//! speed. Artifacts are compiled once in set-up; each round runs
//! `Machine::run` on the 19 compiled cells. soc and kernels do all the
//! work, the compiler none: a compile-time gain must show no change
//! here, a tiling or mapping change shows here in simulated cycles.

use super::{probe, Layer, Round, Tally, Workload};
use crate::matrix::{build_cells, classify, deploy_id, input_for, quality, Cell, Quality, DEPLOYS};
use crate::spans::Recorder;
use crate::stats::{geomean, median, Rng};
use htvm::{Artifact, DeployConfig, DianaConfig, Machine};
use htvm_ir::Tensor;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

pub struct ZooInfer {
    /// The compiled cells only (the expected OOM has nothing to run).
    cells: Vec<Cell>,
    artifacts: Vec<Artifact>,
    inputs: Vec<Tensor>,
    /// `htvm_kernels::evaluate` on the original graph: an interpreter
    /// that shares nothing with the compiler or the simulator's tiling.
    reference: Vec<Vec<Tensor>>,
    machine: Machine,
    quality: Quality,
    build_us: f64,
    rounds_done: usize,
}

impl ZooInfer {
    fn from_cells(cells: Vec<Cell>, build_us: f64, seed: u64, tally: &mut Tally) -> Self {
        let mut kept = Vec::new();
        let mut artifacts = Vec::new();
        for cell in cells {
            let outcome = cell.compile();
            match classify(&cell, &outcome) {
                Err(why) => tally.check(false, || why),
                Ok(None) => {}
                Ok(Some(_)) => {
                    artifacts.extend(outcome.ok());
                    kept.push(cell);
                }
            }
        }
        let inputs: Vec<Tensor> = kept
            .iter()
            .enumerate()
            .map(|(i, c)| input_for(c, seed, i))
            .collect();
        let reference = kept
            .iter()
            .zip(&inputs)
            .map(|(cell, input)| {
                htvm_kernels::evaluate(&cell.model.graph, std::slice::from_ref(input))
                    .expect("the reference interpreter accepts the model's input")
            })
            .collect();
        let items: Vec<_> = artifacts.iter().zip(&inputs).collect();
        let (quality, _) = quality(&items);
        ZooInfer {
            cells: kept,
            artifacts,
            inputs,
            reference,
            machine: Machine::new(DianaConfig::default()),
            quality,
            build_us,
            rounds_done: 0,
        }
    }

    /// Median over traced rounds of the `soc.run` time summed over the
    /// cells `keep` selects, in microseconds.
    fn run_us(&self, rec: &Recorder, rounds: usize, keep: impl Fn(&Cell) -> bool) -> f64 {
        let n = self.cells.len() as u64;
        let mut per_round = vec![0.0; rounds];
        for span in rec.spans.iter().filter(|s| s.name == "soc.run") {
            if (span.round as usize) < rounds && keep(&self.cells[(span.request % n) as usize]) {
                per_round[span.round as usize] += span.dur_ns() as f64 / 1e3;
            }
        }
        median(&per_round)
    }

    fn cycles_geomean(&self, deploy: DeployConfig) -> f64 {
        let cycles: Vec<f64> = self
            .cells
            .iter()
            .zip(&self.quality.cycles)
            .filter(|(c, _)| c.deploy == deploy)
            .map(|(_, cycles)| *cycles as f64)
            .collect();
        geomean(&cycles)
    }

    /// Plain-TVM cycles over combined-configuration cycles, geomean over
    /// the models both configurations compile.
    fn speedup_vs_tvm(&self) -> f64 {
        let cycles_of = |model: &str, deploy| {
            self.cells
                .iter()
                .zip(&self.quality.cycles)
                .find(|(c, _)| c.model.name == model && c.deploy == deploy)
                .map(|(_, cycles)| *cycles as f64)
        };
        let ratios: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.deploy == DeployConfig::CpuTvm)
            .filter_map(|c| {
                let tvm = cycles_of(c.model.name, DeployConfig::CpuTvm)?;
                let both = cycles_of(c.model.name, DeployConfig::Both)?;
                Some(tvm / both)
            })
            .collect();
        geomean(&ratios)
    }
}

impl Workload for ZooInfer {
    const NAME: &'static str = "zoo_infer";
    const WARMUP_ROUNDS: usize = 2;
    const THREADS: usize = 1;

    fn setup(seed: u64, _traced: bool, tally: &mut Tally) -> Self {
        let (cells, build_us) = build_cells(&DEPLOYS);
        ZooInfer::from_cells(cells, build_us, seed, tally)
    }

    fn classes(&self) -> Vec<String> {
        self.cells.iter().map(Cell::name).collect()
    }

    fn round(
        &mut self,
        rng: &mut Rng,
        tally: &mut Tally,
        mut trace: Option<&mut [Recorder]>,
    ) -> Round {
        let n = self.cells.len();
        let mut round = Round::default();
        for index in rng.permutation(n) {
            let request = (self.rounds_done * n + index) as u64;
            let program = &self.artifacts[index].program;
            let input = std::slice::from_ref(&self.inputs[index]);
            let t0 = Instant::now();
            let report = match trace.as_deref_mut() {
                None => self.machine.run(black_box(program), input),
                Some(recorders) => {
                    let rec = &mut recorders[0];
                    let job = rec.open("round.job", request);
                    let report = rec.time("soc.run", request, || {
                        self.machine.run(black_box(program), input)
                    });
                    rec.close(job);
                    report
                }
            };
            let ns = t0.elapsed().as_nanos() as u64;
            round.jobs.push((index, ns));
            round.wall_ns += ns;
            let name = || self.cells[index].name();
            match report {
                Err(e) => tally.check(false, || format!("{}: run failed: {e}", name())),
                Ok(report) => {
                    tally.check(report.outputs == self.reference[index], || {
                        format!("{}: outputs differ from the reference interpreter", name())
                    });
                    tally.check(report.total_cycles() == self.quality.cycles[index], || {
                        format!("{}: simulated cycles changed between runs", name())
                    });
                }
            }
        }
        self.rounds_done += 1;
        round
    }

    fn quality(&self) -> &Quality {
        &self.quality
    }

    fn layer_metrics(
        &mut self,
        recorders: &mut [Recorder],
        rounds: usize,
        reps: usize,
        layer: &mut Layer,
    ) {
        let rec = &mut recorders[0];
        layer.set("models.build_us", self.build_us);
        let total_us = self.run_us(rec, rounds, |_| true);
        for deploy in DEPLOYS {
            let id = deploy_id(deploy);
            layer.set(
                format!("soc.run_us.{id}"),
                self.run_us(rec, rounds, |c| c.deploy == deploy),
            );
            layer.set(
                format!("soc.cycles_geomean.{id}"),
                self.cycles_geomean(deploy),
            );
        }
        let models: BTreeSet<&str> = self.cells.iter().map(|c| c.model.name).collect();
        for model in models {
            layer.set(
                format!("soc.run_us.{model}"),
                self.run_us(rec, rounds, |c| c.model.name == model),
            );
        }
        let q = &self.quality;
        layer.set("soc.cycles.compute", q.compute as f64);
        layer.set("soc.cycles.dma", q.dma as f64);
        layer.set("soc.cycles.weight_load", q.weight_load as f64);
        layer.set("soc.cycles.overhead", q.overhead as f64);
        layer.set("soc.cycles.stall", q.stall as f64);
        layer.set("soc.speedup_vs_tvm_geomean", self.speedup_vs_tvm());
        layer.set("dory.tiles_total", q.tiles_total as f64);
        layer.set("soc.host_ns_per_mac", total_us * 1e3 / q.macs_total as f64);
        layer.set(
            "core.offload_fraction_mean",
            self.artifacts
                .iter()
                .map(Artifact::offload_fraction)
                .sum::<f64>()
                / self.artifacts.len() as f64,
        );

        let evaluate_us = probe(rec, "kernels.evaluate", reps, || {
            for (cell, input) in self.cells.iter().zip(&self.inputs) {
                black_box(htvm_kernels::evaluate(
                    &cell.model.graph,
                    std::slice::from_ref(input),
                ))
                .ok();
            }
        });
        layer.set("kernels.evaluate_us", evaluate_us);
        // What the simulator spends beyond computing the tensors: tile
        // walks, DMA replay, cycle bookkeeping. Can read below 0 when
        // the tiled kernels beat the reference interpreter.
        layer.set("soc.overhead_us", total_us - evaluate_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(tally: &mut Tally) -> ZooInfer {
        let (cells, build_us) = build_cells(&[DeployConfig::Digital]);
        let cells = cells
            .into_iter()
            .filter(|c| c.model.name == "toyadmos_dae")
            .collect();
        ZooInfer::from_cells(cells, build_us, 11, tally)
    }

    #[test]
    fn a_round_passes_on_honest_references() {
        let mut tally = Tally::default();
        let mut state = small(&mut tally);
        let round = state.round(&mut Rng::new(1), &mut tally, None);
        assert_eq!(round.jobs.len(), 1);
        assert_eq!((tally.attempted, tally.failed), (2, 0));
    }

    /// The output check bites: one flipped reference value fails the
    /// run (and `main` turns a failed operation into a non-zero exit).
    #[test]
    fn a_perturbed_reference_output_fails_the_round() {
        let mut tally = Tally::default();
        let mut state = small(&mut tally);
        let value = &mut state.reference[0][0].data_mut()[0];
        *value = if *value == 0 { 1 } else { 0 };
        state.round(&mut Rng::new(1), &mut tally, None);
        assert_eq!(tally.failed, 1);
        assert!(tally.notes[0].contains("outputs differ"));
        assert_ne!(crate::exit_code(&tally), 0);
    }
}
