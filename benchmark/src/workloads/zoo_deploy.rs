//! `zoo_deploy`: the paper's deployment flow over the whole Table I
//! matrix. Each round walks the 20 cells from HTF bytes:
//! `htvm_frontend::import` → a fresh `Compiler` (cold `TileCache`) →
//! `binary_size`. Frontend, ir passes, pattern, dory and codegen do all
//! the work; soc, kernels and serve do none.

use super::{probe, Layer, Round, Tally, Workload};
use crate::matrix::{build_cells, classify, input_for, quality, serialized_hash};
use crate::matrix::{Cell, Quality, DEPLOYS};
use crate::spans::Recorder;
use crate::stats::Rng;
use htvm::binsize::{binary_size, BinarySize, BinarySizeModel};
use htvm::{diana_patterns, dispatch_rule, Artifact, CompileError, Compiler, DeployConfig};
use htvm::{DianaConfig, EngineKind, LowerOptions, TileCache};
use htvm_dory::{ArrayDims, LayerGeometry, MemoryBudget, TilingObjective};
use htvm_ir::{passes, Graph};
use htvm_pattern::{partition, PartitionedGraph};
use std::hint::black_box;
use std::time::Instant;

/// Every this-many rounds the compiled artifacts are also compared as
/// serialized bytes (off the clock; equality of the in-memory artifact
/// is checked every round).
const BYTES_CHECK_EVERY: usize = 64;

pub struct ZooDeploy {
    cells: Vec<Cell>,
    /// The set-up compile of each cell; `None` for the expected OOM.
    reference: Vec<Option<Artifact>>,
    reference_hash: Vec<Option<u64>>,
    quality: Quality,
    build_us: f64,
    rounds_done: usize,
}

/// The compiler's partition step: the DIANA pattern table (none for
/// plain TVM) with `htvm::dispatch_rule` as the accept closure.
fn partition_for(
    folded: &Graph,
    deploy: DeployConfig,
    platform: &DianaConfig,
) -> PartitionedGraph<EngineKind> {
    let patterns = if deploy == DeployConfig::CpuTvm {
        Vec::new()
    } else {
        diana_patterns()
    };
    partition(folded, &patterns, |p, m| {
        dispatch_rule(platform, deploy, folded, p, m)
    })
}

/// The artifact of a round's import-then-compile, if both succeeded.
fn compiled<E>(outcome: &Result<Result<Artifact, CompileError>, E>) -> Option<&Artifact> {
    outcome.as_ref().ok()?.as_ref().ok()
}

/// `Compiler::compile`, re-composed from its public pieces with a span
/// around each (the compiler's own order: verify → fold → verify →
/// partition with the DIANA dispatch rule → lower, cold tile cache).
fn compile_in_pieces(
    rec: &mut Recorder,
    request: u64,
    graph: &Graph,
    deploy: DeployConfig,
) -> Result<Artifact, CompileError> {
    rec.time("ir.verify", request, || passes::verify(graph))?;
    let folded = rec.time("ir.fold_constants", request, || {
        passes::fold_constants(graph).0
    });
    rec.time("ir.verify", request, || passes::verify(&folded))?;
    let platform = DianaConfig::default();
    let part = rec.time("pattern.partition", request, || {
        partition_for(&folded, deploy, &platform)
    });
    let lower_span = rec.open("codegen.lower", request);
    let opts = LowerOptions {
        naive_l2: deploy.naive_l2(),
        tile_cache: Some(TileCache::new()),
        ..LowerOptions::default()
    };
    let lowered = htvm_codegen::lower(&folded, &part, &platform, &opts);
    rec.close(lower_span);
    if let Ok(artifact) = &lowered {
        // The two phases `lower` clocks itself; what is left of the
        // span is buffer declaration, L2 planning and the size model.
        rec.derive_children(
            lower_span,
            &[
                ("dory.solve", artifact.stats.solve_time.as_nanos() as u64),
                ("codegen.emit", artifact.stats.emit_time.as_nanos() as u64),
            ],
        );
    }
    Ok(lowered?)
}

impl ZooDeploy {
    fn check_cell(
        &self,
        index: usize,
        outcome: &Result<Artifact, CompileError>,
        size: Option<BinarySize>,
        tally: &mut Tally,
    ) {
        let cell = &self.cells[index];
        match classify(cell, outcome) {
            Err(why) => tally.check(false, || why),
            Ok(compiled) => {
                let reference = self.reference[index].as_ref();
                tally.check(compiled == reference, || {
                    format!("{}: artifact differs from the set-up compile", cell.name())
                });
                tally.check(size == reference.map(|a| a.binary), || {
                    format!("{}: binary_size differs from the artifact's", cell.name())
                });
                if self.rounds_done.is_multiple_of(BYTES_CHECK_EVERY) {
                    tally.check(
                        compiled.map(serialized_hash) == self.reference_hash[index],
                        || format!("{}: serialized artifact hash changed", cell.name()),
                    );
                }
            }
        }
    }
}

impl Workload for ZooDeploy {
    const NAME: &'static str = "zoo_deploy";
    const WARMUP_ROUNDS: usize = 3;
    const THREADS: usize = 1;

    fn setup(seed: u64, _traced: bool, tally: &mut Tally) -> Self {
        let (cells, build_us) = build_cells(&DEPLOYS);
        let mut reference = Vec::with_capacity(cells.len());
        for cell in &cells {
            let outcome = cell.compile();
            if let Err(why) = classify(cell, &outcome) {
                tally.check(false, || why);
            }
            reference.push(outcome.ok());
        }
        let reference_hash = reference
            .iter()
            .map(|r| r.as_ref().map(serialized_hash))
            .collect();
        let inputs: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| input_for(c, seed, i))
            .collect();
        let compiled: Vec<_> = reference
            .iter()
            .zip(&inputs)
            .filter_map(|(r, input)| r.as_ref().map(|a| (a, input)))
            .collect();
        let (quality, _) = quality(&compiled);
        ZooDeploy {
            cells,
            reference,
            reference_hash,
            quality,
            build_us,
            rounds_done: 0,
        }
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
        let size_model = BinarySizeModel::default();
        let mut round = Round::default();
        for index in rng.permutation(n) {
            let cell = &self.cells[index];
            let request = (self.rounds_done * n + index) as u64;
            let t0 = Instant::now();
            let (outcome, size) = match trace.as_deref_mut() {
                None => {
                    let outcome = htvm_frontend::import(black_box(&cell.htf))
                        .map_err(|e| e.to_string())
                        .map(|graph| Compiler::new().with_deploy(cell.deploy).compile(&graph));
                    let size =
                        compiled(&outcome).map(|a| binary_size(&size_model, &a.program.steps));
                    (outcome, size)
                }
                Some(recorders) => {
                    let rec = &mut recorders[0];
                    let job = rec.open("round.job", request);
                    let outcome = rec
                        .time("frontend.import", request, || {
                            htvm_frontend::import(black_box(&cell.htf))
                        })
                        .map_err(|e| e.to_string())
                        .map(|graph| compile_in_pieces(rec, request, &graph, cell.deploy));
                    let size = compiled(&outcome).map(|a| {
                        rec.time("codegen.binary_size", request, || {
                            binary_size(&size_model, &a.program.steps)
                        })
                    });
                    rec.close(job);
                    (outcome, size)
                }
            };
            let ns = t0.elapsed().as_nanos() as u64;
            black_box(&size);
            round.jobs.push((index, ns));
            round.wall_ns += ns;
            match outcome {
                Err(why) => tally.check(false, || format!("{}: import failed: {why}", cell.name())),
                Ok(outcome) => self.check_cell(index, &outcome, size, tally),
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
        _rounds: usize,
        reps: usize,
        layer: &mut Layer,
    ) {
        let rec = &mut recorders[0];
        let platform = DianaConfig::default();
        let opts = LowerOptions::default();
        let l1_act = if platform.dma.double_buffer {
            platform.l1_act_bytes / 2
        } else {
            platform.l1_act_bytes
        };

        // One untimed sweep for the counts, collecting every region's
        // tiling problem for the standalone solver probe.
        let mut problems: Vec<(LayerGeometry, MemoryBudget, &TilingObjective)> = Vec::new();
        let (mut before, mut after, mut regions) = (0usize, 0usize, 0usize);
        for cell in &self.cells {
            let graph = &cell.model.graph;
            let folded = passes::fold_constants(graph).0;
            before += graph.len();
            after += folded.len();
            let part = partition_for(&folded, cell.deploy, &platform);
            regions += part.regions.len();
            for region in &part.regions {
                let extracted = htvm_codegen::extract(&folded, &region.pattern, &region.m)
                    .expect("a dispatched region extracts");
                let (budget, objective) = match region.tag {
                    EngineKind::Analog => (
                        MemoryBudget {
                            act_bytes: l1_act,
                            weight_bytes: None,
                            array: Some(ArrayDims {
                                rows: platform.analog.rows,
                                cols: platform.analog.cols,
                            }),
                        },
                        &opts.analog_objective,
                    ),
                    _ => (
                        MemoryBudget {
                            act_bytes: l1_act,
                            weight_bytes: Some(platform.digital.weight_bytes),
                            array: None,
                        },
                        &opts.digital_objective,
                    ),
                };
                problems.push((extracted.geom, budget, objective));
            }
        }
        let compiled: Vec<&Artifact> = self.reference.iter().flatten().collect();
        layer.set("models.build_us", self.build_us);
        layer.set(
            "frontend.bytes_in",
            self.cells.iter().map(|c| c.htf.len()).sum::<usize>() as f64,
        );
        layer.set("ir.nodes_before_fold", before as f64);
        layer.set("ir.nodes_after_fold", after as f64);
        layer.set("pattern.regions", regions as f64);
        layer.set(
            "core.offload_fraction_mean",
            compiled.iter().map(|a| a.offload_fraction()).sum::<f64>() / compiled.len() as f64,
        );
        layer.set(
            "dory.solves",
            compiled
                .iter()
                .map(|a| a.stats.solves_performed)
                .sum::<u64>() as f64,
        );
        layer.set(
            "dory.tile_cache_hits",
            compiled.iter().map(|a| a.stats.cache_hits).sum::<u64>() as f64,
        );
        layer.set("dory.tiles_total", self.quality.tiles_total as f64);
        layer.set(
            "codegen.dma_descriptors",
            compiled
                .iter()
                .flat_map(|a| a.program.dma.iter())
                .map(|(_, step)| step.descriptors.len())
                .sum::<usize>() as f64,
        );
        layer.set(
            "codegen.artifact_bytes",
            compiled
                .iter()
                .map(|a| serde_json::to_string(*a).map_or(0, |s| s.len()))
                .sum::<usize>() as f64,
        );

        layer.set(
            "core.compile_us",
            probe(rec, "core.compile", reps, || {
                for cell in &self.cells {
                    black_box(cell.compile()).ok();
                }
            }),
        );
        layer.set(
            "dory.solve_standalone_us",
            probe(rec, "dory.solve_standalone", reps, || {
                for (geom, budget, objective) in &problems {
                    black_box(htvm_dory::solve(geom, budget, objective)).ok();
                }
            }),
        );
        layer.set(
            "codegen.serialize_us",
            probe(rec, "codegen.serialize", reps, || {
                for artifact in &compiled {
                    black_box(serde_json::to_string(*artifact)).ok();
                }
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced run is only worth reading if the pieces it clocks
    /// build the same artifact the compiler does.
    #[test]
    fn pieces_compose_to_the_compilers_artifact() {
        let (cells, _) = build_cells(&[DeployConfig::Both, DeployConfig::CpuTvm]);
        let mut rec = Recorder::new(Instant::now(), 0);
        for cell in cells.iter().filter(|c| c.model.name != "mobilenet_v1") {
            let whole = cell.compile().unwrap();
            let pieces = compile_in_pieces(&mut rec, 0, &cell.model.graph, cell.deploy).unwrap();
            assert_eq!(whole, pieces, "{}", cell.name());
            assert_eq!(serialized_hash(&whole), serialized_hash(&pieces));
        }
        let oom = cells.iter().find(|c| c.expects_oom()).unwrap();
        let outcome = compile_in_pieces(&mut rec, 0, &oom.model.graph, oom.deploy);
        assert_eq!(classify(oom, &outcome), Ok(None));
    }
}
