//! The compiled deployment artifact.

use crate::binsize::BinarySize;
use htvm_soc::{EngineKind, Program, Step};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Observability counters from one [`lower`](crate::lower) run: how much
/// tiling-solver work the compile did, how much the [`TileCache`] absorbed,
/// and how the wall time split between the solve phase and the emit
/// phase.
///
/// Stats describe *how* the artifact was produced, not *what* was produced:
/// they are excluded from `Artifact` equality and serialization, so a
/// warm-cache recompile yields an artifact equal to the cold one even
/// though its stats differ.
///
/// [`TileCache`]: htvm_dory::TileCache
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Accelerator regions lowered (one tiling solve each).
    pub regions: usize,
    /// Solver invocations actually performed (cache misses, or all regions
    /// when no cache is installed).
    pub solves_performed: u64,
    /// Solves answered from the [`TileCache`](htvm_dory::TileCache).
    pub cache_hits: u64,
    /// Wall time of the solve phase (extraction + tiling).
    pub solve_time: Duration,
    /// Wall time of the emit phase (buffers, steps, L2 planning).
    pub emit_time: Duration,
}

/// Where one step of the program runs — the per-layer report users audit
/// offload decisions with. A row is a view over one [`Step`]: every member
/// is a function of that step, so the artifact stores none of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerAssignment<'a> {
    /// Step name.
    pub name: &'a str,
    /// Engine executing the step.
    pub engine: EngineKind,
    /// Pattern that matched (accelerator steps only).
    pub pattern: Option<&'a str>,
    /// MACs in the step.
    pub macs: u64,
    /// Tile-loop length (1 when untiled; accelerator steps only).
    pub n_tiles: usize,
}

/// The name [`lower`](crate::lower) gives the accelerator step of a
/// `pattern` match rooted at graph node `root`: `<pattern>_<root>`.
pub(crate) fn accel_step_name(pattern: &str, root: usize) -> String {
    format!("{pattern}_{root}")
}

/// The inverse of [`accel_step_name`]: an accelerator step's pattern is
/// its name up to the last `_`.
fn pattern_of(step_name: &str) -> &str {
    step_name
        .rsplit_once('_')
        .map_or(step_name, |split| split.0)
}

/// A compiled deployment: the device program and its modeled binary size.
///
/// An artifact stores what its steps alone cannot give back. The
/// per-layer report ([`Artifact::assignments`]), the step counts and the
/// offload fraction are views over `program.steps`. So is `binary`, since
/// every compile prices with the one default
/// [`BinarySizeModel`](crate::binsize::BinarySizeModel); it stays stored
/// only because the `benchmark/` crate reads the field.
///
/// Equality and serialization cover the *product* only; [`CompileStats`]
/// (wall times, cache counters) is carried for observability but compares
/// equal regardless and round-trips as `Default`.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Artifact {
    /// The executable program (see [`htvm_soc::Machine`]).
    pub program: Program,
    /// Modeled deployed image size.
    pub binary: BinarySize,
    /// How the compile went (solver work, cache hits, phase timings).
    #[serde(skip)]
    pub stats: CompileStats,
}

impl PartialEq for Artifact {
    fn eq(&self, other: &Self) -> bool {
        self.program == other.program && self.binary == other.binary
    }
}

impl Artifact {
    /// One row per step, in execution order.
    pub fn assignments(&self) -> impl ExactSizeIterator<Item = LayerAssignment<'_>> + '_ {
        self.program.steps.iter().map(|step| match step {
            Step::Accel { engine, desc, .. } => LayerAssignment {
                name: &desc.name,
                engine: *engine,
                pattern: Some(pattern_of(&desc.name)),
                macs: desc.geom.macs(),
                n_tiles: desc.tile.num_tiles(&desc.geom),
            },
            Step::CpuFused { name, graph, .. } => LayerAssignment {
                name,
                engine: EngineKind::Cpu,
                pattern: None,
                macs: graph.total_macs(),
                n_tiles: 1,
            },
        })
    }

    /// Number of steps offloaded to an engine.
    #[must_use]
    pub fn steps_on(&self, engine: EngineKind) -> usize {
        self.assignments().filter(|a| a.engine == engine).count()
    }

    /// Fraction of total MACs offloaded to accelerators (0 when the graph
    /// has no MAC workload at all).
    #[must_use]
    pub fn offload_fraction(&self) -> f64 {
        let total: u64 = self.assignments().map(|a| a.macs).sum();
        if total == 0 {
            return 0.0;
        }
        let offloaded: u64 = self
            .assignments()
            .filter(|a| a.engine != EngineKind::Cpu)
            .map(|a| a.macs)
            .sum();
        offloaded as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_layer_program;
    use htvm_dory::{LayerGeometry, TileConfig};
    use htvm_ir::{DType, GraphBuilder};
    use htvm_soc::BufferId;

    /// A 900-MAC dense layer on the digital engine, tiled in four along
    /// `k`, followed by a CPU step carrying 100 MACs of its own.
    fn dense_then_cpu() -> Artifact {
        let geom = LayerGeometry::dense(30, 30);
        let tile = TileConfig {
            k_t: 8,
            ..TileConfig::full(&geom)
        };
        let mut program = single_layer_program(&geom, tile, EngineKind::Digital);
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[10], DType::I8);
        let w = b.constant("w", htvm_ir::Tensor::zeros(DType::I8, &[10, 10]));
        let y = b.dense(x, w).unwrap();
        program.steps.push(Step::CpuFused {
            name: "cpu_7".into(),
            graph: b.finish(&[y]).unwrap(),
            inputs: vec![BufferId(1)],
            output: BufferId(1),
        });
        Artifact {
            program,
            binary: BinarySize::default(),
            stats: CompileStats::default(),
        }
    }

    #[test]
    fn offload_fraction_counts_macs() {
        let artifact = dense_then_cpu();
        let rows: Vec<LayerAssignment> = artifact.assignments().collect();
        assert_eq!(
            rows,
            [
                LayerAssignment {
                    name: "dense",
                    engine: EngineKind::Digital,
                    pattern: Some("dense"),
                    macs: 900,
                    n_tiles: 4,
                },
                LayerAssignment {
                    name: "cpu_7",
                    engine: EngineKind::Cpu,
                    pattern: None,
                    macs: 100,
                    n_tiles: 1,
                },
            ]
        );
        assert_eq!(artifact.steps_on(EngineKind::Digital), 1);
        assert_eq!(artifact.steps_on(EngineKind::Analog), 0);
        assert!((artifact.offload_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_artifact_offloads_nothing() {
        let mut artifact = dense_then_cpu();
        artifact.program.steps.clear();
        assert_eq!(artifact.assignments().len(), 0);
        assert_eq!(artifact.offload_fraction(), 0.0);
    }

    #[test]
    fn a_step_name_gives_back_its_pattern() {
        for (pattern, root) in [("conv2d_bias_requant", 12), ("dense", 0), ("add", 7)] {
            assert_eq!(pattern_of(&accel_step_name(pattern, root)), pattern);
        }
    }
}
