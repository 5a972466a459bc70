//! The Table I matrix: zoo model × deployment configuration, each with
//! the paper's quantisation recipe, plus the modelled-hardware numbers
//! (binary size, simulated cycles, energy) of a set of artifacts.

use crate::stats::{fnv64, geomean};
use htvm::{Artifact, CompileError, Compiler, DeployConfig, DianaConfig, EnergyConfig, LowerError};
use htvm::{Machine, RunReport};
use htvm_ir::Tensor;
use htvm_models::{all_models, Model, QuantScheme};
use std::time::Instant;

pub const DEPLOYS: [DeployConfig; 4] = [
    DeployConfig::CpuTvm,
    DeployConfig::Digital,
    DeployConfig::Analog,
    DeployConfig::Both,
];

/// The deployments of the serve soak mix (`htvm_bench::serve_bench::request_mix`).
pub const SERVE_DEPLOYS: [DeployConfig; 2] = [DeployConfig::Both, DeployConfig::Digital];

/// Table I's recipe: plain TVM and digital deploy the 8-bit models,
/// analog the ternary ones, the combined configuration the mixed ones.
pub fn scheme_for(deploy: DeployConfig) -> QuantScheme {
    match deploy {
        DeployConfig::CpuTvm | DeployConfig::Digital => QuantScheme::Int8,
        DeployConfig::Analog => QuantScheme::Ternary,
        DeployConfig::Both => QuantScheme::Mixed,
    }
}

/// The deploy's name as `/v1/import?deploy=` spells it, which is also
/// the suffix of the per-deploy metric names.
pub fn deploy_id(deploy: DeployConfig) -> &'static str {
    match deploy {
        DeployConfig::CpuTvm => "cpu_tvm",
        DeployConfig::Digital => "digital",
        DeployConfig::Analog => "analog",
        DeployConfig::Both => "both",
    }
}

/// One cell of the matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    pub model: Model,
    pub deploy: DeployConfig,
    /// The model as an HTF file (`htvm_frontend::emit`).
    pub htf: Vec<u8>,
}

impl Cell {
    pub fn name(&self) -> String {
        format!("{}/{}", self.model.name, deploy_id(self.deploy))
    }

    /// Plain TVM's naive L2 allocation runs MobileNet out of memory
    /// (Table I): for this one cell the typed error is the pass.
    pub fn expects_oom(&self) -> bool {
        self.model.name == "mobilenet_v1" && self.deploy == DeployConfig::CpuTvm
    }

    pub fn compile(&self) -> Result<Artifact, CompileError> {
        Compiler::new()
            .with_deploy(self.deploy)
            .compile(&self.model.graph)
    }
}

/// Builds the zoo once per scheme and emits every cell's HTF bytes,
/// deploy-major in `deploys` order. Returns the cells and the time the
/// zoo build took (`models.build_us`).
pub fn build_cells(deploys: &[DeployConfig]) -> (Vec<Cell>, f64) {
    let t0 = Instant::now();
    let zoo: Vec<Vec<Model>> = deploys
        .iter()
        .map(|&deploy| all_models(scheme_for(deploy)))
        .collect();
    let build_us = t0.elapsed().as_secs_f64() * 1e6;
    let cells = deploys
        .iter()
        .zip(zoo)
        .flat_map(|(&deploy, models)| {
            models.into_iter().map(move |model| {
                let htf = htvm_frontend::emit(&model.graph).expect("zoo models emit as HTF");
                Cell { model, deploy, htf }
            })
        })
        .collect();
    (cells, build_us)
}

/// Sorts a compile outcome into pass or fail: `Ok(Some(artifact))` for
/// a compiled cell, `Ok(None)` for the expected out-of-memory error,
/// `Err(why)` for anything else.
pub fn classify<'a>(
    cell: &Cell,
    outcome: &'a Result<Artifact, CompileError>,
) -> Result<Option<&'a Artifact>, String> {
    match (cell.expects_oom(), outcome) {
        (false, Ok(artifact)) => Ok(Some(artifact)),
        (true, Err(CompileError::Lower(LowerError::OutOfMemory(_)))) => Ok(None),
        (false, Err(e)) => Err(format!("{}: compile failed: {e}", cell.name())),
        (true, Ok(_)) => Err(format!(
            "{}: compiled, but plain TVM must run out of L2",
            cell.name()
        )),
        (true, Err(e)) => Err(format!(
            "{}: expected the out-of-memory error, got: {e}",
            cell.name()
        )),
    }
}

/// FNV-1a of the artifact's serde_json serialisation — the bytes a
/// client receives and the persistent store writes.
pub fn serialized_hash(artifact: &Artifact) -> u64 {
    fnv64(
        serde_json::to_string(artifact)
            .expect("artifacts serialize infallibly")
            .as_bytes(),
    )
}

/// The seeded input of cell `index`.
pub fn input_for(cell: &Cell, seed: u64, index: usize) -> Tensor {
    cell.model
        .input(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index as u64)
}

/// What the modelled hardware would make of a set of artifacts: the
/// three exact end-to-end metrics plus the cycle split the traced run
/// reports per layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    pub binary_kib_geomean: f64,
    pub sim_cycles_geomean: f64,
    pub energy_uj_geomean: f64,
    /// Simulated cycles per artifact, in the order given.
    pub cycles: Vec<u64>,
    /// Matrix sums of the `CycleBreakdown` fields.
    pub compute: u64,
    pub dma: u64,
    pub weight_load: u64,
    pub overhead: u64,
    pub stall: u64,
    /// Sum of `LayerProfile::n_tiles`.
    pub tiles_total: u64,
    pub macs_total: u64,
}

/// Runs each artifact once on the default DIANA machine.
pub fn quality(items: &[(&Artifact, &Tensor)]) -> (Quality, Vec<RunReport>) {
    let machine = Machine::new(DianaConfig::default());
    let energy = EnergyConfig::default();
    let mut q = Quality::default();
    let (mut kib, mut cycles, mut uj) = (Vec::new(), Vec::new(), Vec::new());
    let mut reports = Vec::with_capacity(items.len());
    for (artifact, input) in items {
        let report = machine
            .run(&artifact.program, std::slice::from_ref(*input))
            .expect("a compiled zoo program accepts its model's input");
        kib.push(artifact.binary.total() as f64 / 1024.0);
        cycles.push(report.total_cycles() as f64);
        uj.push(energy.run_uj(&report));
        q.cycles.push(report.total_cycles());
        for layer in &report.layers {
            q.compute += layer.cycles.compute;
            q.dma += layer.cycles.dma;
            q.weight_load += layer.cycles.weight_load;
            q.overhead += layer.cycles.overhead;
            q.stall += layer.cycles.stall;
            q.tiles_total += layer.n_tiles as u64;
        }
        q.macs_total += report.total_macs();
        reports.push(report);
    }
    q.binary_kib_geomean = geomean(&kib);
    q.sim_cycles_geomean = geomean(&cycles);
    q.energy_uj_geomean = geomean(&uj);
    (q, reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, deploy: DeployConfig) -> Cell {
        let (cells, _) = build_cells(&[deploy]);
        cells
            .into_iter()
            .find(|c| c.model.name == name)
            .expect("zoo model exists")
    }

    #[test]
    fn matrix_is_twenty_cells_with_one_expected_oom() {
        let (cells, build_us) = build_cells(&DEPLOYS);
        assert_eq!(cells.len(), 20);
        assert!(build_us > 0.0);
        let oom: Vec<String> = cells
            .iter()
            .filter(|c| c.expects_oom())
            .map(Cell::name)
            .collect();
        assert_eq!(oom, vec!["mobilenet_v1/cpu_tvm".to_owned()]);
        for c in &cells {
            assert_eq!(c.model.scheme, scheme_for(c.deploy));
        }
    }

    #[test]
    fn expected_oom_counts_as_a_pass_and_nothing_else_does() {
        let oom_cell = cell("mobilenet_v1", DeployConfig::CpuTvm);
        let outcome = oom_cell.compile();
        assert_eq!(classify(&oom_cell, &outcome), Ok(None));
        // The same cell compiling would be a failed operation...
        let fine = cell("toyadmos_dae", DeployConfig::Digital);
        let compiled = fine.compile();
        assert!(classify(&oom_cell, &compiled).is_err());
        // ...and so would the error on a cell that must compile.
        assert!(classify(&fine, &outcome).is_err());
        assert!(matches!(classify(&fine, &compiled), Ok(Some(_))));
    }

    #[test]
    fn quality_reads_positive_exact_numbers() {
        let c = cell("toyadmos_dae", DeployConfig::Digital);
        let artifact = c.compile().unwrap();
        let input = input_for(&c, 1, 0);
        let (a, _) = quality(&[(&artifact, &input)]);
        let (b, _) = quality(&[(&artifact, &input_for(&c, 2, 0))]);
        assert!(a.binary_kib_geomean > 0.0 && a.sim_cycles_geomean > 0.0);
        assert!(a.energy_uj_geomean > 0.0);
        // Simulated time does not depend on the input values.
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(
            a.compute + a.dma + a.weight_load + a.overhead + a.stall,
            a.cycles[0]
        );
    }
}
