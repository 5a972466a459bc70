//! Prints per-phase [`htvm::CompileStats`] for every zoo model, cold and
//! warm: how compile wall time splits between the tiling solve phase and
//! the emit phase, and how much of the solver work the shared `TileCache`
//! absorbs within and across compiles — and how many bytes the artifact
//! serializes to (what the cache budgets, persist writes and `/v1/*` sends).

use htvm::{Compiler, DeployConfig};
use htvm_models::{all_models, QuantScheme};

fn main() {
    for model in all_models(QuantScheme::Mixed) {
        let c = Compiler::new().with_deploy(DeployConfig::Both);
        let cold = c.compile(&model.graph).expect("compiles");
        let warm = c.compile(&model.graph).expect("compiles");
        println!(
            "{:14}: cold solve={:?} emit={:?} (regions={} solves={} hits={}) | \
             warm solve={:?} emit={:?} (hits={}) | artifact {} bytes",
            model.name,
            cold.stats.solve_time,
            cold.stats.emit_time,
            cold.stats.regions,
            cold.stats.solves_performed,
            cold.stats.cache_hits,
            warm.stats.solve_time,
            warm.stats.emit_time,
            warm.stats.cache_hits,
            serde_json::to_string(&cold).expect("serializes").len(),
        );
    }
}
