//! Criterion benches for compiler throughput across the model zoo, and
//! the effect of a warm cross-compile [`htvm::TileCache`].
//!
//! `cold` constructs a fresh compiler (and thus an empty cache) per
//! iteration, so it measures a first compile; `warm` reuses one compiler
//! so every tiling solve after the first iteration is a cache hit.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use htvm::{Compiler, DeployConfig};
use htvm_models::{all_models, QuantScheme};

fn compile_benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("compile_time");
    for model in all_models(QuantScheme::Mixed) {
        g.bench_function(format!("{}/cold", model.name), |b| {
            b.iter(|| {
                Compiler::new()
                    .with_deploy(DeployConfig::Both)
                    .compile(black_box(&model.graph))
                    .expect("compiles")
            })
        });
        let warm = Compiler::new().with_deploy(DeployConfig::Both);
        warm.compile(&model.graph).expect("compiles");
        g.bench_function(format!("{}/warm", model.name), |b| {
            b.iter(|| warm.compile(black_box(&model.graph)).expect("compiles"))
        });
    }
    g.finish();
}

criterion_group!(benches, compile_benches);
criterion_main!(benches);
