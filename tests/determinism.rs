//! Determinism tests: the whole pipeline — model generation, tiling,
//! partitioning, memory planning, simulation — must be bit-reproducible,
//! since every benchmark number in EXPERIMENTS.md depends on it.

use htvm::{Compiler, DeployConfig, Machine};
use htvm_models::{all_models, ds_cnn, mobilenet_v1, resnet8, toyadmos_dae, QuantScheme};

#[test]
fn model_generation_is_deterministic() {
    for scheme in [QuantScheme::Int8, QuantScheme::Ternary, QuantScheme::Mixed] {
        assert_eq!(ds_cnn(scheme).graph, ds_cnn(scheme).graph);
        assert_eq!(resnet8(scheme).graph, resnet8(scheme).graph);
    }
}

#[test]
fn compilation_is_deterministic_across_invocations() {
    let model = resnet8(QuantScheme::Mixed);
    let a = Compiler::new()
        .with_deploy(DeployConfig::Both)
        .compile(&model.graph)
        .expect("compiles");
    let b = Compiler::new()
        .with_deploy(DeployConfig::Both)
        .compile(&model.graph)
        .expect("compiles");
    assert_eq!(a, b);
}

#[test]
fn simulation_is_deterministic() {
    let model = toyadmos_dae(QuantScheme::Int8);
    let compiler = Compiler::new().with_deploy(DeployConfig::Digital);
    let artifact = compiler.compile(&model.graph).expect("compiles");
    let machine = Machine::new(*compiler.platform());
    let r1 = machine
        .run(&artifact.program, &[model.input(5)])
        .expect("runs");
    let r2 = machine
        .run(&artifact.program, &[model.input(5)])
        .expect("runs");
    assert_eq!(r1.outputs, r2.outputs);
    assert_eq!(r1.total_cycles(), r2.total_cycles());
    assert_eq!(r1.layers, r2.layers);
}

#[test]
fn different_inputs_same_cycles() {
    // Latency is data-independent (no data-gated paths in the SoC model):
    // the same program costs the same cycles for any input values.
    let model = ds_cnn(QuantScheme::Int8);
    let compiler = Compiler::new().with_deploy(DeployConfig::Digital);
    let artifact = compiler.compile(&model.graph).expect("compiles");
    let machine = Machine::new(*compiler.platform());
    let r1 = machine
        .run(&artifact.program, &[model.input(1)])
        .expect("runs");
    let r2 = machine
        .run(&artifact.program, &[model.input(2)])
        .expect("runs");
    assert_eq!(
        r1.total_cycles(),
        r2.total_cycles(),
        "cycle counts are data-independent"
    );
    // Sanity-check data dependence on a shallow graph (deep synthetic
    // networks can wash out input dependence through requantization).
    let mut b = htvm::GraphBuilder::new();
    let x = b.input("x", &[1, 4, 4], htvm::DType::I8);
    let w = b.constant(
        "w",
        htvm::Tensor::new(htvm::DType::I8, &[1, 1, 1, 1], vec![1]).unwrap(),
    );
    let c = b.conv2d(x, w, (1, 1), (0, 0, 0, 0)).unwrap();
    let c = b.right_shift(c, 0).unwrap();
    let c = b.clip(c, -128, 127).unwrap();
    let c = b.cast(c, htvm::DType::I8).unwrap();
    let g = b.finish(&[c]).unwrap();
    let artifact = compiler.compile(&g).expect("compiles");
    let i1 = htvm_models::random_input(1, &[1, 4, 4]);
    let i2 = htvm_models::random_input(2, &[1, 4, 4]);
    let o1 = machine
        .run(&artifact.program, std::slice::from_ref(&i1))
        .expect("runs");
    let o2 = machine.run(&artifact.program, &[i2]).expect("runs");
    assert_eq!(o1.outputs[0], i1, "identity conv passes data through");
    assert_ne!(o1.outputs, o2.outputs, "different inputs, different data");
}

#[test]
fn warm_tile_cache_changes_stats_but_not_the_artifact() {
    let model = mobilenet_v1(QuantScheme::Int8);
    let compiler = Compiler::new().with_deploy(DeployConfig::Both);
    let cold = compiler.compile(&model.graph).expect("cold compile");
    let warm = compiler.compile(&model.graph).expect("warm compile");

    // Identical product, byte for byte.
    assert_eq!(cold, warm);
    assert_eq!(
        serde_json::to_string(&cold).expect("serializes"),
        serde_json::to_string(&warm).expect("serializes"),
    );

    // MobileNet repeats block geometries, so even the cold compile hits
    // the cache within itself...
    assert!(cold.stats.regions > 0);
    assert!(
        cold.stats.cache_hits >= 1,
        "repeated blocks should hit in-compile: {:?}",
        cold.stats
    );
    assert!(cold.stats.solves_performed > 0);
    // ...and the warm compile is answered entirely from the cache.
    assert_eq!(warm.stats.solves_performed, 0, "{:?}", warm.stats);
    assert_eq!(warm.stats.cache_hits, warm.stats.regions as u64);
    assert_eq!(compiler.tile_cache().solves(), cold.stats.solves_performed);
}

#[test]
fn tile_cache_memoizes_infeasible_solves() {
    // Negative results are cached too: a geometry that cannot fit the
    // budget costs one solver invocation, and every later ask for the
    // same (geometry, budget, objective) triple is answered from the
    // cache — same error, no re-solve.
    use htvm::{LayerGeometry, MemoryBudget, TileCache, TilingObjective};
    let cache = TileCache::new();
    let geom = LayerGeometry::dense(4096, 4096);
    let budget = MemoryBudget::unified(4);
    let objective = TilingObjective::memory_only();

    let (first, hit) = cache.solve_cached(&geom, &budget, &objective);
    assert!(first.is_err(), "a 16 MB dense layer cannot tile into 4 B");
    assert!(!hit, "first solve is a miss");
    assert_eq!(cache.solves(), 1);
    assert_eq!(cache.hits(), 0);

    let (second, hit) = cache.solve_cached(&geom, &budget, &objective);
    assert!(hit, "second solve must be served from the negative entry");
    assert_eq!(cache.solves(), 1, "the solver must not run again");
    assert_eq!(cache.hits(), 1);
    assert_eq!(
        format!("{:?}", first.unwrap_err()),
        format!("{:?}", second.unwrap_err()),
        "cached error matches the original"
    );
}

#[test]
fn tracing_is_observation_only() {
    // The tracer may watch the pipeline but never steer it: compiling
    // with tracing enabled must produce an artifact byte-identical to
    // the untraced one, and the simulated cycle counts must match — the
    // zero-cost-when-disabled guarantee from docs/OBSERVABILITY.md, read
    // in both directions.
    let model = resnet8(QuantScheme::Mixed);
    let plain = Compiler::new().with_deploy(DeployConfig::Both);
    let tracer = htvm::Tracer::new();
    let traced = Compiler::new()
        .with_deploy(DeployConfig::Both)
        .with_tracer(tracer.clone());

    let a = plain.compile(&model.graph).expect("untraced compile");
    let b = traced.compile(&model.graph).expect("traced compile");
    assert_eq!(a, b);
    assert_eq!(
        serde_json::to_string(&a).expect("serializes"),
        serde_json::to_string(&b).expect("serializes"),
        "artifacts are byte-identical with tracing on vs off"
    );

    let machine = Machine::new(*plain.platform());
    let ra = machine.run(&a.program, &[model.input(3)]).expect("runs");
    let rb = machine.run(&b.program, &[model.input(3)]).expect("runs");
    assert_eq!(ra.outputs, rb.outputs);
    assert_eq!(ra.total_cycles(), rb.total_cycles());
    assert_eq!(ra.layers, rb.layers);

    // And the trace actually observed the compile: every phase span is
    // present, on the phases track, with a parseable chrome export.
    let trace = tracer.take(htvm::TimeDomain::WallMicros, htvm::tracks::compile());
    for phase in ["fold_constants", "partition", "solve", "emit", "l2_plan"] {
        assert!(
            trace.span(phase).is_some(),
            "missing {phase} span in {:?}",
            trace.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
    // A graph is well-formed by construction: the compiler verifies nothing.
    assert!(trace.span("verify").is_none());
    let solve = trace.span("solve").expect("solve span");
    assert_eq!(
        solve.arg_u64("regions"),
        Some(b.stats.regions as u64),
        "span args mirror CompileStats"
    );
    assert!(
        trace.on_track(htvm::tracks::REGIONS).count() >= b.stats.regions,
        "every region solve gets its own span"
    );
    let chrome: serde_json::Value =
        serde_json::from_str(&trace.to_chrome_trace()).expect("chrome export is valid JSON");
    assert!(!chrome["traceEvents"].as_array().expect("array").is_empty());
}

#[test]
fn artifact_serialization_round_trips() {
    // Artifacts are serde-serializable (bench output, caching); a JSON
    // round trip must preserve the program exactly, and the text read
    // back must be written back byte for byte. Every compiled cell of
    // the Table I matrix, each under its deploy target's scheme.
    let mut cells = 0;
    for (deploy, scheme) in [
        (DeployConfig::CpuTvm, QuantScheme::Int8),
        (DeployConfig::Digital, QuantScheme::Int8),
        (DeployConfig::Analog, QuantScheme::Ternary),
        (DeployConfig::Both, QuantScheme::Mixed),
    ] {
        for model in all_models(scheme) {
            let Ok(artifact) = Compiler::new().with_deploy(deploy).compile(&model.graph) else {
                continue;
            };
            let json = serde_json::to_string(&artifact).expect("serializes");
            let back: htvm::Artifact = serde_json::from_str(&json).expect("deserializes");
            assert_eq!(artifact, back, "{} {deploy:?}", model.name);
            assert_eq!(serde_json::to_string(&back).unwrap(), json);
            cells += 1;
        }
    }
    assert_eq!(cells, 19, "Table I has one infeasible cell");
}
