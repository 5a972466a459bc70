//! Integration tests for the accelerator-aware dispatch layer: which
//! engine each layer of the real MLPerf™ Tiny networks lands on under each
//! deployment configuration (paper §III-A and §IV-C).

use htvm::{Artifact, Compiler, DeployConfig, EngineKind, Machine};
use htvm_ir::{DType, Graph, GraphBuilder, Tensor};
use htvm_models::{ds_cnn, mobilenet_v1, resnet8, toyadmos_dae, QuantScheme};

fn compile(model: &htvm_models::Model, deploy: DeployConfig) -> Artifact {
    Compiler::new()
        .with_deploy(deploy)
        .compile(&model.graph)
        .expect("compiles")
}

#[test]
fn digital_config_takes_every_anchor_kind() {
    // Paper: "all (DW)Conv2D, FC, and Add layers are offloaded to DIANA's
    // 8-bit digital accelerator".
    let artifact = compile(&resnet8(QuantScheme::Int8), DeployConfig::Digital);
    let digital: Vec<&str> = artifact
        .assignments()
        .filter(|x| x.engine == EngineKind::Digital)
        .filter_map(|x| x.pattern)
        .collect();
    assert!(digital.iter().any(|p| p.starts_with("conv2d")));
    assert!(digital.iter().any(|p| p.starts_with("dense")));
    assert!(digital.iter().any(|p| p.starts_with("add")));
    // 10 weighted layers + 3 residual adds.
    assert_eq!(digital.len(), 13);
    // Only pooling / softmax / reshape remain on the CPU.
    for x in artifact
        .assignments()
        .filter(|x| x.engine == EngineKind::Cpu)
    {
        assert_eq!(x.macs, 0, "CPU kernel {} should carry no MACs", x.name);
    }
}

#[test]
fn dscnn_digital_has_ten_offloaded_layers() {
    let artifact = compile(&ds_cnn(QuantScheme::Int8), DeployConfig::Digital);
    // conv stem + 4x(dw + pw) + fc
    assert_eq!(artifact.steps_on(EngineKind::Digital), 10);
}

#[test]
fn analog_config_leaves_depthwise_on_cpu() {
    // Paper: depthwise is unsupported on the analog array; those layers
    // fall back to the RISC-V core in 8-bit.
    let artifact = compile(&ds_cnn(QuantScheme::Ternary), DeployConfig::Analog);
    assert_eq!(artifact.steps_on(EngineKind::Analog), 6); // stem + 4 pointwise + fc
    let cpu_macs: u64 = artifact
        .assignments()
        .filter(|x| x.engine == EngineKind::Cpu)
        .map(|x| x.macs)
        .sum();
    assert!(cpu_macs > 0, "depthwise MACs must run on the CPU");
    assert_eq!(artifact.steps_on(EngineKind::Digital), 0);
}

#[test]
fn mixed_recipe_splits_by_bit_width() {
    let artifact = compile(&mobilenet_v1(QuantScheme::Mixed), DeployConfig::Both);
    // 13 depthwise + stem + classifier are 8-bit; 13 pointwise are ternary.
    assert_eq!(artifact.steps_on(EngineKind::Digital), 13 + 2);
    assert_eq!(artifact.steps_on(EngineKind::Analog), 13);
}

#[test]
fn mixed_first_and_last_layers_go_digital() {
    let artifact = compile(&resnet8(QuantScheme::Mixed), DeployConfig::Both);
    let weighted: Vec<htvm::LayerAssignment> = artifact
        .assignments()
        .filter(|x| x.engine != EngineKind::Cpu)
        .filter(|x| x.pattern.is_some_and(|p| !p.starts_with("add")))
        .collect();
    assert_eq!(
        weighted.first().expect("has layers").engine,
        EngineKind::Digital,
        "first eligible layer digital"
    );
    assert_eq!(
        weighted.last().expect("has layers").engine,
        EngineKind::Digital,
        "last eligible layer digital"
    );
    assert!(
        weighted[1..weighted.len() - 1]
            .iter()
            .all(|x| x.engine == EngineKind::Analog),
        "middle layers analog"
    );
}

#[test]
fn toyadmos_dense_layers_map_to_analog_rows() {
    // Ternary FC layers are deployed on the analog array ("implementing FC
    // layers as Conv2Ds" in the paper; our array maps them directly).
    let artifact = compile(&toyadmos_dae(QuantScheme::Ternary), DeployConfig::Analog);
    assert_eq!(artifact.steps_on(EngineKind::Analog), 10);
}

#[test]
fn cpu_tvm_config_never_offloads() {
    for deploy_model in [
        ds_cnn(QuantScheme::Int8),
        resnet8(QuantScheme::Int8),
        toyadmos_dae(QuantScheme::Int8),
    ] {
        let artifact = compile(&deploy_model, DeployConfig::CpuTvm);
        assert!(artifact.assignments().all(|x| x.engine == EngineKind::Cpu));
    }
}

#[test]
fn ternary_network_on_digital_only_falls_back_to_cpu() {
    // The digital engine cannot execute ternary weights; with no analog
    // engine enabled, everything lands on the CPU.
    let artifact = compile(&toyadmos_dae(QuantScheme::Ternary), DeployConfig::Digital);
    assert!(artifact.assignments().all(|x| x.engine == EngineKind::Cpu));
}

#[test]
fn tile_counts_reflect_memory_pressure() {
    // ToyAdmos's first dense layer (640x128 = 80 kB of weights) cannot fit
    // the 64 kB digital weight memory untiled.
    let artifact = compile(&toyadmos_dae(QuantScheme::Int8), DeployConfig::Digital);
    let first_dense = artifact
        .assignments()
        .find(|x| x.engine == EngineKind::Digital)
        .expect("dense layer offloaded");
    assert!(
        first_dense.n_tiles > 1,
        "80 kB of weights must be tiled, got {} tiles",
        first_dense.n_tiles
    );
}

#[test]
fn output_pooling_fuses_into_accelerator_regions() {
    // Paper §III-C: the accelerators execute "some pooling operations at
    // the output". The global average pool after DS-CNN's last pointwise
    // conv (and after ResNet's final residual add) must fuse into the
    // accelerator region: no CPU kernel may contain a pooling op.
    for model in [ds_cnn(QuantScheme::Int8), resnet8(QuantScheme::Int8)] {
        let artifact = Compiler::new()
            .with_deploy(DeployConfig::Digital)
            .compile(&model.graph)
            .expect("compiles");
        for step in &artifact.program.steps {
            if let htvm_soc::Step::CpuFused { graph, name, .. } = step {
                let has_pool = graph
                    .nodes()
                    .any(|(_, n)| matches!(n.op(), Some(htvm_ir::Op::Pool2d { .. })));
                assert!(!has_pool, "{}: pool left on the CPU in {name}", model.name);
            }
        }
        // The pooled region exists: one accel step outputs the pooled shape.
        let pooled = artifact
            .program
            .steps
            .iter()
            .any(|s| matches!(s, htvm_soc::Step::Accel { desc, .. } if desc.pool.is_some()));
        assert!(pooled, "{}: no fused pool found", model.name);
    }
}

#[test]
fn dispatch_and_lowering_share_one_l1_budget() {
    // Dispatch must ask "does it tile?" against the budget lowering tiles
    // with. On a platform with 8 bytes of L1 activation memory most layers
    // do not; they belong on the CPU, not in a `tiling failed` compile
    // error.
    use htvm::DianaConfig;
    let tiny_l1 = DianaConfig {
        l1_act_bytes: 8,
        ..DianaConfig::default()
    };
    for model in htvm_models::all_models(QuantScheme::Int8) {
        let compiler = Compiler::new()
            .with_platform(tiny_l1)
            .with_deploy(DeployConfig::Digital);
        let artifact = compiler
            .compile(&model.graph)
            .unwrap_or_else(|e| panic!("{}: {e}", model.name));
        let roomy = compile(&model, DeployConfig::Digital);
        let offloaded = |a: &Artifact| a.steps_on(EngineKind::Digital);
        // 1x1 convolutions, dense layers, matmuls and adds still tile
        // (a handful of bytes per tile); every wider filter cannot.
        let expected = match model.name {
            "ds_cnn" => (5, 10),
            "mobilenet_v1" => (14, 28),
            "resnet8" => (6, 13),
            "toyadmos_dae" => (10, 10),
            "tiny_transformer" => (3, 3),
            other => panic!("unexpected zoo model {other}"),
        };
        assert_eq!(
            (offloaded(&artifact), offloaded(&roomy)),
            expected,
            "{}: regions offloaded with 8 bytes of L1 vs the default platform",
            model.name
        );
        if expected.0 < expected.1 {
            assert!(
                artifact
                    .assignments()
                    .any(|x| x.engine == EngineKind::Cpu && x.macs > 0),
                "{}: untileable anchors run on the CPU",
                model.name
            );
        }
        let input = model.input(5);
        let report = Machine::new(*compiler.platform())
            .run(&artifact.program, std::slice::from_ref(&input))
            .expect("runs");
        let reference = htvm_kernels::evaluate(&model.graph, &[input]).expect("evaluates");
        assert_eq!(report.outputs, reference, "{}", model.name);
    }
}

#[test]
fn default_budget_zoo_dispatch_is_unchanged() {
    // The Table I matrix (plain TVM and digital deploy the 8-bit models,
    // analog the ternary ones, both the mixed ones): 173 regions.
    let mut regions = 0;
    for (deploy, scheme) in [
        (DeployConfig::CpuTvm, QuantScheme::Int8),
        (DeployConfig::Digital, QuantScheme::Int8),
        (DeployConfig::Analog, QuantScheme::Ternary),
        (DeployConfig::Both, QuantScheme::Mixed),
    ] {
        for model in htvm_models::all_models(scheme) {
            // MobileNet under plain TVM runs out of L2 (Table I's OOM
            // cell); it has no regions either way.
            if let Ok(artifact) = Compiler::new().with_deploy(deploy).compile(&model.graph) {
                regions += artifact.stats.regions;
            }
        }
    }
    assert_eq!(regions, 173);
}

#[test]
fn per_layer_rows_add_up_to_the_model() {
    // The per-layer report is a view over the program's steps: one row
    // per step, in step order, under the step's own name, and the rows'
    // MACs are the model's, across every compiling Table I cell.
    let mut cells = 0;
    for (deploy, scheme) in [
        (DeployConfig::CpuTvm, QuantScheme::Int8),
        (DeployConfig::Digital, QuantScheme::Int8),
        (DeployConfig::Analog, QuantScheme::Ternary),
        (DeployConfig::Both, QuantScheme::Mixed),
    ] {
        for model in htvm_models::all_models(scheme) {
            // MobileNet under plain TVM runs out of L2 (Table I's OOM cell).
            let Ok(artifact) = Compiler::new().with_deploy(deploy).compile(&model.graph) else {
                continue;
            };
            cells += 1;
            let cell = format!("{}/{}", model.name, deploy.id());
            let steps = &artifact.program.steps;
            assert_eq!(artifact.assignments().len(), steps.len(), "{cell}");
            for (row, step) in artifact.assignments().zip(steps) {
                assert_eq!(row.name, step.name(), "{cell}");
                assert_eq!(row.engine, step.engine(), "{cell}");
            }
            let macs: u64 = artifact.assignments().map(|row| row.macs).sum();
            assert_eq!(macs, model.graph.total_macs(), "{cell}");
        }
    }
    assert_eq!(cells, 19);
}

/// conv → right_shift → clip(min, max) → cast(to), with weights that
/// push the shifted sums past every clip bound below.
fn requant_chain(min: i32, max: i32, to: DType) -> Graph {
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[4, 8, 8], DType::I8);
    let weights = (0..4 * 4 * 9).map(|i| i * 37 % 255 - 127).collect();
    let w = b.constant("w", Tensor::new(DType::I8, &[4, 4, 3, 3], weights).unwrap());
    let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
    let s = b.right_shift(c, 6).unwrap();
    let c = b.clip(s, min, max).unwrap();
    let y = b.cast(c, to).unwrap();
    b.finish(&[y]).unwrap()
}

#[test]
fn requant_tails_the_i8_epilogue_cannot_run_stay_on_the_cpu() {
    // The accelerator epilogue clips to [-128, 127] and casts to i8
    // whatever the graph says (the int8 predicate of the paper's Listing
    // 1), so any other tail must run where it is computed as written.
    for (min, max, to, engine) in [
        (0, 100, DType::I8, EngineKind::Cpu),
        (-10, 10, DType::I8, EngineKind::Cpu),
        (-128, 127, DType::I16, EngineKind::Cpu),
        (-1000, 1000, DType::I16, EngineKind::Cpu),
        (-128, 127, DType::I8, EngineKind::Digital),
    ] {
        let built = requant_chain(min, max, to);
        let imported = htvm_frontend::import(&htvm_frontend::emit(&built).unwrap()).unwrap();
        for graph in [built, imported] {
            let input = htvm_models::random_input(3, &[4, 8, 8]);
            let reference = htvm_kernels::evaluate(&graph, std::slice::from_ref(&input)).unwrap();
            for deploy in [DeployConfig::Digital, DeployConfig::Both] {
                let case = format!("clip({min}, {max}) → cast({to}) under {deploy:?}");
                let compiler = Compiler::new().with_deploy(deploy);
                let artifact = compiler.compile(&graph).expect("compiles");
                assert!(
                    artifact.program.steps.iter().all(|s| s.engine() == engine),
                    "{case}: expected every step on {engine:?}"
                );
                let report = Machine::new(*compiler.platform())
                    .run(&artifact.program, std::slice::from_ref(&input))
                    .expect("runs");
                assert_eq!(report.outputs[0].dtype(), reference[0].dtype(), "{case}");
                assert_eq!(report.outputs, reference, "{case}");
            }
        }
    }
}
