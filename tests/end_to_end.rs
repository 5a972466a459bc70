//! End-to-end integration tests: the four MLPerf™ Tiny networks compiled
//! and executed on the simulated DIANA SoC in every deployment
//! configuration, checked for bit-exactness against the reference
//! interpreter and for the paper's qualitative performance relations.

use htvm::{CompileError, Compiler, DeployConfig, LowerError, Machine, RunReport};
use htvm_models::{all_models, ds_cnn, mobilenet_v1, resnet8, Model, QuantScheme};

fn run(model: &Model, deploy: DeployConfig) -> (htvm::Artifact, RunReport) {
    let compiler = Compiler::new().with_deploy(deploy);
    let artifact = compiler
        .compile(&model.graph)
        .unwrap_or_else(|e| panic!("{} under {deploy:?}: {e}", model.name));
    let machine = Machine::new(*compiler.platform());
    let report = machine
        .run(&artifact.program, &[model.input(99)])
        .unwrap_or_else(|e| panic!("{} under {deploy:?}: {e}", model.name));
    (artifact, report)
}

fn reference(model: &Model) -> htvm_ir::Tensor {
    htvm_kernels::evaluate(&model.graph, &[model.input(99)])
        .expect("reference evaluation")
        .remove(0)
}

#[test]
fn digital_config_is_bit_exact_on_all_networks() {
    for model in all_models(QuantScheme::Int8) {
        let expected = reference(&model);
        let (_, report) = run(&model, DeployConfig::Digital);
        assert_eq!(report.outputs[0], expected, "{}", model.name);
    }
}

#[test]
fn analog_config_is_bit_exact_on_all_networks() {
    for model in all_models(QuantScheme::Ternary) {
        let expected = reference(&model);
        let (_, report) = run(&model, DeployConfig::Analog);
        assert_eq!(report.outputs[0], expected, "{}", model.name);
    }
}

#[test]
fn mixed_config_is_bit_exact_on_all_networks() {
    for model in all_models(QuantScheme::Mixed) {
        let expected = reference(&model);
        let (_, report) = run(&model, DeployConfig::Both);
        assert_eq!(report.outputs[0], expected, "{}", model.name);
    }
}

#[test]
fn cpu_tvm_is_bit_exact_where_it_fits() {
    for model in all_models(QuantScheme::Int8) {
        if model.name == "mobilenet_v1" {
            continue; // runs out of memory, see below
        }
        let expected = reference(&model);
        let (artifact, report) = run(&model, DeployConfig::CpuTvm);
        assert_eq!(report.outputs[0], expected, "{}", model.name);
        assert_eq!(artifact.offload_fraction(), 0.0, "{}", model.name);
    }
}

#[test]
fn mobilenet_oom_on_plain_tvm_reproduces() {
    // Table I: "MobileNet stops running with an error, since more than
    // 512kB of memory has to be allocated."
    let model = mobilenet_v1(QuantScheme::Int8);
    let err = Compiler::new()
        .with_deploy(DeployConfig::CpuTvm)
        .compile(&model.graph)
        .expect_err("plain TVM MobileNet must exceed L2");
    assert!(matches!(
        err,
        CompileError::Lower(LowerError::OutOfMemory(_))
    ));
    // ...but the HTVM memory planner makes the same network fit.
    let (_, report) = run(&model, DeployConfig::Digital);
    assert!(report.total_cycles() > 0);
}

#[test]
fn resnet_digital_speedup_is_two_orders_of_magnitude() {
    let int8 = resnet8(QuantScheme::Int8);
    let (_, tvm) = run(&int8, DeployConfig::CpuTvm);
    let (_, dig) = run(&int8, DeployConfig::Digital);
    let speedup = tvm.total_cycles() as f64 / dig.total_cycles() as f64;
    assert!(
        (50.0..400.0).contains(&speedup),
        "paper reports 112x, got {speedup:.0}x"
    );
}

#[test]
fn dscnn_mixed_beats_analog_only_by_several_x() {
    let (_, ana) = run(&ds_cnn(QuantScheme::Ternary), DeployConfig::Analog);
    let (_, mixed) = run(&ds_cnn(QuantScheme::Mixed), DeployConfig::Both);
    let ratio = ana.total_cycles() as f64 / mixed.total_cycles() as f64;
    assert!(
        (4.0..16.0).contains(&ratio),
        "paper reports 8x, got {ratio:.1}x"
    );
}

#[test]
fn peak_cycles_never_exceed_full_kernel_cycles() {
    for model in all_models(QuantScheme::Mixed) {
        let (_, report) = run(&model, DeployConfig::Both);
        assert!(
            report.peak_cycles() <= report.total_cycles(),
            "{}",
            model.name
        );
    }
}

#[test]
fn accelerated_configs_offload_the_mac_workload() {
    for model in all_models(QuantScheme::Int8) {
        let (artifact, _) = run(&model, DeployConfig::Digital);
        assert!(
            artifact.offload_fraction() > 0.99,
            "{}: {}",
            model.name,
            artifact.offload_fraction()
        );
    }
    // Analog-only cannot offload the depthwise layers.
    let (artifact, _) = run(&ds_cnn(QuantScheme::Ternary), DeployConfig::Analog);
    let f = artifact.offload_fraction();
    assert!(f > 0.5 && f < 1.0, "got {f}");
}

#[test]
fn resnet_binary_shrinks_at_equal_precision() {
    // Table I: ResNet binary shrinks up to 12.3% vs plain TVM because the
    // coarse-grained accelerator needs fewer instructions.
    let model = resnet8(QuantScheme::Int8);
    let (tvm, _) = run(&model, DeployConfig::CpuTvm);
    let (dig, _) = run(&model, DeployConfig::Digital);
    assert!(
        dig.binary.total() < tvm.binary.total(),
        "digital {} vs tvm {}",
        dig.binary.total(),
        tvm.binary.total()
    );
}

#[test]
fn ternary_weights_shrink_toyadmos_binary() {
    // Table I: ToyAdmos ternary weights need less storage than 8-bit.
    let int8 = htvm_models::toyadmos_dae(QuantScheme::Int8);
    let ternary = htvm_models::toyadmos_dae(QuantScheme::Ternary);
    let (d, _) = run(&int8, DeployConfig::Digital);
    let (a, _) = run(&ternary, DeployConfig::Analog);
    assert!(a.binary.weights < d.binary.weights);
}

#[test]
fn analog_padding_inflates_dscnn_binary() {
    // Table I: DS-CNN's small channel counts leave most of the IMC macro
    // empty, inflating the analog binary past the digital one.
    let (d, _) = run(&ds_cnn(QuantScheme::Int8), DeployConfig::Digital);
    let (a, _) = run(&ds_cnn(QuantScheme::Ternary), DeployConfig::Analog);
    assert!(a.binary.total() > d.binary.total());
}

#[test]
fn stress_network_is_bit_exact_in_every_config() {
    // A synthetic network exercising asymmetric padding, mixed strides,
    // stacked residuals, max+avg pooling and a forced-tiling dense layer.
    for (deploy, scheme) in [
        (DeployConfig::CpuTvm, QuantScheme::Int8),
        (DeployConfig::Digital, QuantScheme::Int8),
        (DeployConfig::Analog, QuantScheme::Ternary),
        (DeployConfig::Both, QuantScheme::Mixed),
    ] {
        let model = htvm_models::stress_test(scheme);
        let expected = reference(&model);
        let (artifact, report) = run(&model, deploy);
        assert_eq!(report.outputs[0], expected, "{deploy:?}");
        if deploy != DeployConfig::CpuTvm {
            assert!(artifact.offload_fraction() > 0.5, "{deploy:?}");
        }
        // The wide dense layer (83 kB of weights) must be tiled on digital.
        if deploy == DeployConfig::Digital {
            let wide = artifact
                .assignments()
                .find(|a| a.macs == 32 * 2600)
                .expect("wide dense offloaded");
            assert!(wide.n_tiles > 1, "83 kB of weights must tile");
        }
    }
}
