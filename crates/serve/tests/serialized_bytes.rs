//! Pins the bytes `serde_json::to_string` produces for the types whose
//! serialization leaves the process: the ten soak-mix artifacts (what
//! the cache budgets, the persist envelope embeds and `/v1/*` sends)
//! and the builtin `PlatformManifest` (floats, options, nested structs).
//!
//! The manifest constant was computed at commit 71f6be0, when the
//! vendored serializer still built a `Value` tree and printed that; the
//! artifact constants at PR 24, whose artifact schema stores each
//! accelerator step once. A serializer change that alters one byte of
//! any of them fails here, not in a run log.

use htvm::{Compiler, DeployConfig};
use htvm_models::{all_models, QuantScheme};
use htvm_soc::PlatformManifest;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(model, deploy, byte length, FNV-1a-64)` in soak-mix order
/// (`htvm_bench::serve_bench::request_mix`).
#[rustfmt::skip]
const ARTIFACTS: [(&str, DeployConfig, usize, u64); 10] = [
    ("ds_cnn", DeployConfig::Both, 70_051, 0x2327_a22a_d1b3_952c),
    ("mobilenet_v1", DeployConfig::Both, 539_439, 0x4584_820e_5f32_6f84),
    ("resnet8", DeployConfig::Both, 195_568, 0x0742_6055_9c37_c061),
    ("toyadmos_dae", DeployConfig::Both, 847_922, 0x3d43_19ee_79bf_e779),
    ("tiny_transformer", DeployConfig::Both, 602_290, 0x01ad_914e_8e27_8892),
    ("ds_cnn", DeployConfig::Digital, 91_884, 0xcd48_5490_69dd_a60a),
    ("mobilenet_v1", DeployConfig::Digital, 798_120, 0xa526_8b49_e331_aa9c),
    ("resnet8", DeployConfig::Digital, 296_062, 0x2d26_87f3_bc2c_0e60),
    ("toyadmos_dae", DeployConfig::Digital, 980_685, 0xa873_a19a_39b5_4439),
    // The same graph under Mixed and Int8, and no analog layer either
    // way: only the cache key's deploy suffix tells these two apart.
    ("tiny_transformer", DeployConfig::Digital, 602_290, 0x01ad_914e_8e27_8892),
];

const MANIFEST: (usize, u64) = (3762, 0x3fed_f2bf_6fb0_53c4);

#[test]
fn soak_mix_artifacts_serialize_to_the_pinned_bytes() {
    let mut seen = Vec::new();
    for (deploy, scheme) in [
        (DeployConfig::Both, QuantScheme::Mixed),
        (DeployConfig::Digital, QuantScheme::Int8),
    ] {
        for model in all_models(scheme) {
            let artifact = Compiler::new()
                .with_deploy(deploy)
                .compile(&model.graph)
                .expect("zoo models compile under Both and Digital");
            let json = serde_json::to_string(&artifact).unwrap();
            assert!(!json.contains(r#""fallbacks""#), "a step is stored once");
            seen.push((model.name, deploy, json.len(), fnv1a64(json.as_bytes())));
        }
    }
    assert_eq!(seen.len(), ARTIFACTS.len());
    for (got, want) in seen.iter().zip(&ARTIFACTS) {
        assert_eq!(*got, *want);
    }
    // The benchmark's `codegen.artifact_bytes` for one serve_cold round.
    assert_eq!(seen.iter().map(|r| r.2).sum::<usize>(), 5_024_311);
}

#[test]
fn builtin_manifest_serializes_to_the_pinned_bytes() {
    let json = serde_json::to_string(&PlatformManifest::builtin()).unwrap();
    assert_eq!((json.len(), fnv1a64(json.as_bytes())), MANIFEST);
}
