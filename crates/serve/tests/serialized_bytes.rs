//! Pins the bytes `serde_json::to_string` produces for the types whose
//! serialization leaves the process: the ten soak-mix artifacts (what
//! the cache budgets, the persist envelope embeds and `/v1/*` sends)
//! and the builtin `PlatformManifest` (floats, options, nested structs).
//!
//! The manifest constant was computed at commit 71f6be0, when the
//! vendored serializer still built a `Value` tree and printed that; the
//! artifact constants at cache format 7, whose artifact stores only what
//! its steps cannot give back: each accelerator step once, every tensor
//! payload as base64 of its native-width bytes, no per-layer rows and no
//! platform stamp on the DMA table. A serializer change that alters one
//! byte of any of them fails here, not in a run log.

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
    ("ds_cnn", DeployConfig::Both, 40_791, 0x8ec2_0a4a_5dd0_1118),
    ("mobilenet_v1", DeployConfig::Both, 314_808, 0xe51d_a11b_8b0f_5e47),
    ("resnet8", DeployConfig::Both, 115_657, 0x8800_fcfe_38f6_46c4),
    ("toyadmos_dae", DeployConfig::Both, 369_277, 0x86be_1ef5_2da4_0837),
    ("tiny_transformer", DeployConfig::Both, 222_299, 0xd452_fdac_8034_6ed4),
    ("ds_cnn", DeployConfig::Digital, 40_915, 0x8fc3_1468_86b3_c584),
    ("mobilenet_v1", DeployConfig::Digital, 315_203, 0x35b8_21f5_1731_d8b7),
    ("resnet8", DeployConfig::Digital, 115_890, 0x673b_36b6_f359_3f9d),
    ("toyadmos_dae", DeployConfig::Digital, 369_515, 0x7fa1_88fc_c478_3acf),
    // The same graph under Mixed and Int8, and no analog layer either
    // way: only the cache key's deploy suffix tells these two apart.
    ("tiny_transformer", DeployConfig::Digital, 222_299, 0xd452_fdac_8034_6ed4),
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
            assert!(!json.contains(r#""assignments""#), "rows are a view");
            assert!(!json.contains(r#""data":["#), "payloads are base64 text");
            seen.push((model.name, deploy, json.len(), fnv1a64(json.as_bytes())));
        }
    }
    assert_eq!(seen.len(), ARTIFACTS.len());
    for (got, want) in seen.iter().zip(&ARTIFACTS) {
        assert_eq!(*got, *want);
    }
    // The benchmark's `codegen.artifact_bytes` for one serve_cold round.
    assert_eq!(seen.iter().map(|r| r.2).sum::<usize>(), 2_126_654);
}

#[test]
fn builtin_manifest_serializes_to_the_pinned_bytes() {
    let json = serde_json::to_string(&PlatformManifest::builtin()).unwrap();
    assert_eq!((json.len(), fnv1a64(json.as_bytes())), MANIFEST);
}
