//! Pins the bytes `serde_json::to_string` produces for the types whose
//! serialization leaves the process: the ten soak-mix artifacts (what
//! the cache budgets, the persist envelope embeds and `/v1/*` sends)
//! and the builtin `PlatformManifest` (floats, options, nested structs).
//!
//! The manifest constant was computed at commit 71f6be0, when the
//! vendored serializer still built a `Value` tree and printed that; the
//! artifact constants at cache format 4, whose artifact stores each
//! accelerator step once and writes every tensor payload as base64 of
//! its native-width bytes. A serializer change that alters one byte of
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
    ("ds_cnn", DeployConfig::Both, 42_096, 0x89eb_b452_9fd8_5d0e),
    ("mobilenet_v1", DeployConfig::Both, 318_149, 0x977e_6a58_db39_5e9e),
    ("resnet8", DeployConfig::Both, 117_222, 0x4a28_65b1_3c8b_6551),
    ("toyadmos_dae", DeployConfig::Both, 370_401, 0x1990_8a03_23dc_d4c1),
    ("tiny_transformer", DeployConfig::Both, 222_871, 0xc0f5_43fa_88da_4cfe),
    ("ds_cnn", DeployConfig::Digital, 42_224, 0xa384_3e10_56e4_c4ee),
    ("mobilenet_v1", DeployConfig::Digital, 318_557, 0x9205_1664_4f4b_b764),
    ("resnet8", DeployConfig::Digital, 117_463, 0xf743_4c2f_13cc_2c3c),
    ("toyadmos_dae", DeployConfig::Digital, 370_647, 0xb4f3_3c25_f2a5_730b),
    // The same graph under Mixed and Int8, and no analog layer either
    // way: only the cache key's deploy suffix tells these two apart.
    ("tiny_transformer", DeployConfig::Digital, 222_871, 0xc0f5_43fa_88da_4cfe),
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
            assert!(!json.contains(r#""data":["#), "payloads are base64 text");
            seen.push((model.name, deploy, json.len(), fnv1a64(json.as_bytes())));
        }
    }
    assert_eq!(seen.len(), ARTIFACTS.len());
    for (got, want) in seen.iter().zip(&ARTIFACTS) {
        assert_eq!(*got, *want);
    }
    // The benchmark's `codegen.artifact_bytes` for one serve_cold round.
    assert_eq!(seen.iter().map(|r| r.2).sum::<usize>(), 2_142_501);
}

#[test]
fn builtin_manifest_serializes_to_the_pinned_bytes() {
    let json = serde_json::to_string(&PlatformManifest::builtin()).unwrap();
    assert_eq!((json.len(), fnv1a64(json.as_bytes())), MANIFEST);
}
