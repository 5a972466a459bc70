//! Pins the bytes `serde_json::to_string` produces for the types whose
//! serialization leaves the process: the ten soak-mix artifacts (what
//! the cache budgets, the persist envelope embeds and `/v1/*` sends)
//! and the builtin `PlatformManifest` (floats, options, nested structs).
//!
//! The constants were computed at commit 71f6be0, when the vendored
//! serializer still built a `Value` tree and printed that; a serializer
//! change that alters one byte of any of them fails here, not in a run
//! log.

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
    ("ds_cnn", DeployConfig::Both, 140_977, 0x829d_24ab_1846_f4e7),
    ("mobilenet_v1", DeployConfig::Both, 1_083_502, 0xf91e_1aa7_35b2_2e1e),
    ("resnet8", DeployConfig::Both, 391_552, 0x6d0a_5c2d_369e_902d),
    ("toyadmos_dae", DeployConfig::Both, 1_696_374, 0xd743_5f04_4a06_08bd),
    ("tiny_transformer", DeployConfig::Both, 1_202_495, 0xe7c4_72ba_1599_6f68),
    ("ds_cnn", DeployConfig::Digital, 184_479, 0x1202_2fcd_8f98_d690),
    ("mobilenet_v1", DeployConfig::Digital, 1_600_332, 0x1b0a_58a0_bf13_2388),
    ("resnet8", DeployConfig::Digital, 592_221, 0xfd4a_c5d4_7128_9db2),
    ("toyadmos_dae", DeployConfig::Digital, 1_961_575, 0x0ee6_0891_3a22_3aab),
    // The same graph under Mixed and Int8, and no analog layer either
    // way: only the cache key's deploy suffix tells these two apart.
    ("tiny_transformer", DeployConfig::Digital, 1_202_495, 0xe7c4_72ba_1599_6f68),
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
            seen.push((model.name, deploy, json.len(), fnv1a64(json.as_bytes())));
        }
    }
    assert_eq!(seen.len(), ARTIFACTS.len());
    for (got, want) in seen.iter().zip(&ARTIFACTS) {
        assert_eq!(*got, *want);
    }
    // The benchmark's `codegen.artifact_bytes` for one serve_cold round.
    assert_eq!(seen.iter().map(|r| r.2).sum::<usize>(), 10_056_002);
}

#[test]
fn builtin_manifest_serializes_to_the_pinned_bytes() {
    let json = serde_json::to_string(&PlatformManifest::builtin()).unwrap();
    assert_eq!((json.len(), fnv1a64(json.as_bytes())), MANIFEST);
}
