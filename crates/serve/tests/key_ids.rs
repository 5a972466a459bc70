//! Pins the cache key id of each of the ten soak-mix jobs, as
//! `CompileService::key_of` computes it on the builtin manifest's
//! default platform. A key id names the persist entry on disk and the
//! artifact a `/v1/*` client asks for, so a change to how artifacts are
//! *written* must leave every id here as it is; a change to what a key
//! *means* moves them, and `CACHE_FORMAT_VERSION` with them.

use htvm::DeployConfig;
use htvm_models::{all_models, QuantScheme};
use htvm_serve::{CompileService, JobRequest, ServeConfig};

/// `(model, deploy, key id)` in soak-mix order
/// (`htvm_bench::serve_bench::request_mix`).
#[rustfmt::skip]
const KEYS: [(&str, DeployConfig, &str); 10] = [
    ("ds_cnn", DeployConfig::Both, "0644cc976e550bad116f3eb6907d368f"),
    ("mobilenet_v1", DeployConfig::Both, "db9ecc0e75482b00ab6c0e8718983e39"),
    ("resnet8", DeployConfig::Both, "3a91bdc6df1cf3fa68fd4672025b8ffa"),
    ("toyadmos_dae", DeployConfig::Both, "e4f39bbd26f60f157f186b06c0fc286c"),
    ("tiny_transformer", DeployConfig::Both, "88f989bb1e99878b5c36f88375c10028"),
    ("ds_cnn", DeployConfig::Digital, "453636d3bf261a1af8661ee5fb46628f"),
    ("mobilenet_v1", DeployConfig::Digital, "45006dcb6da3c63bddf957efddd5dc18"),
    ("resnet8", DeployConfig::Digital, "0793780f1c3fb20ac990d59add002b37"),
    ("toyadmos_dae", DeployConfig::Digital, "9a702068479b92200137e929520f1d47"),
    ("tiny_transformer", DeployConfig::Digital, "d8913d2e4051131c4d5158e5181f6dfb"),
];

#[test]
fn soak_mix_key_ids_are_pinned() {
    let service = CompileService::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut seen = Vec::new();
    for (deploy, scheme) in [
        (DeployConfig::Both, QuantScheme::Mixed),
        (DeployConfig::Digital, QuantScheme::Int8),
    ] {
        for model in all_models(scheme) {
            let job = JobRequest::compile_only(model.name, model.graph, deploy);
            let key = service.key_of(&job).expect("the default platform routes");
            seen.push((model.name, deploy, key.id()));
        }
    }
    assert_eq!(seen.len(), KEYS.len());
    for (got, want) in seen.iter().zip(&KEYS) {
        assert_eq!((got.0, got.1, got.2.as_str()), *want);
    }
}
