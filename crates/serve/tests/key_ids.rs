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
    ("ds_cnn", DeployConfig::Both, "4eda50d9b2f88a161b6357788b270c69"),
    ("mobilenet_v1", DeployConfig::Both, "665118aa7fa79225325e971566495fee"),
    ("resnet8", DeployConfig::Both, "eb47e9464c94a46c7100d0ecddc373ee"),
    ("toyadmos_dae", DeployConfig::Both, "d01d82e4baf548997626ccfeb05bcf91"),
    ("tiny_transformer", DeployConfig::Both, "84bf24ab285af554e91f3d25b58c6cec"),
    ("ds_cnn", DeployConfig::Digital, "89b47792bc8774a027334cfd77d61b15"),
    ("mobilenet_v1", DeployConfig::Digital, "c1965127b351ca3dd4721b8d6dac711e"),
    ("resnet8", DeployConfig::Digital, "4f8ce655eccda139a2b6e3ea113628ae"),
    ("toyadmos_dae", DeployConfig::Digital, "c46dd4d510daf6df0462495ce15318b8"),
    ("tiny_transformer", DeployConfig::Digital, "60747c0479d1282687214fbf702e9108"),
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
