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
    ("ds_cnn", DeployConfig::Both, "6372ca7d601ff0f56963a317f7225c80"),
    ("mobilenet_v1", DeployConfig::Both, "667d878326fb6bbde4a8841929314371"),
    ("resnet8", DeployConfig::Both, "fb9f18ab11f2ac918be9836c46188f6b"),
    ("toyadmos_dae", DeployConfig::Both, "e74512670fe1484adcc45097a27860b7"),
    ("tiny_transformer", DeployConfig::Both, "ff439762fb2c4a643fe176dcf0975d44"),
    ("ds_cnn", DeployConfig::Digital, "abcc23945a79a59497b04987a78738dd"),
    ("mobilenet_v1", DeployConfig::Digital, "f168e6b3d60221e052f3272f85ea4b9b"),
    ("resnet8", DeployConfig::Digital, "28ad1738d06795de2be7f74a8f1dce14"),
    ("toyadmos_dae", DeployConfig::Digital, "cae7becd97e96065a8cc7acbdbab7e37"),
    ("tiny_transformer", DeployConfig::Digital, "caaf526643329432f300c73a2734686b"),
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
