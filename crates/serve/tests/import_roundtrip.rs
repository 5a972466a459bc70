//! Import-path differential tests at the service layer: a zoo model
//! that goes file → importer → service must produce the same cache key
//! and byte-identical compiled artifact as the same graph submitted
//! in-process.

use htvm::DeployConfig;
use htvm_frontend::emit;
use htvm_ir::canonical_form;
use htvm_models::{all_models, stress_test, QuantScheme};
use htvm_serve::{CompileService, JobRequest, ServeConfig};

fn service() -> CompileService {
    CompileService::new(ServeConfig {
        workers: 2,
        cache_budget_bytes: 64 << 20,
        tracer: htvm::Tracer::disabled(),
        ..ServeConfig::default()
    })
}

#[test]
fn imported_zoo_models_share_cache_entries_with_in_process_builds() {
    let service = service();
    let mut expected_jobs = 0;
    for model in all_models(QuantScheme::Mixed) {
        // Cold: the in-process graph compiles and lands in the cache.
        let direct = service
            .submit(JobRequest::compile_only(
                model.name,
                model.graph.clone(),
                DeployConfig::Both,
            ))
            .unwrap_or_else(|e| panic!("{} compiles in-process: {e}", model.name));
        assert!(!direct.cache_hit);

        // Through the file: emit, import, verify graph identity.
        let bytes = emit(&model.graph).expect("zoo models emit");
        let imported = service
            .import_model(model.name, &bytes)
            .unwrap_or_else(|e| panic!("{} imports: {e}", model.name));
        assert_eq!(
            model.graph, imported,
            "{} import changed the graph",
            model.name
        );
        assert_eq!(
            canonical_form(&model.graph),
            canonical_form(&imported),
            "{} canonical encoding diverged",
            model.name
        );

        // Submit the imported graph: it must *hit* the cache entry the
        // in-process build created (identical ArtifactKey) and hand
        // back a byte-identical artifact.
        let filed = service
            .submit_model(model.name, None, DeployConfig::Both, &bytes)
            .unwrap_or_else(|e| panic!("{} submits from file: {e}", model.name));
        assert!(
            filed.cache_hit,
            "{} file-imported job missed the in-process cache entry",
            model.name
        );
        assert_eq!(
            direct.key_id, filed.key_id,
            "{} cache keys diverged",
            model.name
        );
        assert_eq!(
            serde_json::to_string(&direct.artifact).expect("artifacts serialize"),
            serde_json::to_string(&filed.artifact).expect("artifacts serialize"),
            "{} artifacts diverged between import and in-process paths",
            model.name
        );
        expected_jobs += 2;
    }
    let stats = service.stats();
    assert_eq!(stats.jobs, expected_jobs);
    assert_eq!(stats.rejected_import, 0);
    assert_eq!(stats.artifact_cache.hits, expected_jobs / 2);
    assert_eq!(stats.artifact_cache.misses, expected_jobs / 2);
}

#[test]
fn cold_import_compiles_identically_to_cold_in_process() {
    // No cache warm-up this time: two *separate* services compile the
    // stress model, one from the file, one in-process. Determinism (the
    // identity guarantee end to end) means the artifacts still match.
    let model = stress_test(QuantScheme::Int8);
    let bytes = emit(&model.graph).expect("stress model emits");
    let from_file = service()
        .submit_model(model.name, Some("tenant-a"), DeployConfig::Both, &bytes)
        .expect("file path compiles");
    let in_process = service()
        .submit(JobRequest::compile_only(
            model.name,
            model.graph.clone(),
            DeployConfig::Both,
        ))
        .expect("in-process path compiles");
    assert!(!from_file.cache_hit && !in_process.cache_hit);
    assert_eq!(from_file.key_id, in_process.key_id);
    assert_eq!(
        serde_json::to_string(&from_file.artifact).unwrap(),
        serde_json::to_string(&in_process.artifact).unwrap(),
        "cold compiles from both paths must be byte-identical"
    );
}

#[test]
fn every_zoo_model_keys_identically_through_the_importer_and_the_builder() {
    // A constant's digest is remembered with its payload: the first
    // canonical form of a graph reads its weights, and a second one, or
    // one of a clone, reads the remembered digests instead. Both paths
    // must give the fresh form, and the imported graph (weights widened
    // from native-width HTF bytes) the built one's.
    let service = service();
    for scheme in [QuantScheme::Mixed, QuantScheme::Int8] {
        for model in all_models(scheme) {
            let bytes = emit(&model.graph).expect("zoo models emit");
            let imported = service
                .import_model(model.name, &bytes)
                .unwrap_or_else(|e| panic!("{} imports: {e}", model.name));
            let first = canonical_form(&imported);
            assert_eq!(canonical_form(&imported), first, "{}", model.name);
            assert_eq!(canonical_form(&model.graph), first, "{}", model.name);
            assert_eq!(
                canonical_form(&model.graph.clone()),
                first,
                "{}",
                model.name
            );
            for deploy in [DeployConfig::Both, DeployConfig::Digital] {
                let key = |graph: &htvm_ir::Graph| {
                    let job = JobRequest::compile_only(model.name, graph.clone(), deploy);
                    service.key_of(&job).expect("the default platform routes")
                };
                let (built, filed) = (key(&model.graph), key(&imported));
                assert_eq!(built, filed, "{} {deploy:?}", model.name);
                assert_eq!(built.id(), filed.id(), "{} {deploy:?}", model.name);
            }
        }
    }
}
