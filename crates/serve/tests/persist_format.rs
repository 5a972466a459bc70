//! Pins the on-disk entry format byte for byte, so a cache written by
//! one build boots warm on any other build with the same stamps.

use htvm::{Compiler, DeployConfig};
use htvm_ir::canonical::murmur3_128;
use htvm_ir::{DType, GraphBuilder, Tensor};
use htvm_serve::http::wire::encode_hex;
use htvm_serve::{
    compiler_stamp, ArtifactCache, CompileService, JobRequest, PersistStore, ServeConfig,
    CACHE_FORMAT_VERSION,
};

#[test]
fn an_entry_is_the_header_then_the_artifacts_own_bytes() {
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[8, 8, 8], DType::I8);
    let w = b.constant("w", Tensor::zeros(DType::I8, &[8, 8, 3, 3]));
    let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
    let y = b.requantize(c, 7, true).unwrap();
    let graph = b.finish(&[y]).unwrap();
    let artifact = Compiler::new()
        .with_deploy(DeployConfig::Both)
        .compile(&graph)
        .unwrap();
    let job = JobRequest::compile_only("pin", graph, DeployConfig::Both);
    let key = CompileService::new(ServeConfig::default())
        .key_of(&job)
        .unwrap();

    let root = std::env::temp_dir().join(format!("htvm-persist-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = PersistStore::open(&root, "diana").unwrap();
    assert!(store.write(&key, &artifact));

    let artifact_bytes = serde_json::to_string(&artifact).unwrap();
    let on_disk =
        std::fs::read_to_string(root.join("v1/diana").join(format!("{}.json", key.id()))).unwrap();
    let expected = format!(
        r#"{{"format":{},"compiler":"{}","key_id":"{}","key_hex":"{}","artifact_digest":"{:032x}","artifact":{}}}"#,
        CACHE_FORMAT_VERSION,
        compiler_stamp(),
        key.id(),
        encode_hex(key.as_bytes()),
        murmur3_128(artifact_bytes.as_bytes()),
        artifact_bytes,
    );
    assert!(on_disk == expected, "the entry envelope changed on disk");

    let cache = ArtifactCache::new(64 << 20);
    assert_eq!(store.load_into(&cache).load_ok, 1);
    assert!(cache.get(&key).expect("re-admitted") == artifact);
    let _ = std::fs::remove_dir_all(&root);
}
