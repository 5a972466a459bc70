//! Restart-durability integration tests: a service rebooted over its
//! persistence root must serve every previously compiled key without
//! recompiling, and the replayed artifacts must be byte-identical to
//! the pre-restart ones. This is the warm-start contract the `fleet`
//! CI job gates on.

use htvm::{DeployConfig, DianaConfig, Machine};
use htvm_ir::{DType, Graph, GraphBuilder, Tensor};
use htvm_models::{resnet8, QuantScheme};
use htvm_serve::{CompileService, Fleet, JobRequest, ServeConfig};
use std::path::{Path, PathBuf};

/// A unique scratch root per test; wiped before use so a stale run
/// can't fake the warm start.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htvm-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn conv_graph(channels: usize) -> Graph {
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[channels, 8, 8], DType::I8);
    let w = b.constant("w", Tensor::zeros(DType::I8, &[channels, channels, 3, 3]));
    let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
    let y = b.requantize(c, 7, true).unwrap();
    b.finish(&[y]).unwrap()
}

fn config(root: &Path) -> ServeConfig {
    ServeConfig {
        workers: 2,
        cache_budget_bytes: 64 << 20,
        tracer: htvm::Tracer::disabled(),
        persist_root: Some(root.to_owned()),
        ..ServeConfig::default()
    }
}

/// Distinct compile jobs (one per channel count, so one per key).
fn jobs() -> Vec<JobRequest> {
    [4usize, 8, 16, 24]
        .into_iter()
        .map(|ch| {
            JobRequest::compile_only(&format!("conv{ch}"), conv_graph(ch), DeployConfig::Both)
        })
        .collect()
}

#[test]
fn restart_serves_every_cached_key_without_recompiling() {
    let root = scratch("single");
    let jobs_count = jobs().len() as u64;

    // Cold pass: every key compiles once and spills to disk.
    let cold_artifacts: Vec<String> = {
        let service = CompileService::new(config(&root));
        let artifacts = jobs()
            .into_iter()
            .map(|job| {
                let result = service.submit(job).expect("cold jobs compile");
                assert!(!result.cache_hit);
                serde_json::to_string(&result.artifact).expect("artifacts serialize")
            })
            .collect();
        let stats = service.stats();
        assert_eq!(stats.artifact_cache.misses, jobs_count);
        assert_eq!(
            stats.persist_writes, jobs_count,
            "every distinct compile spills exactly one durable entry"
        );
        assert_eq!(stats.persist_load_ok, 0, "a fresh root re-admits nothing");
        artifacts
        // The service drops here: memory cache, tile caches and
        // counters are all gone. Only the disk entries survive.
    };

    // Warm reboot: the disk entries come back as cache insertions.
    let rebooted = CompileService::new(config(&root));
    let booted = rebooted.stats();
    assert_eq!(booted.persist_load_ok, jobs_count);
    assert_eq!(booted.persist_load_skipped, 0);
    assert_eq!(booted.artifact_cache.insertions, jobs_count);
    assert_eq!(booted.artifact_cache.misses, 0);

    // Replay: zero recompiles, byte-identical artifacts.
    for (job, cold) in jobs().into_iter().zip(&cold_artifacts) {
        let result = rebooted.submit(job).expect("warm jobs hit");
        assert!(
            result.cache_hit,
            "'{}' must hit the re-admitted entry",
            result.job
        );
        let warm = serde_json::to_string(&result.artifact).expect("artifacts serialize");
        assert_eq!(&warm, cold, "'{}' must replay byte-identically", result.job);
    }
    let stats = rebooted.stats();
    assert_eq!(
        stats.artifact_cache.misses, 0,
        "a warm restart recompiles nothing"
    );
    assert_eq!(stats.artifact_cache.hits, jobs_count);
    assert_eq!(
        stats.artifact_cache.hits + stats.artifact_cache.misses + stats.coalesced,
        stats.jobs,
        "exact accounting survives the persistence paths"
    );
    assert_eq!(stats.persist_writes, 0, "hits re-spill nothing");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_readmitted_artifact_runs_exactly_like_the_compiled_one() {
    // An artifact that went persist -> restart -> re-admit must run with
    // the same outputs, cycles and layers as the fresh compile.
    let root = scratch("readmit");
    let model = resnet8(QuantScheme::Mixed);
    let job = || JobRequest::compile_only("resnet8", model.graph.clone(), DeployConfig::Both);
    let compiled = CompileService::new(config(&root))
        .submit(job())
        .expect("cold job compiles")
        .artifact;
    let readmitted = CompileService::new(config(&root))
        .submit(job())
        .expect("warm job hits");
    assert!(readmitted.cache_hit);

    let machine = Machine::new(DianaConfig::default());
    let input = [model.input(7)];
    let fresh = machine.run(&compiled.program, &input).unwrap();
    let replayed = machine.run(&readmitted.artifact.program, &input).unwrap();
    assert_eq!(fresh, replayed, "outputs, cycles and layers");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fleet_restart_is_warm_and_byte_identical() {
    let root = scratch("fleet");
    let mut fleet = Fleet::new(3, &root, config(&root));

    // Cold pass, recording each job's owner and artifact bytes.
    let cold: Vec<(usize, String)> = jobs()
        .into_iter()
        .map(|job| {
            let (owner, result) = fleet.submit(job).expect("cold fleet jobs compile");
            let bytes = serde_json::to_string(&result.artifact).expect("artifacts serialize");
            (owner, bytes)
        })
        .collect();

    // Kill and reboot the instance serving the most keys.
    let busiest = (0..fleet.len())
        .max_by_key(|&i| cold.iter().filter(|(owner, _)| *owner == i).count())
        .unwrap();
    let owned = cold.iter().filter(|(owner, _)| *owner == busiest).count() as u64;
    assert!(owned > 0, "the busiest instance must own at least one key");
    fleet.restart(busiest);
    let rebooted = fleet.instance(busiest).stats();
    assert_eq!(
        rebooted.persist_load_ok, owned,
        "the reboot re-admits its whole shard"
    );

    // Replay: same owners (affinity survives), zero recompiles on the
    // rebooted instance, byte-identical artifacts fleet-wide.
    for (job, (owner, cold_bytes)) in jobs().into_iter().zip(&cold) {
        let (replay_owner, result) = fleet.submit(job).expect("warm fleet jobs hit");
        assert_eq!(replay_owner, *owner, "key affinity must survive a restart");
        assert!(result.cache_hit);
        let bytes = serde_json::to_string(&result.artifact).expect("artifacts serialize");
        assert_eq!(&bytes, cold_bytes);
    }
    assert_eq!(
        fleet.instance(busiest).stats().artifact_cache.misses,
        0,
        "the rebooted instance serves its shard from the re-admitted entries"
    );

    // Instance stats are labeled and remember the reboot.
    let stats = fleet.stats();
    assert_eq!(stats.len(), 3);
    assert_eq!(stats[busiest].restarts, 1);
    assert_eq!(stats[busiest].name, format!("instance-{busiest}"));

    let _ = std::fs::remove_dir_all(&root);
}
