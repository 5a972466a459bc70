//! The cache-format compatibility gate: loading a committed fixture of
//! the v1 on-disk layout must never panic, and every stale or damaged
//! entry must be skipped and counted. The fixtures are adversarial by
//! construction — a stale compiler stamp, an unknown format version, a
//! digest mismatch, torn JSON, and a valid header over an unparseable
//! artifact — so this test stays green across version bumps: entries
//! that today fail one specific check simply fail the stamp check
//! instead after a bump, and either way they are *skipped*, never
//! trusted and never fatal.
//!
//! One fixture is not damaged at all: `996b1781….json` is a format-1
//! entry exactly as the last format-1 build wrote it (a one-`relu`
//! graph; digest, filename and compiler stamp all match, and that build
//! re-admits it). Format 2 changed how keys are encoded, so no request
//! can ask for that key any more and the entry must be skipped on its
//! format alone. The digest-mismatch, bad-artifact and stale-stamp
//! fixtures were moved to format 2 with the constant, so each still
//! fails the one check it was written for.

use htvm::DeployConfig;
use htvm_ir::{DType, GraphBuilder, Tensor};
use htvm_serve::{
    ArtifactCache, CompileService, JobRequest, PersistStore, ServeConfig, CACHE_FORMAT_VERSION,
};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/persist_v1")
}

/// Number of committed fixture entries (none of them admissible).
const FIXTURE_ENTRIES: u64 = 6;

/// The well-formed format-1 entry.
const FORMAT_1_ENTRY: &str = "996b17818e8887b0f52139322832f58b.json";

#[test]
fn layout_constants_are_pinned() {
    // The committed fixtures encode layout v1; if either constant
    // moves, the fixtures (and every deployed cache directory) need a
    // deliberate migration, not a silent drift. Format 1 -> 2 was one:
    // constant payloads are keyed by MurmurHash3 instead of FNV-1a, so
    // every format-1 key is unreachable and its entry is skipped.
    assert_eq!(CACHE_FORMAT_VERSION, 2);
    assert_eq!(htvm_serve::persist::CACHE_LAYOUT_DIR, "v1");
}

#[test]
fn a_well_formed_format_1_entry_is_skipped_on_its_format_alone() {
    // Alone in a directory, so the count is about this entry; and with
    // only the format field moved to 2 the very same file is admitted,
    // so nothing but the format kept it out. (The second half holds
    // while the compiler stamp and artifact schema are the ones the
    // entry was written under; drop it when either moves.)
    let scratch = std::env::temp_dir().join(format!("htvm-compat-f1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let store = PersistStore::open(&scratch, "diana").expect("scratch dir opens");
    let entry = scratch.join("v1/diana").join(FORMAT_1_ENTRY);
    let text = std::fs::read_to_string(fixture_root().join("v1/diana").join(FORMAT_1_ENTRY))
        .expect("fixture reads");
    assert!(text.starts_with(r#"{"format":1,"compiler":"htvm-serve "#));

    std::fs::write(&entry, &text).expect("fixture copies");
    let cache = ArtifactCache::new(64 << 20);
    let stats = store.load_into(&cache);
    assert_eq!((stats.load_ok, stats.load_skipped), (0, 1));

    std::fs::write(&entry, text.replacen(r#""format":1"#, r#""format":2"#, 1)).unwrap();
    let stats = store.load_into(&cache);
    assert_eq!((stats.load_ok, stats.load_skipped), (1, 1));
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn stale_and_damaged_v1_entries_are_skipped_not_fatal() {
    let store = PersistStore::open(&fixture_root(), "diana").expect("fixture dir opens");
    let cache = ArtifactCache::new(64 << 20);
    let stats = store.load_into(&cache);
    assert_eq!(stats.load_ok, 0, "no fixture entry is trustworthy");
    assert_eq!(
        stats.load_skipped, FIXTURE_ENTRIES,
        "every fixture entry is skipped and counted"
    );
    assert_eq!(cache.stats().insertions, 0, "nothing was admitted");
}

#[test]
fn a_service_boots_cold_over_a_stale_cache_and_serves() {
    // Copy the fixtures to scratch space: the booted service will spill
    // fresh entries next to them, and the committed tree must stay
    // pristine.
    let scratch = std::env::temp_dir().join(format!("htvm-compat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let dir = scratch.join("v1/diana");
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    for entry in std::fs::read_dir(fixture_root().join("v1/diana")).expect("fixtures list") {
        let entry = entry.expect("fixture entry reads");
        std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("fixture copies");
    }

    let service = CompileService::new(ServeConfig {
        workers: 2,
        cache_budget_bytes: 64 << 20,
        tracer: htvm::Tracer::disabled(),
        persist_root: Some(scratch.clone()),
        ..ServeConfig::default()
    });
    let booted = service.stats();
    assert_eq!(booted.persist_load_ok, 0);
    assert_eq!(booted.persist_load_skipped, FIXTURE_ENTRIES);

    // The cold boot is still a working service: compile one job and
    // spill it durably alongside the stale entries.
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[8, 8, 8], DType::I8);
    let w = b.constant("w", Tensor::zeros(DType::I8, &[8, 8, 3, 3]));
    let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
    let y = b.requantize(c, 7, true).unwrap();
    let graph = b.finish(&[y]).unwrap();
    let result = service
        .submit(JobRequest::compile_only("fresh", graph, DeployConfig::Both))
        .expect("a cold service still compiles");
    assert!(!result.cache_hit);
    assert_eq!(service.stats().persist_writes, 1);
    let spilled = std::fs::read_to_string(dir.join(format!("{}.json", result.key_id)))
        .expect("the fresh entry sits next to the old ones");
    assert!(spilled.starts_with(r#"{"format":2,"#));

    let _ = std::fs::remove_dir_all(&scratch);
}
