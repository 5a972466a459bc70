//! Property/fuzz harness for the upload memo behind `POST /v1/import`:
//! a repeat upload skips the import and the keying, and nothing a
//! client sees may change because of it.
//!
//! The corpus is the `fuzz_import` corpus (every mixed-scheme zoo model
//! plus the stress topology, emitted to HTF) and seeded byte mutants of
//! it from the shared driver (`tests/support/fuzz.rs`), half of their
//! edits at the layout marks. Every upload goes through
//! [`CompileService::submit_model`] twice on one service. Then:
//!
//! - an upload that imports gets, on both passes, the key id that a
//!   from-scratch import → [`CompileService::key_of`] gives, and an
//!   artifact byte-identical to a cold compile of the imported graph
//!   (or fails to compile where the cold compile fails);
//! - its second pass is a cache hit and remembers nothing new;
//! - an upload the importer refuses raises `rejected_import` on both
//!   passes, so a refusal is never remembered;
//! - `hits + misses + coalesced == jobs` after every pass.
//!
//! Two encodings of one graph (one carrying the quant sub-table that
//! import discards) give one key, one cache entry and two uploads.
//!
//! The driver minimises a failing upload and writes it to
//! `CARGO_TARGET_TMPDIR`.

#[path = "../../../tests/support/fuzz.rs"]
mod fuzz;

use fuzz::{check, mutate, seeded, Alphabet};
use htvm::{Compiler, DeployConfig};
use htvm_frontend::{emit, emit_with_layout, emit_with_quant, import, QuantParams};
use htvm_ir::Graph;
use htvm_models::{all_models, stress_test, Model, QuantScheme};
use htvm_serve::{CompileService, JobError, JobRequest, ServeConfig};
use proptest::test_runner::TestRng;
use std::cell::RefCell;
use std::collections::HashMap;

/// Bytes an edit plants: zero, one, both sides of the sign bit, all-ones.
const EDGES: Alphabet = Alphabet {
    edges: b"\x00\x01\x7f\x80\xff",
    ascii: false,
};

const DEPLOY: DeployConfig = DeployConfig::Both;

/// Seeded edit mutants per corpus model; nearly all are refused.
const MUTANTS: u64 = 16;

/// Seeded single-bit flips per corpus model. About half import, and each
/// one that imports to a new graph costs two compiles.
const FLIPS: u64 = 8;

/// The `fuzz_import` corpus: every mixed-scheme zoo model plus the
/// stress topology.
fn corpus() -> Vec<Model> {
    let mut models = all_models(QuantScheme::Mixed);
    models.push(stress_test(QuantScheme::Int8));
    models
}

fn service() -> CompileService {
    CompileService::new(ServeConfig {
        workers: 1,
        tracer: htvm::Tracer::disabled(),
        ..ServeConfig::default()
    })
}

/// One service every upload goes through, and the cold compiles its
/// answers are held to, by key id.
struct Harness {
    service: CompileService,
    cold: RefCell<HashMap<String, Option<String>>>,
}

impl Harness {
    fn new() -> Self {
        Harness {
            service: service(),
            cold: RefCell::new(HashMap::new()),
        }
    }

    /// The serialized cold compile of `graph`, or `None` if it fails.
    fn cold(&self, key_id: &str, graph: &Graph) -> Option<String> {
        let mut cold = self.cold.borrow_mut();
        let compile = || {
            let artifact = Compiler::new().with_deploy(DEPLOY).compile(graph).ok()?;
            Some(serde_json::to_string(&artifact).expect("artifacts serialize"))
        };
        cold.entry(key_id.to_owned())
            .or_insert_with(compile)
            .clone()
    }

    /// Submits `bytes` twice and holds each answer to a from-scratch
    /// import, key and compile.
    fn twice(&self, name: &str, bytes: &[u8]) {
        let imported = import(bytes);
        for pass in 1..=2 {
            let before = self.service.stats();
            let result = self.service.submit_model(name, None, DEPLOY, bytes);
            let after = self.service.stats();
            let refused = after.rejected_import - before.rejected_import;
            match (&imported, result) {
                (Err(_), Err(JobError::Import { .. })) => {
                    assert_eq!(refused, 1, "pass {pass}: a refusal is counted");
                }
                (Err(e), other) => {
                    panic!(
                        "pass {pass}: the importer refuses ({e}), the service answered {other:?}"
                    )
                }
                (Ok(graph), result) => {
                    assert_eq!(refused, 0, "pass {pass}");
                    let job = JobRequest::compile_only(name, graph.clone(), DEPLOY);
                    let key_id = self.service.key_of(&job).expect("every job keys").id();
                    match (result, self.cold(&key_id, graph)) {
                        (Ok(served), Some(cold)) => {
                            assert_eq!(served.key_id, key_id, "pass {pass}");
                            assert_eq!(served.artifact.json(), cold, "pass {pass}");
                            if pass == 2 {
                                assert!(served.cache_hit, "a repeat is a hit");
                                let cache = (before.artifact_cache, after.artifact_cache);
                                assert_eq!(cache.0.uploads, cache.1.uploads, "nothing new");
                            }
                        }
                        (Err(JobError::Compile { .. }), None) => {}
                        (served, cold) => panic!(
                            "pass {pass}: served {served:?}, cold compile {}",
                            if cold.is_some() { "succeeds" } else { "fails" }
                        ),
                    }
                }
            }
            let cache = after.artifact_cache;
            assert_eq!(
                cache.hits + cache.misses + after.coalesced,
                after.jobs,
                "pass {pass}"
            );
        }
    }
}

#[test]
fn clean_uploads_are_remembered_and_answer_as_before() {
    let harness = Harness::new();
    let corpus = corpus();
    for model in &corpus {
        let bytes = emit(&model.graph).expect("emit");
        check(&format!("upload-{}", model.name), "clean", &bytes, |b| {
            harness.twice(model.name, b);
        });
    }
    let cache = harness.service.stats().artifact_cache;
    let models = corpus.len() as u64;
    assert_eq!((cache.entries, cache.uploads), (models, models));
    assert_eq!((cache.hits, cache.misses), (models, models));
}

#[test]
fn seeded_mutants_are_refused_twice_or_served_as_cold_compiles() {
    let harness = Harness::new();
    for (m, model) in corpus().iter().enumerate() {
        let (bytes, layout) = emit_with_layout(&model.graph).expect("emit");
        let marks = [&layout.tables[..], &layout.vector_lengths, &layout.offsets].concat();
        let edit = |rng: &mut _, b: &mut _| mutate(rng, b, &EDGES, &marks);
        for (name, mutant) in seeded(0x7000 + m as u64 * 1000, MUTANTS, &bytes, 4, edit) {
            check(&format!("upload-{}", model.name), &name, &mutant, |b| {
                harness.twice(model.name, b);
            });
        }
    }
}

#[test]
fn single_bit_flips_are_refused_twice_or_served_as_cold_compiles() {
    // One flipped bit mostly lands in a weight payload: the mutant
    // imports to a graph of its own, with a key and an artifact of its
    // own.
    let harness = Harness::new();
    for (m, model) in corpus().iter().enumerate() {
        let bytes = emit(&model.graph).expect("emit");
        let flip = |rng: &mut TestRng, b: &mut Vec<u8>| {
            let at = rng.below(b.len() as u64) as usize;
            b[at] ^= 1 << rng.below(8);
        };
        for (name, mutant) in seeded(0x9000 + m as u64 * 1000, FLIPS, &bytes, 1, flip) {
            check(
                &format!("upload-{}", model.name),
                &format!("bitflip-{name}"),
                &mutant,
                |b| {
                    harness.twice(model.name, b);
                },
            );
        }
    }
}

#[test]
fn two_encodings_of_one_graph_share_one_entry() {
    let model = stress_test(QuantScheme::Int8);
    let plain = emit(&model.graph).expect("emit");
    // Quant params on every tensor: valid, and discarded by import.
    let params = QuantParams {
        zero_point: -3,
        shift: 7,
    };
    let quant: Vec<_> = model
        .graph
        .nodes()
        .map(|(id, _)| (id.index(), params))
        .collect();
    let (quantized, _) = emit_with_quant(&model.graph, &quant).expect("emit");
    assert_ne!(plain, quantized, "two encodings");
    assert_eq!(import(&quantized).expect("imports"), model.graph);

    let service = service();
    let upload = |bytes: &[u8]| {
        service
            .submit_model(model.name, None, DEPLOY, bytes)
            .expect("the stress model compiles")
    };
    let first = upload(&plain);
    let second = upload(&quantized);
    assert!(!first.cache_hit && second.cache_hit);
    assert_eq!(first.key_id, second.key_id);
    assert_eq!(first.artifact.json(), second.artifact.json());
    let cache = service.stats().artifact_cache;
    assert_eq!((cache.entries, cache.uploads), (1, 2));
    let len = (plain.len() + quantized.len()) as u64;
    assert_eq!(cache.upload_bytes, len);
    // Each encoding is now answered from the memo, under the one key.
    for bytes in [&plain, &quantized] {
        let again = upload(bytes);
        assert!(again.cache_hit);
        assert_eq!(again.key_id, first.key_id);
    }
    assert_eq!(service.stats().artifact_cache.uploads, 2);
}
