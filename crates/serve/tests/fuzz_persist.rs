//! Property/fuzz harness for the persist envelopes a service reads at
//! boot: no entry on disk may crash the load, be counted twice, or be
//! admitted as anything but the artifact its compile produced.
//!
//! The corpus is two real entries spilled by a [`CompileService`] with a
//! `persist_root`: a conv → softmax graph (a weight payload and a CPU
//! segment) under two deploy targets. Each entry is mutated with every
//! number in it one higher, and with seeded edits from the shared driver
//! (`tests/support/fuzz.rs`), half of them at the envelope's fields, the
//! artifact's numbers, the payload strings and the segment's `inputs`.
//! Each mutant is written alone into a fresh store under its clean
//! file name and loaded with [`PersistStore::load_into`]. Then:
//!
//! - exactly one of `load_ok` and `load_skipped` counts it;
//! - if admitted, it sits under the clean key, and its stored bytes are
//!   the clean artifact's bytes;
//! - nothing panics.
//!
//! The driver minimises a failing mutant and writes it to
//! `CARGO_TARGET_TMPDIR`.

#[path = "../../../tests/support/fuzz.rs"]
mod fuzz;

use fuzz::{check, mutate, seeded, Alphabet};
use htvm::DeployConfig;
use htvm_ir::{DType, Graph, GraphBuilder, Tensor};
use htvm_serve::{
    ArtifactCache, ArtifactKey, CompileService, JobRequest, PersistStore, ServeConfig,
};
use std::path::{Path, PathBuf};

/// Bytes an edit plants: JSON structure, digits, hex and base64 symbols,
/// and two bytes that are not UTF-8 on their own.
const EDGES: Alphabet = Alphabet {
    edges: b"\"\\{}[],:-.0123456789aefAQ+/=\x80\xff",
    ascii: false,
};

/// One clean entry: its key, its file text and the artifact's bytes.
struct Entry {
    key: ArtifactKey,
    text: Vec<u8>,
    artifact: String,
}

/// A one-conv graph whose requantized output feeds a softmax: the conv
/// runs on an accelerator (a weight payload in the artifact), the
/// softmax on the CPU (a segment graph in the artifact).
fn conv_softmax_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[8, 8, 8], DType::I8);
    let w = (0..576).map(|i| (i * 37) % 256 - 128).collect();
    let w = b.constant("w", Tensor::new(DType::I8, &[8, 8, 3, 3], w).unwrap());
    let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
    let y = b.requantize(c, 7, true).unwrap();
    let f = b.flatten(y).unwrap();
    let s = b.softmax(f).unwrap();
    b.finish(&[s]).unwrap()
}

/// A scratch directory of this test's own, emptied.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htvm-fuzz-persist-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The entries a service spills for the graph under `Digital` and `Both`.
fn corpus(root: &Path) -> Vec<Entry> {
    let service = CompileService::new(ServeConfig {
        workers: 1,
        tracer: htvm::Tracer::disabled(),
        persist_root: Some(root.to_owned()),
        ..ServeConfig::default()
    });
    let entries = [DeployConfig::Digital, DeployConfig::Both]
        .into_iter()
        .map(|deploy| {
            let job = JobRequest::compile_only("fuzz", conv_softmax_graph(), deploy);
            let key = service.key_of(&job).expect("keys");
            let result = service.submit(job).expect("compiles");
            let path = root.join("v1/diana").join(format!("{}.json", key.id()));
            Entry {
                text: std::fs::read(path).expect("entry spilled"),
                artifact: result.artifact.json().to_owned(),
                key,
            }
        })
        .collect();
    let _ = std::fs::remove_dir_all(root);
    entries
}

/// Where edits are biased: each envelope field, the first digit of each
/// number, each payload string and each list of `inputs`.
fn marks(text: &[u8]) -> Vec<usize> {
    let starts = |needle: &[u8]| -> Vec<usize> {
        (0..text.len())
            .filter(|&at| text[at..].starts_with(needle))
            .map(|at| at + needle.len())
            .collect()
    };
    let mut marks: Vec<usize> = [
        &b"\"format\":"[..],
        b"\"compiler\":",
        b"\"key_id\":",
        b"\"key_hex\":",
        b"\"artifact_digest\":",
        b"\"artifact\":",
        b"\"data\":\"",
        b"\"inputs\":[",
    ]
    .into_iter()
    .flat_map(starts)
    .collect();
    marks.extend(numbers(text).into_iter().map(|(at, _)| at));
    marks
}

/// Every run of digits outside a string: its start and its length.
fn numbers(text: &[u8]) -> Vec<(usize, usize)> {
    let (mut found, mut in_string, mut at) = (Vec::new(), false, 0);
    while at < text.len() {
        match text[at] {
            b'"' => in_string = !in_string,
            b'\\' if in_string => at += 1,
            b'0'..=b'9' if !in_string => {
                let len = text[at..].iter().take_while(|b| b.is_ascii_digit()).count();
                found.push((at, len));
                at += len - 1;
            }
            _ => {}
        }
        at += 1;
    }
    found
}

/// Writes `mutant` alone under the clean entry's file name in a fresh
/// store under `root`, loads it, and checks the module docs' property.
/// Returns whether it was admitted.
fn load_alone(root: &Path, entry: &Entry, mutant: &[u8]) -> bool {
    // One store root per clean entry, so the mutant is its only file.
    let root = root.join(entry.key.id());
    let store = PersistStore::open(&root, "diana").expect("store opens");
    let path = root
        .join("v1/diana")
        .join(format!("{}.json", entry.key.id()));
    std::fs::write(path, mutant).expect("mutant writes");
    let cache = ArtifactCache::new(64 << 20);
    let stats = store.load_into(&cache);
    assert_eq!(stats.load_ok + stats.load_skipped, 1, "{stats:?}");
    if stats.load_ok == 1 {
        let stored = cache.get(&entry.key).expect("admitted under the clean key");
        assert!(stored.json() == entry.artifact, "admitted with other bytes");
    }
    stats.load_ok == 1
}

#[test]
fn the_corpus_loads_back_byte_identical() {
    let root = scratch("corpus");
    for (i, entry) in corpus(&root).iter().enumerate() {
        // Whitespace between tokens is not part of the artifact's bytes,
        // so the spaced entry is admitted as the clean one.
        let spaced = String::from_utf8(entry.text.clone())
            .unwrap()
            .replace(",\"", ", \"");
        for (mutation, text) in [("none", &entry.text[..]), ("spaced", spaced.as_bytes())] {
            let admitted = check("persist", &format!("e{i}-{mutation}"), text, |b| {
                load_alone(&root, entry, b)
            });
            assert!(admitted, "{mutation} entry {i}");
        }
        // Every envelope field, a payload and a segment's `inputs` are
        // marked, besides the numbers.
        let numbers = numbers(&entry.text).len();
        assert!(numbers > 50 && marks(&entry.text).len() >= numbers + 8);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn every_number_one_higher_is_skipped_or_unchanged() {
    let root = scratch("numbers");
    for (i, entry) in corpus(&root).iter().enumerate() {
        for (at, len) in numbers(&entry.text) {
            let digits = std::str::from_utf8(&entry.text[at..at + len]).unwrap();
            let n: u128 = digits.parse().expect("a run of digits");
            let mutant = [
                &entry.text[..at],
                (n + 1).to_string().as_bytes(),
                &entry.text[at + len..],
            ]
            .concat();
            check("persist", &format!("e{i}-plus-one-{at}"), &mutant, |b| {
                load_alone(&root, entry, b)
            });
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn random_edits_are_skipped_or_admitted_byte_identical() {
    let root = scratch("random");
    for (i, entry) in corpus(&root).iter().enumerate() {
        let marks = marks(&entry.text);
        let edit = |rng: &mut _, b: &mut _| mutate(rng, b, &EDGES, &marks);
        for (name, mutant) in seeded(i as u64 * 1000, 512, &entry.text, 4, edit) {
            check("persist", &format!("e{i}-{name}"), &mutant, |b| {
                load_alone(&root, entry, b)
            });
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
