//! Mutate harness for serialized tensors: no text may panic the reader,
//! and the payload text of an accepted one is the only text of its
//! tensor.
//!
//! A corpus of packed `Tensor` JSON (every dtype, every payload length
//! modulo 3, extreme values) and of a CPU-segment `Graph` holding one
//! constant of each dtype is mutated deterministically: every byte of
//! each tensor's payload replaced, preceded or dropped, then seeded runs
//! of one to four edits anywhere in the text. Every mutant is fed to
//! `serde_json::from_str` under `catch_unwind`. It is either refused
//! with an error, or it is accepted and then:
//!
//! - writing it back gives a text that reads back to the same value and
//!   writes back unchanged;
//! - every `data` payload string in it is the one written back, so no
//!   second spelling of a payload is accepted;
//! - if its JSON framing is canonical (the text is what the JSON tree it
//!   parses to writes), writing it back gives the mutant byte for byte.
//!
//! `HTVM_FUZZ_SEED_BASE` shifts the random seeds, as for the HTF
//! importer's harness:
//!
//! ```sh
//! HTVM_FUZZ_SEED_BASE=2000 cargo test -p htvm-ir --test fuzz_payload
//! ```

use htvm_ir::{DType, Graph, GraphBuilder, Tensor};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seed window base, from `HTVM_FUZZ_SEED_BASE` (default 0).
fn seed_base() -> u64 {
    std::env::var("HTVM_FUZZ_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// SplitMix64: tiny, seedable, and good enough to scatter mutations.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Bytes that sit on the decoder's edges: padding, whitespace, the two
/// symbols past `9`, their URL-safe look-alikes, JSON structure, escape.
const EDGE_BYTES: &[u8] = b"= \n\t+/-_AQgw09\"\\,]}";

/// A random ASCII byte, half the time one of [`EDGE_BYTES`]; mutants
/// stay UTF-8, as any `&str` the reader is given is.
fn any_byte(rng: &mut Rng) -> u8 {
    if rng.below(2) == 0 {
        EDGE_BYTES[rng.below(EDGE_BYTES.len())]
    } else {
        0x20 + rng.below(0x5f) as u8
    }
}

/// Every `data` payload string in a JSON tree, in document order.
fn payloads(v: &Value) -> Vec<Value> {
    let mut found = Vec::new();
    let mut stack = vec![v];
    while let Some(v) = stack.pop() {
        match v {
            Value::Array(items) => stack.extend(items.iter().rev()),
            Value::Object(members) => {
                for (k, member) in members.iter().rev() {
                    if k == "data" && member.as_str().is_some() {
                        found.push(member.clone());
                    } else {
                        stack.push(member);
                    }
                }
            }
            _ => {}
        }
    }
    found
}

/// Reads `mutant` as a `T` and checks what the module docs promise;
/// panics, naming the mutation, if reading panicked or a check failed.
/// Returns whether the mutant was accepted.
fn check<T>(what: &str, mutation: &str, mutant: &str) -> bool
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let Ok(value) = serde_json::from_str::<T>(mutant) else {
            return false;
        };
        let text = serde_json::to_string(&value).unwrap();
        let again: T = serde_json::from_str(&text).expect("written text reads back");
        assert_eq!(again, value);
        assert_eq!(serde_json::to_string(&again).unwrap(), text);
        let tree: Value = serde_json::from_str(mutant).expect("accepted text is JSON");
        let written: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(payloads(&tree), payloads(&written), "a second payload text");
        if serde_json::to_string(&tree).unwrap() == mutant {
            assert_eq!(text, mutant, "canonical JSON, not written back as read");
        }
        true
    }));
    outcome.unwrap_or_else(|_| {
        panic!("{what} under mutation {mutation} panicked or broke a check on {mutant:?}")
    })
}

/// Tensors of every dtype at both ends of its range, with 0 to 7
/// elements: every remainder of the byte count modulo 3 at each width.
fn tensors() -> Vec<Tensor> {
    let mut out = Vec::new();
    for dtype in [DType::I8, DType::Ternary, DType::I16, DType::I32] {
        let (lo, hi) = dtype.range();
        let pattern = [lo, hi, 0, -1, 1, lo / 2, hi / 3];
        for n in 0..=pattern.len() {
            out.push(
                Tensor::new(
                    dtype,
                    &[n],
                    pattern[..n].iter().map(|&v| dtype.saturate(v)).collect(),
                )
                .unwrap(),
            );
        }
    }
    out
}

/// A CPU segment as an artifact carries one: an `I8` dense weight, an
/// `I32` bias, a `Ternary` dense weight and an `I16` addend.
fn segment() -> Graph {
    let mut b = GraphBuilder::new();
    let x = b.input("x", &[6], DType::I8);
    let w = (0..24).map(|i| (i * 53) % 256 - 128).collect();
    let w = b.constant("w", Tensor::new(DType::I8, &[4, 6], w).unwrap());
    let bias = b.constant(
        "b",
        Tensor::new(DType::I32, &[4], vec![i32::MIN, -1, 7, i32::MAX]).unwrap(),
    );
    let y = b.dense(x, w).unwrap();
    let y = b.bias_add(y, bias).unwrap();
    let y = b.requantize(y, 9, true).unwrap();
    let t = (0..12).map(|i| i % 3 - 1).collect();
    let t = b.constant("t", Tensor::new(DType::Ternary, &[3, 4], t).unwrap());
    let y = b.dense(y, t).unwrap();
    let k = b.constant(
        "k",
        Tensor::new(DType::I16, &[3], vec![-32768, 5, 32767]).unwrap(),
    );
    let k = b.cast(k, DType::I32).unwrap();
    let y = b.add(y, k).unwrap();
    b.finish(&[y]).unwrap()
}

/// Byte ranges of the contents of every payload string in `text`.
fn payload_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find(r#""data":""#) {
        let open = from + at + r#""data":""#.len();
        let close = open + text[open..].find('"').unwrap();
        spans.push((open, close));
        from = close;
    }
    spans
}

/// Every byte of every payload (and its closing quote) replaced by each
/// edge byte, preceded by each, and dropped. Returns the number of
/// mutants accepted and refused.
fn mutate_payloads_exhaustively<T>(what: &str, text: &str) -> [usize; 2]
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let mut tally = [0; 2];
    let mut run = |mutation: String, mutant: &str| {
        tally[usize::from(!check::<T>(what, &mutation, mutant))] += 1;
    };
    for (open, close) in payload_spans(text) {
        for at in open..=close {
            let mut dropped = text.to_owned();
            dropped.remove(at);
            run(format!("drop-{at}"), &dropped);
            for &b in EDGE_BYTES {
                let mut replaced = text.as_bytes().to_vec();
                replaced[at] = b;
                run(
                    format!("replace-{at}-{b}"),
                    &String::from_utf8(replaced).unwrap(),
                );
                let mut inserted = text.to_owned();
                inserted.insert(at, char::from(b));
                run(format!("insert-{at}-{b}"), &inserted);
            }
        }
    }
    tally
}

/// `rounds` seeded mutants of `text`, each one to four random edits:
/// replace, insert or drop a byte, or cut the text short.
fn mutate_randomly<T>(what: &str, text: &str, seed: u64, rounds: u64)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    for round in 0..rounds {
        let seed = seed + round;
        let mut rng = Rng::new(seed);
        let mut mutant = text.as_bytes().to_vec();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(mutant.len());
            match rng.below(8) {
                0..=3 if at < mutant.len() => mutant[at] = any_byte(&mut rng),
                4..=5 => mutant.insert(at, any_byte(&mut rng)),
                6 if at < mutant.len() => drop(mutant.remove(at)),
                _ => mutant.truncate(at),
            }
        }
        let mutant = String::from_utf8(mutant).unwrap();
        check::<T>(what, &format!("seed{seed}"), &mutant);
    }
}

#[test]
fn the_corpus_round_trips_byte_for_byte() {
    for t in tensors() {
        let text = serde_json::to_string(&t).unwrap();
        check::<Tensor>("tensor", "none", &text);
        assert_eq!(serde_json::from_str::<Tensor>(&text).unwrap(), t);
    }
    let text = serde_json::to_string(&segment()).unwrap();
    check::<Graph>("segment", "none", &text);
    assert_eq!(payload_spans(&text).len(), 4, "one payload per constant");
}

#[test]
fn every_payload_byte_edit_is_refused_or_one_to_one() {
    let mut tally = [0; 2];
    for t in tensors() {
        let text = serde_json::to_string(&t).unwrap();
        let [ok, refused] = mutate_payloads_exhaustively::<Tensor>("tensor", &text);
        tally = [tally[0] + ok, tally[1] + refused];
    }
    // Both outcomes occur, so neither half of the check is vacuous.
    assert!(tally[0] > 100 && tally[1] > 1000, "{tally:?}");
    let text = serde_json::to_string(&segment()).unwrap();
    let [ok, refused] = mutate_payloads_exhaustively::<Graph>("segment", &text);
    assert!(ok > 10 && refused > 100, "{ok} accepted, {refused} refused");
}

#[test]
fn random_edits_are_refused_or_one_to_one() {
    let base = seed_base();
    for (i, t) in tensors().iter().enumerate() {
        let text = serde_json::to_string(t).unwrap();
        mutate_randomly::<Tensor>("tensor", &text, base + i as u64 * 1000, 64);
    }
    let text = serde_json::to_string(&segment()).unwrap();
    mutate_randomly::<Graph>("segment", &text, base + 0x5000, 1024);
}
