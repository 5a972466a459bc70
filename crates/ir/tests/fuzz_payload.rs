//! Mutate harness for serialized tensors: no text may panic the reader,
//! and the payload text of an accepted one is the only text of its
//! tensor.
//!
//! A corpus of packed `Tensor` JSON (every dtype, every payload length
//! modulo 3, extreme values) and of a CPU-segment `Graph` holding one
//! constant of each dtype is mutated deterministically: every byte of
//! each tensor's payload replaced, preceded or dropped, then seeded runs
//! of one to four edits, half of them inside a payload. Every mutant is
//! fed to `serde_json::from_str` through the shared driver
//! (`tests/support/fuzz.rs`), which minimises a failing mutant and
//! writes it to `CARGO_TARGET_TMPDIR`. It is either refused with an
//! error, or it is accepted and then:
//!
//! - writing it back gives a text that reads back to the same value and
//!   writes back unchanged;
//! - every `data` payload string in it is the one written back, so no
//!   second spelling of a payload is accepted;
//! - every constant's digest, taken and then read back from the memo,
//!   is `murmur3_128` of the bytes its payload string decodes to;
//! - if its JSON framing is canonical (the text is what the JSON tree it
//!   parses to writes), writing it back gives the mutant byte for byte.

#[path = "../../../tests/support/fuzz.rs"]
mod fuzz;

use fuzz::{check, mutate, seeded, Alphabet};
use htvm_ir::canonical::murmur3_128;
use htvm_ir::{DType, Graph, GraphBuilder, Tensor};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt::Debug;

/// Bytes that sit on the decoder's edges: padding, whitespace, the two
/// symbols past `9`, their URL-safe look-alikes, JSON structure, escape.
/// Random edits plant ASCII, so mutants stay UTF-8, as any `&str` the
/// reader is given is.
const EDGES: Alphabet = Alphabet {
    edges: b"= \n\t+/-_AQgw09\"\\,]}",
    ascii: true,
};

/// Every `data` payload string in a JSON tree, in document order.
fn payloads(v: &Value) -> Vec<&Value> {
    match v {
        Value::Array(items) => items.iter().flat_map(payloads).collect(),
        Value::Object(members) => (members.iter())
            .flat_map(|(k, member)| match member {
                Value::Str(_) if k == "data" => vec![member],
                _ => payloads(member),
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The bytes a padded standard base64 text decodes to. Only texts the
/// reader accepted reach it, so the text is well formed.
fn decode(text: &str) -> Vec<u8> {
    let sextet = |c: u8| match c {
        b'A'..=b'Z' => c - b'A',
        b'a'..=b'z' => c - b'a' + 26,
        b'0'..=b'9' => c - b'0' + 52,
        b'+' => 62,
        b'/' => 63,
        _ => panic!("{c} is not a base64 symbol"),
    };
    let mut out = Vec::new();
    for quad in text.as_bytes().chunks(4) {
        let n = quad.iter().take_while(|&&c| c != b'=').count();
        let bits = (quad[..n].iter()).fold(0u32, |acc, &c| acc << 6 | u32::from(sextet(c)));
        out.extend_from_slice(&(bits << (6 * (4 - n))).to_be_bytes()[1..n]);
    }
    out
}

/// The digest of every constant payload, in document order.
trait Digests {
    fn digests(&self) -> Vec<u128>;
}

impl Digests for Tensor {
    fn digests(&self) -> Vec<u128> {
        vec![self.digest()]
    }
}

impl Digests for Graph {
    fn digests(&self) -> Vec<u128> {
        (self.nodes())
            .filter_map(|(_, n)| n.constant().map(Tensor::digest))
            .collect()
    }
}

/// Reads `mutant` as a `T` and checks what the module docs promise.
/// Returns whether the mutant was accepted.
fn holds<T>(mutant: &[u8]) -> bool
where
    T: Serialize + Deserialize + PartialEq + Debug + Digests,
{
    let mutant = std::str::from_utf8(mutant).expect("mutants stay UTF-8");
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
    let of_bytes: Vec<u128> = (payloads(&tree).iter())
        .map(|p| murmur3_128(&decode(p.as_str().expect("a payload string"))))
        .collect();
    let taken = value.digests();
    assert_eq!(value.digests(), taken, "the memo forgot a digest");
    assert_eq!(taken, of_bytes, "a digest that is not its payload bytes'");
    if serde_json::to_string(&tree).unwrap() == mutant {
        assert_eq!(text, mutant, "canonical JSON, not written back as read");
    }
    true
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
    T: Serialize + Deserialize + PartialEq + Debug + Digests,
{
    let mut tally = [0; 2];
    let surface = format!("payload-{what}");
    let mut run = |mutation: String, mutant: &[u8]| {
        tally[usize::from(!check(&surface, &mutation, mutant, holds::<T>))] += 1;
    };
    let bytes = text.as_bytes();
    for (open, close) in payload_spans(text) {
        for at in open..=close {
            let mut dropped = bytes.to_vec();
            dropped.remove(at);
            run(format!("drop-{at}"), &dropped);
            for &b in EDGES.edges {
                let mut replaced = bytes.to_vec();
                replaced[at] = b;
                run(format!("replace-{at}-{b}"), &replaced);
                let mut inserted = bytes.to_vec();
                inserted.insert(at, b);
                run(format!("insert-{at}-{b}"), &inserted);
            }
        }
    }
    tally
}

/// `rounds` seeded mutants of `text` in seed window `window`, each one
/// to four edits, half of them inside a payload.
fn mutate_randomly<T>(what: &str, text: &str, window: u64, rounds: u64)
where
    T: Serialize + Deserialize + PartialEq + Debug + Digests,
{
    let marks: Vec<usize> = (payload_spans(text).into_iter())
        .flat_map(|(open, close)| open..=close)
        .collect();
    let surface = format!("payload-{what}");
    let edit = |rng: &mut _, b: &mut _| mutate(rng, b, &EDGES, &marks);
    for (name, mutant) in seeded(window, rounds, text.as_bytes(), 4, edit) {
        check(&surface, &name, &mutant, holds::<T>);
    }
}

#[test]
fn the_corpus_round_trips_byte_for_byte() {
    for t in tensors() {
        let text = serde_json::to_string(&t).unwrap();
        check("payload-tensor", "none", text.as_bytes(), holds::<Tensor>);
        assert_eq!(serde_json::from_str::<Tensor>(&text).unwrap(), t);
    }
    let text = serde_json::to_string(&segment()).unwrap();
    check("payload-segment", "none", text.as_bytes(), holds::<Graph>);
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
    for (i, t) in tensors().iter().enumerate() {
        let text = serde_json::to_string(t).unwrap();
        mutate_randomly::<Tensor>("tensor", &text, i as u64 * 1000, 64);
    }
    let text = serde_json::to_string(&segment()).unwrap();
    mutate_randomly::<Graph>("segment", &text, 0x5000, 1024);
}
