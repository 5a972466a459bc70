//! Property/fuzz harness for the importer: no input may panic.
//!
//! The emitted zoo corpus is mutated deterministically — truncation at
//! every table and vector boundary, offset corruption and length-field
//! inflation — and with seeded edits biased toward the same layout
//! marks, and every mutant is fed to [`htvm_frontend::import`] through
//! the shared driver (`tests/support/fuzz.rs`). A mutant either imports
//! (mutations can cancel out) or is rejected with a typed
//! [`ImportError`](htvm_frontend::ImportError) whose display leads with
//! its variant name; a panic fails the harness, which minimises the
//! reproducer and writes it to `CARGO_TARGET_TMPDIR` for CI to upload.

#[path = "../../../tests/support/fuzz.rs"]
mod fuzz;

use fuzz::{check, mutate, seed_base, seeded, Alphabet};
use htvm_frontend::{emit_with_layout, import, Layout};
use htvm_models::{all_models, stress_test, Model, QuantScheme};
use proptest::test_runner::TestRng;

/// Bytes an edit plants: zero, one, both sides of the sign bit, all-ones.
const EDGES: Alphabet = Alphabet {
    edges: b"\x00\x01\x7f\x80\xff",
    ascii: false,
};

/// The mutation-matrix corpus: every mixed-scheme zoo model plus the
/// stress topology. Other schemes get a bit-flip smoke pass below.
/// `all_models` includes `tiny_transformer`, so mutants of the MatMul /
/// LayerNorm opcodes (13/14) and the optional `transpose_b` vtable slot
/// are in every matrix; `tests/backward_compat.rs` adds the old-reader
/// (`max_opcode`) adversarial sweep on the same bytes.
fn corpus() -> Vec<Model> {
    let mut models = all_models(QuantScheme::Mixed);
    models.push(stress_test(QuantScheme::Int8));
    models
}

/// Feeds `bytes` to the importer; a panic, or a rejection whose display
/// does not lead with its variant name, fails the harness.
fn must_not_panic(model: &str, mutation: &str, bytes: &[u8]) {
    check(&format!("import-{model}"), mutation, bytes, |bytes| {
        if let Err(e) = import(bytes) {
            let shown = e.to_string();
            assert!(
                !e.variant_name().is_empty() && shown.starts_with(e.variant_name()),
                "display of {shown:?} must lead with its variant name"
            );
        }
    });
}

/// Every layout mark of an emitted model: tables, vector lengths and
/// offsets.
fn marks(layout: &Layout) -> Vec<usize> {
    [&layout.tables[..], &layout.vector_lengths, &layout.offsets].concat()
}

#[test]
fn truncation_at_every_boundary_never_panics() {
    for model in corpus() {
        let (bytes, layout) = emit_with_layout(&model.graph).expect("emit");
        let mut cuts = marks(&layout);
        // Also clip mid-field: one byte into each boundary, plus the
        // header region byte-by-byte.
        cuts.extend(layout.tables.iter().map(|&p| p + 1));
        cuts.extend(0..16.min(bytes.len()));
        for cut in cuts {
            let cut = cut.min(bytes.len());
            must_not_panic(model.name, &format!("truncate-{cut}"), &bytes[..cut]);
        }
    }
}

#[test]
fn random_edits_never_panic() {
    for (m, model) in corpus().iter().enumerate() {
        let (bytes, layout) = emit_with_layout(&model.graph).expect("emit");
        let marks = marks(&layout);
        // 1–8 edits per mutant: single faults and small bursts.
        let edit = |rng: &mut _, b: &mut _| mutate(rng, b, &EDGES, &marks);
        for (name, mutant) in seeded(m as u64 * 1000, 64, &bytes, 8, edit) {
            must_not_panic(model.name, &name, &mutant);
        }
    }
}

#[test]
fn bit_flips_cover_every_quant_scheme() {
    for scheme in [QuantScheme::Int8, QuantScheme::Ternary] {
        for (m, model) in all_models(scheme).iter().enumerate() {
            let (bytes, _) = emit_with_layout(&model.graph).expect("emit");
            let flip = |rng: &mut TestRng, b: &mut Vec<u8>| {
                let at = rng.below(b.len() as u64) as usize;
                b[at] ^= 1 << rng.below(8);
            };
            for (name, mutant) in seeded(0x5000 + m as u64 * 1000, 16, &bytes, 1, flip) {
                must_not_panic(model.name, &format!("bitflip-{name}"), &mutant);
            }
        }
    }
}

#[test]
fn offset_corruption_never_panics() {
    let base = seed_base();
    for (m, model) in corpus().iter().enumerate() {
        let (bytes, layout) = emit_with_layout(&model.graph).expect("emit");
        let mut rng = TestRng::new(base + 0x0ff5 + m as u64);
        for (i, &at) in layout.offsets.iter().enumerate() {
            // Exhaustive poison values on every offset field, plus a
            // seeded random value.
            let (len, random) = (bytes.len() as u32, rng.next_u64() as u32);
            for v in [0, u32::MAX, len, len.wrapping_sub(1), random] {
                let mut mutant = bytes.clone();
                mutant[at..at + 4].copy_from_slice(&v.to_le_bytes());
                must_not_panic(model.name, &format!("offset{i}-{v}"), &mutant);
            }
        }
    }
}

#[test]
fn length_field_inflation_never_panics() {
    for model in corpus() {
        let (bytes, layout) = emit_with_layout(&model.graph).expect("emit");
        for (i, &at) in layout.vector_lengths.iter().enumerate() {
            let orig = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            // Claim far more elements than the buffer carries; the
            // reader must reject on the length check, not allocate.
            for v in [
                orig.wrapping_add(1),
                orig.wrapping_mul(2),
                1 << 30,
                u32::MAX,
            ] {
                let mut mutant = bytes.clone();
                mutant[at..at + 4].copy_from_slice(&v.to_le_bytes());
                must_not_panic(model.name, &format!("veclen{i}-{v}"), &mutant);
            }
        }
    }
}

#[test]
fn layout_marks_cover_the_interesting_structure() {
    // The mutation matrix is only as good as the layout marks; a model
    // must expose tables, vectors and offsets to mutate.
    let model = stress_test(QuantScheme::Int8);
    let (bytes, layout) = emit_with_layout(&model.graph).expect("emit");
    assert!(
        layout.tables.len() > model.graph.len(),
        "one table per tensor plus root/buffers"
    );
    assert!(
        layout.vector_lengths.len() >= model.graph.len(),
        "name/shape vectors per tensor"
    );
    assert!(!layout.offsets.is_empty());
    for p in marks(&layout) {
        assert!(p + 4 <= bytes.len(), "layout mark {p} outside the buffer");
    }
}
