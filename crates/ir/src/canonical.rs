//! Canonical structural encoding and hashing of graphs.
//!
//! A [`Graph`]'s node ids are construction-order indices: two programs
//! that build the *same* network but interleave their `constant` /
//! `input` / op calls differently produce permuted node tables. Anything
//! that wants to recognize "the same graph" across such permutations — a
//! compile-artifact cache keyed by graph content, a deduplicating model
//! registry — needs an encoding that depends only on structure.
//!
//! [`canonical_form`] produces exactly that: nodes are renumbered by a
//! deterministic depth-first walk from the graph outputs (operands before
//! users, outputs in declaration order), so any two graphs that are
//! isomorphic under a node-id permutation encode to identical bytes, and
//! any structural difference — operator, attribute, shape, dtype, wiring,
//! node or input *names* (names flow into emitted program steps, so they
//! are part of the product) — changes the bytes, because all of those
//! are written out verbatim.
//!
//! Constant payloads are the one exception: a zoo model carries
//! 0.1–1 MB of weights, so each payload enters the form as its 128-bit
//! MurmurHash3 digest ([`Tensor::digest`](crate::Tensor::digest):
//! `MurmurHash3_x64_128`, seed 0, over the elements as little-endian
//! bytes at the dtype's native width — one byte for `I8` and `Ternary`,
//! two for `I16`, four for `I32`) instead of verbatim. Those are exactly
//! the bytes an HTF buffer and a serialized payload carry. Narrowing the
//! stored `i32`s back to that width is exact because every graph
//! constant is range-checked as it enters the graph. The digest is
//! remembered with the payload, which clones share: the first
//! `canonical_form` of a graph reads each weight once, and a second one,
//! or one of a cloned graph, reads none; a write to a payload drops its
//! digest. MurmurHash3 is not cryptographic: two *different* payloads of
//! the same shape and dtype alias only on a 128-bit collision, which
//! does not happen by accident but could be constructed on purpose.
//!
//! [`murmur3_128`] is the same MurmurHash3 over plain bytes; `htvm-serve`
//! takes it over an encoded key and over an artifact's serialized text,
//! and it and the payload digest share one copy of the block mixing and
//! finalization. [`fnv128`] also lives here: a byte-at-a-time digest
//! `htvm-serve` keeps only for the shard ring's short routing ids.

use crate::{Graph, NodeId, NodeKind, Op, Padding2d};
use std::fmt::Write as _;

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// FNV-1a 128-bit digest of a byte string. Deterministic across runs,
/// platforms and Rust versions (unlike `DefaultHasher`), which is what a
/// persistent or cross-process content address requires. One `u128`
/// multiply per byte: meant for short inputs (a routing id) whose
/// digests are pinned, not for bulk data.
#[must_use]
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

const MURMUR_C1: u64 = 0x87c3_7b91_1142_53d5;
const MURMUR_C2: u64 = 0x4cf5_ad43_2745_937f;

fn murmur_k1(k: u64) -> u64 {
    k.wrapping_mul(MURMUR_C1)
        .rotate_left(31)
        .wrapping_mul(MURMUR_C2)
}

fn murmur_k2(k: u64) -> u64 {
    k.wrapping_mul(MURMUR_C2)
        .rotate_left(33)
        .wrapping_mul(MURMUR_C1)
}

fn murmur_fmix(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// The two running halves of `MurmurHash3_x64_128` (seed 0).
/// [`murmur3_128`] feeds it one byte string, [`payload_digest`] a run of
/// byte strings narrowed from elements; only the last may end in a tail.
#[derive(Default)]
struct Murmur {
    h1: u64,
    h2: u64,
}

/// A little-endian 64-bit lane of eight bytes.
fn lane(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("eight bytes"))
}

impl Murmur {
    /// Mixes every whole 16-byte block of `bytes` and returns the rest.
    fn blocks<'a>(&mut self, bytes: &'a [u8]) -> &'a [u8] {
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            self.h1 ^= murmur_k1(lane(&b[..8]));
            self.h1 = self
                .h1
                .rotate_left(27)
                .wrapping_add(self.h2)
                .wrapping_mul(5)
                .wrapping_add(0x52dc_e729);
            self.h2 ^= murmur_k2(lane(&b[8..]));
            self.h2 = self
                .h2
                .rotate_left(31)
                .wrapping_add(self.h1)
                .wrapping_mul(5)
                .wrapping_add(0x3849_5ab5);
        }
        blocks.remainder()
    }

    /// Mixes the tail (under 16 bytes, zero-padded to two lanes: a zero
    /// lane mixes to zero, so an absent tail needs no branch) and the
    /// total byte length, as `h1 << 64 | h2`.
    fn finish(self, tail: &[u8], len: usize) -> u128 {
        let mut pad = [0u8; 16];
        pad[..tail.len()].copy_from_slice(tail);
        let len = len as u64;
        let mut h1 = self.h1 ^ murmur_k1(lane(&pad[..8])) ^ len;
        let mut h2 = self.h2 ^ murmur_k2(lane(&pad[8..])) ^ len;
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = murmur_fmix(h1);
        h2 = murmur_fmix(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        u128::from(h1) << 64 | u128::from(h2)
    }
}

/// `MurmurHash3_x64_128` (Austin Appleby, public domain; seed 0) of a
/// byte string, as `h1 << 64 | h2`. Unlike [`fnv128`] it reads eight
/// bytes per step, so it is meant for bulk data: an encoded key, a
/// serialized artifact.
#[must_use]
pub fn murmur3_128(bytes: &[u8]) -> u128 {
    let mut m = Murmur::default();
    let tail = m.blocks(bytes);
    m.finish(tail, bytes.len())
}

/// Bytes [`payload_digest`] narrows at a time: a whole number of blocks.
const RUN: usize = 256;

/// [`murmur3_128`] of the elements as little-endian integers `width`
/// bytes wide (1, 2 or 4), each element narrowed to that width — the
/// bytes a payload's serialized base64 carries. Exact only for elements
/// that fit the width, which the caller guarantees. The elements are
/// narrowed a run at a time into a small stack buffer of whole blocks
/// (so only the last run ends in a tail), which stays in L1 between the
/// narrowing and the hashing.
pub(crate) fn payload_digest(data: &[i32], width: usize) -> u128 {
    fn narrow<'a>(buf: &'a mut [u8; RUN], elems: &[i32], width: usize) -> &'a [u8] {
        let bytes = &mut buf[..elems.len() * width];
        match width {
            1 => bytes.iter_mut().zip(elems).for_each(|(b, &v)| *b = v as u8),
            2 => (bytes.chunks_exact_mut(2).zip(elems))
                .for_each(|(b, &v)| b.copy_from_slice(&(v as i16).to_le_bytes())),
            _ => (bytes.chunks_exact_mut(4).zip(elems))
                .for_each(|(b, &v)| b.copy_from_slice(&v.to_le_bytes())),
        }
        bytes
    }
    let mut buf = [0u8; RUN];
    let mut m = Murmur::default();
    let mut runs = data.chunks_exact(RUN / width);
    for run in &mut runs {
        m.blocks(narrow(&mut buf, run, width));
    }
    let tail = m.blocks(narrow(&mut buf, runs.remainder(), width));
    m.finish(tail, data.len() * width)
}

/// Writes an operator and every one of its attributes. The patterns
/// name each field and there is no catch-all, so a new operator or
/// attribute does not compile until it is encoded here.
fn write_op(s: &mut String, op: &Op) {
    fn sides(padding: &Padding2d) -> [usize; 4] {
        let Padding2d {
            top,
            bottom,
            left,
            right,
        } = *padding;
        [top, bottom, left, right]
    }
    s.push_str(op.name());
    let _ = match op {
        Op::Conv2d {
            strides: (sy, sx),
            padding,
        }
        | Op::DepthwiseConv2d {
            strides: (sy, sx),
            padding,
        } => {
            let [t, b, l, r] = sides(padding);
            write!(s, "[{sy}x{sx};{t}.{b}.{l}.{r}]")
        }
        Op::RightShift { amount } => write!(s, "[{amount}]"),
        Op::Clip { min, max } => write!(s, "[{min},{max}]"),
        Op::Cast { to } => write!(s, "[{to}]"),
        Op::Pool2d {
            kind,
            kernel: (ky, kx),
            strides: (sy, sx),
            padding,
        } => {
            let [t, b, l, r] = sides(padding);
            write!(s, "[{kind};{ky}x{kx};{sy}x{sx};{t}.{b}.{l}.{r}]")
        }
        Op::MatMul { transpose_b } => write!(s, "[{transpose_b}]"),
        Op::Reshape { new_shape } => {
            s.push('[');
            for d in new_shape {
                let _ = write!(s, "{d}x");
            }
            s.push(']');
            Ok(())
        }
        Op::Dense
        | Op::BiasAdd
        | Op::Relu
        | Op::Add
        | Op::LayerNorm
        | Op::Softmax
        | Op::Flatten => Ok(()),
    };
}

/// Writes `%a,%b,…` for the given nodes' canonical indices.
fn write_refs(s: &mut String, canon: &[Option<usize>], ids: &[NodeId]) {
    for (i, id) in ids.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let idx = canon[id.index()].expect("every node is numbered before it is referenced");
        let _ = write!(s, "{sep}%{idx}");
    }
}

/// Canonical byte encoding of a graph (see the module docs).
///
/// Properties:
/// - **Permutation-stable**: renumbering nodes in any valid topological
///   order leaves the encoding unchanged.
/// - **Structure-complete**: operators with all attributes, dtypes,
///   shapes, wiring (by canonical index, so DAG sharing is preserved —
///   `add(x, x)` and `add(x, y)` encode differently even when `x` and
///   `y` hold identical values), node names, input/output signatures and
///   constant payload digests all participate.
#[must_use]
pub fn canonical_form(graph: &Graph) -> Vec<u8> {
    // Deterministic DFS post-order from the outputs: canonical index =
    // first-completion order. A Vec keyed by raw id (graphs are dense)
    // keeps the walk allocation-cheap and iteration-order-free.
    let mut canon: Vec<Option<usize>> = vec![None; graph.len()];
    let mut order: Vec<NodeId> = Vec::with_capacity(graph.len());
    let visit = |root: NodeId, canon: &mut Vec<Option<usize>>, order: &mut Vec<NodeId>| {
        if canon[root.index()].is_some() {
            return;
        }
        // Explicit stack: zoo graphs are chains hundreds of nodes deep.
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        while let Some(&mut (id, ref mut next)) = stack.last_mut() {
            let inputs = graph.node(id).inputs();
            if *next < inputs.len() {
                let child = inputs[*next];
                *next += 1;
                if canon[child.index()].is_none() {
                    stack.push((child, 0));
                }
            } else {
                stack.pop();
                if canon[id.index()].is_none() {
                    canon[id.index()] = Some(order.len());
                    order.push(id);
                }
            }
        }
    };
    for &out in graph.outputs() {
        visit(out, &mut canon, &mut order);
    }
    // Nodes unreachable from any output (dead ops, unused inputs) still
    // affect program signatures and buffer tables: append them in their
    // relative original order, which is itself structural (the order of
    // the graph's input/constant declarations).
    for (id, _) in graph.nodes() {
        visit(id, &mut canon, &mut order);
    }

    let mut s = String::with_capacity(graph.len() * 64);
    for (idx, &id) in order.iter().enumerate() {
        let n = graph.node(id);
        let _ = write!(s, "%{idx}={}:{}{};", n.name, n.dtype, n.shape);
        match &n.kind {
            NodeKind::Input => s.push_str("input\n"),
            NodeKind::Constant(t) => {
                debug_assert!(t.is_checked(), "graph constants are range-checked");
                let _ = writeln!(s, "const#{:032x}", t.digest());
            }
            NodeKind::Op { op, inputs } => {
                write_op(&mut s, op);
                s.push('(');
                write_refs(&mut s, &canon, inputs);
                s.push_str(")\n");
            }
        }
    }
    s.push_str("inputs(");
    write_refs(&mut s, &canon, graph.inputs());
    s.push_str(")\noutputs(");
    write_refs(&mut s, &canon, graph.outputs());
    s.push_str(")\n");
    s.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, GraphBuilder, Tensor};

    /// One number per graph, so the structural tests read as `assert_ne!`.
    fn canonical_hash(graph: &Graph) -> u128 {
        fnv128(&canonical_form(graph))
    }

    fn le_bytes(data: &[i32]) -> Vec<u8> {
        data.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    /// Seeded full-range elements (splitmix64, truncated).
    fn random_elements(seed: u64, len: usize) -> Vec<i32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) as i32
            })
            .collect()
    }

    /// `MurmurHash3_x64_128` as published (smhasher's `MurmurHash3.cpp`),
    /// byte by byte and with its own copy of every mixing step: the
    /// independent reference [`murmur3_128`] and [`Tensor::digest`] are
    /// checked against.
    fn murmur3_x64_128(bytes: &[u8], seed: u64) -> u128 {
        const C1: u64 = 0x87c3_7b91_1142_53d5;
        const C2: u64 = 0x4cf5_ad43_2745_937f;
        let k1 = |k: u64| k.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2);
        let k2 = |k: u64| k.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1);
        let fmix = |mut k: u64| {
            k = (k ^ (k >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
            k = (k ^ (k >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
            k ^ (k >> 33)
        };
        let word = |b: &[u8]| {
            b.iter()
                .rev()
                .fold(0u64, |acc, &byte| acc << 8 | u64::from(byte))
        };
        let (mut h1, mut h2) = (seed, seed);
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            h1 ^= k1(word(&block[..8]));
            h1 = h1.rotate_left(27).wrapping_add(h2);
            h1 = h1.wrapping_mul(5).wrapping_add(0x52dc_e729);
            h2 ^= k2(word(&block[8..]));
            h2 = h2.rotate_left(31).wrapping_add(h1);
            h2 = h2.wrapping_mul(5).wrapping_add(0x3849_5ab5);
        }
        let tail = blocks.remainder();
        if tail.len() > 8 {
            h2 ^= k2(word(&tail[8..]));
        }
        if !tail.is_empty() {
            h1 ^= k1(word(&tail[..tail.len().min(8)]));
        }
        h1 ^= bytes.len() as u64;
        h2 ^= bytes.len() as u64;
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = fmix(h1);
        h2 = fmix(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        u128::from(h1) << 64 | u128::from(h2)
    }

    #[test]
    fn reference_murmur3_matches_the_published_vectors() {
        for (bytes, want) in [
            (&b""[..], 0),
            (b"hello", 0xcbd8_a7b3_41bd_9b02_5b1e_906a_48ae_1d19),
            (
                b"The quick brown fox jumps over the lazy dog",
                0xe34b_bc7b_bc07_1b6c_7a43_3ca9_c49a_9347,
            ),
        ] {
            assert_eq!(murmur3_x64_128(bytes, 0), want);
            assert_eq!(murmur3_128(bytes), want);
        }
    }

    /// Every tail length (0 to 15 bytes) with zero to four whole blocks.
    #[test]
    fn murmur3_128_equals_the_reference_at_every_length() {
        for len in 0..=79 {
            for seed in 0..4 {
                let bytes = &le_bytes(&random_elements(seed * 1000 + len as u64, 20))[..len];
                assert_eq!(
                    murmur3_128(bytes),
                    murmur3_x64_128(bytes, 0),
                    "len {len}, seed {seed}"
                );
            }
        }
    }

    /// A constant's digest is the reference over its elements as
    /// little-endian bytes at the dtype's native width, for every dtype:
    /// at every tail length (0 to 15 bytes) with zero to four whole
    /// blocks, and on both sides of a narrowing run's end.
    #[test]
    fn streaming_digest_equals_the_reference_at_every_tail_length() {
        for (dtype, width) in [
            (DType::I8, 1),
            (DType::Ternary, 1),
            (DType::I16, 2),
            (DType::I32, 4),
        ] {
            let run = RUN / width;
            for len in (0..80 / width).chain(run - 16..run + 16) {
                for seed in 0..4 {
                    let data: Vec<i32> = random_elements(seed * 1000 + len as u64, len)
                        .into_iter()
                        .map(|v| match dtype {
                            DType::I8 => i32::from(v as i8),
                            DType::Ternary => v.rem_euclid(3) - 1,
                            DType::I16 => i32::from(v as i16),
                            DType::I32 => v,
                        })
                        .collect();
                    let bytes: Vec<u8> = (data.iter())
                        .flat_map(|v| v.to_le_bytes()[..width].to_vec())
                        .collect();
                    let t = Tensor::new(dtype, &[len], data).unwrap();
                    assert_eq!(
                        t.digest(),
                        murmur3_x64_128(&bytes, 0),
                        "{dtype} len {len}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn any_payload_edit_changes_the_digest() {
        for len in [1, 2, 3, 4, 5, 16, 27, 64, 67] {
            let base = random_elements(len as u64, len);
            let digest = payload_digest(&base, 4);
            for i in 0..len {
                let mut one = base.clone();
                one[i] = one[i].wrapping_add(1);
                assert_ne!(payload_digest(&one, 4), digest, "element {i} of {len}");
                for j in i + 1..len {
                    let mut swapped = base.clone();
                    swapped.swap(i, j);
                    assert_ne!(base[i], base[j], "seeded elements are distinct");
                    assert_ne!(payload_digest(&swapped, 4), digest, "swap {i},{j} of {len}");
                    // Two sign flips cancel in any sum- or xor-style mix.
                    let mut flipped = base.clone();
                    flipped[i] ^= i32::MIN;
                    flipped[j] ^= i32::MIN;
                    assert_ne!(payload_digest(&flipped, 4), digest, "flip {i},{j} of {len}");
                }
            }
            let mut longer = base.clone();
            longer.push(0);
            assert_ne!(payload_digest(&longer, 4), digest, "zero appended to {len}");
        }
        assert_ne!(payload_digest(&[0], 1), payload_digest(&[], 1));
    }

    /// conv(+bias) built with operands declared in the given order.
    fn conv_graph(weights_first: bool) -> Graph {
        let mut b = GraphBuilder::new();
        let (x, w, bias) = if weights_first {
            let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 3, 3, 3]));
            let bias = b.constant("b", Tensor::zeros(DType::I32, &[4]));
            let x = b.input("x", &[3, 8, 8], DType::I8);
            (x, w, bias)
        } else {
            let x = b.input("x", &[3, 8, 8], DType::I8);
            let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 3, 3, 3]));
            let bias = b.constant("b", Tensor::zeros(DType::I32, &[4]));
            (x, w, bias)
        };
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let c = b.bias_add(c, bias).unwrap();
        let q = b.requantize(c, 7, true).unwrap();
        b.finish(&[q]).unwrap()
    }

    #[test]
    fn hash_is_stable_under_node_id_permutation() {
        let a = conv_graph(false);
        let b = conv_graph(true);
        assert_ne!(
            a.nodes().map(|(_, n)| n.name.clone()).collect::<Vec<_>>(),
            b.nodes().map(|(_, n)| n.name.clone()).collect::<Vec<_>>(),
            "the two builds really do permute the node table"
        );
        assert_eq!(canonical_form(&a), canonical_form(&b));
        assert_eq!(canonical_hash(&a), canonical_hash(&b));
    }

    #[test]
    fn hash_is_deterministic_across_calls() {
        let g = conv_graph(false);
        assert_eq!(canonical_hash(&g), canonical_hash(&g));
    }

    #[test]
    fn attributes_payloads_and_names_all_matter() {
        let base = conv_graph(false);
        // Different stride.
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[3, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 3, 3, 3]));
        let bias = b.constant("b", Tensor::zeros(DType::I32, &[4]));
        let c = b.conv2d(x, w, (2, 2), (1, 1, 1, 1)).unwrap();
        let c = b.bias_add(c, bias).unwrap();
        let q = b.requantize(c, 7, true).unwrap();
        let strided = b.finish(&[q]).unwrap();
        assert_ne!(canonical_hash(&base), canonical_hash(&strided));

        // Different constant payload, same shape/dtype.
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[3, 8, 8], DType::I8);
        let mut wt = Tensor::zeros(DType::I8, &[4, 3, 3, 3]);
        wt.data_mut()[0] = 1;
        let w = b.constant("w", wt);
        let bias = b.constant("b", Tensor::zeros(DType::I32, &[4]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let c = b.bias_add(c, bias).unwrap();
        let q = b.requantize(c, 7, true).unwrap();
        let payload = b.finish(&[q]).unwrap();
        assert_ne!(canonical_hash(&base), canonical_hash(&payload));

        // Different input name (names become program step/buffer names).
        let mut b = GraphBuilder::new();
        let x = b.input("mfcc", &[3, 8, 8], DType::I8);
        let w = b.constant("w", Tensor::zeros(DType::I8, &[4, 3, 3, 3]));
        let bias = b.constant("b", Tensor::zeros(DType::I32, &[4]));
        let c = b.conv2d(x, w, (1, 1), (1, 1, 1, 1)).unwrap();
        let c = b.bias_add(c, bias).unwrap();
        let q = b.requantize(c, 7, true).unwrap();
        let renamed = b.finish(&[q]).unwrap();
        assert_ne!(canonical_hash(&base), canonical_hash(&renamed));
    }

    #[test]
    fn dag_sharing_is_distinguished_from_duplication() {
        // add(c, c): one shared constant.
        let mut b = GraphBuilder::new();
        let c = b.constant("c", Tensor::zeros(DType::I32, &[4]));
        let s = b.add(c, c).unwrap();
        let shared = b.finish(&[s]).unwrap();
        // add(c, c'): two identical-content constants.
        let mut b = GraphBuilder::new();
        let c1 = b.constant("c", Tensor::zeros(DType::I32, &[4]));
        let c2 = b.constant("c", Tensor::zeros(DType::I32, &[4]));
        let s = b.add(c1, c2).unwrap();
        let duplicated = b.finish(&[s]).unwrap();
        assert_ne!(canonical_hash(&shared), canonical_hash(&duplicated));
    }

    #[test]
    fn unreachable_inputs_still_participate() {
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4], DType::I8);
        let _unused = b.input("extra", &[2], DType::I8);
        let r = b.relu(x).unwrap();
        let with_extra = b.finish(&[r]).unwrap();
        let mut b = GraphBuilder::new();
        let x = b.input("x", &[4], DType::I8);
        let r = b.relu(x).unwrap();
        let without = b.finish(&[r]).unwrap();
        assert_ne!(canonical_hash(&with_extra), canonical_hash(&without));
    }

    #[test]
    fn zoo_scale_graphs_hash_quickly_and_distinctly() {
        // A moderately deep chain exercises the iterative DFS.
        let mut b = GraphBuilder::new();
        let mut y = b.input("x", &[640], DType::I8);
        for i in 0..64 {
            let w = b.constant("w", Tensor::zeros(DType::I8, &[640, 640]));
            y = b.dense(y, w).unwrap();
            y = b.requantize(y, 10 + (i % 3) as u32, true).unwrap();
        }
        let g = b.finish(&[y]).unwrap();
        let h = canonical_hash(&g);
        assert_ne!(h, 0);
    }
}
