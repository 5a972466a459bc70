//! Property/fuzz harness for the HTTP/1.1 request framer: no byte stream
//! may panic it, over-read it, or frame a body that disagrees with its
//! header.
//!
//! Well-formed requests — a keep-alive pair, bodies, a stray CRLF
//! between pipelined requests, an HTTP/1.0 opt-in — are mutated
//! deterministically (truncation at every byte) and with seeded byte
//! edits (overwrites, inserts, deletes, span duplication, head floods).
//! Every mutant is read request by request off an in-memory stream under
//! `catch_unwind`. Each read must either
//!
//! * return `Ok(None)` (a clean close between requests),
//! * return `Ok(Some(r))` whose body is exactly its `Content-Length`, or
//! * fail with a [`FrameError`] answering 400, 413, 501 or 505,
//!
//! and never consume more than `MAX_HEAD_BYTES` plus the body it
//! declared. A failing mutant is written to `CARGO_TARGET_TMPDIR` for CI
//! to upload.
//!
//! As in `fuzz_import`, `HTVM_FUZZ_SEED_BASE` shifts the random mutation
//! seeds so CI can sweep disjoint seed windows:
//!
//! ```sh
//! HTVM_FUZZ_SEED_BASE=2000 cargo test -p htvm-serve --test fuzz_framing
//! ```

use htvm_serve::http::framing::{read_request, FrameError, Request, MAX_HEAD_BYTES};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Body limit the framer runs under: small, so inflated
/// `Content-Length` digits reach the 413 path.
const MAX_BODY: usize = 1 << 10;

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

/// Well-formed request streams the mutations start from.
fn corpus() -> Vec<&'static [u8]> {
    vec![
        b"GET /v1/healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
        b"POST /v1/compile HTTP/1.1\r\nHost: x\r\nContent-Length: 13\r\nX-Tenant: acme\r\n\r\n{\"model\":\"a\"}",
        b"GET /v1/stats HTTP/1.1\r\n\r\nPOST /v1/import HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nhi",
        b"POST /v1/batch HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody\r\nGET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
    ]
}

/// Bytes an edit plants: the framer's delimiters and digits first.
const INTERESTING: &[u8] = b"\r\n: 0123456789/\t\x00\xff";

/// One seeded byte edit of `bytes`.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>) {
    let byte = |rng: &mut Rng| {
        if rng.below(2) == 0 {
            INTERESTING[rng.below(INTERESTING.len())]
        } else {
            rng.next() as u8
        }
    };
    let at = rng.below(bytes.len() + 1);
    match rng.below(5) {
        0 if at < bytes.len() => bytes[at] = byte(rng),
        1 => bytes.insert(at, byte(rng)),
        2 if at < bytes.len() => drop(bytes.remove(at)),
        3 => {
            let end = (at + 1 + rng.below(32)).min(bytes.len());
            let span = bytes[at..end].to_vec();
            bytes.splice(at..at, span);
        }
        // A head flood: a run past the cap, with or without a newline.
        4 if rng.below(8) == 0 => {
            let run = MAX_HEAD_BYTES + rng.below(4096);
            let fill = [b'a', b'\r', b'\n'][rng.below(3)];
            bytes.splice(at..at, std::iter::repeat_n(fill, run));
        }
        _ => bytes.truncate(at),
    }
}

/// Frames every request of `stream`; panics with a message on the first
/// read that breaks the contract.
fn frame_all(stream: &[u8]) {
    let mut rest = stream;
    loop {
        let before = rest.len();
        let outcome = read_request(&mut rest, MAX_BODY);
        let consumed = before - rest.len();
        match outcome {
            Ok(None) => return,
            Ok(Some(Request { body, headers, .. })) => {
                let declared = headers
                    .iter()
                    .find(|(name, _)| name == "content-length")
                    .map_or(0, |(_, v)| {
                        v.parse::<usize>().expect("framed length parses")
                    });
                assert_eq!(body.len(), declared, "body disagrees with Content-Length");
                assert!(
                    consumed <= MAX_HEAD_BYTES + declared,
                    "consumed {consumed} bytes for a {declared}-byte body"
                );
            }
            Err(e) => {
                assert!(
                    matches!(e.status(), 400 | 413 | 501 | 505),
                    "{e:?} answers {}",
                    e.status()
                );
                assert!(
                    consumed <= MAX_HEAD_BYTES + MAX_BODY,
                    "consumed {consumed} bytes before failing with {e:?}"
                );
                return;
            }
        }
    }
}

/// Runs [`frame_all`] under `catch_unwind`; a broken contract or a panic
/// saves the mutant and fails the harness.
fn must_hold(mutation: &str, bytes: &[u8]) {
    if catch_unwind(AssertUnwindSafe(|| frame_all(bytes))).is_err() {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("fuzz-repro-framing-{mutation}.http"));
        std::fs::write(&path, bytes).expect("write reproducer");
        panic!(
            "framing broke its contract under mutation {mutation}; {}-byte reproducer at {}",
            bytes.len(),
            path.display()
        );
    }
}

#[test]
fn the_corpus_frames_cleanly() {
    for (i, stream) in corpus().into_iter().enumerate() {
        let mut rest = stream;
        let mut framed = 0;
        while let Some(request) = read_request(&mut rest, MAX_BODY).expect("well-formed") {
            assert!(request.path().starts_with("/v1/"));
            framed += 1;
        }
        assert!(rest.is_empty(), "corpus {i} left bytes unread");
        assert_eq!(framed, if i >= 2 { 2 } else { 1 }, "corpus {i}");
    }
}

#[test]
fn truncation_at_every_byte_holds() {
    for (i, stream) in corpus().into_iter().enumerate() {
        for cut in 0..=stream.len() {
            must_hold(&format!("c{i}-truncate-{cut}"), &stream[..cut]);
        }
    }
}

#[test]
fn random_byte_edits_hold() {
    let base = seed_base();
    for (i, stream) in corpus().into_iter().enumerate() {
        for round in 0..512u64 {
            let seed = base + i as u64 * 1000 + round;
            let mut rng = Rng::new(seed);
            let mut mutant = stream.to_vec();
            // 1–4 edits per round: single faults and small bursts.
            for _ in 0..1 + rng.below(4) {
                mutate(&mut rng, &mut mutant);
            }
            must_hold(&format!("c{i}-seed{seed}"), &mutant);
        }
    }
}

#[test]
fn newline_free_floods_stop_at_the_head_cap() {
    for prefix in [&b""[..], b"GET / HTTP/1.1\r\n", b"GET / HTTP/1.1\r\nX: "] {
        let mut flood = prefix.to_vec();
        flood.resize(4 * MAX_HEAD_BYTES, b'a');
        let mut rest = &flood[..];
        let err = read_request(&mut rest, MAX_BODY).unwrap_err();
        assert!(matches!(err, FrameError::HeadTooLarge), "{err:?}");
        assert_eq!(flood.len() - rest.len(), MAX_HEAD_BYTES);
    }
}
