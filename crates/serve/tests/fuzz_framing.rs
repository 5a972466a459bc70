//! Property/fuzz harness for the HTTP/1.1 request framer: no byte stream
//! may panic it, over-read it, or frame a body that disagrees with its
//! header.
//!
//! Well-formed requests — a keep-alive pair, bodies, a stray CRLF
//! between pipelined requests, an HTTP/1.0 opt-in — are mutated
//! deterministically (truncation at every byte) and with seeded edits
//! from the shared driver (`tests/support/fuzz.rs`) plus head floods.
//! Every mutant is read request by request off an in-memory stream.
//! Each read must either
//!
//! * return `Ok(None)` (a clean close between requests),
//! * return `Ok(Some(r))` whose body is exactly its `Content-Length`, or
//! * fail with a [`FrameError`] answering 400, 413, 501 or 505,
//!
//! and never consume more than `MAX_HEAD_BYTES` plus the body it
//! declared. The driver minimises a failing mutant and writes it to
//! `CARGO_TARGET_TMPDIR` for CI to upload; the last test here checks
//! that minimiser on a planted failure.

#[path = "../../../tests/support/fuzz.rs"]
mod fuzz;

use fuzz::{check, mutate, seeded, Alphabet};
use htvm_serve::http::framing::{read_request, FrameError, Request, MAX_HEAD_BYTES};
use proptest::test_runner::TestRng;

/// Body limit the framer runs under: small, so inflated
/// `Content-Length` digits reach the 413 path.
const MAX_BODY: usize = 1 << 10;

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
const INTERESTING: Alphabet = Alphabet {
    edges: b"\r\n: 0123456789/\t\x00\xff",
    ascii: false,
};

/// One seeded edit of `bytes`; one in forty is a head flood, a run past
/// the cap with or without a newline.
fn mutate_or_flood(rng: &mut TestRng, bytes: &mut Vec<u8>) {
    if rng.below(40) == 0 {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        let run = MAX_HEAD_BYTES + rng.below(4096) as usize;
        let fill = [b'a', b'\r', b'\n'][rng.below(3) as usize];
        bytes.splice(at..at, std::iter::repeat_n(fill, run));
    } else {
        mutate(rng, bytes, &INTERESTING, &[]);
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
            let mutation = format!("c{i}-truncate-{cut}");
            check("framing", &mutation, &stream[..cut], frame_all);
        }
    }
}

#[test]
fn random_byte_edits_hold() {
    for (i, stream) in corpus().into_iter().enumerate() {
        // 1–4 edits per mutant: single faults and small bursts.
        for (name, mutant) in seeded(i as u64 * 1000, 512, stream, 4, mutate_or_flood) {
            check("framing", &format!("c{i}-{name}"), &mutant, frame_all);
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

#[test]
fn the_driver_minimises_a_planted_failure_to_its_trigger() {
    // The property fails only on a bare LF after a header name, planted
    // in the middle of a corpus stream.
    let mut planted = corpus()[1].to_vec();
    planted.splice(40..40, *b"X:\n");
    let failure = std::thread::spawn(move || {
        check("framing", "planted", &planted, |b| {
            assert!(!b.windows(3).any(|w| w == b"X:\n"), "the planted trigger");
        });
    });
    let message = failure.join().expect_err("the check fails");
    let message = message.downcast_ref::<String>().expect("a formatted panic");
    let path = message
        .rsplit(" at ")
        .next()
        .expect("the reproducer's path");
    assert!(
        path.ends_with("fuzz-repro-framing-planted.bin"),
        "{message}"
    );
    assert_eq!(std::fs::read(path).expect("reproducer written"), b"X:\n");
}
