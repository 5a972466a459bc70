//! The seeded fuzz driver every `fuzz_*.rs` harness shares: seed, mutate,
//! check, minimise, write a reproducer. A harness keeps only its corpus,
//! its structured mutations and its property; it includes this file by
//! path, as a dev-only module with no runtime dependency:
//!
//! ```ignore
//! #[path = "../../../tests/support/fuzz.rs"]
//! mod fuzz;
//! ```
//!
//! The generator is the vendored `proptest::test_runner::TestRng`
//! (SplitMix64). `HTVM_FUZZ_SEED_BASE` shifts every harness's seeds, so CI
//! can sweep disjoint seed windows:
//!
//! ```sh
//! HTVM_FUZZ_SEED_BASE=2000 cargo test -p htvm-frontend -p htvm-ir -p htvm-serve --test 'fuzz_*'
//! ```

use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Seed window base, from `HTVM_FUZZ_SEED_BASE` (default 0).
pub fn seed_base() -> u64 {
    std::env::var("HTVM_FUZZ_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The bytes an edit plants: half the time one of `edges` (a surface's
/// delimiters and boundary values), otherwise any byte, or with `ascii`
/// any printable ASCII byte. An `ascii` alphabet also spares the high
/// bit in bit flips, so an ASCII text stays UTF-8 under every edit.
pub struct Alphabet {
    pub edges: &'static [u8],
    pub ascii: bool,
}

impl Alphabet {
    fn plant(&self, rng: &mut TestRng) -> u8 {
        if rng.below(2) == 0 {
            self.edges[below(rng, self.edges.len())]
        } else if self.ascii {
            0x20 + rng.below(0x5f) as u8
        } else {
            rng.next_u64() as u8
        }
    }
}

fn below(rng: &mut TestRng, n: usize) -> usize {
    rng.below(n.max(1) as u64) as usize
}

/// One seeded edit of `bytes`: replace, insert or drop a byte, flip a
/// bit, duplicate a span of up to 32 bytes, or truncate. With `marks`,
/// half the edits land on a mark or up to three bytes past it.
pub fn mutate(rng: &mut TestRng, bytes: &mut Vec<u8>, alphabet: &Alphabet, marks: &[usize]) {
    let len = bytes.len();
    let at = if !marks.is_empty() && rng.below(2) == 0 {
        (marks[below(rng, marks.len())] + below(rng, 4)).min(len)
    } else {
        below(rng, len + 1)
    };
    match rng.below(6) {
        0 if at < len => bytes[at] = alphabet.plant(rng),
        1 => bytes.insert(at, alphabet.plant(rng)),
        2 if at < len => drop(bytes.remove(at)),
        3 if at < len => bytes[at] ^= 1 << rng.below(if alphabet.ascii { 7 } else { 8 }),
        4 => {
            let span = bytes[at..(at + 1 + below(rng, 32)).min(len)].to_vec();
            bytes.splice(at..at, span);
        }
        _ => bytes.truncate(at),
    }
}

/// `rounds` seeded mutants of `bytes`, each made by one to `edits` calls
/// of `edit`. Their seeds run from `seed_base() + window`, and each is
/// named `seed<seed>`, so its reproducer names the seed that remakes it.
pub fn seeded<'a>(
    window: u64,
    rounds: u64,
    bytes: &'a [u8],
    edits: u64,
    mut edit: impl FnMut(&mut TestRng, &mut Vec<u8>) + 'a,
) -> impl Iterator<Item = (String, Vec<u8>)> + 'a {
    let base = seed_base() + window;
    (base..base + rounds).map(move |seed| {
        let mut rng = TestRng::new(seed);
        let mut mutant = bytes.to_vec();
        for _ in 0..=rng.below(edits) {
            edit(&mut rng, &mut mutant);
        }
        (format!("seed{seed}"), mutant)
    })
}

/// Wall time [`minimise`] may spend, so that a property that fails by
/// timing out (a server that stops answering) cannot stall the run.
const MINIMISE_FOR: Duration = Duration::from_secs(60);

/// Runs `property` on `bytes` and returns what it returns. If it panics
/// (a broken assertion or a panic in the code under test), minimises
/// `bytes`, writes the reproducer to
/// `CARGO_TARGET_TMPDIR/fuzz-repro-<surface>-<mutation>.bin` and panics
/// with that path.
pub fn check<T>(surface: &str, mutation: &str, bytes: &[u8], property: impl Fn(&[u8]) -> T) -> T {
    let outcome = catch_unwind(AssertUnwindSafe(|| property(bytes)));
    outcome.unwrap_or_else(|_| {
        let repro = minimise(bytes, |b| {
            catch_unwind(AssertUnwindSafe(|| drop(property(b)))).is_err()
        });
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("fuzz-repro-{surface}-{mutation}.bin"));
        std::fs::write(&path, &repro).expect("write reproducer");
        panic!(
            "{surface} broke its property under mutation {mutation}; \
             {}-byte reproducer (minimised from {}) at {}",
            repro.len(),
            bytes.len(),
            path.display()
        )
    })
}

/// A failing input made small within [`MINIMISE_FOR`]: a failing prefix
/// found by bisection (the shortest one when failure is monotone in the
/// length; `hi` fails throughout, so the result fails either way), then
/// greedy single-byte drops, each kept if the input still fails.
fn minimise(bytes: &[u8], fails: impl Fn(&[u8]) -> bool) -> Vec<u8> {
    let deadline = Instant::now() + MINIMISE_FOR;
    let fails = |b: &[u8]| Instant::now() < deadline && fails(b);
    let (mut lo, mut hi) = (0, bytes.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fails(&bytes[..mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut repro = bytes[..hi].to_vec();
    let mut at = 0;
    while at < repro.len() && Instant::now() < deadline {
        let mut shorter = repro.clone();
        shorter.remove(at);
        if fails(&shorter) {
            repro = shorter;
        } else {
            at += 1;
        }
    }
    repro
}
