//! The four workloads and the loop that drives any of them: set up
//! (several times, timed), measure whole rounds until the time is up,
//! and — in a traced run — repeat the rounds with spans on and re-measure
//! single stages standalone.

pub mod serve_cold;
pub mod serve_hot_http;
pub mod zoo_deploy;
pub mod zoo_infer;

use crate::env::steal_ticks;
use crate::matrix::Quality;
use crate::spans::{retain_rounds, stage_self_by_round, Recorder, NO_ROUND};
use crate::stats::{median, Rng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Set-ups per run: `setup_s` is their median, so one slow set-up (a
/// cold page cache, a scheduler hiccup) does not move it. The first one
/// is measured; the others run after the last round and are dropped.
pub const SETUP_REPEATS: usize = 3;

/// Operations attempted and failed. An operation is anything with a
/// checked outcome: a compile, a simulated run, a served job, a
/// service counter that must read an exact value.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why the first few failures failed.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(why());
            }
        }
    }
}

/// What one round measured: its on-clock wall time and one
/// `(class, latency)` sample per job.
#[derive(Debug, Default)]
pub struct Round {
    pub wall_ns: u64,
    pub jobs: Vec<(usize, u64)>,
}

/// Per-layer metric values by name; what a workload does not exercise
/// stays at 0.
#[derive(Debug, Default)]
pub struct Layer(BTreeMap<String, f64>);

impl Layer {
    /// Sets a declared metric; an undeclared name is a typo.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            crate::metrics::PER_LAYER.iter().any(|m| m.name == name),
            "per-layer metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Rounds run inside every set-up so caches and lazy state are warm
    /// before the clock starts.
    const WARMUP_ROUNDS: usize;
    /// Client threads (and span recorders) a round uses.
    const THREADS: usize;

    /// Everything before the first round. `traced` also prepares what
    /// only the standalone probes need.
    fn setup(seed: u64, traced: bool, tally: &mut Tally) -> Self;

    /// One name per job class (a cell, a key, a key × request class).
    fn classes(&self) -> Vec<String>;

    /// One round. With recorders (one per thread), every call into a
    /// layer is wrapped in a span.
    fn round(&mut self, rng: &mut Rng, tally: &mut Tally, trace: Option<&mut [Recorder]>) -> Round;

    /// Modelled-hardware numbers of the artifacts this workload
    /// produces or serves.
    fn quality(&self) -> &Quality;

    /// Traced run only: standalone re-measurements (`reps` sweeps each)
    /// and the counts the layers expose, written into `layer`.
    /// `recorders` hold the traced rounds' spans (`rounds` of them).
    fn layer_metrics(
        &mut self,
        recorders: &mut [Recorder],
        rounds: usize,
        reps: usize,
        layer: &mut Layer,
    );

    /// Checks that need the whole measured phase (counter deltas).
    fn finish(&mut self, _tally: &mut Tally) {}

    /// Stops what set-up started; off the clock.
    fn teardown(self) {}
}

/// However busy the host, a phase counts at least this many rounds.
const MIN_KEPT_ROUNDS: usize = 3;

/// Which rounds of a phase count, given the steal ticks each one saw.
/// A round during which the hypervisor took CPU from this VM measured
/// the host, not the program: on a busy host such rounds read up to 3x,
/// and a run's median follows how many of them it caught. So the rounds
/// that saw no steal count and the others are set aside — or, when
/// fewer than `MIN_KEPT_ROUNDS` saw none, the ones that saw the least.
fn keep_mask(stolen: &[u64]) -> Vec<bool> {
    let mut sorted = stolen.to_vec();
    sorted.sort_unstable();
    let allowed = sorted
        .get(MIN_KEPT_ROUNDS - 1)
        .or(sorted.last())
        .copied()
        .unwrap_or(0);
    stolen.iter().map(|ticks| *ticks <= allowed).collect()
}

/// A phase's rounds: the ones that count.
#[derive(Debug, Default)]
pub struct Phase {
    /// Rounds run, checked and then set aside (see `keep_mask`).
    pub set_aside: usize,
    pub round_ms: Vec<f64>,
    /// Sum of the job latencies of each round, in milliseconds: what
    /// the stage self times of a traced round add up to.
    pub job_sum_ms: Vec<f64>,
    /// Latency samples by class, in microseconds.
    pub job_us: Vec<Vec<f64>>,
}

impl Phase {
    pub fn new(classes: usize) -> Self {
        Phase {
            job_us: vec![Vec::new(); classes],
            ..Phase::default()
        }
    }

    pub fn push(&mut self, round: &Round) {
        self.round_ms.push(round.wall_ns as f64 / 1e6);
        self.job_sum_ms
            .push(round.jobs.iter().map(|(_, ns)| *ns as f64).sum::<f64>() / 1e6);
        for &(class, ns) in &round.jobs {
            self.job_us[class].push(ns as f64 / 1e3);
        }
    }

    pub fn rounds(&self) -> usize {
        self.round_ms.len()
    }

    pub fn jobs(&self) -> usize {
        self.job_us.iter().map(Vec::len).sum()
    }
}

/// One stage row of the closure report.
#[derive(Debug, Clone)]
pub struct StageRow {
    pub name: &'static str,
    /// Median over traced rounds of the stage's summed self time.
    pub self_us: f64,
    /// That, as a share of the untraced median round's job time.
    pub share: f64,
}

#[derive(Debug)]
pub struct Traced {
    pub phase: Phase,
    pub layer: Layer,
    pub stages: Vec<StageRow>,
    pub chrome_trace: String,
}

#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub threads: usize,
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    /// `VmHWM` after the last round, before the repeat set-ups.
    pub peak_rss_mib: f64,
    pub warmup_rounds: usize,
    pub classes: Vec<String>,
    pub untraced: Phase,
    pub quality: Quality,
    pub traced: Option<Traced>,
}

/// How long and how much: `seconds` of measuring, or exactly one round
/// per phase and one set-up for `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub smoke: bool,
}

fn run_phase<W: Workload>(
    state: &mut W,
    rng: &mut Rng,
    tally: &mut Tally,
    seconds: f64,
    smoke: bool,
    mut trace: Option<&mut [Recorder]>,
) -> Phase {
    let (mut rounds, mut stolen) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        if let Some(recorders) = trace.as_deref_mut() {
            for rec in recorders.iter_mut() {
                rec.round = rounds.len() as u32;
            }
        }
        let steal_before = steal_ticks();
        rounds.push(state.round(rng, tally, trace.as_deref_mut()));
        stolen.push(steal_ticks() - steal_before);
        // At least three rounds, so every class has a median.
        let enough = smoke || rounds.len() >= 3;
        if enough && (smoke || start.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    let keep = keep_mask(&stolen);
    if let Some(recorders) = trace {
        retain_rounds(recorders, &keep);
    }
    let mut phase = Phase::new(state.classes().len());
    for (round, _) in rounds.iter().zip(&keep).filter(|(_, keep)| **keep) {
        phase.push(round);
    }
    phase.set_aside = rounds.len() - phase.rounds();
    phase
}

/// One timed set-up: everything before the first round, warm-up rounds
/// included. Same seed every time, so every set-up of a run does the
/// same work.
fn timed_setup<W: Workload>(seed: u64, traced: bool, tally: &mut Tally) -> (W, f64) {
    let mut warm_rng = Rng::new(seed ^ 0x5E7_0000);
    let t0 = Instant::now();
    let mut state = W::setup(seed, traced, tally);
    for _ in 0..W::WARMUP_ROUNDS {
        state.round(&mut warm_rng, tally, None);
    }
    (state, t0.elapsed().as_secs_f64())
}

pub fn run<W: Workload>(seed: u64, budget: Budget, traced: bool) -> Outcome {
    let mut tally = Tally::default();
    let (mut state, first_setup_s) = timed_setup::<W>(seed, traced, &mut tally);
    let mut setup_s = vec![first_setup_s];
    let classes = state.classes();
    let mut rng = Rng::new(seed);

    // A traced run splits its time: untraced rounds first (the base the
    // tracing overhead and the closure are taken against), then the
    // same rounds with spans on.
    let share = if traced { 0.4 } else { 1.0 };
    let untraced = run_phase(
        &mut state,
        &mut rng,
        &mut tally,
        budget.seconds * share,
        budget.smoke,
        None,
    );
    state.finish(&mut tally);

    let traced = traced.then(|| {
        let epoch = Instant::now();
        let mut recorders: Vec<Recorder> = (0..W::THREADS)
            .map(|t| Recorder::new(epoch, t as u32))
            .collect();
        let mut rng = Rng::new(seed);
        let phase = run_phase(
            &mut state,
            &mut rng,
            &mut tally,
            budget.seconds * share,
            budget.smoke,
            Some(&mut recorders),
        );
        for rec in &mut recorders {
            rec.round = NO_ROUND;
        }
        let mut layer = Layer::default();
        layer.set("job_p90_ms", crate::report::job_p90_ms(&untraced));
        let base_ms = median(&untraced.job_sum_ms);
        let mut stages: Vec<StageRow> = stage_self_by_round(&recorders, phase.rounds())
            .into_iter()
            .map(|(name, per_round)| {
                let self_us = median(&per_round) / 1e3;
                StageRow {
                    name,
                    self_us,
                    share: self_us / 1e3 / base_ms,
                }
            })
            .collect();
        stages.sort_by(|a, b| b.self_us.total_cmp(&a.self_us));
        for row in &stages {
            if let Some(metric) = stage_metric(row.name) {
                layer.set(metric, row.self_us);
            }
        }
        // A workload may overwrite a container's self time with its
        // total (README.md lists which), so its metrics go in last.
        let reps = if budget.smoke { 1 } else { 3 };
        state.layer_metrics(&mut recorders, phase.rounds(), reps, &mut layer);
        // The table's own check: per-stage medians need not add up to
        // the median round, and a table that does not is misleading.
        layer.set(
            "trace.closure_ratio",
            stages.iter().map(|row| row.share).sum::<f64>(),
        );
        layer.set(
            "trace.overhead_share",
            (median(&phase.job_sum_ms) - base_ms) / base_ms,
        );
        Traced {
            phase,
            layer,
            stages,
            chrome_trace: crate::spans::chrome_trace(&recorders),
        }
    });

    let quality = state.quality().clone();
    // Read before the repeat set-ups below, so the peak is that of one
    // set-up plus the rounds, whatever SETUP_REPEATS is.
    let peak_rss_mib = crate::env::peak_rss_mib();
    state.teardown();
    if !budget.smoke {
        for _ in 1..SETUP_REPEATS {
            let (again, seconds) = timed_setup::<W>(seed, traced.is_some(), &mut tally);
            setup_s.push(seconds);
            again.teardown();
        }
    }
    Outcome {
        workload: W::NAME,
        threads: W::THREADS,
        tally,
        setup_s,
        peak_rss_mib,
        warmup_rounds: W::WARMUP_ROUNDS,
        classes,
        untraced,
        quality,
        traced,
    }
}

/// The per-layer metric a span name feeds: `<span>_us`. Span names are
/// chosen to be the metric stems; names without a declared metric
/// (containers such as `round.job`) still show in the stage table.
fn stage_metric(span: &str) -> Option<&'static str> {
    crate::metrics::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|name| name.strip_suffix("_us") == Some(span))
}

/// A closed loop of `clients.len()` threads over `slots` jobs: behind a
/// common start line, each client takes the next unclaimed slot only
/// when its previous job is answered. Returns what each client's jobs
/// returned, in the order it did them.
pub fn closed_loop<C: Send, T: Send>(
    clients: Vec<C>,
    slots: usize,
    job: impl Fn(&mut C, usize) -> T + Sync,
) -> Vec<Vec<T>> {
    let next = AtomicUsize::new(0);
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let (next, barrier, job) = (&next, &barrier, &job);
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    barrier.wait();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= slots {
                            break mine;
                        }
                        mine.push(job(&mut client, slot));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Clocks one call, in nanoseconds.
pub fn clock<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

/// Clocks `reps` runs of one standalone sweep (the spans land in the
/// trace, outside any round) and returns the median sweep time in
/// microseconds.
pub fn probe(rec: &mut Recorder, name: &'static str, reps: usize, mut sweep: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let id = rec.open(name, 0);
            sweep();
            rec.close(id);
            rec.spans[id].dur_ns() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_and_keeps_the_first_reasons() {
        let mut tally = Tally::default();
        tally.check(true, || unreachable!("passing checks format nothing"));
        for i in 0..10 {
            tally.check(false, || format!("bad {i}"));
        }
        assert_eq!((tally.attempted, tally.failed), (11, 10));
        assert_eq!(tally.notes.len(), 8);
        assert_eq!(tally.notes[0], "bad 0");
    }

    #[test]
    fn rounds_that_saw_steal_are_set_aside_while_three_remain() {
        let (t, f) = (true, false);
        assert_eq!(keep_mask(&[0, 2, 0, 1, 0]), vec![t, f, t, f, t]);
        // Two clean rounds are too few: the least disturbed join them.
        assert_eq!(keep_mask(&[0, 1, 5, 1, 0]), vec![t, t, f, t, t]);
        assert_eq!(keep_mask(&[4, 9, 3, 3, 7]), vec![t, f, t, t, f]);
        // Fewer than three rounds (`--smoke`) all count.
        assert_eq!(keep_mask(&[7]), vec![t]);
        assert_eq!(keep_mask(&[0, 7]), vec![t, t]);
        assert_eq!(keep_mask(&[]), Vec::<bool>::new());
    }

    #[test]
    fn phase_groups_samples_by_class_and_sums_rounds() {
        let mut phase = Phase::new(2);
        phase.push(&Round {
            wall_ns: 5_000_000,
            jobs: vec![(0, 1_000_000), (1, 3_000_000), (0, 2_000_000)],
        });
        assert_eq!(phase.rounds(), 1);
        assert_eq!(phase.jobs(), 3);
        assert_eq!(phase.round_ms, vec![5.0]);
        assert_eq!(phase.job_sum_ms, vec![6.0]);
        assert_eq!(phase.job_us[0], vec![1000.0, 2000.0]);
    }

    #[test]
    fn span_names_map_to_declared_metrics_only() {
        assert_eq!(stage_metric("frontend.import"), Some("frontend.import_us"));
        assert_eq!(stage_metric("round.job"), None);
    }
}
