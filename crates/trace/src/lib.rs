//! One event model for the whole stack.
//!
//! The compiler measures wall time per phase, the simulator accounts
//! virtual cycles per layer, and before this crate existed each side had
//! its own ad-hoc way of writing them down. `htvm-trace` is the shared
//! substrate: a [`Span`] is a named interval on a [`Track`] with typed
//! arguments, a [`Trace`] is an ordered collection of spans in one
//! [`TimeDomain`] (wall microseconds or simulated cycles), and a single
//! [`Trace::to_chrome_trace`] writer renders either kind for
//! `chrome://tracing` / Perfetto.
//!
//! Two ways to produce a trace:
//!
//! - **Collection** — a [`Tracer`] is a cheap cloneable handle threaded
//!   through the compiler ([`Compiler::with_tracer`]). Scoped spans
//!   measure wall time; [`Tracer::take`] drains what was recorded. A
//!   [`Tracer::disabled`] handle is a no-op: no allocation, no clock
//!   reads, and — because tracing only *observes* — artifacts and
//!   simulated cycle counts are byte-identical with collection on or off
//!   (asserted by `tests/determinism.rs`).
//! - **Conversion** — the simulator's `RunReport` already carries the
//!   full per-layer profile, so `RunReport::to_trace` rebuilds it as a
//!   cycles-domain [`Trace`] after the fact; no collection overhead ever
//!   touches the simulation.
//!
//! There is deliberately no external tracing dependency and no global
//! state: a trace is plain data, serializable with the same serde model
//! as everything else, and deterministic given deterministic inputs.
//!
//! [`Compiler::with_tracer`]: ../htvm/struct.Compiler.html#method.with_tracer

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a trace's timestamps mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TimeDomain {
    /// Wall-clock microseconds since the tracer's epoch (compile traces).
    WallMicros,
    /// Simulated cycles since the start of the run (simulation traces).
    Cycles,
}

/// A typed span argument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArgValue {
    /// An unsigned counter (cycles, bytes, hit counts, 0/1 flags).
    U64(u64),
    /// A ratio or measurement.
    F64(f64),
    /// A label (engine name, pattern name).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl ArgValue {
    /// The contained counter, if this is a [`ArgValue::U64`].
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ArgValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    fn to_json(&self) -> Value {
        match self {
            ArgValue::U64(v) => Value::UInt(*v),
            ArgValue::F64(v) => Value::F64(*v),
            ArgValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// A named row of a trace (an engine lane, the compile-phase lane).
/// Renders as a chrome-trace thread.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Track {
    /// Stable row id (the chrome-trace `tid`).
    pub id: u32,
    /// Human-readable row name.
    pub name: String,
}

impl Track {
    /// A track with the given id and name.
    #[must_use]
    pub fn new(id: u32, name: &str) -> Self {
        Track {
            id,
            name: name.to_owned(),
        }
    }
}

/// Well-known track ids for compile traces.
pub mod tracks {
    use super::Track;

    /// Sequential compiler phases (fold, partition, solve, emit, L2 plan).
    pub const PHASES: u32 = 0;
    /// Per-region tiling solves (overlap in wall time when the solve
    /// phase fans out).
    pub const REGIONS: u32 = 1;
    /// Per-job service spans (queue wait, compile-or-hit, simulate) —
    /// one span per job, overlapping across worker threads.
    ///
    /// The serve layer names its spans by prefix so viewers can filter:
    /// `job:<name>` is the service time of one job (args: `key`,
    /// `tenant`, `queue_us`, `cache_hit`, `coalesced`, `ok`);
    /// `queue:<name>` is the job's queue wait, recorded retroactively
    /// ending where its `job:` span starts; `shed:<name>` is a
    /// zero-width marker for a job refused by admission control (args:
    /// `reason`, `tenant`, `estimated_cost`).
    pub const SERVICE: u32 = 2;

    /// The track table every compile trace uses.
    #[must_use]
    pub fn compile() -> Vec<Track> {
        vec![Track::new(PHASES, "phases"), Track::new(REGIONS, "regions")]
    }

    /// The track table a serving trace uses: the compile tracks plus the
    /// per-job service track, so one trace file shows jobs above the
    /// compiler phases they triggered.
    #[must_use]
    pub fn serve() -> Vec<Track> {
        vec![
            Track::new(SERVICE, "jobs"),
            Track::new(PHASES, "phases"),
            Track::new(REGIONS, "regions"),
        ]
    }
}

/// A named interval on one track, with typed arguments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Span name (phase, region or layer name).
    pub name: String,
    /// Track the span renders on.
    pub track: u32,
    /// Start timestamp in the trace's [`TimeDomain`] unit.
    pub start: u64,
    /// Duration in the trace's [`TimeDomain`] unit.
    pub dur: u64,
    /// Ordered key → value arguments.
    pub args: Vec<(String, ArgValue)>,
}

impl Span {
    /// A new span; attach arguments with [`Span::with_arg`].
    #[must_use]
    pub fn new(name: &str, track: u32, start: u64, dur: u64) -> Self {
        Span {
            name: name.to_owned(),
            track,
            start,
            dur,
            args: Vec::new(),
        }
    }

    /// Appends one argument (builder style).
    #[must_use]
    pub fn with_arg(mut self, key: &str, value: impl Into<ArgValue>) -> Self {
        self.args.push((key.to_owned(), value.into()));
        self
    }

    /// Looks up a counter argument by key.
    #[must_use]
    pub fn arg_u64(&self, key: &str) -> Option<u64> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
    }
}

/// An ordered, serializable collection of spans in one time domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// What the timestamps mean.
    pub domain: TimeDomain,
    /// Row table (chrome-trace thread names), in render order.
    pub tracks: Vec<Track>,
    /// Spans, in recorded (or sorted) order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace in the given domain.
    #[must_use]
    pub fn new(domain: TimeDomain, tracks: Vec<Track>) -> Self {
        Trace {
            domain,
            tracks,
            spans: Vec::new(),
        }
    }

    /// The first span with this name, if any.
    #[must_use]
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Duration of the first span with this name.
    #[must_use]
    pub fn dur_of(&self, name: &str) -> Option<u64> {
        self.span(name).map(|s| s.dur)
    }

    /// All spans on one track, in order.
    pub fn on_track(&self, track: u32) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.track == track)
    }

    /// Exports the trace as Chrome trace-event JSON (load it in
    /// `chrome://tracing` or Perfetto): one `X` duration event per span
    /// with its arguments attached, then one `M` thread-name metadata
    /// event per track. Every span is emitted with a 1-unit duration
    /// floor so zero-cost spans stay visible in the viewer.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::with_capacity(self.spans.len() + self.tracks.len());
        for span in &self.spans {
            let args: Vec<(String, Value)> = span
                .args
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect();
            events.push(serde_json::json!({
                "name": span.name,
                "ph": "X",
                "ts": span.start,
                "dur": span.dur.max(1),
                "pid": 1,
                "tid": span.track,
                "args": Value::Object(args),
            }));
        }
        for track in &self.tracks {
            events.push(serde_json::json!({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": track.id,
                "args": { "name": track.name },
            }));
        }
        serde_json::to_string(&serde_json::json!({ "traceEvents": events }))
            .expect("trace events are serializable")
    }
}

struct TracerInner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A cheap, cloneable span collector for wall-clock instrumentation.
///
/// Clones share storage, so one handle can be given to a `Compiler` while
/// the caller keeps another to [`Tracer::take`] the trace afterwards.
/// Several threads may record through clones of one handle at once (the
/// serve worker pool does); `take` sorts the spans into a deterministic
/// order (by start, track, then name).
///
/// [`Tracer::disabled`] (also [`Tracer::default`]) is the zero-cost
/// no-op: scoped spans read no clock and record nothing.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// An enabled collector with its epoch at "now".
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// The no-op collector: records nothing, costs nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// `true` when spans are being collected.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this tracer's epoch (0 when disabled).
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Records a fully-formed span (no-op when disabled).
    pub fn record(&self, span: Span) {
        if let Some(inner) = &self.inner {
            inner.spans.lock().expect("tracer poisoned").push(span);
        }
    }

    /// Records an instantaneous marker at "now" carrying only arguments
    /// (a counter snapshot). No-op when disabled.
    pub fn counter(&self, track: u32, name: &str, args: Vec<(String, ArgValue)>) {
        if self.is_enabled() {
            let now = self.elapsed_us();
            self.record(Span {
                name: name.to_owned(),
                track,
                start: now,
                dur: 0,
                args,
            });
        }
    }

    /// Opens a wall-clock span that records itself when dropped (or when
    /// [`ScopedSpan::finish`] is called). No-op when disabled.
    #[must_use]
    pub fn scope(&self, track: u32, name: &str) -> ScopedSpan<'_> {
        ScopedSpan {
            tracer: self,
            started: self.inner.as_ref().map(|_| {
                let start_us = self.elapsed_us();
                (start_us, Instant::now())
            }),
            name: name.to_owned(),
            track,
            args: Vec::new(),
        }
    }

    /// Drains everything recorded so far into a [`Trace`], sorted into a
    /// deterministic order. An empty trace when disabled.
    #[must_use]
    pub fn take(&self, domain: TimeDomain, trace_tracks: Vec<Track>) -> Trace {
        let mut spans = match &self.inner {
            Some(inner) => std::mem::take(&mut *inner.spans.lock().expect("tracer poisoned")),
            None => Vec::new(),
        };
        spans.sort_by(|a, b| (a.start, a.track, &a.name).cmp(&(b.start, b.track, &b.name)));
        Trace {
            domain,
            tracks: trace_tracks,
            spans,
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pending = self
            .inner
            .as_ref()
            .map(|i| i.spans.lock().map(|s| s.len()).unwrap_or(0));
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("pending_spans", &pending)
            .finish()
    }
}

/// A live wall-clock span opened by [`Tracer::scope`]; records itself on
/// drop. On a disabled tracer it is inert.
pub struct ScopedSpan<'a> {
    tracer: &'a Tracer,
    /// `(start offset from epoch, open instant)` — `None` when disabled.
    started: Option<(u64, Instant)>,
    name: String,
    track: u32,
    args: Vec<(String, ArgValue)>,
}

impl ScopedSpan<'_> {
    /// Attaches an argument to the span (no-op when disabled).
    pub fn arg(&mut self, key: &str, value: impl Into<ArgValue>) {
        if self.started.is_some() {
            self.args.push((key.to_owned(), value.into()));
        }
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for ScopedSpan<'_> {
    fn drop(&mut self) {
        if let Some((start, opened)) = self.started.take() {
            self.tracer.record(Span {
                name: std::mem::take(&mut self.name),
                track: self.track,
                start,
                dur: opened.elapsed().as_micros() as u64,
                args: std::mem::take(&mut self.args),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        {
            let mut s = t.scope(tracks::PHASES, "phase");
            s.arg("k", 1u64);
        }
        t.counter(tracks::PHASES, "c", vec![("v".into(), ArgValue::U64(9))]);
        let trace = t.take(TimeDomain::WallMicros, tracks::compile());
        assert!(trace.spans.is_empty());
    }

    #[test]
    fn scoped_spans_record_on_drop_with_args() {
        let t = Tracer::new();
        {
            let mut s = t.scope(tracks::PHASES, "solve");
            s.arg("regions", 3u64);
        }
        let trace = t.take(TimeDomain::WallMicros, tracks::compile());
        assert_eq!(trace.spans.len(), 1);
        let s = trace.span("solve").unwrap();
        assert_eq!(s.track, tracks::PHASES);
        assert_eq!(s.arg_u64("regions"), Some(3));
        assert!(trace.dur_of("solve").is_some());
        // take drained: a second take is empty.
        assert!(t.take(TimeDomain::WallMicros, vec![]).spans.is_empty());
    }

    #[test]
    fn clones_share_storage_and_take_sorts_deterministically() {
        let t = Tracer::new();
        let c = t.clone();
        c.record(Span::new("b", 1, 10, 5));
        c.record(Span::new("a", 0, 10, 5));
        t.record(Span::new("z", 0, 2, 1));
        let trace = t.take(TimeDomain::Cycles, vec![]);
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["z", "a", "b"], "sorted by (start, track, name)");
    }

    #[test]
    fn chrome_trace_shape_matches_event_model() {
        let mut trace = Trace::new(
            TimeDomain::Cycles,
            vec![Track::new(0, "cpu"), Track::new(1, "digital")],
        );
        trace
            .spans
            .push(Span::new("conv", 1, 0, 100).with_arg("macs", 42u64));
        trace.spans.push(Span::new("zero", 0, 100, 0));
        let v: serde_json::Value = serde_json::from_str(&trace.to_chrome_trace()).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 4, "2 spans + 2 track rows");
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["tid"], 1);
        assert_eq!(events[0]["args"]["macs"], 42);
        assert_eq!(events[1]["dur"], 1, "zero-dur spans get a visible floor");
        assert_eq!(events[2]["ph"], "M");
        assert_eq!(events[2]["args"]["name"], "cpu");
    }

    #[test]
    fn trace_round_trips_through_serde() {
        let mut trace = Trace::new(TimeDomain::WallMicros, tracks::compile());
        trace.spans.push(
            Span::new("solve", tracks::PHASES, 5, 17)
                .with_arg("hits", 2u64)
                .with_arg("ratio", 0.5_f64)
                .with_arg("engine", "digital"),
        );
        let json = serde_json::to_string(&trace).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(trace, back);
    }
}
