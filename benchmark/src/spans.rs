//! The benchmark's own spans: one record per call into a layer, kept in
//! memory and written as a chrome trace when the run ends.
//!
//! A span is (name, start, end, parent, request id). Its *self time* is
//! its duration minus the part its children cover. Spans whose duration
//! the benchmark did not clock around a live call — a stage that only
//! runs inside `CompileService::submit`, say — are *derived*: their
//! duration comes from a counter the program reports (`CompileStats`,
//! `JobResult`) or from re-running that stage standalone right after
//! the call, and they are laid end to end inside the parent so that the
//! parent's self time is what no stage accounts for.

use htvm_trace::{Span, TimeDomain, Trace, Track};
use std::collections::BTreeMap;
use std::time::Instant;

/// Round stamp of spans recorded outside any round (standalone probes).
pub const NO_ROUND: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// `round * jobs_per_round + job index`: shared by every span of
    /// one request.
    pub request: u64,
    pub round: u32,
    pub derived: bool,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span list. Threads share the epoch, so their
/// timestamps line up in the merged trace.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub thread: u32,
    pub round: u32,
    pub spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Recorder {
            epoch,
            thread,
            round: NO_ROUND,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let now = self.now();
        self.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request,
            round: self.round,
            derived: false,
        });
        self.stack.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Clocks one call.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    /// Lays derived children end to end from `parent`'s start, each cut
    /// to what is left of the parent's interval, and returns their ids.
    pub fn derive_children(
        &mut self,
        parent: usize,
        children: &[(&'static str, u64)],
    ) -> Vec<usize> {
        let (mut cursor, end, request, round) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.request, p.round)
        };
        children
            .iter()
            .map(|&(name, dur_ns)| {
                let stop = cursor.saturating_add(dur_ns).min(end);
                let id = self.spans.len();
                self.spans.push(SpanRec {
                    name,
                    start_ns: cursor,
                    end_ns: stop,
                    parent: Some(parent),
                    request,
                    round,
                    derived: true,
                });
                cursor = stop;
                id
            })
            .collect()
    }
}

/// Drops the rounds `keep` marks false from the by-round tables: their
/// spans stay in the trace but lose their round, and the kept rounds
/// are renumbered `0..` in order.
pub fn retain_rounds(recorders: &mut [Recorder], keep: &[bool]) {
    let mut next = 0;
    let renumbered: Vec<u32> = keep
        .iter()
        .map(|&kept| {
            if kept {
                next += 1;
                next - 1
            } else {
                NO_ROUND
            }
        })
        .collect();
    for span in recorders.iter_mut().flat_map(|rec| rec.spans.iter_mut()) {
        if let Some(&round) = renumbered.get(span.round as usize) {
            span.round = round;
        }
    }
}

/// Self time of every span: duration minus the sum of its children's
/// durations (children never overlap each other here), floored at 0.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            covered[parent] += span.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, covered)| span.dur_ns().saturating_sub(covered))
        .collect()
}

/// Per span name, one value per span summed over every thread for each
/// round `0..rounds`, in nanoseconds.
fn sum_by_round(
    recorders: &[Recorder],
    rounds: usize,
    values: impl Fn(&[SpanRec]) -> Vec<u64>,
) -> BTreeMap<&'static str, Vec<f64>> {
    let mut table: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rec in recorders {
        for (span, ns) in rec.spans.iter().zip(values(&rec.spans)) {
            if (span.round as usize) < rounds {
                table.entry(span.name).or_insert_with(|| vec![0.0; rounds])[span.round as usize] +=
                    ns as f64;
            }
        }
    }
    table
}

/// Per span name, the self time summed per round.
pub fn stage_self_by_round(
    recorders: &[Recorder],
    rounds: usize,
) -> BTreeMap<&'static str, Vec<f64>> {
    sum_by_round(recorders, rounds, self_times)
}

/// Per span name, the *duration* (children included) summed per round.
pub fn stage_dur_by_round(
    recorders: &[Recorder],
    rounds: usize,
) -> BTreeMap<&'static str, Vec<f64>> {
    sum_by_round(recorders, rounds, |spans| {
        spans.iter().map(SpanRec::dur_ns).collect()
    })
}

/// The merged chrome trace (wall microseconds; one row per thread).
pub fn chrome_trace(recorders: &[Recorder]) -> String {
    let tracks = recorders
        .iter()
        .map(|r| Track::new(r.thread, &format!("bench-thread-{}", r.thread)))
        .collect();
    let mut trace = Trace::new(TimeDomain::WallMicros, tracks);
    for rec in recorders {
        let selfs = self_times(&rec.spans);
        for (id, (span, self_ns)) in rec.spans.iter().zip(selfs).enumerate() {
            let mut out = Span::new(
                span.name,
                rec.thread,
                span.start_ns / 1000,
                span.dur_ns() / 1000,
            )
            .with_arg("id", id)
            .with_arg("request", span.request)
            .with_arg("self_ns", self_ns)
            .with_arg("derived", span.derived);
            if let Some(parent) = span.parent {
                out = out.with_arg("parent", parent);
            }
            if span.round != NO_ROUND {
                out = out.with_arg("round", u64::from(span.round));
            }
            trace.spans.push(out);
        }
    }
    trace.spans.sort_by_key(|span| (span.start, span.track));
    trace.to_chrome_trace()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            round: 0,
            derived: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root [0,100) with children [10,40) and [50,70); the first
        // child has a grandchild [15,25).
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(50, 70, Some(0)),
            span(15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_never_goes_negative() {
        let spans = vec![span(0, 10, None), span(0, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 30]);
    }

    #[test]
    fn derived_children_are_cut_to_the_parent() {
        let mut rec = Recorder::new(Instant::now(), 0);
        rec.round = 0;
        let parent = rec.open("parent", 3);
        rec.close(parent);
        rec.spans[parent].start_ns = 1000;
        rec.spans[parent].end_ns = 2000;
        let ids = rec.derive_children(parent, &[("a", 600), ("b", 600), ("c", 5)]);
        let durs: Vec<u64> = ids.iter().map(|&i| rec.spans[i].dur_ns()).collect();
        assert_eq!(durs, vec![600, 400, 0]);
        assert!(ids.iter().all(|&i| rec.spans[i].derived));
        assert!(ids.iter().all(|&i| rec.spans[i].request == 3));
        assert_eq!(self_times(&rec.spans)[parent], 0);
    }

    #[test]
    fn dropped_rounds_leave_the_tables_and_the_rest_close_ranks() {
        let mut rec = Recorder::new(Instant::now(), 0);
        for round in 0..4 {
            rec.round = round;
            rec.time("s", u64::from(round), || ());
        }
        rec.round = NO_ROUND;
        rec.time("probe", 0, || ());
        retain_rounds(std::slice::from_mut(&mut rec), &[true, false, false, true]);
        let rounds: Vec<u32> = rec.spans.iter().map(|s| s.round).collect();
        assert_eq!(rounds, vec![0, NO_ROUND, NO_ROUND, 1, NO_ROUND]);
        assert_eq!(
            stage_dur_by_round(std::slice::from_ref(&rec), 2)["s"].len(),
            2
        );
    }

    #[test]
    fn nested_clocked_spans_record_parents() {
        let mut rec = Recorder::new(Instant::now(), 1);
        rec.round = 2;
        let outer = rec.open("outer", 9);
        rec.time("inner", 9, || std::hint::black_box(1 + 1));
        rec.close(outer);
        assert_eq!(rec.spans[1].parent, Some(outer));
        assert_eq!(rec.spans[1].round, 2);
        assert!(rec.spans[outer].end_ns >= rec.spans[1].end_ns);
        let by_round = stage_self_by_round(std::slice::from_ref(&rec), 3);
        assert_eq!(by_round["outer"].len(), 3);
        assert_eq!(by_round["outer"][0], 0.0);
        let json = chrome_trace(std::slice::from_ref(&rec));
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["traceEvents"].as_array().unwrap().len(), 3);
    }
}
