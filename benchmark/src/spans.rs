//! In-memory span log for the traced pass: who called what, when, under
//! which tick and shard — plus self-time arithmetic and Chrome trace export.
//!
//! Spans are recorded by the benchmark around its calls into the program;
//! two kinds of span the program itself exports (`shard/zoneN` and
//! `checkpoint/persist`, both on threads the benchmark cannot wrap) are
//! imported afterwards and hung under the benchmark span that contains
//! them.

use crate::json::Json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a span nobody caused.
pub const ROOT: u32 = 0;
/// Shard of a span that belongs to no zone.
pub const NO_SHARD: i32 = -1;

/// One completed span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: u32,
    pub tick: u32,
    pub shard: i32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Shared span sink. The dispatch thread and the policy (which a router
/// calls from worker threads) both write to it.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    tick: AtomicU32,
    /// Id of the open `advance` span: the parent of `policy.assign` spans,
    /// which are opened on whichever thread the program calls the policy.
    advance: AtomicU32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
            tick: AtomicU32::new(0),
            advance: AtomicU32::new(ROOT),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_tick(&self, tick: u32) {
        self.tick.store(tick, Ordering::Relaxed);
    }

    pub fn current_advance(&self) -> u32 {
        self.advance.load(Ordering::Relaxed)
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// own children with.
    pub fn scope<T>(&self, name: &str, parent: u32, shard: i32, f: impl FnOnce(u32) -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let tick = self.tick.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let result = f(id);
        let end_ns = self.now_ns();
        self.push(Span { name: name.to_string(), start_ns, end_ns, id, parent, tick, shard });
        result
    }

    /// [`Self::scope`] for the `advance` call: publishes the span id so
    /// policy spans opened on other threads can name it as their parent.
    pub fn advance_scope<T>(&self, parent: u32, f: impl FnOnce() -> T) -> T {
        self.scope("advance", parent, NO_SHARD, |id| {
            self.advance.store(id, Ordering::Relaxed);
            let result = f();
            self.advance.store(ROOT, Ordering::Relaxed);
            result
        })
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Adds spans the program recorded on its own clock. `offset_ns` maps
    /// the program's trace epoch onto this tracer's.
    pub fn import(&self, events: &[foodmatch_telemetry::SpanEvent], offset_ns: i64) {
        for event in events {
            let (name, shard) = match (event.cat, event.name.as_ref()) {
                ("shard", zone) => {
                    let index = zone.trim_start_matches("zone").parse().unwrap_or(NO_SHARD);
                    (zone.to_string(), index)
                }
                ("checkpoint", "persist") => ("checkpoint.persist".to_string(), NO_SHARD),
                _ => continue,
            };
            let start_ns = (event.start_us as i64 * 1_000 + offset_ns).max(0) as u64;
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                name,
                start_ns,
                end_ns: start_ns + event.dur_us * 1_000,
                id,
                parent: ROOT,
                tick: 0,
                shard,
            });
        }
    }

    /// Takes every span recorded so far, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span log poisoned"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Imported spans carry microsecond-truncated times from another clock
/// read; containment tests allow this much slack.
const ADOPT_SLACK_NS: u64 = 5_000;

/// Hangs every `is_child` span under the tightest `is_parent` span that
/// contains it in time (and, when both carry a shard, shares it), taking
/// over the parent's tick. Spans nobody contains keep their parent.
pub fn adopt(
    spans: &mut [Span],
    is_child: impl Fn(&Span) -> bool,
    is_parent: impl Fn(&Span) -> bool,
) {
    let parents: Vec<(u64, u64, u32, u32, i32)> = spans
        .iter()
        .filter(|s| is_parent(s))
        .map(|s| (s.start_ns, s.end_ns, s.id, s.tick, s.shard))
        .collect();
    for child in spans.iter_mut().filter(|s| is_child(s)) {
        let best = parents
            .iter()
            .filter(|&&(start, end, id, _, shard)| {
                id != child.id
                    && start <= child.start_ns + ADOPT_SLACK_NS
                    && child.end_ns <= end + ADOPT_SLACK_NS
                    && (shard == NO_SHARD || child.shard == NO_SHARD || shard == child.shard)
            })
            .min_by_key(|&&(start, end, ..)| end - start);
        if let Some(&(_, _, id, tick, _)) = best {
            child.parent = id;
            child.tick = tick;
        }
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span, so children that overlap each other —
/// zones stepped in parallel — are not subtracted twice).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.parent != ROOT) {
        children.entry(span.parent).or_default().push((span.start_ns, span.end_ns));
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map_or(0, |intervals| union_within(intervals, span.start_ns, span.end_ns));
            (span.id, span.dur_ns() - covered)
        })
        .collect()
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, with id / parent / tick / shard under `args`. Rows:
/// tid 1 is the dispatch thread, 2 + N zone N, 99 the checkpoint worker.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let tid = match (s.name.as_str(), s.shard) {
                ("checkpoint.persist", _) => 99,
                (_, NO_SHARD) => 1,
                (_, shard) => 2 + i64::from(shard),
            };
            Json::obj([
                ("name", Json::str(s.name.as_str())),
                ("cat", Json::str(s.name.split('.').next().unwrap_or_default())),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(tid)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Int(i64::from(s.id))),
                        ("parent", Json::Int(i64::from(s.parent))),
                        ("tick", Json::Int(i64::from(s.tick))),
                        ("shard", Json::Int(i64::from(s.shard))),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events)), ("displayTimeUnit", Json::str("ms"))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, id: u32, parent: u32, start_ns: u64, end_ns: u64, shard: i32) -> Span {
        Span { name: name.to_string(), start_ns, end_ns, id, parent, tick: 0, shard }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = vec![
            span("tick", 1, ROOT, 0, 100, NO_SHARD),
            span("advance", 2, 1, 10, 90, NO_SHARD),
            span("policy.assign", 3, 2, 20, 70, NO_SHARD),
            span("batching", 4, 3, 20, 40, NO_SHARD),
            span("foodgraph", 5, 3, 40, 65, NO_SHARD),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 20);
        assert_eq!(own[&2], 30);
        assert_eq!(own[&3], 5);
        assert_eq!(own[&4], 20);
        assert_eq!(own[&5], 25);
        assert_eq!(own.values().sum::<u64>(), 100, "self times tile the root span");
    }

    #[test]
    fn overlapping_zone_children_are_counted_by_their_union() {
        let spans = vec![
            span("advance", 1, ROOT, 0, 100, NO_SHARD),
            span("zone0", 2, 1, 10, 60, 0),
            span("zone1", 3, 1, 30, 80, 1),
            span("zone2", 4, 1, 85, 120, 2), // runs past the parent: clipped
            span("zone3", 5, 1, 40, 50, 3),  // wholly inside zone0 ∪ zone1
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 70 - 15);
        assert_eq!(own[&2], 50);
    }

    #[test]
    fn adoption_picks_the_tightest_container_with_a_matching_shard() {
        let mut spans = vec![
            span("advance", 1, ROOT, 0, 1_000_000, NO_SHARD),
            span("zone0", 2, ROOT, 100_000, 500_000, 0),
            span("zone1", 3, ROOT, 100_000, 900_000, 1),
            span("policy.assign", 4, 1, 200_000, 400_000, 1),
            span("policy.assign", 5, 1, 200_000, 400_000, 0),
        ];
        spans[0].tick = 7;
        adopt(&mut spans, |s| s.name.starts_with("zone"), |s| s.name == "advance");
        adopt(&mut spans, |s| s.name == "policy.assign", |s| s.name.starts_with("zone"));
        assert_eq!((spans[1].parent, spans[1].tick), (1, 7));
        assert_eq!(spans[3].parent, 3, "zone1's policy call hangs under zone1, not tighter zone0");
        assert_eq!(spans[4].parent, 2);
        assert_eq!(spans[4].tick, 7);
    }

    #[test]
    fn tracer_links_policy_spans_to_the_open_advance() {
        let tracer = Tracer::new();
        tracer.set_tick(3);
        let seen = tracer.scope("tick", ROOT, NO_SHARD, |tick| {
            tracer.advance_scope(tick, || {
                let parent = tracer.current_advance();
                tracer.scope("policy.assign", parent, 2, |_| parent)
            })
        });
        assert_eq!(tracer.current_advance(), ROOT);
        let spans = tracer.take();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span recorded");
        assert_eq!(by_name("advance").id, seen);
        assert_eq!(by_name("policy.assign").parent, seen);
        assert_eq!(by_name("policy.assign").shard, 2);
        assert_eq!(by_name("advance").parent, by_name("tick").id);
        assert!(spans.iter().all(|s| s.tick == 3));
    }

    #[test]
    fn chrome_trace_has_the_fields_viewers_need() {
        let text = chrome_trace(&[span("policy.assign", 9, 4, 1_500, 4_000, NO_SHARD)]).to_string();
        assert!(
            text.starts_with("{\"traceEvents\":[{\"name\":\"policy.assign\",\"cat\":\"policy\"")
        );
        assert!(text.contains("\"ph\":\"X\",\"ts\":1.5,\"dur\":2.5,\"pid\":1,\"tid\":1"));
        assert!(text.contains("\"args\":{\"id\":9,\"parent\":4,\"tick\":0,\"shard\":-1}"));
    }
}
