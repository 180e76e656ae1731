//! Ring-buffered span trace, serialisable to Chrome trace-event JSON.
//!
//! Spans are scoped guards: creating one stamps a start time, dropping it
//! pushes a completed event (`ph: "X"`) into a bounded ring buffer. When
//! the buffer is full the oldest spans are evicted — a long run keeps its
//! most recent window of activity, which is what a profiling session
//! wants. The buffer serialises to the Chrome trace-event format that
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load
//! directly.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default ring capacity: enough for every window-level span of a full
/// metro day with room for per-append WAL spans.
const DEFAULT_CAPACITY: usize = 65_536;

/// One completed span.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Category (`engine`, `solver`, `shard`, `service`, `wal`,
    /// `checkpoint`); Chrome's `cat` field, filterable in Perfetto.
    pub cat: &'static str,
    /// Span name; static for hot paths, owned when built via `span_dyn`.
    pub name: Cow<'static, str>,
    /// Start, microseconds since the trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Stable per-thread id (1-based, in order of first span).
    pub tid: u64,
}

#[derive(Debug)]
struct TraceInner {
    epoch: Instant,
    events: Mutex<VecDeque<SpanEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

/// Shared, clonable handle to one span ring buffer.
#[derive(Debug, Clone)]
pub struct SpanTrace {
    inner: Arc<TraceInner>,
}

impl Default for SpanTrace {
    fn default() -> Self {
        SpanTrace::with_capacity(DEFAULT_CAPACITY)
    }
}

/// Hands out small stable thread ids for trace rows.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|tid| *tid)
}

impl SpanTrace {
    /// A trace that keeps at most `capacity` completed spans.
    #[expect(clippy::disallowed_methods, reason = "the trace epoch: telemetry owns the wall clock")]
    pub fn with_capacity(capacity: usize) -> Self {
        SpanTrace {
            inner: Arc::new(TraceInner {
                epoch: Instant::now(),
                events: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
                capacity: capacity.max(1),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Opens a span with a static name; the guard records on drop.
    pub fn span(&self, cat: &'static str, name: &'static str) -> SpanGuard {
        self.open(cat, Cow::Borrowed(name))
    }

    /// Opens a span with a computed name.
    pub fn span_dyn(&self, cat: &'static str, name: String) -> SpanGuard {
        self.open(cat, Cow::Owned(name))
    }

    #[expect(clippy::disallowed_methods, reason = "a span start: telemetry owns the wall clock")]
    fn open(&self, cat: &'static str, name: Cow<'static, str>) -> SpanGuard {
        SpanGuard(Some(OpenSpan { trace: self.clone(), cat, name, started: Instant::now() }))
    }

    fn push(&self, event: SpanEvent) {
        let mut events = self.inner.events.lock().expect("span ring poisoned");
        if events.len() == self.inner.capacity {
            events.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }

    /// Number of spans currently buffered.
    pub fn len(&self) -> usize {
        self.inner.events.lock().expect("span ring poisoned").len()
    }

    /// True when no span has been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buffered spans, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.inner.events.lock().expect("span ring poisoned").iter().cloned().collect()
    }

    /// Serialises the buffer as Chrome trace-event JSON (`ph: "X"`
    /// complete events), loadable in `chrome://tracing` or Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, event) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{}}}",
                escape(&event.name),
                escape(event.cat),
                event.start_us,
                event.dur_us,
                event.tid
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Minimal JSON string escape; span names are plain identifiers but a
/// malformed byte must never corrupt the trace file.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[derive(Debug)]
struct OpenSpan {
    trace: SpanTrace,
    cat: &'static str,
    name: Cow<'static, str>,
    started: Instant,
}

/// Scoped span guard; pushes a completed event on drop. The inactive
/// variant (from [`crate::span`] with no recorder installed) never reads
/// the clock.
#[derive(Debug)]
#[must_use = "the span closes when dropped; binding it to _ closes it immediately"]
pub struct SpanGuard(Option<OpenSpan>);

impl SpanGuard {
    /// A guard that records nothing.
    pub const fn inactive() -> Self {
        SpanGuard(None)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let start_us = open
                .started
                .saturating_duration_since(open.trace.inner.epoch)
                .as_micros()
                .min(u64::MAX as u128) as u64;
            let dur_us = open.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
            let event =
                SpanEvent { cat: open.cat, name: open.name, start_us, dur_us, tid: thread_id() };
            open.trace.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_drop_and_evict_oldest() {
        let trace = SpanTrace::with_capacity(2);
        drop(trace.span("test", "a"));
        drop(trace.span("test", "b"));
        drop(trace.span_dyn("test", "c".to_string()));
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.dropped(), 1);
        let names: Vec<_> = trace.events().iter().map(|e| e.name.to_string()).collect();
        assert_eq!(names, ["b", "c"]);
    }

    #[test]
    fn chrome_trace_json_is_balanced_and_escaped() {
        let trace = SpanTrace::default();
        drop(trace.span_dyn("cat\"x", "na\\me\n".to_string()));
        let json = trace.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\\\"x"));
        assert!(json.contains("na\\\\me\\u000a"));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn inactive_guard_records_nothing() {
        let trace = SpanTrace::default();
        drop(SpanGuard::inactive());
        assert!(trace.is_empty());
    }
}
