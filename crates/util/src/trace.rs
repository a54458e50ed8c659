//! Structured build tracing: cheap, thread-local span/event buffers
//! behind a zero-cost-when-disabled [`TraceSink`] handle.
//!
//! The driver's performance story now spans three stacked layers — the
//! NbE + interned kernel, the worker-pool scheduler, and the two-tier
//! memory→disk artifact store — and aggregate counters cannot say *where*
//! a build spent its time. This module is the observability substrate:
//!
//! * a [`TraceSink`] is created per build (enabled or disabled) and
//!   installed on each worker thread ([`TraceSink::install`]);
//! * instrumentation points call the free functions [`span`], [`event`],
//!   [`add_counter`], [`set_unit`] — all of which check one thread-local
//!   flag first and do **nothing** when no sink is installed, so an
//!   untraced build pays a single branch per call site;
//! * spans and events append to a per-thread buffer with **no lock and no
//!   shared-state write** on the hot path (span ids come from one relaxed
//!   atomic fetch-add; everything else is thread-local). Buffers are
//!   flushed into the sink once, when the worker's [`ThreadGuard`] drops;
//! * [`TraceSink::finish`] collects the per-worker buffers into a
//!   [`BuildTrace`], which knows how to export itself as Chrome
//!   trace-event JSON ([`BuildTrace::to_chrome_json`] — loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev), one track
//!   per worker) and how to aggregate per-phase totals and per-worker
//!   busy time for the driver's `--timings` report.
//!
//! A span records its id, parent (the innermost span open on the same
//! thread at open time), static name, the current compilation *unit*
//! label ([`set_unit`]), worker id, monotonic start/end nanoseconds
//! relative to the sink's epoch, and any counter payloads attached while
//! it was the innermost open span ([`add_counter`]). Events are the
//! zero-duration analogue ([`event`], [`event_for`]).
//!
//! # Example
//!
//! ```
//! use cccc_util::trace;
//!
//! let ((), trace) = trace::capture(|| {
//!     let _outer = trace::span("build");
//!     trace::set_unit(Some("main"));
//!     {
//!         let _inner = trace::span("typecheck");
//!         trace::add_counter("nodes", 42);
//!     }
//!     trace::event("cache.miss", &[]);
//!     trace::set_unit(None);
//! });
//! assert_eq!(trace.spans.len(), 2);
//! assert_eq!(trace.events.len(), 1);
//! assert!(trace.to_chrome_json().contains("\"typecheck\""));
//! ```

use crate::diag::json_string;
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A completed span: a named interval on one worker's timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (unique across all workers of one sink; allocation order
    /// is open order, so ids are schedule-deterministic at one worker).
    pub id: u64,
    /// The innermost span open on the same thread when this one opened.
    pub parent: Option<u64>,
    /// Static span name (a phase, a store op, a scheduler section).
    pub name: &'static str,
    /// The compilation unit being processed, if one was set.
    pub unit: Option<Arc<str>>,
    /// The worker index the span ran on.
    pub worker: usize,
    /// Monotonic start, nanoseconds since the sink's epoch.
    pub start_ns: u64,
    /// Monotonic end, nanoseconds since the sink's epoch.
    pub end_ns: u64,
    /// Counter payloads attached while the span was innermost.
    pub counters: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An instantaneous event with optional counter payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Static event name.
    pub name: &'static str,
    /// The unit label in effect (or explicitly given, [`event_for`]).
    pub unit: Option<Arc<str>>,
    /// The worker index the event fired on.
    pub worker: usize,
    /// Monotonic timestamp, nanoseconds since the sink's epoch.
    pub at_ns: u64,
    /// Counter payloads.
    pub counters: Vec<(&'static str, u64)>,
}

/// State shared by every thread attached to one sink.
struct SinkShared {
    epoch: Instant,
    next_id: AtomicU64,
    buffers: Mutex<Vec<ThreadBuffer>>,
}

/// One thread's flushed records.
struct ThreadBuffer {
    worker: usize,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
}

/// A span opened but not yet closed (lives on the thread's span stack).
struct OpenSpan {
    id: u64,
    name: &'static str,
    unit: Option<Arc<str>>,
    start_ns: u64,
    counters: Vec<(&'static str, u64)>,
}

/// The thread-local trace state while a sink is installed.
struct ThreadTrace {
    shared: Arc<SinkShared>,
    worker: usize,
    unit: Option<Arc<str>>,
    stack: Vec<OpenSpan>,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
}

impl ThreadTrace {
    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    /// The one-branch fast path: false ⇒ every instrumentation call
    /// returns immediately.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static THREAD: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

/// Whether a trace sink is installed on the current thread. Callers that
/// would *allocate* to build an event payload should check this first;
/// the instrumentation functions themselves already do.
pub fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// The per-build tracing handle. Created enabled or disabled; cloned
/// checks and installs refer to the same buffer set. A disabled sink
/// makes every operation — install, span, event, finish — a no-op, so
/// instrumented code needs no `if tracing` branches of its own.
pub struct TraceSink {
    shared: Option<Arc<SinkShared>>,
}

impl TraceSink {
    /// A sink that records nothing and costs (almost) nothing.
    pub fn disabled() -> TraceSink {
        TraceSink { shared: None }
    }

    /// A recording sink whose epoch is *now*.
    pub fn enabled() -> TraceSink {
        TraceSink {
            shared: Some(Arc::new(SinkShared {
                epoch: Instant::now(),
                next_id: AtomicU64::new(0),
                buffers: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A sink enabled iff `on` (convenience for option plumbing).
    pub fn new(on: bool) -> TraceSink {
        if on {
            TraceSink::enabled()
        } else {
            TraceSink::disabled()
        }
    }

    /// Whether this sink records.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Attaches the current thread to this sink as `worker`. Until the
    /// returned guard drops, [`span`]/[`event`]/[`add_counter`] on this
    /// thread record into a private buffer; the guard's drop flushes the
    /// buffer into the sink (the only lock acquisition in a worker's
    /// lifetime) and restores whatever trace state the thread had before.
    pub fn install(&self, worker: usize) -> ThreadGuard {
        let Some(shared) = &self.shared else {
            return ThreadGuard { installed: false, prev: None, prev_active: false };
        };
        let fresh = ThreadTrace {
            shared: Arc::clone(shared),
            worker,
            unit: None,
            stack: Vec::new(),
            spans: Vec::new(),
            events: Vec::new(),
        };
        let prev = THREAD.with(|t| t.borrow_mut().replace(fresh));
        let prev_active = ACTIVE.with(|a| a.replace(true));
        ThreadGuard { installed: true, prev, prev_active }
    }

    /// Collects every flushed buffer into a [`BuildTrace`]. Returns
    /// `None` for a disabled sink. Buffers are ordered by worker index,
    /// so the result is deterministic given a deterministic schedule.
    pub fn finish(self) -> Option<BuildTrace> {
        let shared = self.shared?;
        let total_ns = shared.epoch.elapsed().as_nanos() as u64;
        let mut buffers: Vec<ThreadBuffer> =
            shared.buffers.lock().expect("trace sink poisoned").drain(..).collect();
        buffers.sort_by_key(|b| b.worker);
        let mut spans = Vec::new();
        let mut events = Vec::new();
        for buffer in buffers {
            spans.extend(buffer.spans);
            events.extend(buffer.events);
        }
        Some(BuildTrace { spans, events, total_ns })
    }
}

/// Detaches the thread from its sink on drop, flushing its buffer.
pub struct ThreadGuard {
    installed: bool,
    prev: Option<ThreadTrace>,
    prev_active: bool,
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        if !self.installed {
            return;
        }
        let trace = THREAD.with(|t| t.borrow_mut().take());
        if let Some(mut trace) = trace {
            // Close any span the instrumented code leaked (a panic path):
            // better a truncated span than a lost one.
            while let Some(open) = trace.stack.pop() {
                let end_ns = trace.now_ns();
                let parent = trace.stack.last().map(|s| s.id);
                trace.spans.push(SpanRecord {
                    id: open.id,
                    parent,
                    name: open.name,
                    unit: open.unit,
                    worker: trace.worker,
                    start_ns: open.start_ns,
                    end_ns,
                    counters: open.counters,
                });
            }
            trace.shared.buffers.lock().expect("trace sink poisoned").push(ThreadBuffer {
                worker: trace.worker,
                spans: trace.spans,
                events: trace.events,
            });
        }
        THREAD.with(|t| *t.borrow_mut() = self.prev.take());
        ACTIVE.with(|a| a.set(self.prev_active));
    }
}

/// Closes its span on drop. Returned by [`span`]; a no-op when tracing
/// was inactive at open time.
#[must_use = "dropping the guard immediately records an empty span"]
pub struct SpanGuard {
    open: bool,
}

impl SpanGuard {
    /// Attaches a counter payload to this span (must still be the
    /// innermost open span — which it is in straight-line scoped code).
    pub fn counter(&self, name: &'static str, value: u64) {
        if self.open {
            add_counter(name, value);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let Some(trace) = t.as_mut() else { return };
            let Some(open) = trace.stack.pop() else { return };
            let end_ns = trace.now_ns();
            let parent = trace.stack.last().map(|s| s.id);
            let record = SpanRecord {
                id: open.id,
                parent,
                name: open.name,
                unit: open.unit,
                worker: trace.worker,
                start_ns: open.start_ns,
                end_ns,
                counters: open.counters,
            };
            trace.spans.push(record);
        });
    }
}

/// Opens a span named `name` on the current thread; the returned guard
/// closes it. Inactive threads pay one thread-local read.
pub fn span(name: &'static str) -> SpanGuard {
    if !active() {
        return SpanGuard { open: false };
    }
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let Some(trace) = t.as_mut() else { return };
        let id = trace.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = trace.now_ns();
        let unit = trace.unit.clone();
        trace.stack.push(OpenSpan { id, name, unit, start_ns, counters: Vec::new() });
    });
    SpanGuard { open: true }
}

/// Runs `f` under a span named `name`, returning its result plus the
/// measured wall nanoseconds. The measurement is taken whether or not
/// tracing is active, so callers can feed per-phase duration fields (the
/// pipeline's `PhaseNanos`) from the same clock reads the span uses.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let guard = span(name);
    let started = Instant::now();
    let result = f();
    let elapsed = started.elapsed().as_nanos() as u64;
    drop(guard);
    (result, elapsed)
}

/// Records an instantaneous event with counter payloads.
pub fn event(name: &'static str, counters: &[(&'static str, u64)]) {
    if !active() {
        return;
    }
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let Some(trace) = t.as_mut() else { return };
        let record = EventRecord {
            name,
            unit: trace.unit.clone(),
            worker: trace.worker,
            at_ns: trace.now_ns(),
            counters: counters.to_vec(),
        };
        trace.events.push(record);
    });
}

/// [`event`] with an explicit unit label (for events *about* a unit other
/// than the one currently being processed — e.g. the scheduler releasing
/// a dependent).
pub fn event_for(unit: &str, name: &'static str, counters: &[(&'static str, u64)]) {
    if !active() {
        return;
    }
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let Some(trace) = t.as_mut() else { return };
        let record = EventRecord {
            name,
            unit: Some(Arc::from(unit)),
            worker: trace.worker,
            at_ns: trace.now_ns(),
            counters: counters.to_vec(),
        };
        trace.events.push(record);
    });
}

/// Attaches a counter payload to the innermost open span (no-op if none).
pub fn add_counter(name: &'static str, value: u64) {
    if !active() {
        return;
    }
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let Some(trace) = t.as_mut() else { return };
        if let Some(open) = trace.stack.last_mut() {
            open.counters.push((name, value));
        }
    });
}

/// Sets the unit label attached to subsequently opened spans and events
/// on this thread (`None` clears it).
pub fn set_unit(unit: Option<&str>) {
    if !active() {
        return;
    }
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        let Some(trace) = t.as_mut() else { return };
        trace.unit = unit.map(Arc::from);
    });
}

/// Runs `f` with a fresh enabled sink installed on the current thread
/// (worker 0) and returns its result plus the finished trace. The
/// building block for tests and for tracing post-build work (linking,
/// observation) that runs outside a worker pool.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, BuildTrace) {
    let sink = TraceSink::enabled();
    let guard = sink.install(0);
    let result = f();
    drop(guard);
    (result, sink.finish().expect("sink was enabled"))
}

/// Count and total duration of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotal {
    /// Number of spans with the name.
    pub count: u64,
    /// Summed (inclusive) duration in nanoseconds.
    pub total_ns: u64,
}

/// Every span and event one build's sink collected, ordered by worker.
#[derive(Clone, Debug, Default)]
pub struct BuildTrace {
    /// Completed spans (per worker, in close order).
    pub spans: Vec<SpanRecord>,
    /// Instant events (per worker, in emit order).
    pub events: Vec<EventRecord>,
    /// Nanoseconds from the sink's epoch to [`TraceSink::finish`].
    pub total_ns: u64,
}

impl BuildTrace {
    /// The distinct worker indices that recorded anything, ascending.
    pub fn workers(&self) -> Vec<usize> {
        let mut workers: Vec<usize> = self
            .spans
            .iter()
            .map(|s| s.worker)
            .chain(self.events.iter().map(|e| e.worker))
            .collect();
        workers.sort_unstable();
        workers.dedup();
        workers
    }

    /// Last span end minus first span start (0 for an empty trace): the
    /// trace-derived makespan of the build.
    pub fn makespan_ns(&self) -> u64 {
        let start = self.spans.iter().map(|s| s.start_ns).min();
        let end = self.spans.iter().map(|s| s.end_ns).max();
        match (start, end) {
            (Some(start), Some(end)) => end.saturating_sub(start),
            _ => 0,
        }
    }

    /// Per-worker busy time: the summed duration of *top-level* spans
    /// (children are contained in their parents and must not double
    /// count). Ascending by worker index.
    pub fn busy_ns_by_worker(&self) -> Vec<(usize, u64)> {
        let mut busy: Vec<(usize, u64)> = Vec::new();
        for span in self.spans.iter().filter(|s| s.parent.is_none()) {
            match busy.iter_mut().find(|(w, _)| *w == span.worker) {
                Some((_, ns)) => *ns += span.duration_ns(),
                None => busy.push((span.worker, span.duration_ns())),
            }
        }
        busy.sort_unstable_by_key(|(w, _)| *w);
        busy
    }

    /// Count and total inclusive duration per span name, sorted by name.
    pub fn span_totals(&self) -> Vec<(&'static str, SpanTotal)> {
        let mut totals: Vec<(&'static str, SpanTotal)> = Vec::new();
        for span in &self.spans {
            match totals.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, t)) => {
                    t.count += 1;
                    t.total_ns += span.duration_ns();
                }
                None => {
                    totals.push((span.name, SpanTotal { count: 1, total_ns: span.duration_ns() }))
                }
            }
        }
        totals.sort_unstable_by_key(|(n, _)| *n);
        totals
    }

    /// Event counts per name, sorted by name.
    pub fn event_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for event in &self.events {
            match counts.iter_mut().find(|(n, _)| *n == event.name) {
                Some((_, c)) => *c += 1,
                None => counts.push((event.name, 1)),
            }
        }
        counts.sort_unstable_by_key(|(n, _)| *n);
        counts
    }

    /// Counter payload totals summed across spans and events, keyed
    /// `"<span-or-event name>.<counter name>"`, sorted by key.
    pub fn counter_totals(&self) -> Vec<(String, u64)> {
        let mut totals: Vec<(String, u64)> = Vec::new();
        let mut add = |owner: &str, name: &str, value: u64| {
            let key = format!("{owner}.{name}");
            match totals.iter_mut().find(|(k, _)| *k == key) {
                Some((_, v)) => *v += value,
                None => totals.push((key, value)),
            }
        };
        for span in &self.spans {
            for (name, value) in &span.counters {
                add(span.name, name, *value);
            }
        }
        for event in &self.events {
            for (name, value) in &event.counters {
                add(event.name, name, *value);
            }
        }
        totals.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        totals
    }

    /// Spans with the given name, in recorded order.
    pub fn spans_named<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a SpanRecord> {
        let name = name.to_owned();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// A timestamp-free structural fingerprint: one line per span (sorted
    /// by worker, then open order) and per event (emit order per worker),
    /// carrying worker, name, nesting depth, unit, and counter *names*.
    /// Two builds with the same deterministic schedule produce the same
    /// structure even though every timestamp differs — this is what the
    /// 1-worker determinism test compares.
    pub fn structure(&self) -> Vec<String> {
        let mut spans: Vec<&SpanRecord> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.worker, s.id));
        let depth_of = |span: &SpanRecord| {
            let mut depth = 0usize;
            let mut parent = span.parent;
            while let Some(p) = parent {
                depth += 1;
                parent = self.spans.iter().find(|s| s.id == p).and_then(|s| s.parent);
            }
            depth
        };
        let mut lines = Vec::with_capacity(spans.len() + self.events.len());
        for span in spans {
            let counters: Vec<&str> = span.counters.iter().map(|(n, _)| *n).collect();
            lines.push(format!(
                "span w{} d{} {} unit={} counters={}",
                span.worker,
                depth_of(span),
                span.name,
                span.unit.as_deref().unwrap_or("-"),
                counters.join(","),
            ));
        }
        for event in &self.events {
            lines.push(format!(
                "event w{} {} unit={}",
                event.worker,
                event.name,
                event.unit.as_deref().unwrap_or("-"),
            ));
        }
        lines
    }

    /// Appends another trace's records (e.g. a [`capture`]d post-build
    /// link phase). The other trace's timestamps keep their own epoch —
    /// tracks remain readable per worker, but cross-trace time
    /// comparisons are not meaningful.
    pub fn merged(mut self, other: BuildTrace) -> BuildTrace {
        self.spans.extend(other.spans);
        self.events.extend(other.events);
        self.total_ns = self.total_ns.max(other.total_ns);
        self
    }

    /// Exports the trace in the Chrome trace-event JSON format: an object
    /// with a `traceEvents` array of complete (`"ph":"X"`) and instant
    /// (`"ph":"i"`) events, one `tid` (track) per worker, timestamps in
    /// microseconds. Loadable in `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + 160 * (self.spans.len() + self.events.len()));
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        for worker in self.workers() {
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{worker},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"worker {worker}\"}}}}"
            );
        }
        let mut spans: Vec<&SpanRecord> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.worker, s.id));
        for span in spans {
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":\"build\",\
                 \"ts\":{},\"dur\":{}",
                span.worker,
                json_string(span.name),
                micros(span.start_ns),
                micros(span.duration_ns()),
            );
            out.push_str(",\"args\":{");
            let _ = write!(out, "\"id\":{}", span.id);
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            if let Some(unit) = &span.unit {
                let _ = write!(out, ",\"unit\":{}", json_string(unit));
            }
            for (name, value) in &span.counters {
                let _ = write!(out, ",{}:{}", json_string(name), value);
            }
            out.push_str("}}");
        }
        for event in &self.events {
            push_sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"name\":{},\
                 \"cat\":\"build\",\"ts\":{}",
                event.worker,
                json_string(event.name),
                micros(event.at_ns),
            );
            out.push_str(",\"args\":{");
            let mut first_arg = true;
            if let Some(unit) = &event.unit {
                let _ = write!(out, "\"unit\":{}", json_string(unit));
                first_arg = false;
            }
            for (name, value) in &event.counters {
                if !first_arg {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(name), value);
                first_arg = false;
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Writes the element separator for a hand-rendered JSON array.
fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

/// Nanoseconds rendered as fractional microseconds (Chrome's unit).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing_and_installs_nothing() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        {
            let _guard = sink.install(0);
            assert!(!active());
            let _span = span("ignored");
            event("ignored", &[("n", 1)]);
            add_counter("n", 1);
            set_unit(Some("u"));
        }
        assert!(sink.finish().is_none());
    }

    #[test]
    fn spans_nest_and_record_parents_units_and_counters() {
        let ((), trace) = capture(|| {
            set_unit(Some("alpha"));
            let outer = span("outer");
            outer.counter("outer_n", 7);
            {
                let _inner = span("inner");
                add_counter("inner_n", 9);
            }
            drop(outer);
            set_unit(None);
            let _bare = span("bare");
        });
        assert_eq!(trace.spans.len(), 3);
        // Close order: inner, outer, bare.
        let inner = &trace.spans[0];
        let outer = &trace.spans[1];
        let bare = &trace.spans[2];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.unit.as_deref(), Some("alpha"));
        assert_eq!(inner.counters, vec![("inner_n", 9)]);
        assert_eq!(outer.parent, None);
        assert_eq!(outer.counters, vec![("outer_n", 7)]);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(bare.unit, None);
        assert_eq!(bare.parent, None);
    }

    #[test]
    fn ids_are_unique_across_threads_and_buffers_merge_by_worker() {
        let sink = TraceSink::enabled();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let sink = &sink;
                scope.spawn(move || {
                    let _guard = sink.install(worker);
                    for _ in 0..25 {
                        let _span = span("work");
                    }
                    event("done", &[]);
                });
            }
        });
        let trace = sink.finish().expect("enabled");
        assert_eq!(trace.spans.len(), 100);
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.workers(), vec![0, 1, 2, 3]);
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 100, "span ids must be unique across workers");
        // Buffers are ordered by worker id.
        let workers: Vec<usize> = trace.spans.iter().map(|s| s.worker).collect();
        let mut sorted = workers.clone();
        sorted.sort_unstable();
        assert_eq!(workers, sorted);
    }

    #[test]
    fn timed_returns_result_and_duration_even_untraced() {
        let (value, ns) = timed("untraced", || 6 * 7);
        assert_eq!(value, 42);
        // The measurement happened (it may legitimately be 0ns-rounded,
        // but the call must not panic and must return the closure value).
        let _ = ns;
    }

    #[test]
    fn aggregations_totals_and_structure() {
        let ((), trace) = capture(|| {
            set_unit(Some("m"));
            for _ in 0..3 {
                let s = span("phase_a");
                s.counter("bytes", 10);
            }
            let _b = span("phase_b");
            event("hit", &[("tier", 1)]);
            event("hit", &[("tier", 1)]);
        });
        let totals = trace.span_totals();
        let a = totals.iter().find(|(n, _)| *n == "phase_a").expect("phase_a");
        assert_eq!(a.1.count, 3);
        let counts = trace.event_counts();
        assert_eq!(counts, vec![("hit", 2)]);
        let counters = trace.counter_totals();
        assert!(counters.contains(&("phase_a.bytes".to_owned(), 30)));
        assert!(counters.contains(&("hit.tier".to_owned(), 2)));
        let structure = trace.structure();
        assert_eq!(structure.len(), trace.spans.len() + trace.events.len());
        assert!(structure[0].starts_with("span w0"));
    }

    #[test]
    fn busy_time_counts_only_top_level_spans() {
        let ((), trace) = capture(|| {
            let _outer = span("outer");
            let _inner = span("inner");
        });
        let busy = trace.busy_ns_by_worker();
        assert_eq!(busy.len(), 1);
        let outer = trace.spans_named("outer").next().expect("outer span");
        assert_eq!(busy[0], (0, outer.duration_ns()));
        assert!(trace.makespan_ns() >= outer.duration_ns());
    }

    #[test]
    fn chrome_json_has_one_track_per_worker_and_escapes() {
        let ((), trace) = capture(|| {
            set_unit(Some("evil \"unit\"\\name"));
            let _span = span("phase");
            event("hit", &[("tier", 0)]);
        });
        let json = trace.to_chrome_json();
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"worker 0\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("evil \\\"unit\\\"\\\\name"));
        assert_eq!(json.matches("thread_name").count(), 1);
    }

    #[test]
    fn install_restores_previous_state_and_capture_nests() {
        let (((), inner_trace), outer_trace) = capture(|| {
            let _outer_span = span("outer");
            let nested = capture(|| {
                let _inner_span = span("inner");
            });
            // Back on the outer sink after the nested capture.
            let _after = span("after");
            nested
        });
        let outer_names: Vec<&str> = outer_trace.spans.iter().map(|s| s.name).collect();
        assert!(outer_names.contains(&"outer"));
        assert!(outer_names.contains(&"after"));
        assert!(!outer_names.contains(&"inner"));
        assert_eq!(inner_trace.spans.len(), 1);
        assert_eq!(inner_trace.spans[0].name, "inner");
    }

    #[test]
    fn merged_concatenates_records() {
        let ((), a) = capture(|| {
            let _s = span("a");
        });
        let ((), b) = capture(|| {
            let _s = span("b");
        });
        let merged = a.merged(b);
        assert_eq!(merged.spans.len(), 2);
    }
}
