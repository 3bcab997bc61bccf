//! # jroute-obs — a hermetic tracing/metrics layer for the router stack
//!
//! The paper's §3.5 debug support (`trace`/`reverseTrace`, BoardScope) is
//! about *seeing* what the run-time router did to the device; this crate
//! is the same idea applied to the router's own internals. It provides:
//!
//! * [`Recorder`] — a cloneable handle that is either **disabled** (every
//!   operation is a branch on a `None` and nothing else — no clock reads,
//!   no allocation, no locking) or **enabled** (an `Arc`-shared collector
//!   guarded by a mutex, safe to use from `std::thread::scope` workers);
//! * [`Span`] — an RAII guard measuring one operation with monotonic
//!   timing; spans nest per thread, so the finished records form a tree
//!   (`route` → `maze.search` → …) that [`Report::span_tree`] renders;
//! * typed counters and log2-bucketed [`Histogram`]s with p50/p90/p99
//!   summaries ([`hist`]);
//! * a human-readable [`Report`] table and a hand-rolled JSON exporter
//!   ([`json`]) writing `target/obs-json/OBS_<run>.json` in the same
//!   style as the `harness::bench` reports.
//!
//! The crate is zero-dependency and `forbid(unsafe_code)`, matching the
//! workspace's hermetic-build policy.
//!
//! ```
//! use jroute_obs::Recorder;
//!
//! let rec = Recorder::enabled();
//! {
//!     let mut outer = rec.span("request");
//!     let _inner = rec.span("lookup");
//!     rec.counter("cache.miss").inc();
//!     rec.histogram("payload.bytes").record(512);
//!     outer.note(1); // arbitrary payload, e.g. items handled
//! }
//! let report = rec.report();
//! assert_eq!(report.counter("cache.miss"), Some(1));
//! assert_eq!(report.span_count("lookup"), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export_chrome;
pub mod hist;
pub mod json;
pub mod registry;
pub mod report;
pub mod rotate;
pub mod tracectx;
pub mod window;

pub use export_chrome::{chrome_trace_json, write_chrome_trace};
pub use hist::Histogram;
pub use registry::{labeled, prometheus_text, Counter, Gauge, Histo};
pub use report::{HistRow, Report, SpanStat};
pub use rotate::RotatingFileSink;
pub use tracectx::TraceCtx;
pub use window::{Aggregator, Sample};

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// Raw-span retention cap: beyond this the tree view saturates (aggregate
/// per-name statistics keep counting) and `spans_dropped` records how
/// many records were shed. Bounds memory on long bench runs.
pub const MAX_SPANS: usize = 16_384;

/// Event retention cap, same policy as [`MAX_SPANS`].
pub const MAX_EVENTS: usize = 16_384;

/// Environment variable consulted by [`Recorder::from_env`].
pub const OBS_ENV: &str = "JROUTE_OBS";

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Static span name, e.g. `"router.route"`.
    pub name: &'static str,
    /// Discriminates recording threads (dense ids in creation order).
    pub thread: u64,
    /// Nesting depth within the recording thread at start time.
    pub depth: u16,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Caller-supplied payload (see [`Span::note`]); 0 by default.
    pub note: u64,
    /// Unique id of this span within its recorder (never 0).
    pub span_id: u64,
    /// Id of the causal parent span; 0 = root (no parent).
    pub parent: u64,
    /// Trace (causal tree) this span belongs to; 0 = untraced.
    pub trace: u64,
}

/// One point-in-time event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Static event name, e.g. `"pathfinder.overused"`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub at_ns: u64,
    /// Event value (an iteration's congestion count, a worker id, …).
    pub value: u64,
}

#[derive(Default)]
struct Collector {
    span_stats: BTreeMap<&'static str, SpanStat>,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    spans_dropped: u64,
    events_dropped: u64,
    /// Streaming destination for raw spans: when set, a full span buffer
    /// is flushed through it as a JSON chunk instead of shedding.
    sink: Option<Box<dyn std::io::Write + Send>>,
    /// Raw span records already streamed out (they are no longer in
    /// `spans` but were observed and exported).
    spans_flushed: u64,
    /// Chunks written so far (also the next chunk's sequence number);
    /// reported as `obs.span_chunks`.
    chunk_seq: u64,
    /// Sink writes that failed; reported as `obs.span_sink_errors`.
    sink_errors: u64,
}

impl Collector {
    /// Stream the buffered raw spans through the sink as one JSON chunk.
    /// Returns `true` only when the whole chunk (write **and** flush)
    /// succeeded; any error — including a partial write that dies midway
    /// through the chunk — returns `false`, leaves the span buffer
    /// intact (those spans were *not* exported; the next report still
    /// holds them), and permanently reverts the recorder to shedding,
    /// counted under `obs.span_sink_errors`. Spans are never lost
    /// silently either way.
    fn flush_spans(&mut self, epoch_unix_nanos: u64) -> bool {
        if self.spans.is_empty() {
            return false;
        }
        let Some(sink) = self.sink.as_mut() else {
            return false;
        };
        let chunk = json::span_chunk_json(self.chunk_seq, epoch_unix_nanos, &self.spans);
        match sink.write_all(chunk.as_bytes()).and_then(|()| sink.flush()) {
            Ok(()) => {
                self.chunk_seq += 1;
                self.spans_flushed += self.spans.len() as u64;
                self.spans.clear();
                true
            }
            Err(_) => {
                // The file may now hold a torn line; dropping the sink
                // guarantees nothing is appended after it, so everything
                // up to the last complete line stays parseable.
                self.sink = None;
                self.sink_errors += 1;
                false
            }
        }
    }
}

struct Shared {
    epoch: Instant,
    /// Wall-clock time of `epoch` as nanoseconds since the Unix epoch,
    /// captured once at recorder creation so separate processes/replays
    /// can time-align their monotonic span timestamps.
    epoch_unix_nanos: u64,
    /// Span-id allocator; ids start at 1 (0 means "no span").
    next_span: AtomicU64,
    /// Trace-id allocator; ids start at 1 (0 means "untraced").
    next_trace: AtomicU64,
    /// Typed metric registry (see [`registry`]).
    registry: registry::Registry,
    state: Mutex<Collector>,
}

thread_local! {
    static DEPTH: Cell<u16> = const { Cell::new(0) };
    static THREAD_ID: Cell<u64> = const { Cell::new(u64::MAX) };
    /// Ambient causal position of the current thread: `(trace_id,
    /// span_id)` of the innermost live span. New ambient spans parent
    /// under it; span guards save and restore it LIFO.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

pub(crate) fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        if id.get() == u64::MAX {
            id.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// Handle to the observability collector. Cloning is cheap (an `Arc`
/// clone when enabled, a copy of `None` when disabled) and all clones
/// feed the same collector, which is how `std::thread::scope` workers
/// report into the run's aggregate.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Recorder({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Recorder {
    /// A recorder on which every operation is a no-op. This is the
    /// default state: hot router paths pay one `Option` branch and
    /// nothing else (verified by the E2 bench-regression gate).
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// A live recorder with a fresh collector.
    pub fn enabled() -> Self {
        let epoch_unix_nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0);
        Recorder {
            inner: Some(Arc::new(Shared {
                epoch: Instant::now(),
                epoch_unix_nanos,
                next_span: AtomicU64::new(1),
                next_trace: AtomicU64::new(1),
                registry: registry::Registry::default(),
                state: Mutex::new(Collector::default()),
            })),
        }
    }

    /// Enabled iff `JROUTE_OBS` is set to `1`, `true`, `on` or `yes`.
    pub fn from_env() -> Self {
        match std::env::var(OBS_ENV) {
            Ok(v) if matches!(v.trim(), "1" | "true" | "on" | "yes") => Self::enabled(),
            _ => Self::disabled(),
        }
    }

    /// Whether this recorder collects anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a span that inherits its causal position ambiently: it
    /// joins the trace of the innermost live span on this thread and
    /// parents under it (untraced root if there is none). Disabled
    /// recorders return an inert guard without reading the clock.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        match &self.inner {
            None => Span { live: None },
            Some(shared) => {
                let (trace, parent) = CURRENT.with(|c| c.get());
                Self::open(shared, name, trace, parent)
            }
        }
    }

    /// Start a span that begins a **new trace**: a fresh `trace_id` is
    /// allocated and the span has no parent, regardless of what is live
    /// on this thread. The svc layer opens one of these per request and
    /// per batch; everything nested under it — on any thread, via
    /// [`Recorder::span_ctx`] — links back to it.
    #[inline]
    pub fn span_root(&self, name: &'static str) -> Span {
        match &self.inner {
            None => Span { live: None },
            Some(shared) => {
                let trace = shared.next_trace.fetch_add(1, Ordering::Relaxed);
                Self::open(shared, name, trace, 0)
            }
        }
    }

    /// Start a span at an **explicit causal position**, ignoring the
    /// thread-ambient one: the cross-thread boundary primitive. Pass the
    /// [`TraceCtx`] captured from the originating span (see
    /// [`Span::ctx`]) when a work item is executed by a different thread
    /// than the one that created it — a stolen deque entry, a parked
    /// retry, a `Replace` chain-transfer. Spans nested inside the guard
    /// on this thread then inherit the restored position ambiently.
    #[inline]
    pub fn span_ctx(&self, name: &'static str, ctx: TraceCtx) -> Span {
        match &self.inner {
            None => Span { live: None },
            Some(shared) => Self::open(shared, name, ctx.trace_id, ctx.parent_span_id),
        }
    }

    fn open(shared: &Arc<Shared>, name: &'static str, trace: u64, parent: u64) -> Span {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v.saturating_add(1));
            v
        });
        let span_id = shared.next_span.fetch_add(1, Ordering::Relaxed);
        let saved = CURRENT.with(|c| c.replace((trace, span_id)));
        Span {
            live: Some(SpanLive {
                shared: Arc::clone(shared),
                name,
                thread: thread_id(),
                depth,
                start: Instant::now(),
                note: 0,
                span_id,
                parent,
                trace,
                saved,
            }),
        }
    }

    /// Resolve a typed sharded [`Counter`] handle (see [`registry`]).
    /// Resolution takes a lock; recording through the handle never does.
    /// Disabled recorders hand out inert handles. Names may be composed
    /// at run time (see [`labeled`] for per-tenant families).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::disabled(),
            Some(shared) => shared.registry.counter(name),
        }
    }

    /// Resolve a typed [`Gauge`] handle (see [`registry`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::disabled(),
            Some(shared) => shared.registry.gauge(name),
        }
    }

    /// Resolve a typed sharded [`Histo`] handle (see [`registry`]).
    pub fn histogram(&self, name: &str) -> Histo {
        match &self.inner {
            None => Histo::disabled(),
            Some(shared) => shared.registry.histogram(name),
        }
    }

    /// A stable identity for this recorder's collector (0 when
    /// disabled). Callers that cache resolved registry handles key the
    /// cache on this, so a scratch structure reused across recorders
    /// re-resolves instead of feeding the wrong collector.
    #[inline]
    pub fn id(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(shared) => Arc::as_ptr(shared) as usize,
        }
    }

    /// Monotonic nanoseconds since this recorder was created (0 when
    /// disabled) — the timebase of every span/event timestamp.
    pub fn elapsed_ns(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(shared) => shared.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        }
    }

    /// Wall-clock time of this recorder's epoch, as nanoseconds since
    /// the Unix epoch (0 when disabled). Exported in every JSON/JSONL
    /// header so traces from separate processes can be time-aligned.
    pub fn epoch_unix_nanos(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(shared) => shared.epoch_unix_nanos,
        }
    }

    /// Record a point-in-time event with a value.
    #[inline]
    pub fn event(&self, name: &'static str, value: u64) {
        if let Some(shared) = &self.inner {
            let at_ns = shared.epoch.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let mut st = shared.state.lock().unwrap();
            if st.events.len() < MAX_EVENTS {
                st.events.push(EventRecord { name, at_ns, value });
            } else {
                st.events_dropped += 1;
            }
        }
    }

    /// Snapshot everything collected so far into a [`Report`]. The
    /// collector keeps accumulating; call [`Recorder::reset`] to start a
    /// fresh window.
    pub fn report(&self) -> Report {
        match &self.inner {
            None => Report::default(),
            Some(shared) => {
                let st = shared.state.lock().unwrap();
                let (mut counters, hists) = shared.registry.snapshot();
                // The collector's own health counters.
                for (name, v) in [
                    ("obs.span_chunks", st.chunk_seq),
                    ("obs.span_sink_errors", st.sink_errors),
                    ("obs.spans_shed", st.spans_dropped),
                ] {
                    if v != 0 {
                        counters.push((name.to_string(), v));
                    }
                }
                counters.sort();
                Report {
                    enabled: true,
                    epoch_unix_nanos: shared.epoch_unix_nanos,
                    counters,
                    hists,
                    span_stats: st
                        .span_stats
                        .iter()
                        .map(|(k, s)| (k.to_string(), s.clone()))
                        .collect(),
                    spans: st.spans.clone(),
                    events: st.events.clone(),
                    spans_dropped: st.spans_dropped,
                    events_dropped: st.events_dropped,
                    spans_flushed: st.spans_flushed,
                }
            }
        }
    }

    /// Drop everything collected so far (the epoch is retained, so
    /// timestamps stay monotonic across windows). The span sink, if any,
    /// is dropped with the rest of the state. Registry *values* are
    /// zeroed but registrations survive, so handles already resolved by
    /// callers keep feeding this recorder.
    pub fn reset(&self) {
        if let Some(shared) = &self.inner {
            *shared.state.lock().unwrap() = Collector::default();
            shared.registry.reset_values();
        }
    }

    /// Install a streaming destination for raw spans. When the raw-span
    /// buffer reaches [`MAX_SPANS`], the recorder flushes the buffer
    /// through the sink as one JSON chunk (see
    /// [`json::span_chunk_json`]) and keeps recording, instead of
    /// shedding records. Without a sink the old behaviour stands:
    /// overflow sheds and `obs.spans_shed` counts it. The write happens
    /// under the collector lock, so hand the recorder a cheap sink (a
    /// buffered file, a byte vector) rather than a blocking socket.
    ///
    /// No-op on a disabled recorder.
    pub fn set_span_sink(&self, sink: impl std::io::Write + Send + 'static) {
        if let Some(shared) = &self.inner {
            shared.state.lock().unwrap().sink = Some(Box::new(sink));
        }
    }

    /// Flush any buffered raw spans through the installed sink now (the
    /// final partial chunk of a run). Returns `true` only if the whole
    /// chunk was written and flushed; `false` without a sink, on an
    /// empty buffer, on a disabled recorder, or on any write error
    /// (including partial writes — see `Collector::flush_spans`).
    pub fn flush_spans(&self) -> bool {
        match &self.inner {
            None => false,
            Some(shared) => shared
                .state
                .lock()
                .unwrap()
                .flush_spans(shared.epoch_unix_nanos),
        }
    }
}

struct SpanLive {
    shared: Arc<Shared>,
    name: &'static str,
    thread: u64,
    depth: u16,
    start: Instant,
    note: u64,
    span_id: u64,
    parent: u64,
    trace: u64,
    /// Thread-ambient `(trace, span)` to restore on drop.
    saved: (u64, u64),
}

/// RAII span guard returned by [`Recorder::span`]. Dropping it records
/// the span; an inert guard (disabled recorder) does nothing.
pub struct Span {
    live: Option<SpanLive>,
}

impl Span {
    /// Attach a payload to the span record (items routed, segments
    /// visited, worker index, …). Last call wins.
    #[inline]
    pub fn note(&mut self, value: u64) {
        if let Some(live) = &mut self.live {
            live.note = value;
        }
    }

    /// Whether this guard is actually recording.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.live.is_some()
    }

    /// Capture this span's causal identity for hand-off to another
    /// thread or queue: work opened with
    /// [`Recorder::span_ctx`](crate::Recorder::span_ctx) on the returned
    /// context becomes this span's child in the same trace, wherever it
    /// runs. Inert guards return [`TraceCtx::NONE`].
    #[inline]
    pub fn ctx(&self) -> TraceCtx {
        match &self.live {
            None => TraceCtx::NONE,
            Some(live) => TraceCtx {
                trace_id: live.trace,
                parent_span_id: live.span_id,
            },
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let dur = live.start.elapsed();
        DEPTH.with(|d| d.set(live.depth));
        CURRENT.with(|c| c.set(live.saved));
        let rec = SpanRecord {
            name: live.name,
            thread: live.thread,
            depth: live.depth,
            start_ns: live
                .start
                .duration_since(live.shared.epoch)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64,
            dur_ns: dur.as_nanos().min(u128::from(u64::MAX)) as u64,
            note: live.note,
            span_id: live.span_id,
            parent: live.parent,
            trace: live.trace,
        };
        let epoch_unix_nanos = live.shared.epoch_unix_nanos;
        let mut st = live.shared.state.lock().unwrap();
        let stat = st.span_stats.entry(live.name).or_default();
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(rec.dur_ns);
        stat.max_ns = stat.max_ns.max(rec.dur_ns);
        if st.spans.len() >= MAX_SPANS {
            // Prefer streaming a chunk out over shedding; flush_spans
            // makes room unless there is no (working) sink.
            st.flush_spans(epoch_unix_nanos);
        }
        if st.spans.len() < MAX_SPANS {
            st.spans.push(rec);
        } else {
            // Shed loudly: the counter surfaces in every report and the
            // JSON export flags the run as truncated.
            st.spans_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let mut s = rec.span("noop");
            assert!(!s.is_recording());
            s.note(7);
        }
        rec.counter("c").add(3);
        rec.histogram("h").record(9);
        rec.event("e", 1);
        let rep = rec.report();
        assert!(!rep.enabled);
        assert!(rep.counters.is_empty() && rep.spans.is_empty() && rep.events.is_empty());
    }

    #[test]
    fn counters_histograms_events_accumulate() {
        let rec = Recorder::enabled();
        rec.counter("pips").add(2);
        rec.counter("pips").add(3);
        rec.histogram("lat_ns").record(100);
        rec.histogram("lat_ns").record(200);
        rec.event("iter", 42);
        let rep = rec.report();
        assert_eq!(rep.counter("pips"), Some(5));
        let h = rep.hist("lat_ns").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(rep.events.len(), 1);
        assert_eq!(rep.events[0].value, 42);
    }

    #[test]
    fn spans_nest_per_thread() {
        let rec = Recorder::enabled();
        {
            let _a = rec.span("outer");
            {
                let mut b = rec.span("inner");
                b.note(11);
            }
            let _c = rec.span("sibling");
        }
        let rep = rec.report();
        let inner = rep.spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = rep.spans.iter().find(|s| s.name == "outer").unwrap();
        let sibling = rep.spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(sibling.depth, 1);
        assert_eq!(inner.note, 11);
        assert!(outer.dur_ns >= inner.dur_ns);
        // Depth unwound fully.
        DEPTH.with(|d| assert_eq!(d.get(), 0));
    }

    #[test]
    fn ambient_spans_inherit_trace_and_parent() {
        let rec = Recorder::enabled();
        {
            let root = rec.span_root("request");
            let root_ctx = root.ctx();
            assert!(root_ctx.trace_id != 0 && root_ctx.parent_span_id != 0);
            {
                let child = rec.span("inner");
                let grand = rec.span("leaf");
                assert_eq!(child.ctx().trace_id, root_ctx.trace_id);
                assert_eq!(grand.ctx().trace_id, root_ctx.trace_id);
            }
            let sibling = rec.span("sibling");
            assert_eq!(sibling.ctx().trace_id, root_ctx.trace_id);
        }
        // With the root closed, new spans are untraced roots again.
        let after = rec.span("after");
        assert_eq!(after.ctx().trace_id, 0);
        drop(after);
        let rep = rec.report();
        let by_name = |n: &str| rep.spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("request");
        let inner = by_name("inner");
        let leaf = by_name("leaf");
        let sibling = by_name("sibling");
        assert_eq!(root.parent, 0);
        assert_eq!(inner.parent, root.span_id);
        assert_eq!(leaf.parent, inner.span_id);
        assert_eq!(
            sibling.parent, root.span_id,
            "ambient position restored LIFO"
        );
        for s in [root, inner, leaf, sibling] {
            assert_eq!(s.trace, root.trace);
            assert!(s.span_id != 0);
        }
        assert_eq!(by_name("after").trace, 0);
        CURRENT.with(|c| assert_eq!(c.get(), (0, 0), "ambient state fully unwound"));
    }

    #[test]
    fn span_ctx_links_across_threads() {
        let rec = Recorder::enabled();
        let ctx = {
            let root = rec.span_root("submit");
            root.ctx()
        };
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let rec = rec.clone();
                scope.spawn(move || {
                    let _exec = rec.span_ctx("exec", ctx);
                    let _nested = rec.span("nested"); // ambient under exec
                });
            }
        });
        let rep = rec.report();
        let root = rep.spans.iter().find(|s| s.name == "submit").unwrap();
        for exec in rep.spans.iter().filter(|s| s.name == "exec") {
            assert_eq!(exec.trace, root.trace);
            assert_eq!(exec.parent, root.span_id);
            assert_ne!(exec.thread, root.thread, "executed on a worker thread");
            let nested = rep
                .spans
                .iter()
                .find(|s| s.name == "nested" && s.thread == exec.thread)
                .unwrap();
            assert_eq!(nested.trace, root.trace);
            assert_eq!(nested.parent, exec.span_id);
        }
    }

    #[test]
    fn distinct_roots_get_distinct_traces() {
        let rec = Recorder::enabled();
        let a = rec.span_root("a").ctx();
        let b = rec.span_root("b").ctx();
        assert_ne!(a.trace_id, b.trace_id);
        assert!(TraceCtx::NONE.is_none() && !a.is_none());
    }

    #[test]
    fn scoped_threads_report_into_one_aggregate() {
        let rec = Recorder::enabled();
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let rec = rec.clone();
                scope.spawn(move || {
                    let mut s = rec.span("worker");
                    s.note(w);
                    rec.counter("work").inc();
                });
            }
        });
        let rep = rec.report();
        assert_eq!(rep.counter("work"), Some(4));
        assert_eq!(rep.span_count("worker"), 4);
        let threads: std::collections::HashSet<u64> = rep.spans.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 4, "each worker gets its own thread id");
    }

    #[test]
    fn span_cap_sheds_raw_records_but_keeps_stats() {
        let rec = Recorder::enabled();
        for _ in 0..(MAX_SPANS + 10) {
            let _s = rec.span("tick");
        }
        let rep = rec.report();
        assert_eq!(rep.spans.len(), MAX_SPANS);
        assert_eq!(rep.spans_dropped, 10);
        assert_eq!(rep.span_count("tick"), (MAX_SPANS + 10) as u64);
        // Shedding is not silent: it shows up as a counter too.
        assert_eq!(rep.counter("obs.spans_shed"), Some(10));
    }

    /// A `Write` sink tests can inspect after the recorder is done with it.
    #[derive(Clone, Default)]
    struct VecSink(std::sync::Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for VecSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Always-failing sink, for the error-reversion path.
    struct BrokenSink;

    impl std::io::Write for BrokenSink {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("sink closed"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn span_sink_flushes_chunks_instead_of_shedding() {
        let rec = Recorder::enabled();
        let sink = VecSink::default();
        rec.set_span_sink(sink.clone());
        for _ in 0..(MAX_SPANS + 10) {
            let _s = rec.span("tick");
        }
        let rep = rec.report();
        // The overflow streamed out as a chunk; nothing was shed.
        assert_eq!(rep.spans_dropped, 0);
        assert_eq!(rep.counter("obs.spans_shed"), None);
        assert_eq!(rep.counter("obs.span_chunks"), Some(1));
        assert_eq!(rep.spans_flushed, MAX_SPANS as u64);
        assert_eq!(rep.spans.len(), 10);
        assert_eq!(rep.span_count("tick"), (MAX_SPANS + 10) as u64);

        // An explicit flush drains the partial tail as a second chunk.
        assert!(rec.flush_spans());
        let rep = rec.report();
        assert_eq!(rep.spans.len(), 0);
        assert_eq!(rep.spans_flushed, (MAX_SPANS + 10) as u64);
        assert_eq!(rep.counter("obs.span_chunks"), Some(2));

        // Each chunk is one parseable JSON line with sequential ids.
        let bytes = sink.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (i, line) in lines.iter().enumerate() {
            let v = json::parse(line).expect("chunk parses");
            assert_eq!(v.get("chunk").and_then(|c| c.as_f64()), Some(i as f64));
            let spans = v.get("spans").and_then(|s| s.as_arr()).unwrap();
            assert_eq!(spans.len(), if i == 0 { MAX_SPANS } else { 10 });
            assert_eq!(spans[0].get("name").and_then(|n| n.as_str()), Some("tick"));
        }
    }

    #[test]
    fn broken_span_sink_reverts_to_shedding() {
        let rec = Recorder::enabled();
        rec.set_span_sink(BrokenSink);
        for _ in 0..(MAX_SPANS + 10) {
            let _s = rec.span("tick");
        }
        let rep = rec.report();
        assert_eq!(rep.counter("obs.span_sink_errors"), Some(1));
        assert_eq!(rep.spans_flushed, 0);
        assert_eq!(rep.spans_dropped, 10);
        assert_eq!(rep.counter("obs.spans_shed"), Some(10));
        // The sink is gone; an explicit flush is a no-op.
        assert!(!rec.flush_spans());
    }

    /// A sink that accepts a few bytes and then dies mid-chunk — the
    /// partial-write case: `write_all` makes progress, then errors.
    struct PartialSink {
        budget: usize,
    }

    impl std::io::Write for PartialSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("disk full"));
            }
            let n = buf.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A sink whose writes succeed but whose final `flush` fails — the
    /// other half of the partial-write asymmetry.
    struct FlushFailSink;

    impl std::io::Write for FlushFailSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("flush failed"))
        }
    }

    #[test]
    fn partial_write_reports_failure_not_success() {
        let rec = Recorder::enabled();
        rec.set_span_sink(PartialSink { budget: 10 });
        {
            let _s = rec.span("tick");
        }
        assert!(
            !rec.flush_spans(),
            "a chunk that only partially reached the sink must not count as flushed"
        );
        let rep = rec.report();
        assert_eq!(rep.counter("obs.span_sink_errors"), Some(1));
        assert_eq!(rep.spans_flushed, 0);
        assert_eq!(rep.spans.len(), 1, "the un-exported span is retained");
        // The sink is gone; a second flush is a plain no-op and must not
        // double-count the error.
        assert!(!rec.flush_spans());
        assert_eq!(rec.report().counter("obs.span_sink_errors"), Some(1));
    }

    #[test]
    fn failed_flush_after_successful_write_reports_failure() {
        let rec = Recorder::enabled();
        rec.set_span_sink(FlushFailSink);
        {
            let _s = rec.span("tick");
        }
        assert!(
            !rec.flush_spans(),
            "write ok + flush error is still a failure"
        );
        let rep = rec.report();
        assert_eq!(rep.counter("obs.span_sink_errors"), Some(1));
        assert_eq!(rep.spans_flushed, 0);
        assert_eq!(rep.spans.len(), 1);
    }

    #[test]
    fn enabled_recorder_stamps_a_wall_clock_epoch() {
        let rec = Recorder::enabled();
        assert!(rec.epoch_unix_nanos() > 0);
        assert_eq!(Recorder::disabled().epoch_unix_nanos(), 0);
        assert_eq!(rec.report().epoch_unix_nanos, rec.epoch_unix_nanos());
    }

    #[test]
    fn flush_spans_without_sink_is_a_noop() {
        let rec = Recorder::enabled();
        let _s = rec.span("tick");
        drop(_s);
        assert!(!rec.flush_spans());
        assert_eq!(rec.report().spans.len(), 1);
    }

    #[test]
    fn reset_clears_but_keeps_recording() {
        let rec = Recorder::enabled();
        rec.counter("a").inc();
        rec.reset();
        rec.counter("b").add(2);
        let rep = rec.report();
        assert_eq!(rep.counter("a"), None);
        assert_eq!(rep.counter("b"), Some(2));
    }

    #[test]
    fn from_env_respects_flag_values() {
        // Sequential within one test to avoid env races with other tests.
        std::env::set_var(OBS_ENV, "1");
        assert!(Recorder::from_env().is_enabled());
        std::env::set_var(OBS_ENV, "0");
        assert!(!Recorder::from_env().is_enabled());
        std::env::remove_var(OBS_ENV);
        assert!(!Recorder::from_env().is_enabled());
    }
}
