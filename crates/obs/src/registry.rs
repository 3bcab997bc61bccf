//! Lock-free sharded metrics registry with typed handles — the one way
//! counters and histograms are recorded.
//!
//! A mutex plus a string lookup per increment is measurable on the maze
//! inner loop, where a single search bumps four counters per expanded
//! node. The registry avoids both with **pre-registered typed
//! handles**:
//!
//! * [`Counter`] — a monotone sum, sharded over [`SHARDS`] cache-line-
//!   padded atomics indexed by the recording thread, folded on read;
//! * [`Gauge`] — a single atomic level (queue depth, live nets);
//! * [`Histo`] — a log2 histogram with per-shard atomic buckets, folded
//!   into a [`Histogram`] snapshot on read.
//!
//! A handle is resolved once (`Recorder::counter("maze.searches")` takes
//! the registry mutex) and then recorded through forever after with a
//! single relaxed atomic RMW — no lock, no lookup, and no false sharing
//! between workers on different shards. Handles from a disabled recorder
//! hold `None` and compile down to one branch, preserving the
//! disabled-recorder cost model.
//!
//! Registry values are snapshotted into every [`Report`] under their
//! registered names, so downstream consumers (JSON export, the
//! [`prometheus_text`] exposition) read one namespace.

use crate::hist::{self, Histogram, BUCKETS};
use crate::report::{HistRow, Report};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shards per metric. More than any realistic worker count in this
/// workspace (svc tops out at 8 threads); a power of two so the modulo
/// folds to a mask.
pub const SHARDS: usize = 16;

/// One cache line worth of counter, so adjacent shards never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

#[inline]
fn shard_index() -> usize {
    crate::thread_id() as usize % SHARDS
}

// ----------------------------------------------------------------------
// Counter
// ----------------------------------------------------------------------

#[derive(Debug)]
pub(crate) struct CounterCore {
    shards: [PaddedU64; SHARDS],
}

impl CounterCore {
    fn new() -> Self {
        CounterCore {
            shards: std::array::from_fn(|_| PaddedU64::default()),
        }
    }

    fn fold(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// A pre-registered monotone counter. Cheap to clone; all clones feed the
/// same shards. A handle from a disabled recorder is inert.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    core: Option<Arc<CounterCore>>,
}

impl Counter {
    /// The inert handle handed out by disabled recorders.
    pub(crate) fn disabled() -> Self {
        Counter { core: None }
    }

    pub(crate) fn from_core(core: Arc<CounterCore>) -> Self {
        Counter { core: Some(core) }
    }

    /// Add `delta`. One relaxed `fetch_add` on the caller's shard.
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(core) = &self.core {
            core.shards[shard_index()]
                .0
                .fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Fold all shards into the current total.
    pub fn value(&self) -> u64 {
        self.core.as_ref().map(|c| c.fold()).unwrap_or(0)
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }
}

// ----------------------------------------------------------------------
// Gauge
// ----------------------------------------------------------------------

/// A pre-registered level (queue depth, live nets): last `set` wins,
/// read back by [`Gauge::value`]. Unsharded — gauges are written once per
/// batch, not once per node.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    core: Option<Arc<AtomicU64>>,
}

impl Gauge {
    pub(crate) fn disabled() -> Self {
        Gauge { core: None }
    }

    pub(crate) fn from_core(core: Arc<AtomicU64>) -> Self {
        Gauge { core: Some(core) }
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, value: u64) {
        if let Some(core) = &self.core {
            core.store(value, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn value(&self) -> u64 {
        self.core
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }
}

// ----------------------------------------------------------------------
// Histogram handle
// ----------------------------------------------------------------------

#[derive(Debug)]
struct HistoShard {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistoShard {
    fn default() -> Self {
        HistoShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
pub(crate) struct HistoCore {
    shards: [HistoShard; SHARDS],
}

impl HistoCore {
    fn new() -> Self {
        HistoCore {
            shards: std::array::from_fn(|_| HistoShard::default()),
        }
    }

    fn fold(&self) -> Histogram {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for sh in &self.shards {
            for (i, b) in sh.buckets.iter().enumerate() {
                buckets[i] = buckets[i].saturating_add(b.load(Ordering::Relaxed));
            }
            count = count.saturating_add(sh.count.load(Ordering::Relaxed));
            sum = sum.saturating_add(sh.sum.load(Ordering::Relaxed));
            min = min.min(sh.min.load(Ordering::Relaxed));
            max = max.max(sh.max.load(Ordering::Relaxed));
        }
        Histogram::from_parts(buckets, count, sum, min, max)
    }

    fn reset(&self) {
        for sh in &self.shards {
            for b in &sh.buckets {
                b.store(0, Ordering::Relaxed);
            }
            sh.count.store(0, Ordering::Relaxed);
            sh.sum.store(0, Ordering::Relaxed);
            sh.min.store(u64::MAX, Ordering::Relaxed);
            sh.max.store(0, Ordering::Relaxed);
        }
    }
}

/// A pre-registered log2 histogram. Recording touches only the caller's
/// shard: one bucket `fetch_add` plus count/sum/min/max updates, all
/// relaxed. Folded into a [`Histogram`] snapshot by [`Histo::snapshot`]
/// and by every report.
#[derive(Debug, Clone, Default)]
pub struct Histo {
    core: Option<Arc<HistoCore>>,
}

impl Histo {
    pub(crate) fn disabled() -> Self {
        Histo { core: None }
    }

    pub(crate) fn from_core(core: Arc<HistoCore>) -> Self {
        Histo { core: Some(core) }
    }

    /// Count one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(core) = &self.core {
            let sh = &core.shards[shard_index()];
            sh.buckets[hist::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            sh.count.fetch_add(1, Ordering::Relaxed);
            sh.sum.fetch_add(v, Ordering::Relaxed);
            sh.min.fetch_min(v, Ordering::Relaxed);
            sh.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Record a duration as nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Fold all shards into a point-in-time [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        self.core.as_ref().map(|c| c.fold()).unwrap_or_default()
    }

    /// Whether this handle records anywhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }
}

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

/// Per-recorder registry of named metric cores. The mutexes guard only
/// registration (resolve-once, cold); recording never takes them.
/// Metric names are owned strings so dynamically composed families —
/// the per-tenant labelled names minted by [`labeled`] — register as
/// first-class metrics alongside the `&'static str` literals the hot
/// paths use. Registration is cold (resolve-once), so the lookup
/// allocation is irrelevant.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    counters: Mutex<BTreeMap<String, Arc<CounterCore>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histos: Mutex<BTreeMap<String, Arc<HistoCore>>>,
}

impl Registry {
    pub(crate) fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap();
        let core = match map.get(name) {
            Some(core) => Arc::clone(core),
            None => {
                let core = Arc::new(CounterCore::new());
                map.insert(name.to_string(), Arc::clone(&core));
                core
            }
        };
        Counter::from_core(core)
    }

    pub(crate) fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap();
        let core = match map.get(name) {
            Some(core) => Arc::clone(core),
            None => {
                let core = Arc::new(AtomicU64::new(0));
                map.insert(name.to_string(), Arc::clone(&core));
                core
            }
        };
        Gauge::from_core(core)
    }

    pub(crate) fn histogram(&self, name: &str) -> Histo {
        let mut map = self.histos.lock().unwrap();
        let core = match map.get(name) {
            Some(core) => Arc::clone(core),
            None => {
                let core = Arc::new(HistoCore::new());
                map.insert(name.to_string(), Arc::clone(&core));
                core
            }
        };
        Histo::from_core(core)
    }

    /// Snapshot live values as a report's counter table (counters and
    /// gauges) and histogram table, each sorted by name. Zero counters
    /// and empty histograms are skipped so pre-registered but untouched
    /// handles do not clutter reports.
    pub(crate) fn snapshot(&self) -> (Vec<(String, u64)>, Vec<HistRow>) {
        let counters = self.counters.lock().unwrap();
        let gauges = self.gauges.lock().unwrap();
        let mut values: Vec<(String, u64)> = counters
            .iter()
            .map(|(name, core)| (name.clone(), core.fold()))
            .chain(
                gauges
                    .iter()
                    .map(|(name, core)| (name.clone(), core.load(Ordering::Relaxed))),
            )
            .filter(|&(_, v)| v != 0)
            .collect();
        values.sort();
        let hists = self
            .histos
            .lock()
            .unwrap()
            .iter()
            .map(|(name, core)| HistRow {
                name: name.clone(),
                hist: core.fold(),
            })
            .filter(|row| row.hist.count() != 0)
            .collect();
        (values, hists)
    }

    /// Zero every registered value while keeping the registrations (and
    /// therefore every handle already resolved by callers) alive.
    pub(crate) fn reset_values(&self) {
        for core in self.counters.lock().unwrap().values() {
            core.reset();
        }
        for core in self.gauges.lock().unwrap().values() {
            core.store(0, Ordering::Relaxed);
        }
        for core in self.histos.lock().unwrap().values() {
            core.reset();
        }
    }
}

// ----------------------------------------------------------------------
// Prometheus-style exposition
// ----------------------------------------------------------------------

/// Compose a labelled metric name: `labeled("svc.server.depth",
/// "tenant", 3)` → `svc.server.depth{tenant="3"}`. The result is an
/// ordinary registry name — resolve handles through it as usual — and
/// [`prometheus_text`] renders the label block natively, grouping every
/// labelled sibling under one `# TYPE` family header.
pub fn labeled(family: &str, label: &str, value: impl std::fmt::Display) -> String {
    format!("{family}{{{label}=\"{value}\"}}")
}

/// Sanitize a metric name into the Prometheus charset and prefix it:
/// `maze.nodes_expanded` → `jroute_maze_nodes_expanded`. A
/// `family{label="v"}` name (see [`labeled`]) has only its family part
/// sanitized; the label block is carried through verbatim.
fn prom_name(name: &str) -> String {
    let (base, labels) = match name.find('{') {
        Some(at) => name.split_at(at),
        None => (name, ""),
    };
    let mut out = String::with_capacity(7 + name.len());
    out.push_str("jroute_");
    for c in base.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out.push_str(labels);
    out
}

/// The `# TYPE`-family key of a (possibly labelled) prom name: the part
/// before any label block.
fn prom_family(prom: &str) -> &str {
    prom.split('{').next().unwrap_or(prom)
}

/// Append `suffix` to a prom name, *inside* the base: for a labelled
/// summary, `_sum`/`_count` attach to the family, keeping the labels —
/// `f{t="0"}` + `_sum` → `f_sum{t="0"}`.
fn prom_suffixed(prom: &str, suffix: &str) -> String {
    match prom.find('{') {
        Some(at) => format!("{}{}{}", &prom[..at], suffix, &prom[at..]),
        None => format!("{prom}{suffix}"),
    }
}

/// Merge an extra `key="value"` pair into a prom name's label block,
/// creating the block when absent.
fn prom_with_label(prom: &str, key: &str, value: &str) -> String {
    match prom.strip_suffix('}') {
        Some(head) => format!("{head},{key}=\"{value}\"}}"),
        None => format!("{prom}{{{key}=\"{value}\"}}"),
    }
}

/// Render a report as a Prometheus text-format exposition snapshot:
/// counters as `counter` families, histograms as `summary` families with
/// p50/p90/p99 quantile samples, span aggregates as `_count`/`_ns_total`
/// counter pairs. Hand-rolled, zero-dependency; one sample per line,
/// `# TYPE` headers, trailing newline — enough for any Prometheus-
/// compatible scraper or for `promtool check metrics`.
pub fn prometheus_text(report: &Report) -> String {
    let mut s = String::new();
    // One `# TYPE` header per family: labelled siblings
    // (`f{tenant="0"}`, `f{tenant="1"}`) share a family and must not
    // repeat the header.
    let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut type_line = |s: &mut String, family: &str, kind: &str| {
        if typed.insert(family.to_string()) {
            s.push_str(&format!("# TYPE {family} {kind}\n"));
        }
    };
    if report.epoch_unix_nanos != 0 {
        type_line(&mut s, "jroute_epoch_unix_nanos", "gauge");
        s.push_str(&format!(
            "jroute_epoch_unix_nanos {}\n",
            report.epoch_unix_nanos
        ));
    }
    for (name, v) in &report.counters {
        let n = prom_name(name);
        type_line(&mut s, prom_family(&n), "counter");
        s.push_str(&format!("{n} {v}\n"));
    }
    for row in &report.hists {
        let n = prom_name(&row.name);
        let h = &row.hist;
        type_line(&mut s, prom_family(&n), "summary");
        for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
            s.push_str(&format!("{} {v}\n", prom_with_label(&n, "quantile", q)));
        }
        s.push_str(&format!(
            "{} {}\n{} {}\n",
            prom_suffixed(&n, "_sum"),
            h.sum(),
            prom_suffixed(&n, "_count"),
            h.count()
        ));
    }
    for (name, st) in &report.span_stats {
        let n = prom_name(&format!("span.{name}"));
        type_line(&mut s, &format!("{n}_count"), "counter");
        s.push_str(&format!("{n}_count {}\n", st.count));
        type_line(&mut s, &format!("{n}_ns_total"), "counter");
        s.push_str(&format!("{n}_ns_total {}\n", st.total_ns));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn disabled_handles_are_inert() {
        let rec = Recorder::disabled();
        let c = rec.counter("x");
        let g = rec.gauge("y");
        let h = rec.histogram("z");
        c.add(5);
        g.set(9);
        h.record(100);
        assert!(!c.is_enabled() && !g.is_enabled() && !h.is_enabled());
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.snapshot().count(), 0);
        assert!(rec.report().counters.is_empty());
    }

    #[test]
    fn handles_for_one_name_share_a_core() {
        let rec = Recorder::enabled();
        let a = rec.counter("hits");
        let b = rec.counter("hits");
        a.add(2);
        b.add(3);
        assert_eq!(a.value(), 5);
        assert_eq!(rec.report().counter("hits"), Some(5));
    }

    #[test]
    fn sharded_counters_fold_across_threads() {
        let rec = Recorder::enabled();
        let c = rec.counter("work");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn sharded_histogram_folds_like_the_plain_one() {
        let rec = Recorder::enabled();
        let h = rec.histogram("lat");
        let mut plain = crate::Histogram::new();
        for v in [0u64, 1, 7, 100, 5_000, 1 << 40] {
            h.record(v);
            plain.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), plain.count());
        assert_eq!(snap.sum(), plain.sum());
        assert_eq!(snap.min(), plain.min());
        assert_eq!(snap.max(), plain.max());
        assert_eq!(snap.p50(), plain.p50());
        assert_eq!(snap.p99(), plain.p99());
    }

    #[test]
    fn registry_values_surface_in_reports_sorted_by_name() {
        let rec = Recorder::enabled();
        rec.counter("zeta").add(10);
        rec.counter("alpha").add(5);
        rec.counter("untouched");
        rec.gauge("depth.now").set(3);
        rec.histogram("sizes").record(64);
        rec.histogram("sizes").record(64);
        rec.histogram("empty");
        let rep = rec.report();
        assert_eq!(rep.counter("zeta"), Some(10));
        assert_eq!(rep.counter("alpha"), Some(5));
        assert_eq!(rep.counter("untouched"), None);
        assert_eq!(rep.counter("depth.now"), Some(3));
        assert_eq!(rep.hist("sizes").unwrap().count(), 2);
        assert!(rep.hist("empty").is_none());
        // Counters and gauges share one table, sorted by name.
        let names: Vec<&str> = rep.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["alpha", "depth.now", "zeta"]);
    }

    #[test]
    fn reset_zeroes_values_but_keeps_handles_live() {
        let rec = Recorder::enabled();
        let c = rec.counter("n");
        let h = rec.histogram("v");
        c.add(7);
        h.record(9);
        rec.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(h.snapshot().count(), 0);
        c.add(1); // the old handle still feeds the recorder
        assert_eq!(rec.report().counter("n"), Some(1));
    }

    #[test]
    fn labeled_names_register_and_expose_as_one_family() {
        let rec = Recorder::enabled();
        rec.counter(&labeled("svc.server.submitted", "tenant", 0))
            .add(7);
        rec.counter(&labeled("svc.server.submitted", "tenant", 1))
            .add(9);
        rec.histogram(&labeled("svc.server.request_ns", "tenant", 0))
            .record(1000);
        let text = prometheus_text(&rec.report());
        assert!(text.contains("jroute_svc_server_submitted{tenant=\"0\"} 7\n"));
        assert!(text.contains("jroute_svc_server_submitted{tenant=\"1\"} 9\n"));
        assert_eq!(
            text.matches("# TYPE jroute_svc_server_submitted counter\n")
                .count(),
            1,
            "labelled siblings share one TYPE header"
        );
        assert!(text.contains("jroute_svc_server_request_ns{tenant=\"0\",quantile=\"0.5\"}"));
        assert!(text.contains("jroute_svc_server_request_ns_sum{tenant=\"0\"}"));
        assert!(text.contains("jroute_svc_server_request_ns_count{tenant=\"0\"} 1\n"));
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_text_exposes_the_documented_families() {
        let rec = Recorder::enabled();
        rec.counter("router.pips_set").add(4);
        rec.histogram("maze.nodes_expanded").record(100);
        {
            let _s = rec.span("svc.batch");
        }
        let text = prometheus_text(&rec.report());
        assert!(text.contains("# TYPE jroute_router_pips_set counter\n"));
        assert!(text.contains("jroute_router_pips_set 4\n"));
        assert!(text.contains("# TYPE jroute_maze_nodes_expanded summary\n"));
        assert!(text.contains("jroute_maze_nodes_expanded{quantile=\"0.99\"}"));
        assert!(text.contains("jroute_maze_nodes_expanded_count 1\n"));
        assert!(text.contains("jroute_span_svc_batch_count 1\n"));
        assert!(text.contains("jroute_epoch_unix_nanos "));
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.split_whitespace().count() == 2,
                "malformed line: {line}"
            );
        }
    }
}
