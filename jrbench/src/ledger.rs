//! Metric bookkeeping shared by the workloads: the metric map printed
//! at the end of a run, order statistics, peak RSS, and the traced
//! per-layer ledger built from the program's own `jroute_obs` spans
//! plus the benchmark's spans around each layer's public calls.

use jroute_obs::{Recorder, Report};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Named metrics with units, in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, &(v, u))| (k.as_str(), v, u))
    }
}

/// Everything one run reports back to `main`.
pub struct RunOutput {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were congested or were refused.
    pub failed: u64,
    /// User-visible metrics (untraced run).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run only).
    pub layers: Metrics,
}

/// A failed correctness check: what was wrong, for the run's stderr.
pub type CheckResult = Result<(), String>;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `f` inside a benchmark span named `name` (recorded only when the
/// recorder is enabled) and return its result with its wall time.
pub fn timed<T>(rec: &Recorder, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let _span = rec.span(name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// `Write` sink that keeps the recorder's streamed span chunks in memory,
/// so raw spans are never shed however long the traced run is.
#[derive(Clone, Default)]
struct SpanSink(Arc<Mutex<Vec<u8>>>);

impl Write for SpanSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("span sink lock poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One finished span, as the ledger needs it.
struct RawSpan {
    name: String,
    thread: u64,
    dur_ns: u64,
    span_id: u64,
    parent: u64,
}

/// Read one span record of a chunk written by
/// `jroute_obs::json::span_chunk_json`, starting just after its
/// `{"name": "` (field order is fixed there).
fn parse_span(rec: &str) -> RawSpan {
    let (name, rest) = rec.split_once('"').expect("span name is quoted");
    let field = |key: &str| -> u64 {
        let at = rest
            .find(key)
            .unwrap_or_else(|| panic!("span field {key} missing"));
        let digits: String = rest[at + key.len()..]
            .chars()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("span field is a number")
    };
    RawSpan {
        name: name.to_string(),
        thread: field("\"thread\""),
        dur_ns: field("\"dur_ns\""),
        span_id: field("\"span_id\""),
        parent: field("\"parent\""),
    }
}

/// Per span name: how often, how long in total, and how long excluding
/// same-thread children.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerRow {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// The traced run's collector: an enabled recorder whose raw spans
/// stream into memory.
pub struct Ledger {
    rec: Recorder,
    sink: SpanSink,
}

/// What [`Ledger::finish`] extracts.
pub struct LayerTable {
    pub report: Report,
    pub rows: BTreeMap<String, LayerRow>,
    /// `(thread, span name) -> self ns`.
    pub per_thread: BTreeMap<(u64, String), u64>,
}

impl Ledger {
    pub fn new() -> Self {
        let rec = Recorder::enabled();
        let sink = SpanSink::default();
        rec.set_span_sink(sink.clone());
        Ledger { rec, sink }
    }

    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Flush the recorder and fold every raw span into per-name and
    /// per-thread busy/self times.
    pub fn finish(self) -> LayerTable {
        self.rec.flush_spans();
        let report = self.rec.report();
        let bytes = std::mem::take(&mut *self.sink.0.lock().expect("span sink lock poisoned"));
        let text = String::from_utf8(bytes).expect("span chunks are UTF-8 JSON");
        let mut spans: Vec<RawSpan> = text
            .split("{\"name\": \"")
            .skip(1)
            .map(parse_span)
            .collect();
        for s in &report.spans {
            spans.push(RawSpan {
                name: s.name.to_string(),
                thread: s.thread,
                dur_ns: s.dur_ns,
                span_id: s.span_id,
                parent: s.parent,
            });
        }
        let thread_of: HashMap<u64, u64> = spans.iter().map(|s| (s.span_id, s.thread)).collect();
        // Children only count against a parent on the same thread: a
        // span re-rooted on another thread ran in parallel with it.
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if s.parent != 0 && thread_of.get(&s.parent) == Some(&s.thread) {
                *child_ns.entry(s.parent).or_default() += s.dur_ns;
            }
        }
        let mut rows: BTreeMap<String, LayerRow> = BTreeMap::new();
        let mut per_thread: BTreeMap<(u64, String), u64> = BTreeMap::new();
        for s in &spans {
            let self_ns = s
                .dur_ns
                .saturating_sub(child_ns.get(&s.span_id).copied().unwrap_or(0));
            let row = rows.entry(s.name.clone()).or_default();
            row.count += 1;
            row.busy_ns += s.dur_ns;
            row.self_ns += self_ns;
            *per_thread.entry((s.thread, s.name.clone())).or_default() += self_ns;
        }
        LayerTable {
            report,
            rows,
            per_thread,
        }
    }
}

impl LayerTable {
    pub fn busy_ms(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |r| r.busy_ns as f64 / 1e6)
    }

    pub fn self_ms(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |r| r.self_ns as f64 / 1e6)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.rows.get(name).map_or(0, |r| r.count)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.report.counter(name).unwrap_or(0)
    }

    pub fn hist_sum(&self, name: &str) -> u64 {
        self.report.hist(name).map_or(0, |h| h.sum())
    }

    /// Print the per-layer table (busy, self, count, share of `wall`)
    /// and per-thread self time to stderr.
    pub fn print(&self, wall: Duration) {
        let wall_ns = wall.as_nanos().max(1) as f64;
        eprintln!(
            "{:<28} {:>9} {:>11} {:>11} {:>7}",
            "span", "count", "busy_ms", "self_ms", "share"
        );
        for (name, r) in &self.rows {
            eprintln!(
                "{:<28} {:>9} {:>11.2} {:>11.2} {:>6.1}%",
                name,
                r.count,
                r.busy_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                100.0 * r.busy_ns as f64 / wall_ns
            );
        }
        // Short-lived pool threads are many; show the threads that carry
        // at least 1% of the wall and fold the rest together.
        eprintln!("per-thread self time (threads with >= 1% of wall):");
        let mut by_thread: BTreeMap<u64, u64> = BTreeMap::new();
        for ((thread, _), ns) in &self.per_thread {
            *by_thread.entry(*thread).or_default() += ns;
        }
        let mut other: BTreeMap<&str, u64> = BTreeMap::new();
        for ((thread, name), ns) in &self.per_thread {
            if by_thread[thread] as f64 >= wall_ns / 100.0 {
                eprintln!(
                    "  thread {thread:<5} {name:<28} {:>11.2} ms",
                    *ns as f64 / 1e6
                );
            } else {
                *other.entry(name).or_default() += ns;
            }
        }
        for (name, ns) in other {
            eprintln!("  other threads {name:<28} {:>11.2} ms", ns as f64 / 1e6);
        }
    }
}
