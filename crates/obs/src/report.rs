//! Report snapshots: aggregation, the human-readable table and the span
//! tree rendering.

use crate::hist::Histogram;
use crate::{EventRecord, SpanRecord};

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Spans finished under this name.
    pub count: u64,
    /// Total wall-clock nanoseconds.
    pub total_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
}

impl SpanStat {
    /// Mean span duration in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// A named histogram row in a report.
#[derive(Debug, Clone)]
pub struct HistRow {
    /// Histogram name.
    pub name: String,
    /// The histogram itself.
    pub hist: Histogram,
}

/// A point-in-time snapshot of everything a [`crate::Recorder`]
/// collected.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether the source recorder was enabled.
    pub enabled: bool,
    /// Wall-clock time of the recorder's epoch (nanoseconds since the
    /// Unix epoch; 0 when disabled). Span `start_ns` values are relative
    /// to it, so `epoch_unix_nanos + start_ns` aligns traces from
    /// separate processes or replays on one wall-clock axis.
    pub epoch_unix_nanos: u64,
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histograms, sorted by name.
    pub hists: Vec<HistRow>,
    /// Per-span-name aggregates, sorted by name.
    pub span_stats: Vec<(String, SpanStat)>,
    /// Raw finished spans (bounded by [`crate::MAX_SPANS`]).
    pub spans: Vec<SpanRecord>,
    /// Raw events (bounded by [`crate::MAX_EVENTS`]).
    pub events: Vec<EventRecord>,
    /// Raw spans shed once the cap was hit.
    pub spans_dropped: u64,
    /// Events shed once the cap was hit.
    pub events_dropped: u64,
    /// Raw spans streamed out through a span sink in full chunks (they
    /// are not in `spans` but were observed and exported).
    pub spans_flushed: u64,
}

impl Report {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Insert or overwrite a counter (used to publish externally-held
    /// gauges — e.g. `RouterStats` — into a snapshot before export).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v = value,
            None => {
                self.counters.push((name.to_string(), value));
                self.counters.sort();
            }
        }
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|r| r.name == name).map(|r| &r.hist)
    }

    /// Aggregate stats for a span name.
    pub fn span_stat(&self, name: &str) -> Option<&SpanStat> {
        self.span_stats
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, s)| s)
    }

    /// How many spans finished under `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.span_stat(name).map(|s| s.count).unwrap_or(0)
    }

    /// Render the per-thread span tree: spans in start order, indented by
    /// nesting depth, with durations and notes. The quickstart of §3.5
    /// debugging for the router's own behaviour.
    pub fn span_tree(&self) -> String {
        let mut out = String::new();
        let mut threads: Vec<u64> = self.spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        for t in threads {
            let mut spans: Vec<&SpanRecord> = self.spans.iter().filter(|s| s.thread == t).collect();
            spans.sort_by_key(|s| (s.start_ns, s.depth));
            out.push_str(&format!("thread {t}:\n"));
            for s in spans {
                out.push_str(&format!(
                    "{:indent$}{} {} ({})\n",
                    "",
                    s.name,
                    fmt_ns(s.dur_ns as f64),
                    if s.note != 0 {
                        format!("note={}", s.note)
                    } else {
                        "-".to_string()
                    },
                    indent = 2 + 2 * s.depth as usize,
                ));
            }
        }
        if self.spans_dropped > 0 {
            out.push_str(&format!(
                "({} spans dropped past the cap)\n",
                self.spans_dropped
            ));
        }
        out
    }
}

pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl std::fmt::Display for Report {
    /// The human-readable table: counters, histogram summaries and span
    /// aggregates.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.enabled {
            return writeln!(f, "obs: recorder disabled (set JROUTE_OBS=1)");
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, v) in &self.counters {
                writeln!(f, "  {name:<32} {v:>12}")?;
            }
        }
        if !self.hists.is_empty() {
            writeln!(
                f,
                "histograms:\n  {:<32} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "name", "count", "min", "p50", "p90", "p99", "max"
            )?;
            for row in &self.hists {
                let h = &row.hist;
                let ns = row.name.ends_with("_ns");
                let v = |x: u64| if ns { fmt_ns(x as f64) } else { x.to_string() };
                writeln!(
                    f,
                    "  {:<32} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    row.name,
                    h.count(),
                    v(h.min()),
                    v(h.p50()),
                    v(h.p90()),
                    v(h.p99()),
                    v(h.max()),
                )?;
            }
        }
        if !self.span_stats.is_empty() {
            writeln!(
                f,
                "spans:\n  {:<32} {:>8} {:>12} {:>12} {:>12}",
                "name", "count", "total", "mean", "max"
            )?;
            for (name, s) in &self.span_stats {
                writeln!(
                    f,
                    "  {:<32} {:>8} {:>12} {:>12} {:>12}",
                    name,
                    s.count,
                    fmt_ns(s.total_ns as f64),
                    fmt_ns(s.mean_ns()),
                    fmt_ns(s.max_ns as f64),
                )?;
            }
        }
        if !self.events.is_empty() {
            writeln!(f, "events: {} recorded", self.events.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    fn sample() -> Report {
        let rec = Recorder::enabled();
        {
            let _a = rec.span("a");
            let mut b = rec.span("b");
            b.note(3);
        }
        rec.counter("n").add(7);
        rec.histogram("lat_ns").record(1500);
        rec.event("e", 1);
        rec.report()
    }

    #[test]
    fn display_contains_all_sections() {
        let text = sample().to_string();
        assert!(text.contains("counters:"));
        assert!(text.contains("histograms:"));
        assert!(text.contains("spans:"));
        assert!(text.contains("lat_ns"));
        assert!(text.contains(" n "), "counter row present:\n{text}");
    }

    #[test]
    fn span_tree_indents_children() {
        let tree = sample().span_tree();
        let a_line = tree
            .lines()
            .find(|l| l.trim_start().starts_with("a "))
            .unwrap();
        let b_line = tree
            .lines()
            .find(|l| l.trim_start().starts_with("b "))
            .unwrap();
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(indent(b_line) > indent(a_line), "tree:\n{tree}");
        assert!(b_line.contains("note=3"));
    }

    #[test]
    fn set_counter_overwrites_and_inserts() {
        let mut rep = sample();
        rep.set_counter("n", 100);
        rep.set_counter("fresh", 5);
        assert_eq!(rep.counter("n"), Some(100));
        assert_eq!(rep.counter("fresh"), Some(5));
    }

    #[test]
    fn disabled_report_displays_a_hint() {
        let rep = Report::default();
        assert!(rep.to_string().contains("disabled"));
    }
}
