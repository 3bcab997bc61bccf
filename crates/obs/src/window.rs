//! Windowed aggregation: rolling time-series over registry metrics.
//!
//! A [`Report`](crate::Report) answers "what happened over the whole run"; operations
//! questions are about *now* and *lately* — is queue depth climbing, did
//! batch-latency p99 spike after that replace storm, what is the wave
//! rate this window. The [`Aggregator`] tracks a set of registry handles
//! ([`Counter`]/[`Gauge`]/[`Histo`]) and, on every [`Aggregator::tick`],
//! appends one [`Sample`] holding each metric's **windowed** view:
//!
//! * counters → the delta since the previous tick (a rate, given the
//!   tick interval);
//! * gauges → the current level;
//! * histograms → count delta plus p50/p99 of only the values recorded
//!   in the window (cumulative snapshots are differenced bucket-wise via
//!   [`Histogram::delta_since`]).
//!
//! Samples live in a bounded ring (oldest evicted), so a long-running
//! service can tick every batch forever at fixed memory. The ring
//! exports as a JSON document of parallel time-series for plotting or
//! shipping.

use crate::hist::Histogram;
use crate::registry::{Counter, Gauge, Histo};
use std::collections::VecDeque;

/// One tick's view of every tracked metric.
#[derive(Debug, Clone)]
pub struct Sample {
    /// When the tick happened, in nanoseconds since the recorder epoch
    /// (see [`crate::Recorder::elapsed_ns`]).
    pub at_ns: u64,
    /// `(series name, value)` rows, in tracking order. Counter series
    /// are suffixed `.delta`, histogram series `.count`/`.p50`/`.p99`;
    /// gauge series keep their plain name.
    pub rows: Vec<(String, f64)>,
}

impl Sample {
    /// Value of one series in this sample.
    pub fn value(&self, series: &str) -> Option<f64> {
        self.rows.iter().find(|(k, _)| k == series).map(|(_, v)| *v)
    }
}

#[derive(Debug)]
enum Tracked {
    Counter {
        name: String,
        handle: Counter,
        prev: u64,
    },
    Gauge {
        name: String,
        handle: Gauge,
    },
    Histo {
        name: String,
        handle: Histo,
        // Boxed: a Histogram's inline bucket array dwarfs the other
        // variants, and ticks touch it through one more indirection only.
        prev: Box<Histogram>,
    },
}

/// Rolling time-series aggregator over registry handles. See the module
/// docs for the windowing semantics.
#[derive(Debug)]
pub struct Aggregator {
    cap: usize,
    tracked: Vec<Tracked>,
    samples: VecDeque<Sample>,
}

impl Aggregator {
    /// An aggregator retaining at most `cap` samples (clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        Aggregator {
            cap: cap.max(1),
            tracked: Vec::new(),
            samples: VecDeque::new(),
        }
    }

    /// Track a counter; each sample reports `<name>.delta`, the amount
    /// added since the previous tick.
    pub fn track_counter(&mut self, name: impl Into<String>, handle: Counter) {
        let prev = handle.value();
        self.tracked.push(Tracked::Counter {
            name: name.into(),
            handle,
            prev,
        });
    }

    /// Track a gauge; each sample reports its current level under the
    /// plain name.
    pub fn track_gauge(&mut self, name: impl Into<String>, handle: Gauge) {
        self.tracked.push(Tracked::Gauge {
            name: name.into(),
            handle,
        });
    }

    /// Track a histogram; each sample reports `<name>.count`,
    /// `<name>.p50` and `<name>.p99` computed over only the values
    /// recorded since the previous tick.
    pub fn track_histogram(&mut self, name: impl Into<String>, handle: Histo) {
        let prev = Box::new(handle.snapshot());
        self.tracked.push(Tracked::Histo {
            name: name.into(),
            handle,
            prev,
        });
    }

    /// Close the current window: append one sample at `at_ns` and start
    /// the next window.
    pub fn tick(&mut self, at_ns: u64) {
        let mut rows = Vec::with_capacity(self.tracked.len() * 2);
        for t in &mut self.tracked {
            match t {
                Tracked::Counter { name, handle, prev } => {
                    let cur = handle.value();
                    rows.push((format!("{name}.delta"), cur.saturating_sub(*prev) as f64));
                    *prev = cur;
                }
                Tracked::Gauge { name, handle } => {
                    rows.push((name.clone(), handle.value() as f64));
                }
                Tracked::Histo { name, handle, prev } => {
                    let cur = handle.snapshot();
                    let win = cur.delta_since(prev);
                    rows.push((format!("{name}.count"), win.count() as f64));
                    rows.push((format!("{name}.p50"), win.p50() as f64));
                    rows.push((format!("{name}.p99"), win.p99() as f64));
                    **prev = cur;
                }
            }
        }
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back(Sample { at_ns, rows });
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&Sample> {
        self.samples.back()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no tick has happened yet (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Export the ring as one JSON document: `{"samples": [{"at_ns": N,
    /// "rows": {"series": value, ...}}, ...]}`. Parseable by
    /// [`crate::json::parse`].
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"samples\": [\n");
        let lines: Vec<String> = self
            .samples
            .iter()
            .map(|sample| {
                let rows: Vec<String> = sample
                    .rows
                    .iter()
                    .map(|(k, v)| format!("\"{}\": {v}", crate::json::escape(k)))
                    .collect();
                format!(
                    "  {{\"at_ns\": {}, \"rows\": {{{}}}}}",
                    sample.at_ns,
                    rows.join(", ")
                )
            })
            .collect();
        s.push_str(&lines.join(",\n"));
        s.push_str("\n]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn counters_report_per_window_deltas() {
        let rec = Recorder::enabled();
        let c = rec.counter("steals");
        let mut agg = Aggregator::new(8);
        c.add(5); // before tracking starts: not part of any window
        agg.track_counter("steals", c.clone());
        c.add(3);
        agg.tick(100);
        c.add(4);
        agg.tick(200);
        agg.tick(300); // idle window
        let vals: Vec<f64> = agg
            .samples()
            .map(|s| s.value("steals.delta").unwrap())
            .collect();
        assert_eq!(vals, vec![3.0, 4.0, 0.0]);
    }

    #[test]
    fn histograms_report_windowed_quantiles() {
        let rec = Recorder::enabled();
        let h = rec.histogram("lat");
        let mut agg = Aggregator::new(8);
        agg.track_histogram("lat", h.clone());
        for _ in 0..100 {
            h.record(100);
        }
        agg.tick(1);
        // The second window records only large values: its p50 must
        // reflect them, not the cumulative mass of small ones.
        for _ in 0..10 {
            h.record(100_000);
        }
        agg.tick(2);
        let s1 = agg.samples().next().unwrap();
        let s2 = agg.latest().unwrap();
        assert_eq!(s1.value("lat.count"), Some(100.0));
        assert_eq!(s2.value("lat.count"), Some(10.0));
        assert!(s1.value("lat.p50").unwrap() <= 127.0);
        assert!(
            s2.value("lat.p50").unwrap() >= 65_536.0,
            "windowed p50 = {:?}",
            s2.value("lat.p50")
        );
    }

    #[test]
    fn gauges_report_levels_and_the_ring_is_bounded() {
        let rec = Recorder::enabled();
        let g = rec.gauge("depth");
        let mut agg = Aggregator::new(3);
        agg.track_gauge("depth", g.clone());
        for i in 0..10u64 {
            g.set(i);
            agg.tick(i);
        }
        assert_eq!(agg.len(), 3);
        assert_eq!(agg.latest().unwrap().value("depth"), Some(9.0));
        assert_eq!(agg.samples().next().unwrap().at_ns, 7);
    }

    #[test]
    fn exports_parseable_json() {
        let rec = Recorder::enabled();
        let mut agg = Aggregator::new(4);
        agg.track_counter("c", rec.counter("c"));
        agg.track_gauge("g", rec.gauge("g"));
        agg.tick(42);
        let doc = crate::json::parse(&agg.to_json()).expect("valid JSON");
        let samples = doc.get("samples").unwrap().as_arr().unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].get("at_ns").unwrap().as_f64(), Some(42.0));
        let rows = samples[0].get("rows").unwrap();
        assert_eq!(rows.get("c.delta").unwrap().as_f64(), Some(0.0));
    }
}
