//! Flight recorder demo: replay a recorded `.jrt` churn trace through an
//! instrumented routing service and export the run as a Perfetto-loadable
//! Chrome trace, a Prometheus-style metrics snapshot, and the rolling
//! per-batch window series.
//!
//! The point of the exercise is *causal* tracing: every request mints a
//! `svc.request` root span at submission, and the trace context rides the
//! request into its batch, so each `svc.exec` / `maze.search` span —
//! whichever worker thread its wave search lands on — carries the
//! originating request's trace id. The churn trace commits one request
//! per batch, which runs inline; a final burst of nets with disjoint
//! search regions on a larger device adds a wave that runs on worker
//! threads. The example asserts that end to end, then writes:
//!
//! * `target/obs-json/flight_recorder/trace.0.jsonl` — Chrome
//!   `trace_event` JSON; load it at <https://ui.perfetto.dev>,
//! * `target/obs-json/flight_recorder/metrics.0.jsonl` — Prometheus text
//!   exposition snapshot,
//! * `target/obs-json/flight_recorder/window.0.jsonl` — the per-batch
//!   rolling time-series (queue depth, batch p50/p99, wave and re-search
//!   rates).
//!
//! Run with: `cargo run --release --example flight_recorder [steps]`

use jroute::obs::{prometheus_text, write_chrome_trace, RotatingFileSink};
use jroute::pathfinder::NetSpec;
use jroute::{Pin, Recorder};
use jroute_svc::{RequestKind, RoutingService, ServiceConfig, Trace};
use jroute_workloads::{ChurnParams, ChurnScenario};
use std::collections::HashSet;
use std::io::Write;
use virtex::{wire, Device, Family};

const SEED: u64 = 0xF117;

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let device = Device::new(Family::Xcv50);

    // ── Record: a deterministic churn produces the .jrt request log ───
    let record_cfg = ServiceConfig {
        threads: 2,
        audit: true,
        ..Default::default()
    };
    let mut sc = ChurnScenario::new(&device, record_cfg, ChurnParams::default(), SEED);
    for _ in 0..steps {
        sc.step().expect("churn must stay violation-free");
    }
    let trace_path = std::path::Path::new("target/traces/flight_recorder.jrt");
    std::fs::create_dir_all(trace_path.parent().unwrap()).unwrap();
    sc.trace().save(trace_path).expect("trace saves");
    println!(
        "recorded: {} churn steps -> {} ({} requests)",
        steps,
        trace_path.display(),
        sc.trace().len()
    );

    // ── Replay: same request stream, real threads, flight recorder on ─
    let recorder = Recorder::enabled();
    let replay_cfg = ServiceConfig {
        threads: 4,
        audit: true,
        ..Default::default()
    };
    let mut svc = RoutingService::with_recorder(&device, replay_cfg, recorder.clone());
    let loaded = Trace::load(trace_path).expect("trace loads");
    let summary = loaded.replay(&mut svc).expect("trace replays");
    println!(
        "replayed: {} requests ({} succeeded) over 4 worker threads",
        summary.submitted, summary.succeeded
    );

    // ── Burst: a grid of nets with disjoint regions: one threaded wave ─
    let wide = Device::new(Family::Xcv1000);
    let burst_cfg = ServiceConfig {
        threads: 4,
        audit: true,
        ..Default::default()
    };
    let mut burst = RoutingService::with_recorder(&wide, burst_cfg, recorder.clone());
    for i in 0..12u16 {
        let (r, c) = (2 + (i / 4) * 22, 2 + (i % 4) * 24);
        burst
            .submit(RequestKind::Route(NetSpec::new(
                Pin::new(r, c, wire::S0_YQ),
                vec![Pin::new(r + 2, c + 4, wire::S0_F3)],
            )))
            .unwrap();
    }
    let burst_report = burst.run_batch();
    assert!(burst_report.outcomes.iter().all(|(_, o)| o.is_success()));
    println!(
        "burst: 12 requests with disjoint regions on {}",
        wide.family()
    );

    // ── Causal linkage audit: every routing span traces to a request ──
    let report = recorder.report();
    let roots: HashSet<u64> = report
        .spans
        .iter()
        .filter(|s| s.name == "svc.request")
        .map(|s| s.trace)
        .collect();
    assert!(!roots.is_empty(), "replay must mint request roots");
    let mut linked = 0usize;
    for s in report
        .spans
        .iter()
        .filter(|s| matches!(s.name, "svc.exec" | "parallel.net" | "maze.search"))
    {
        assert!(
            roots.contains(&s.trace),
            "span {} (trace {}) is not causally linked to any svc.request",
            s.name,
            s.trace
        );
        linked += 1;
    }
    assert!(linked > 0, "the replay must have routed something");
    // Under threaded execution the exec spans run on worker threads while
    // the submission roots live on the main thread: real hand-offs.
    let root_threads: HashSet<u64> = report
        .spans
        .iter()
        .filter(|s| s.name == "svc.request")
        .map(|s| s.thread)
        .collect();
    let cross = report
        .spans
        .iter()
        .filter(|s| s.name == "svc.exec" && !root_threads.contains(&s.thread))
        .count();
    assert!(cross > 0, "expected cross-thread request hand-offs");
    println!("causal audit: {linked} routing spans linked, {cross} cross-thread hand-offs");

    // ── Export the flight recording ───────────────────────────────────
    let out_dir = std::path::Path::new("target/obs-json/flight_recorder");
    let mut chrome = RotatingFileSink::new(out_dir, "trace", 16 << 20, 2).expect("sink dir");
    write_chrome_trace(&report, &mut chrome).expect("chrome trace writes");
    let mut prom = RotatingFileSink::new(out_dir, "metrics", 1 << 20, 2).expect("sink dir");
    prom.write_all(prometheus_text(&report).as_bytes())
        .expect("prometheus snapshot writes");
    prom.flush().unwrap();
    let window = svc.window().expect("enabled recorder has a window");
    let mut win = RotatingFileSink::new(out_dir, "window", 1 << 20, 2).expect("sink dir");
    win.write_all(window.to_json().as_bytes())
        .expect("window series writes");
    win.flush().unwrap();
    println!(
        "exported: {} spans, {} window samples -> {}",
        report.spans.len(),
        window.len(),
        out_dir.display()
    );
    println!("open trace.0.jsonl at https://ui.perfetto.dev to browse the recording");
    println!("flight_recorder: OK");
}
