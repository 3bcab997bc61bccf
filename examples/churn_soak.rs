//! Churn soak demo (the E16 scenario corpus): run a seeded
//! compose / relocate / replace / retire churn of RTP cores against the
//! batch routing service, audit every step, record the whole request
//! stream as a `.jrt` trace, then
//!
//! * replay the trace into a fresh service and diff the segment census
//!   (record/replay fidelity), and
//! * re-negotiate the live demand with the incremental PathFinder.
//!
//! Span telemetry streams through a size-capped rotating file sink under
//! `target/obs-json/churn_soak/`.
//!
//! Run with: `cargo run --release --example churn_soak [steps]`

use jroute::obs::RotatingFileSink;
use jroute::pathfinder::PathFinderConfig;
use jroute::Recorder;
use jroute_svc::{RoutingService, ServiceConfig};
use jroute_workloads::{ChurnAction, ChurnParams, ChurnScenario};
use virtex::{Device, Family};

const SEED: u64 = 0xC0DE;

fn det_cfg(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        audit: true,
        ..Default::default()
    }
}

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let device = Device::new(Family::Xcv50);

    // Telemetry recorder streaming spans through a rotating sink:
    // at most 4 files x 64 KiB under target/obs-json/churn_soak/.
    let sink_dir = std::path::Path::new("target/obs-json/churn_soak");
    let recorder = Recorder::enabled();
    let sink =
        RotatingFileSink::new(sink_dir, "spans", 64 * 1024, 4).expect("sink directory creatable");
    recorder.set_span_sink(sink);

    let mut sc =
        ChurnScenario::with_recorder(&device, det_cfg(2), ChurnParams::default(), SEED, recorder);

    // ── The soak: every step is one audited service batch ─────────────
    let mut tally = std::collections::BTreeMap::new();
    for _ in 0..steps {
        let out = sc.step().expect("churn must stay violation-free");
        let name = match out.action {
            ChurnAction::Compose => "compose",
            ChurnAction::Relocate => "relocate",
            ChurnAction::Replace => "replace",
            ChurnAction::Retire => "retire",
        };
        *tally.entry(name).or_insert(0usize) += 1;
    }
    print!("churn soak: {steps} steps clean (");
    let parts: Vec<String> = tally.iter().map(|(k, v)| format!("{v} {k}")).collect();
    println!("{})", parts.join(", "));
    println!(
        "live state: {} cores, {} nets, {} segments",
        sc.live_cores(),
        sc.live_nets(),
        sc.svc().db().census().len()
    );

    // ── Record/replay: save the trace, replay it fresh, diff census ───
    let trace_path = std::path::Path::new("target/traces/churn_soak.jrt");
    std::fs::create_dir_all(trace_path.parent().unwrap()).unwrap();
    sc.trace().save(trace_path).expect("trace saves");
    let loaded = jroute_svc::Trace::load(trace_path).expect("trace loads");
    let mut fresh = RoutingService::new(&device, det_cfg(2));
    let summary = loaded.replay(&mut fresh).expect("trace replays");
    assert_eq!(fresh.db().census(), sc.svc().db().census());
    println!(
        "trace replay: {} requests ({} succeeded) from {} -> census identical",
        summary.submitted,
        summary.succeeded,
        trace_path.display()
    );

    // ── Negotiate the live demand from scratch ────────────────────────
    let res = sc
        .negotiate(&PathFinderConfig::default())
        .expect("live pins resolve");
    assert!(res.legal, "live demand must be routable from scratch");
    println!(
        "negotiation: {} nets legal in {} iterations, {} nodes expanded",
        res.nets.len(),
        res.iterations,
        res.nodes_expanded
    );

    // ── What hit the rotating sink ────────────────────────────────────
    sc.svc().recorder().flush_spans();
    let files = RotatingFileSink::files_written(sink_dir, "spans", 4);
    assert!(!files.is_empty(), "the soak must have streamed spans");
    println!(
        "span sink: {} rotating file(s) under {}",
        files.len(),
        sink_dir.display()
    );
    println!("churn_soak: OK");
}
