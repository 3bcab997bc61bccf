//! Churn soak: thousands of compose / relocate / replace / retire steps
//! against the routing service, audited every step.
//!
//! This is the scenario-corpus endurance test (ISSUE PR 6 acceptance):
//!
//! * **1000 steps, 1 worker and 4 workers** — every step's batch must
//!   report `leaked_segments == Some(0)` and pass the scenario's own
//!   net-count census audit (both enforced inside
//!   [`ChurnScenario::step`]; any violation aborts the test).
//! * **Replay census equality** — the recorded trace replayed into a
//!   fresh service reproduces the soaked service's exact
//!   segment census, so a thousand steps of churn leave nothing behind
//!   that a from-scratch execution would not also leave.
//! * **Bounded negotiation** — periodically re-negotiating the live
//!   demand with the incremental PathFinder must stay within the
//!   per-net budget (`pathfinder.nets_rerouted` grows by at most
//!   `live nets x max_iterations` per negotiation, and converges
//!   legally every time).

use jroute::pathfinder::PathFinderConfig;
use jroute::Recorder;
use jroute_svc::{RoutingService, ServiceConfig};
use jroute_workloads::{ChurnParams, ChurnScenario};
use virtex::{Device, Family};

const SOAK_STEPS: usize = 1000;
const SEED: u64 = 0x50AC; // "soak"

fn det_cfg(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        audit: true,
        ..Default::default()
    }
}

/// Run the full soak at `threads` workers; returns the scenario for
/// follow-on checks.
fn soak(dev: &Device, threads: usize) -> ChurnScenario<'_> {
    let mut sc = ChurnScenario::new(dev, det_cfg(threads), ChurnParams::default(), SEED);
    let mut committed = 0usize;
    for _ in 0..SOAK_STEPS {
        let out = sc
            .step()
            .unwrap_or_else(|v| panic!("soak at {threads} workers: {v}"));
        if out.committed {
            committed += 1;
        }
    }
    assert_eq!(sc.steps(), SOAK_STEPS);
    assert!(
        committed > SOAK_STEPS / 2,
        "churn stalled: only {committed}/{SOAK_STEPS} steps committed"
    );
    sc
}

fn soak_and_replay(threads: usize) {
    let dev = Device::new(Family::Xcv50);
    let sc = soak(&dev, threads);

    // Census equality against a fresh service replaying the recorded
    // trace: the soaked state is exactly reproducible from the request
    // stream, with zero leaked segments either way.
    let mut fresh = RoutingService::new(&dev, det_cfg(threads));
    let summary = sc.trace().replay(&mut fresh).expect("trace replays");
    assert_eq!(summary.submitted, sc.trace().len());
    for report in &summary.reports {
        assert_eq!(report.leaked_segments, Some(0), "replay leaked segments");
    }
    assert_eq!(
        fresh.db().census(),
        sc.svc().db().census(),
        "replayed census diverged from the soaked census"
    );
    assert_eq!(fresh.db().len(), sc.live_nets());
}

#[test]
fn thousand_step_soak_single_worker() {
    soak_and_replay(1);
}

#[test]
fn thousand_step_soak_four_workers() {
    soak_and_replay(4);
}

/// Interleave churn with periodic incremental negotiation of the live
/// demand and keep `pathfinder.nets_rerouted` within the per-net budget.
#[test]
fn negotiation_during_churn_stays_bounded() {
    let dev = Device::new(Family::Xcv50);
    let mut sc = ChurnScenario::with_recorder(
        &dev,
        det_cfg(2),
        ChurnParams::default(),
        SEED,
        Recorder::enabled(),
    );
    let cfg = PathFinderConfig::default();
    let mut last = 0u64;
    for chunk in 0..10 {
        for _ in 0..25 {
            sc.step().unwrap_or_else(|v| panic!("chunk {chunk}: {v}"));
        }
        let res = sc.negotiate(&cfg).expect("live demand resolves");
        assert!(res.legal, "chunk {chunk}: live demand must stay routable");
        assert_eq!(res.nets.len(), sc.live_nets());
        let now = sc
            .svc()
            .recorder()
            .report()
            .counter("pathfinder.nets_rerouted")
            .unwrap_or(0);
        let delta = now - last;
        last = now;
        let budget = (sc.live_nets() * cfg.max_iterations) as u64;
        assert!(
            delta <= budget,
            "chunk {chunk}: negotiation rerouted {delta} nets, budget {budget}"
        );
    }
}
