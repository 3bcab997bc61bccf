//! Batch routing service demo (the E14 extension): drive `jroute-svc`
//! through the run-time traffic a reconfiguration controller generates —
//! a burst of route requests with priorities, then a second batch that
//! unroutes, replaces and cancels against the committed state — and
//! inspect the engine's wave telemetry.
//!
//! Run with: `cargo run --release --example route_service`

use detrand::DetRng;
use jroute::Recorder;
use jroute_svc::{Deadline, RequestKind, RequestOutcome, RoutingService, ServiceConfig};
use jroute_workloads::{random_netlist, NetlistParams};
use virtex::{Device, Family};

fn main() {
    let device = Device::new(Family::Xcv1000); // 64x96 CLBs
    let cfg = ServiceConfig {
        threads: 4,
        ..Default::default()
    };
    let mut svc = RoutingService::with_recorder(&device, cfg, Recorder::enabled());
    println!("service on {} with {} workers\n", device.family(), 4);

    // ── Batch 1: a burst of route requests at mixed priorities ────────
    let mut rng = DetRng::seed_from_u64(7);
    let specs = random_netlist(
        &device,
        &NetlistParams {
            nets: 40,
            max_fanout: 2,
            max_span: Some(12),
        },
        &mut rng,
    );
    let ids: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            // Lower number = more urgent; every fourth net is high-priority.
            let priority = if i % 4 == 0 { 16 } else { 128 };
            let (id, _) = svc
                .submit_with(RequestKind::Route(s.clone()), priority, None)
                .expect("queue has room");
            id
        })
        .collect();
    let report = svc.run_batch();
    let routed: Vec<_> = ids
        .iter()
        .copied()
        .filter(|&id| report.outcome(id).is_some_and(|o| o.is_success()))
        .collect();
    println!(
        "batch 1: {}/{} routed  ({} stale results re-searched at commit)",
        routed.len(),
        ids.len(),
        report.researched
    );

    // ── Batch 2: the §5 core-swap pattern against committed state ─────
    // Unroute five nets, atomically replace one with two fresh nets,
    // route more fresh traffic, and cancel one request mid-queue.
    let fresh = random_netlist(
        &device,
        &NetlistParams {
            nets: 10,
            max_fanout: 1,
            max_span: Some(12),
        },
        &mut rng,
    );
    for &id in routed.iter().take(5) {
        svc.submit(RequestKind::Unroute(id)).unwrap();
    }
    svc.submit(RequestKind::Replace {
        remove: vec![routed[5]],
        add: vec![fresh[0].clone(), fresh[1].clone()],
    })
    .unwrap();
    for s in &fresh[2..] {
        svc.submit(RequestKind::Route(s.clone())).unwrap();
    }
    let (doomed, token) = svc
        .submit_with(RequestKind::Route(specs[0].clone()), 128, None)
        .unwrap();
    token.cancel();
    let (hopeless, _) = svc
        .submit_with(
            RequestKind::Route(specs[1].clone()),
            255,
            Some(Deadline::Steps(0)),
        )
        .unwrap();

    let report = svc.run_batch();
    println!("batch 2 outcomes:");
    for (id, outcome) in &report.outcomes {
        let tag = match outcome {
            RequestOutcome::Routed { segments, .. } => format!("routed ({segments} segments)"),
            RequestOutcome::Unrouted { nets } => format!("unrouted {} nets", nets.len()),
            RequestOutcome::Replaced { removed, added } => {
                format!("replaced {} nets with {}", removed.len(), added.len())
            }
            RequestOutcome::Cancelled => "cancelled".into(),
            RequestOutcome::Expired => "deadline expired".into(),
            RequestOutcome::Congested {} => "congested".into(),
            RequestOutcome::Rejected(r) => format!("rejected: {r:?}"),
        };
        println!("  request {id:>3}: {tag}");
    }
    assert_eq!(report.outcome(doomed), Some(&RequestOutcome::Cancelled));
    assert_eq!(report.outcome(hopeless), Some(&RequestOutcome::Expired));
    println!("\ncommitted nets now live: {}", svc.db().len());

    // ── Telemetry: what the engine measured ───────────────────────────
    let obs = svc.recorder().report();
    println!("\n{obs}");

    // ── The same workload, bit-for-bit reproducible ───────────────────
    // Every batch commits in (priority, submission) order whatever the
    // worker count: same requests, same commit log, same final state —
    // the substrate the stress suite uses to diff the service against a
    // sequential model.
    let replay = |threads: usize| {
        let cfg = ServiceConfig {
            threads,
            ..Default::default()
        };
        let mut svc = RoutingService::new(&device, cfg);
        for s in &specs {
            svc.submit(RequestKind::Route(s.clone())).unwrap();
        }
        let report = svc.run_batch();
        let log: Vec<_> = report.log.iter().map(|e| (e.step, e.request)).collect();
        println!(
            "{} workers: {} commits, first five steps {:?}, {} nets",
            threads,
            log.len(),
            &log[..5.min(log.len())],
            svc.db().len()
        );
        (log, svc.db().census())
    };
    let a = replay(1);
    let b = replay(4);
    assert_eq!(a, b, "every width must reproduce the commit log and state");
    println!("deterministic replay: commit logs and states identical");
}
