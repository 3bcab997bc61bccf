//! Service-layer concurrency stress tests.
//!
//! Multi-batch mixed workloads (route / unroute / replace / cancel /
//! deadline) run through `jroute-svc` at 1, 4 and 8 workers. After each
//! batch the log is replayed through the single-threaded
//! [`SequentialModel`], which must reach the *identical* `NetDb` census —
//! same segments, same `NetId`s — with a clean leak audit; and the
//! census and log must be identical at every worker count. The workload
//! runs on a small device, where every search region overlaps and the
//! batch serializes, and on a larger one, where disjoint regions search
//! in parallel waves on real threads.

use detrand::DetRng;
use jroute::maze::MazeConfig;
use jroute::pathfinder::NetSpec;
use jroute::{Pin, Recorder};
use jroute_svc::model::SequentialModel;
use jroute_svc::{
    Deadline, LogEntry, RequestId, RequestKind, RequestOutcome, RoutingService, ServiceConfig,
};
use jroute_workloads::{random_netlist, NetlistParams};
use std::collections::{HashMap, HashSet};
use virtex::{wire, Device, Family, Segment};

const SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0xC0FFEE];
const WORKERS: [usize; 3] = [1, 4, 8];

fn cfg(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        audit: true,
        ..Default::default()
    }
}

/// A service plus the kinds of everything submitted to it, so batch
/// logs can be replayed into a model.
struct Driver<'d> {
    svc: RoutingService<'d>,
    kinds: HashMap<RequestId, RequestKind>,
}

impl<'d> Driver<'d> {
    fn new(svc: RoutingService<'d>) -> Self {
        Driver {
            svc,
            kinds: HashMap::new(),
        }
    }

    fn submit(&mut self, kind: RequestKind) -> RequestId {
        let id = self.svc.submit(kind.clone()).expect("queue has room");
        self.kinds.insert(id, kind);
        id
    }

    /// Run a batch, replay its successes into `model`, check the model
    /// agrees, and return the outcomes and log.
    fn run_and_replay(
        &mut self,
        model: &mut SequentialModel<'_>,
        label: &str,
    ) -> (Vec<(RequestId, RequestOutcome)>, Vec<LogEntry>) {
        let report = self.svc.run_batch();
        assert_eq!(
            report.leaked_segments,
            Some(0),
            "{label}: net database and committed requests disagree"
        );
        for entry in &report.log {
            if report.outcome(entry.request).unwrap().is_success() {
                model.apply(entry.request, &self.kinds[&entry.request]);
            }
        }
        assert_eq!(
            model.db().census(),
            self.svc.db().census(),
            "{label}: diverged from the model"
        );
        // Bookkeeping: every Routed outcome names a live net of the
        // reported size, held by its request.
        for (id, o) in &report.outcomes {
            if let RequestOutcome::Routed { net, segments } = o {
                let n = self.svc.db().net(*net).expect("routed net is live");
                assert_eq!(n.segment_count(), *segments);
                assert_eq!(self.svc.nets_of(*id), Some(&[*net][..]));
            }
        }
        (report.outcomes, report.log)
    }
}

/// The two-batch mixed workload at one width: batch one routes a
/// netlist; batch two unroutes one of those nets, replaces another,
/// routes fresh ones, and throws in a cancelled and an expired request.
/// Returns the final census and both logs.
fn run_workload(
    dev: &Device,
    seed: u64,
    nets: usize,
    threads: usize,
) -> (Vec<(Segment, jroute::NetId)>, Vec<Vec<LogEntry>>) {
    let label = format!("{} seed {seed:#x} threads {threads}", dev.family());
    let mut d = Driver::new(RoutingService::new(dev, cfg(threads)));
    let mut model = SequentialModel::new(dev, MazeConfig::default());
    let mut rng = DetRng::seed_from_u64(seed);
    let specs = random_netlist(
        dev,
        &NetlistParams {
            nets,
            max_fanout: 2,
            max_span: Some(4),
        },
        &mut rng,
    );
    for s in &specs {
        d.submit(RequestKind::Route(s.clone()));
    }
    let (outcomes, log1) = d.run_and_replay(&mut model, &label);
    let committed: Vec<RequestId> = outcomes
        .iter()
        .filter(|(_, o)| o.is_success())
        .map(|&(id, _)| id)
        .collect();
    assert!(!committed.is_empty(), "{label}: first batch routed nothing");

    let fresh = random_netlist(
        dev,
        &NetlistParams {
            nets: 6,
            max_fanout: 1,
            max_span: Some(4),
        },
        &mut rng,
    );
    d.submit(RequestKind::Unroute(committed[0]));
    if committed.len() > 1 {
        d.submit(RequestKind::Replace {
            remove: vec![committed[1]],
            add: vec![fresh[0].clone(), fresh[1].clone()],
        });
    }
    for s in &fresh[2..] {
        d.submit(RequestKind::Route(s.clone()));
    }
    let (cancelled, token) = d
        .svc
        .submit_with(RequestKind::Route(specs[0].clone()), 128, None)
        .unwrap();
    token.cancel();
    let (expired, _) = d
        .svc
        .submit_with(
            RequestKind::Route(specs[1].clone()),
            128,
            Some(Deadline::Steps(0)),
        )
        .unwrap();
    let (outcomes, log2) = d.run_and_replay(&mut model, &label);
    let lookup: HashMap<RequestId, &RequestOutcome> =
        outcomes.iter().map(|(id, o)| (*id, o)).collect();
    assert_eq!(lookup[&cancelled], &RequestOutcome::Cancelled);
    assert_eq!(lookup[&expired], &RequestOutcome::Expired);
    (d.svc.db().census(), vec![log1, log2])
}

#[test]
fn deterministic_schedules_match_sequential_model() {
    for (family, nets) in [(Family::Xcv50, 10), (Family::Xcv300, 24)] {
        let dev = Device::new(family);
        for &seed in &SEEDS {
            let one = run_workload(&dev, seed, nets, WORKERS[0]);
            for &threads in &WORKERS[1..] {
                assert_eq!(
                    one,
                    run_workload(&dev, seed, nets, threads),
                    "{family} seed {seed:#x}: {threads} workers changed the census or log"
                );
            }
        }
    }
}

/// Real-thread batches on the larger device keep the single-owner
/// invariant and their bookkeeping: a pure-route batch yields only
/// `Routed` or `Congested`, every routed net is live at its reported
/// size, and nothing else is left in the database. A mixed second batch
/// keeps the invariant and still matches the model.
#[test]
fn threaded_schedules_keep_invariants() {
    let dev = Device::new(Family::Xcv300);
    for &seed in &SEEDS {
        for &threads in &WORKERS[1..] {
            let label = format!("seed {seed:#x} threads {threads}");
            let mut d = Driver::new(RoutingService::new(&dev, cfg(threads)));
            let mut model = SequentialModel::new(&dev, MazeConfig::default());
            let mut rng = DetRng::seed_from_u64(seed);
            let specs = random_netlist(
                &dev,
                &NetlistParams {
                    nets: 14,
                    max_fanout: 2,
                    max_span: Some(4),
                },
                &mut rng,
            );
            for s in &specs {
                d.submit(RequestKind::Route(s.clone()));
            }
            let (outcomes, _) = d.run_and_replay(&mut model, &label);
            assert_eq!(outcomes.len(), specs.len(), "{label}");
            assert_single_owner(d.svc.db(), &label);
            let mut live = 0usize;
            for (_, o) in &outcomes {
                match o {
                    RequestOutcome::Routed { .. } => live += 1,
                    RequestOutcome::Congested { .. } => {}
                    other => panic!("{label}: unexpected outcome in pure-route batch: {other:?}"),
                }
            }
            assert_eq!(d.svc.db().len(), live, "{label}");

            let fresh = random_netlist(
                &dev,
                &NetlistParams {
                    nets: 6,
                    max_fanout: 1,
                    max_span: Some(4),
                },
                &mut rng,
            );
            let committed: Vec<RequestId> = outcomes
                .iter()
                .filter(|(_, o)| o.is_success())
                .map(|&(id, _)| id)
                .collect();
            for id in committed.iter().step_by(2) {
                d.submit(RequestKind::Unroute(*id));
            }
            for s in &fresh {
                d.submit(RequestKind::Route(s.clone()));
            }
            d.run_and_replay(&mut model, &label);
            assert_single_owner(d.svc.db(), &format!("{label} batch 2"));
        }
    }
}

fn assert_single_owner(db: &jroute::NetDb, label: &str) {
    let mut seen = HashSet::new();
    for (seg, _) in db.iter_used() {
        assert!(seen.insert(seg), "{label}: segment {seg} owned twice");
    }
}

/// A frozen wave result that a same-wave commit made stale is searched
/// again at its commit, and the batch still matches the model. Two
/// vertical nets in one device column have disjoint regions and search
/// in the same wave; with long lines on and a pure-delay cost, both pick
/// the column's same vertical long line, so the second must re-search
/// after the first takes it.
#[test]
fn stale_wave_results_are_searched_again() {
    let dev = Device::new(Family::Xcv1000);
    let maze = MazeConfig {
        use_long_lines: true,
        crit: jroute::maze::CRIT_ONE,
        ..MazeConfig::default()
    };
    let net = |r: u16| {
        NetSpec::new(
            Pin::new(r, 40, wire::S0_YQ),
            vec![Pin::new(r + 16, 40, wire::S0_F3)],
        )
    };
    let specs = [net(2), net(38)];
    let run = |threads: usize| {
        let obs = Recorder::enabled();
        let mut svc = RoutingService::with_recorder(
            &dev,
            ServiceConfig {
                threads,
                maze: maze.clone(),
                audit: true,
                ..Default::default()
            },
            obs.clone(),
        );
        let ids: Vec<RequestId> = specs
            .iter()
            .map(|s| svc.submit(RequestKind::Route(s.clone())).unwrap())
            .collect();
        let report = svc.run_batch();
        let mut model = SequentialModel::new(&dev, maze.clone());
        for (id, spec) in ids.iter().zip(&specs) {
            assert!(report.outcome(*id).unwrap().is_success());
            model.apply(*id, &RequestKind::Route(spec.clone()));
        }
        assert_eq!(model.db().census(), svc.db().census(), "threads {threads}");
        let rep = obs.report();
        (
            report.researched,
            rep.counter("svc.waves").unwrap_or(0),
            rep.counter("maze.searches").unwrap_or(0),
        )
    };
    for threads in [1, 2] {
        let (researched, waves, searches) = run(threads);
        assert_eq!(waves, 1, "both nets search in one wave");
        assert_eq!(researched, 1, "the second net's frozen result went stale");
        assert_eq!(searches, 3, "two wave searches plus one re-search");
    }
}
