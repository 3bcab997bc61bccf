//! Golden work counters for timing-driven negotiation and the
//! multi-tenant server.
//!
//! Legality and the cross-width properties let a refactor of
//! PathFinder, the routing engine or the server change *what gets
//! searched* and still pass. These two tests pin the work itself: each
//! runs one seeded stream and compares its decision and effort counters,
//! plus hashes of the routes and of the final occupancy, with values
//! recorded when the test was written. A change that moves one on
//! purpose re-records it, with the before/after value and the reason in
//! CHANGES.md.

use detrand::DetRng;
use jbits::Bitstream;
use jroute::maze::{MazeConfig, CRIT_ONE};
use jroute::pathfinder::{self, NetSpec, PathFinderConfig};
use jroute::{NetId, Pin, Recorder};
use jroute_svc::server::{replay_trace, ServerConfig};
use jroute_svc::{RequestOutcome, ServerOutcome};
use jroute_timing::analyze_net;
use jroute_workloads::{
    random_netlist, tenant_mix, window_netlist, NetlistParams, TenantMixParams,
};
use std::collections::HashSet;
use virtex::{Device, Family, RowCol, Segment};

/// FNV-1a over a stream of integers: a hash whose value does not depend
/// on the standard library's hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn seg(&mut self, seg: Segment) {
        self.add(u64::from(seg.rc.row));
        self.add(u64::from(seg.rc.col));
        self.add(u64::from(seg.wire.0));
    }
}

/// A seeded XCV1000 netlist: 60 nets of 1 to 7 sinks within 6 tiles of
/// their sources, spread over the device so the planner's cuts separate
/// them, plus two contended 3×3 windows of single-sink nets. Tree
/// growth, partitioning and the criticality walk all run. No two nets share a pin.
fn netlist(dev: &Device) -> Vec<NetSpec> {
    let mut rng = DetRng::seed_from_u64(5);
    let mut specs = random_netlist(
        dev,
        &NetlistParams {
            nets: 60,
            max_fanout: 7,
            max_span: Some(6),
        },
        &mut rng,
    );
    let mut pins: HashSet<Pin> = specs
        .iter()
        .flat_map(|s| std::iter::once(s.source).chain(s.sinks.iter().copied()))
        .collect();
    for origin in [RowCol::new(14, 20), RowCol::new(40, 60)] {
        for spec in window_netlist(dev, 16, 3, origin, &mut rng) {
            let spec_pins: Vec<Pin> = std::iter::once(spec.source)
                .chain(spec.sinks.iter().copied())
                .collect();
            if spec_pins.iter().all(|p| !pins.contains(p)) {
                pins.extend(spec_pins);
                specs.push(spec);
            }
        }
    }
    specs
}

/// Compare each measured value with its golden value, by name.
fn assert_golden(got: &[(&str, u64)], golden: &[(&str, u64)]) {
    assert_eq!(got.len(), golden.len());
    for (&(name, got), &(golden_name, want)) in got.iter().zip(golden) {
        assert_eq!(name, golden_name);
        assert_eq!(got, want, "{name} moved off its golden value");
    }
}

/// Nodes the maze expanded over every search the recorder saw.
fn nodes_expanded(report: &jroute::obs::Report) -> u64 {
    report.hist("maze.nodes_expanded").map_or(0, |h| h.sum())
}

#[test]
fn timing_driven_negotiation_keeps_its_golden_counters() {
    let dev = Device::new(Family::Xcv1000);
    let specs = netlist(&dev);
    assert!(
        specs.iter().any(|s| s.sinks.len() >= 6),
        "a high-fanout net"
    );
    assert!(
        specs.iter().any(|s| (2..6).contains(&s.sinks.len())),
        "a small multi-sink net"
    );
    let cfg = PathFinderConfig {
        threads: 2,
        ..PathFinderConfig::timing_driven()
    };
    let obs = Recorder::enabled();
    let r = pathfinder::route_all_obs(&dev, &specs, &cfg, &obs).unwrap();
    assert!(r.legal, "the window negotiates to a legal result");
    assert_eq!(r.nets.len(), specs.len());
    let mut bits = Bitstream::new(&dev);
    pathfinder::apply(&r, &mut bits).unwrap();

    let mut routes = Fnv::new();
    for net in &r.nets {
        routes.add(net.pips.len() as u64);
        for &(rc, pip) in &net.pips {
            routes.add(u64::from(rc.row));
            routes.add(u64::from(rc.col));
            routes.add(u64::from(pip.from.0));
            routes.add(u64::from(pip.to.0));
        }
    }
    let mut crit = 0;
    for spec in &specs {
        let src = dev.canonicalize(spec.source.rc, spec.source.wire).unwrap();
        let timing = analyze_net(&bits, src);
        assert_eq!(timing.sink_delays.len(), spec.sinks.len(), "readback");
        crit = crit.max(timing.max_delay());
    }
    let report = obs.report();
    let counter = |name: &str| report.counter(name).unwrap_or(0);
    let got = [
        ("nets", specs.len() as u64),
        ("iterations", r.iterations as u64),
        (
            "pathfinder.nets_rerouted",
            counter("pathfinder.nets_rerouted"),
        ),
        ("maze.searches", counter("maze.searches")),
        ("maze.nodes_expanded", nodes_expanded(&report)),
        ("result.nodes_expanded", r.nodes_expanded as u64),
        ("pathfinder.waves", counter("pathfinder.waves")),
        (
            "pathfinder.partition_conflicts",
            counter("pathfinder.partition_conflicts"),
        ),
        ("pips_applied", bits.on_pip_count() as u64),
        ("route_hash", routes.0),
        ("crit_path_ps", crit),
    ];
    let golden = [
        ("nets", 91),
        ("iterations", 3),
        ("pathfinder.nets_rerouted", 188),
        // 666 and 110_351 while nets of 6 or more sinks also built a
        // nearest-to-tree arm and kept the cheaper tree; every net now
        // grows in input order only, and a sink already on the tree
        // costs no search.
        ("maze.searches", 502),
        ("maze.nodes_expanded", 81_700),
        ("result.nodes_expanded", 81_700),
        ("pathfinder.waves", 80),
        ("pathfinder.partition_conflicts", 290),
        ("pips_applied", 1_058),
        ("route_hash", 0xb03c_00dc_0b85_bc2e),
        ("crit_path_ps", 2_270),
    ];
    assert_golden(&got, &golden);
}

#[test]
fn deterministic_server_keeps_its_golden_counters() {
    let devices = [Device::new(Family::Xcv300), Device::new(Family::Xcv300)];
    let refs: Vec<&Device> = devices.iter().collect();
    let mut rng = DetRng::seed_from_u64(7331);
    let trace = tenant_mix(
        &devices[0],
        &TenantMixParams {
            tenants: 2,
            per_tenant: 40,
            batch_every: 16,
            fanout: 3,
            span: 5,
            unroute_pct: 20,
            replace_pct: 20,
        },
        &mut rng,
    );
    // Long lines are exempt from search regions, so a commit that takes
    // one makes every frozen search of the batch stale: the stream
    // re-searches, and the engine's staleness rule is pinned too.
    let cfg = ServerConfig {
        maze: MazeConfig {
            use_long_lines: true,
            crit: CRIT_ONE,
            ..MazeConfig::default()
        },
        threads: 2,
        tenant_threads: 2,
        audit: true,
        ..Default::default()
    };
    // `replay_trace` serves in `ExecMode::Deterministic` and flushes at
    // every recorded batch boundary.
    let obs = Recorder::enabled();
    let report = replay_trace(&refs, &cfg, obs.clone(), &trace).unwrap();

    // Outcome tally: routed, unrouted, replaced, congested, rejected,
    // anything else.
    let mut tally = [0u64; 6];
    let mut census = Fnv::new();
    let mut batches = Vec::new();
    for t in &report.tenants {
        assert_eq!(t.leaked_segments, Some(0), "tenant {} audit", t.tenant);
        batches.push(t.batches);
        for (_, outcome) in &t.outcomes {
            let k = match outcome {
                ServerOutcome::Done(RequestOutcome::Routed { .. }) => 0,
                ServerOutcome::Done(RequestOutcome::Unrouted { .. }) => 1,
                ServerOutcome::Done(RequestOutcome::Replaced { .. }) => 2,
                ServerOutcome::Done(RequestOutcome::Congested {}) => 3,
                ServerOutcome::Done(RequestOutcome::Rejected(_)) => 4,
                _ => 5,
            };
            tally[k] += 1;
        }
        census.add(t.census.len() as u64);
        for &(seg, NetId(id)) in &t.census {
            census.seg(seg);
            census.add(u64::from(id));
        }
    }
    let r = obs.report();
    let counter = |name: &str| r.counter(name).unwrap_or(0);
    let got = [
        ("tenant0.batches", batches[0]),
        ("tenant1.batches", batches[1]),
        ("svc.waves", counter("svc.waves")),
        ("svc.researched", counter("svc.researched")),
        ("maze.nodes_expanded", nodes_expanded(&r)),
        ("routed", tally[0]),
        ("unrouted", tally[1]),
        ("replaced", tally[2]),
        ("congested", tally[3]),
        ("rejected", tally[4]),
        ("other", tally[5]),
        ("census_hash", census.0),
    ];
    let golden = [
        ("tenant0.batches", 5),
        ("tenant1.batches", 5),
        ("svc.waves", 47),
        ("svc.researched", 1),
        ("maze.nodes_expanded", 10_707),
        ("routed", 48),
        ("unrouted", 9),
        ("replaced", 7),
        ("congested", 0),
        ("rejected", 16),
        ("other", 0),
        ("census_hash", 0x1e56_e492_c6a7_d858),
    ];
    assert_golden(&got, &golden);
}
