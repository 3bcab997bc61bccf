//! E20: criticality-driven negotiation.
//!
//! The RWRoute-style recipe on top of the negotiated router: per-sink
//! criticality blends a delay term into the PathFinder cost
//! (`(1−crit)·congestion + crit·delay`). Two claims are gated here:
//!
//! 1. **Delay** — on an e13-style contended workload (XCV1000 and the
//!    synthetic SUPER4), the criticality-driven run must converge with a
//!    *strictly lower* critical-path delay than the pure-congestion run,
//!    with zero routability loss (both legal, same nets routed).
//! 2. **Determinism** — the criticality-driven engine stays bit-identical
//!    across worker counts (`JROUTE_THREADS` override honoured).

use detrand::DetRng;
use harness::{bench_group, bench_main, BatchSize, Bench};
use jroute::pathfinder::{self, NetSpec, PathFinderConfig, PathFinderResult};
use jroute_bench::{thread_counts, SEED};
use jroute_timing::analyze_net;
use jroute_workloads::{fanout_spec, window_netlist};
use virtex::{Device, Family, RowCol};

fn dev() -> Device {
    Device::new(Family::Xcv1000)
}

/// e13-style timing workload: one contended window (forces negotiation,
/// so criticality actually steers rip-up) plus high-fanout nets spread
/// far apart (they carry long arrival chains under greedy reuse).
fn workload(dev: &Device, hot: usize) -> Vec<NetSpec> {
    let mut rng = DetRng::seed_from_u64(SEED);
    let mut specs = window_netlist(dev, hot, 3, RowCol::new(32, 48), &mut rng);
    for (row, col) in [(8u16, 12u16), (8, 60), (52, 12)] {
        specs.push(fanout_spec(dev, RowCol::new(row, col), 8, 8, &mut rng));
    }
    specs
}

fn base_cfg() -> PathFinderConfig {
    PathFinderConfig::default()
}

fn timing_cfg() -> PathFinderConfig {
    PathFinderConfig::timing_driven()
}

/// Critical-path delay of a converged result, measured the honest way:
/// apply the routes to a bitstream and run the readback-based analysis
/// (`timing::analysis`), not the router's own bookkeeping.
fn critical_delay(dev: &Device, r: &PathFinderResult) -> u64 {
    let mut bits = jbits::Bitstream::new(dev);
    pathfinder::apply(r, &mut bits).expect("converged result applies");
    r.nets
        .iter()
        .map(|n| {
            let src = dev
                .canonicalize(n.spec.source.rc, n.spec.source.wire)
                .unwrap();
            analyze_net(&bits, src).max_delay()
        })
        .max()
        .unwrap_or(0)
}

/// Per-net (segments, sink delays) fingerprint for bit-identity checks.
type CensusKey = Vec<(Vec<virtex::Segment>, Vec<u64>)>;

fn census_key(r: &PathFinderResult) -> CensusKey {
    r.nets
        .iter()
        .map(|n| (n.segments.clone(), n.sink_delays.clone()))
        .collect()
}

fn table() {
    eprintln!("\n=== E20: pure-congestion vs criticality-driven negotiation ===");
    eprintln!(
        "{:<14} | {:>6} {:>6} {:>12} {:>12} {:>8}",
        "fabric", "legal", "iters", "cong(ps)", "crit(ps)", "gain"
    );
    for (fam, hot) in [(Family::Xcv1000, 48usize), (Family::Super4, 32)] {
        let dev = Device::new(fam);
        let specs = workload(&dev, hot);
        let base = pathfinder::route_all(&dev, &specs, &base_cfg()).unwrap();
        let timed = pathfinder::route_all(&dev, &specs, &timing_cfg()).unwrap();
        assert!(base.legal && timed.legal, "both modes must converge");
        assert_eq!(
            base.nets.len(),
            timed.nets.len(),
            "zero routability loss: same nets routed"
        );
        let bd = critical_delay(&dev, &base);
        let td = critical_delay(&dev, &timed);
        eprintln!(
            "{:<14} | {:>6} {:>6} {:>12} {:>12} {:>7.1}%",
            fam.name(),
            timed.legal,
            timed.iterations,
            bd,
            td,
            100.0 * (bd as f64 - td as f64) / bd as f64
        );
        assert!(
            td < bd,
            "{}: criticality-driven delay {td}ps must strictly beat pure-congestion {bd}ps",
            fam.name()
        );
    }

    // Determinism across worker counts, on the real-family row.
    let dev = dev();
    let specs = workload(&dev, 48);
    let mut reference: Option<(usize, CensusKey)> = None;
    for workers in thread_counts(&[1, 4, 8]) {
        let r = pathfinder::route_all(
            &dev,
            &specs,
            &PathFinderConfig {
                threads: workers,
                ..timing_cfg()
            },
        )
        .unwrap();
        let key = (r.iterations, census_key(&r));
        match &reference {
            None => reference = Some(key),
            Some(want) => assert_eq!(
                want, &key,
                "criticality-driven result differs at {workers} workers"
            ),
        }
    }
    eprintln!("\nworker sweep: census + delays bit-identical");
}

fn bench(c: &mut Bench) {
    table();
    let dev = dev();
    let specs = workload(&dev, 48);
    let mut g = c.benchmark_group("e20");
    g.bench_function("pure_congestion", |b| {
        b.iter_batched(
            || (),
            |_| pathfinder::route_all(&dev, &specs, &base_cfg()).unwrap(),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("criticality_driven", |b| {
        b.iter_batched(
            || (),
            |_| pathfinder::route_all(&dev, &specs, &timing_cfg()).unwrap(),
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

bench_group! {
    name = benches;
    config = Bench::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
bench_main!(benches);
