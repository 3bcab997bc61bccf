//! E15: incremental PathFinder convergence on an XCV1000-class grid.
//!
//! The negotiated router's cost on a large array is dominated by two
//! things the incremental machinery attacks directly: re-searching nets
//! that were never in trouble (dirty-net rip-up avoids it) and expanding
//! maze nodes far from a net's terminals (bounding-box pruning avoids
//! it). This bench routes the same congested workload twice — once with
//! the incremental schedule (dirty nets only, region-pruned searches,
//! adaptive `pres_fac`) and once with the classic full-ripup schedule —
//! and records both, so the regression gate keeps the gap honest.
//!
//! The table also asserts the core incrementality claim: once iteration
//! 1 is done, the incremental schedule re-searches strictly fewer nets
//! than full rip-up (which re-searches all of them, every iteration).

use detrand::DetRng;
use harness::{bench_group, bench_main, BatchSize, Bench};
use jroute::pathfinder::{self, NetSpec, PathFinderConfig};
use jroute_bench::SEED;
use jroute_obs::Recorder;
use jroute_workloads::{random_netlist, window_netlist, NetlistParams};
use virtex::{Device, Family, RowCol};

fn dev() -> Device {
    Device::new(Family::Xcv1000)
}

/// Scattered short nets across the whole array plus one congested window
/// in the middle: the window forces multi-iteration negotiation while the
/// scattered nets are exactly the ones a full rip-up re-searches for
/// nothing.
fn workload(dev: &Device, scattered: usize, hot: usize, window: u16) -> Vec<NetSpec> {
    let mut rng = DetRng::seed_from_u64(SEED);
    let mut specs = random_netlist(
        dev,
        &NetlistParams {
            nets: scattered,
            max_fanout: 2,
            max_span: Some(8),
        },
        &mut rng,
    );
    specs.extend(window_netlist(
        dev,
        hot,
        window,
        RowCol::new(32, 48),
        &mut rng,
    ));
    specs
}

fn incremental_cfg() -> PathFinderConfig {
    PathFinderConfig::default()
}

fn full_ripup_cfg() -> PathFinderConfig {
    PathFinderConfig {
        full_ripup: true,
        ..PathFinderConfig::default()
    }
}

struct Run {
    legal: bool,
    iterations: usize,
    nets_rerouted: u64,
    bbox_prunes: u64,
    nodes_expanded: usize,
}

fn run(dev: &Device, specs: &[NetSpec], cfg: &PathFinderConfig) -> Run {
    let obs = Recorder::enabled();
    let r = pathfinder::route_all_obs(dev, specs, cfg, &obs).unwrap();
    let rep = obs.report();
    Run {
        legal: r.legal,
        iterations: r.iterations,
        nets_rerouted: rep.counter("pathfinder.nets_rerouted").unwrap_or(0),
        bbox_prunes: rep.counter("maze.bbox_prunes").unwrap_or(0),
        nodes_expanded: r.nodes_expanded,
    }
}

fn table() {
    eprintln!("\n=== E15: incremental vs full-ripup PathFinder (XCV1000) ===");
    eprintln!(
        "{:<18} | {:>6} {:>6} {:>10} {:>12} {:>12}",
        "schedule", "legal", "iters", "re-nets", "prunes", "nodes"
    );
    let dev = dev();
    for (scattered, hot, window) in [(60usize, 48usize, 3u16), (120, 64, 4)] {
        let specs = workload(&dev, scattered, hot, window);
        let nets = specs.len();
        let incr = run(&dev, &specs, &incremental_cfg());
        let full = run(&dev, &specs, &full_ripup_cfg());
        for (name, r) in [("incremental", &incr), ("full_ripup", &full)] {
            eprintln!(
                "{:<11}n={:<4} | {:>6} {:>6} {:>10} {:>12} {:>12}",
                name, nets, r.legal, r.iterations, r.nets_rerouted, r.bbox_prunes, r.nodes_expanded
            );
        }
        assert!(incr.legal && full.legal, "both schedules must converge");
        if full.iterations > 1 {
            // Full rip-up re-searches every net every iteration; the
            // incremental schedule must do strictly better after
            // iteration 1 (§ISSUE acceptance).
            assert_eq!(full.nets_rerouted, (nets * full.iterations) as u64);
            assert!(
                incr.nets_rerouted < full.nets_rerouted,
                "incremental rerouted {} nets, full {}",
                incr.nets_rerouted,
                full.nets_rerouted
            );
        }
    }
    // One incremental-only row on the synthetic SUPER4 fabric (full
    // rip-up without region pruning is prohibitively slow out there —
    // which is the point): the incremental schedule must keep converging
    // past the real family's ceiling. E18 carries the worker sweep.
    let big = Device::new(Family::Super4);
    let specs = workload(&big, 60, 32, 3);
    let incr = run(&big, &specs, &incremental_cfg());
    eprintln!(
        "{:<5}{:<6}n={:<4} | {:>6} {:>6} {:>10} {:>12} {:>12}",
        "incr_",
        big.family().name(),
        specs.len(),
        incr.legal,
        incr.iterations,
        incr.nets_rerouted,
        incr.bbox_prunes,
        incr.nodes_expanded
    );
    assert!(
        incr.legal,
        "incremental negotiation must converge on SUPER4"
    );
}

fn bench(c: &mut Bench) {
    table();
    let dev = dev();
    let mut g = c.benchmark_group("e15");
    for (scattered, hot, window) in [(60usize, 48usize, 3u16), (120, 64, 4)] {
        let specs = workload(&dev, scattered, hot, window);
        let nets = specs.len();
        g.bench_function(format!("incremental_{nets}"), |b| {
            b.iter_batched(
                || (),
                |_| pathfinder::route_all(&dev, &specs, &incremental_cfg()).unwrap(),
                BatchSize::PerIteration,
            )
        });
        g.bench_function(format!("full_ripup_{nets}"), |b| {
            b.iter_batched(
                || (),
                |_| pathfinder::route_all(&dev, &specs, &full_ripup_cfg()).unwrap(),
                BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

bench_group! {
    name = benches;
    config = Bench::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
bench_main!(benches);
