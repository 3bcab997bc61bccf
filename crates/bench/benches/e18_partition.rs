//! E18: partition-parallel negotiation scaled past the XCV1000.
//!
//! The unified engine partitions each PathFinder iteration's dirty-net
//! set into bbox-disjoint waves and routes every wave on scoped workers
//! sharing one task cursor, so negotiation throughput should scale with
//! worker count — on fabrics bigger than anything the paper's Virtex
//! family shipped. This bench routes a scattered-plus-hotspots workload
//! on the synthetic `SUPER4` member (4x the XCV1000 tile count) across a
//! worker sweep and reports nets-routed/sec per worker count.
//!
//! The engine is determinism-by-construction (waves only hold nets whose
//! search regions are disjoint), so the table *asserts* that every
//! worker count produces the identical result — same legality, same
//! iteration count, same overuse, same net-by-net segment census. The
//! speedup column is reported but not asserted: CI machines may have a
//! single core, where every thread count degenerates to the same
//! wall-clock.
//!
//! Worker counts honour the `JROUTE_THREADS` override (comma-separated).

use detrand::DetRng;
use harness::{bench_group, bench_main, BatchSize, Bench};
use jroute::pathfinder::{self, NetSpec, PathFinderConfig, PathFinderResult};
use jroute_bench::{thread_counts, SEED};
use jroute_workloads::{random_netlist, window_netlist, NetlistParams};
use std::time::Instant;
use virtex::{Device, Family, RowCol};

fn dev() -> Device {
    Device::new(Family::Super4)
}

/// Scattered short nets across the whole super-fabric plus two congested
/// windows: the windows force multi-iteration negotiation (serialized
/// waves around the hotspots), the scattered majority is what the
/// partitioner should spread across the workers in a handful of wide
/// waves.
fn workload(dev: &Device, scattered: usize, hot: usize) -> Vec<NetSpec> {
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
    specs.extend(window_netlist(dev, hot, 3, RowCol::new(40, 60), &mut rng));
    specs.extend(window_netlist(dev, hot, 3, RowCol::new(90, 130), &mut rng));
    specs
}

fn cfg(threads: usize) -> PathFinderConfig {
    PathFinderConfig {
        threads,
        ..PathFinderConfig::default()
    }
}

/// The equivalence fingerprint: everything the engine promises is
/// invariant under thread count.
fn fingerprint(r: &PathFinderResult) -> (bool, usize, usize, Vec<Vec<virtex::Segment>>) {
    (
        r.legal,
        r.iterations,
        r.overused,
        r.nets.iter().map(|n| n.segments.clone()).collect(),
    )
}

fn table() {
    eprintln!("\n=== E18: partition-parallel negotiation on SUPER4 (4x XCV1000) ===");
    let dev = dev();
    let specs = workload(&dev, 96, 24);
    eprintln!(
        "device {} ({} tiles), {} nets",
        dev.family().name(),
        dev.dims().tiles(),
        specs.len()
    );
    eprintln!(
        "{:<8} {:>6} {:>6} {:>8} {:>10} {:>10} {:>9}",
        "workers", "legal", "iters", "waves", "time", "nets/s", "speedup"
    );
    let mut reference: Option<(bool, usize, usize, Vec<Vec<virtex::Segment>>)> = None;
    let mut base_dt: Option<f64> = None;
    for workers in thread_counts(&[1, 2, 4, 8]) {
        let obs = jroute::Recorder::enabled();
        let t0 = Instant::now();
        let r = pathfinder::route_all_obs(&dev, &specs, &cfg(workers), &obs).unwrap();
        let dt = t0.elapsed().as_secs_f64();
        let waves = obs.report().counter("pathfinder.waves").unwrap_or(0);
        let base = *base_dt.get_or_insert(dt);
        eprintln!(
            "{:<8} {:>6} {:>6} {:>8} {:>8.0}ms {:>10.0} {:>8.2}x",
            workers,
            r.legal,
            r.iterations,
            waves,
            dt * 1e3,
            specs.len() as f64 / dt,
            base / dt
        );
        let fp = fingerprint(&r);
        match &reference {
            None => reference = Some(fp),
            Some(want) => {
                assert_eq!(want.0, fp.0, "{workers} workers: legality differs");
                assert_eq!(want.1, fp.1, "{workers} workers: iterations differ");
                assert_eq!(want.2, fp.2, "{workers} workers: overuse differs");
                assert_eq!(want.3, fp.3, "{workers} workers: segment census differs");
            }
        }
    }
    if let Some((legal, ..)) = reference {
        assert!(legal, "the E18 workload must converge");
    }
}

fn bench(c: &mut Bench) {
    table();
    let dev = dev();
    // A smaller workload for the timed sweep keeps the smoke/gate cheap;
    // the scaling table above carries the headline numbers.
    let specs = workload(&dev, 48, 16);
    let mut g = c.benchmark_group("e18");
    for workers in thread_counts(&[1, 8]) {
        let cfg = cfg(workers);
        g.bench_function(format!("negotiate_super4_{workers}t"), |b| {
            b.iter_batched(
                || (),
                |_| pathfinder::route_all(&dev, &specs, &cfg).unwrap(),
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
