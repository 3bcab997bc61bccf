//! E12 (§6 extension): parallel independent-net routing.
//!
//! Router latency is application latency in RTR systems; the paper lists
//! faster algorithms as future work. We measure the wave-parallel
//! routing engine's speedup over its own single-thread configuration on
//! a large netlist, and assert that thread count does not change what
//! gets routed: every width must fail the same nets as the 1-thread run
//! and give every routed net the same segments.

use detrand::DetRng;
use harness::{bench_group, bench_main, BatchSize, Bench};
use jroute::parallel::{route_parallel, ParallelConfig, ParallelResult};
use jroute_bench::{thread_counts, SEED};
use jroute_workloads::{random_netlist, NetlistParams};
use std::time::Instant;
use virtex::{Device, Family};

fn dev() -> Device {
    Device::new(Family::Xcv1000)
}

fn workload(dev: &Device, nets: usize) -> Vec<jroute::pathfinder::NetSpec> {
    let mut rng = DetRng::seed_from_u64(SEED);
    random_netlist(
        dev,
        &NetlistParams {
            nets,
            max_fanout: 2,
            max_span: Some(12),
        },
        &mut rng,
    )
}

fn table() {
    eprintln!("\n=== E12: parallel independent-net routing (extension of §6) ===");
    eprintln!(
        "{:<8} {:>8} {:>8} {:>10} {:>10} {:>9}",
        "threads", "routed", "waves", "stale", "time", "speedup"
    );
    let dev = dev();
    let specs = workload(&dev, 120);
    let cfg = |threads| ParallelConfig {
        threads,
        ..Default::default()
    };
    let reference = route_parallel(&dev, &specs, &cfg(1));
    let segments =
        |r: &ParallelResult| -> Vec<_> { r.nets.iter().map(|n| n.segments.clone()).collect() };
    let mut base = None;
    for threads in thread_counts(&[1, 2, 4, 8]) {
        let t0 = Instant::now();
        let r = route_parallel(&dev, &specs, &cfg(threads));
        let dt = t0.elapsed().as_secs_f64();
        let base_dt = *base.get_or_insert(dt);
        assert_eq!(
            r.failed, reference.failed,
            "{threads} threads failed other nets"
        );
        assert_eq!(
            segments(&r),
            segments(&reference),
            "{threads} threads routed other segments"
        );
        eprintln!(
            "{:<8} {:>5}/{:<3} {:>8} {:>10} {:>8.0}ms {:>8.2}x",
            threads,
            r.nets.len(),
            specs.len(),
            r.waves,
            r.researched,
            dt * 1e3,
            base_dt / dt
        );
    }
}

fn bench(c: &mut Bench) {
    table();
    let dev = dev();
    let specs = workload(&dev, 60);
    let mut g = c.benchmark_group("e12");
    for threads in thread_counts(&[1, 4, 8]) {
        let cfg = ParallelConfig {
            threads,
            ..Default::default()
        };
        g.bench_function(format!("route_parallel_{threads}t"), |b| {
            b.iter_batched(
                || (),
                |_| route_parallel(&dev, &specs, &cfg),
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
