//! E14 (service extension): batch routing front-end throughput.
//!
//! `jroute-svc` turns the routing engine into a request service —
//! bounded queues, priorities, deadlines, wave-parallel searches with an
//! ordered commit. This bench measures what the service layer adds on
//! top of raw `route_parallel`: batch latency for a pure-route burst at
//! several worker counts, and a §5-style reconfiguration burst (unroute
//! + replace + fresh routes against committed state).

use detrand::DetRng;
use harness::{bench_group, bench_main, BatchSize, Bench};
use jroute_bench::SEED;
use jroute_svc::{RequestKind, RoutingService, ServiceConfig};
use jroute_workloads::{random_netlist, NetlistParams};
use virtex::{Device, Family};

fn dev() -> Device {
    Device::new(Family::Xcv1000)
}

fn workload(dev: &Device, nets: usize, seed_salt: u64) -> Vec<jroute::pathfinder::NetSpec> {
    let mut rng = DetRng::seed_from_u64(SEED ^ seed_salt);
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

fn cfg(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        audit: false,
        ..Default::default()
    }
}

fn bench(c: &mut Bench) {
    let dev = dev();
    let specs = workload(&dev, 60, 0);
    let mut g = c.benchmark_group("e14");

    // Pure route burst across worker counts.
    for threads in [1usize, 4, 8] {
        g.bench_function(format!("svc_route_60_{threads}t"), |b| {
            b.iter_batched(
                || {
                    let mut svc = RoutingService::new(&dev, cfg(threads));
                    for s in &specs {
                        svc.submit(RequestKind::Route(s.clone())).unwrap();
                    }
                    svc
                },
                |mut svc| {
                    let report = svc.run_batch();
                    assert!(report.log.len() >= 60);
                },
                BatchSize::PerIteration,
            )
        });
    }

    // Reconfiguration burst: against 40 committed nets, unroute 10,
    // replace 5 (two replacements each), route 10 fresh — the §5
    // run-time core-swap traffic pattern as one batch.
    let base = workload(&dev, 40, 1);
    let fresh = workload(&dev, 20, 2);
    g.bench_function("svc_reconfig_burst_4t", |b| {
        b.iter_batched(
            || {
                let mut svc = RoutingService::new(&dev, cfg(4));
                let ids: Vec<_> = base
                    .iter()
                    .map(|s| svc.submit(RequestKind::Route(s.clone())).unwrap())
                    .collect();
                let report = svc.run_batch();
                let committed: Vec<_> = ids
                    .iter()
                    .copied()
                    .filter(|&id| report.outcome(id).is_some_and(|o| o.is_success()))
                    .collect();
                let mut f = fresh.iter().cloned();
                for &id in committed.iter().take(10) {
                    svc.submit(RequestKind::Unroute(id)).unwrap();
                }
                for &id in committed.iter().skip(10).take(5) {
                    let add: Vec<_> = f.by_ref().take(2).collect();
                    svc.submit(RequestKind::Replace {
                        remove: vec![id],
                        add,
                    })
                    .unwrap();
                }
                for s in f {
                    svc.submit(RequestKind::Route(s)).unwrap();
                }
                svc
            },
            |mut svc| {
                let report = svc.run_batch();
                assert!(!report.log.is_empty());
            },
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
