//! E17: observability overhead — the flight recorder must be free when
//! off and near-free when on.
//!
//! The tracing/metrics pipeline (causal spans, sharded registry
//! counters, windowed aggregation) rides the hot paths of E2 (single
//! auto-route) and E14 (service batch). This bench re-runs those two
//! workloads twice each — recorder disabled vs. enabled — so the
//! overhead is a directly comparable pair of rows. Acceptance: enabled
//! medians within ~5% of disabled; disabled must be unmeasurable (the
//! recorder is one `Option` check).

use detrand::DetRng;
use harness::{bench_group, bench_main, BatchSize, Bench};
use jroute::{EndPoint, Pin, Router};
use jroute_bench::SEED;
use jroute_obs::Recorder;
use jroute_svc::{RequestKind, RoutingService, ServiceConfig};
use jroute_workloads::{random_netlist, NetlistParams};
use virtex::{wire, Device, Family};

/// The E2 level-4 auto-route (maze only), with a chosen recorder.
fn route_once(dev: &Device, rec: &Recorder) {
    let mut r = Router::new(dev);
    r.set_recorder(rec.clone());
    r.options_mut().use_templates_first = false;
    let src: EndPoint = Pin::new(5, 7, wire::S1_YQ).into();
    let sink: EndPoint = Pin::new(6, 8, wire::S0_F3).into();
    r.route(&src, &sink).unwrap();
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

fn svc_cfg() -> ServiceConfig {
    ServiceConfig {
        threads: 4,
        audit: false,
        ..Default::default()
    }
}

fn bench(c: &mut Bench) {
    let small = Device::new(Family::Xcv50);
    let big = Device::new(Family::Xcv1000);
    let specs = workload(&big, 60);
    let mut g = c.benchmark_group("e17");

    // E2 row: a single fine-grained auto-route, where per-span cost
    // would show up most.
    g.bench_function("e2_route_disabled", |b| {
        b.iter_batched(
            Recorder::disabled,
            |rec| route_once(&small, &rec),
            BatchSize::PerIteration,
        )
    });
    g.bench_function("e2_route_enabled", |b| {
        b.iter_batched(
            Recorder::enabled,
            |rec| route_once(&small, &rec),
            BatchSize::PerIteration,
        )
    });

    // E14 row: a 60-net service batch — queue plumbing, wave
    // dispatch, causal ctx propagation and the per-batch window tick.
    for (name, rec) in [
        ("e14_svc_disabled", Recorder::disabled as fn() -> Recorder),
        ("e14_svc_enabled", Recorder::enabled as fn() -> Recorder),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut svc = RoutingService::with_recorder(&big, svc_cfg(), rec());
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
    g.finish();
}

bench_group! {
    name = benches;
    config = Bench::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
bench_main!(benches);
