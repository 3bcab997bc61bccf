//! E16: scenario corpus — trace replay and adversarial workloads.
//!
//! Two questions this table answers:
//!
//! 1. **Replay fidelity** — a churn soak recorded into a `.jrt` trace
//!    must replay into a fresh deterministic service onto the identical
//!    segment census, and the replay throughput is a benchmark row (the
//!    service's end-to-end cost with zero generation overhead).
//! 2. **Adversarial routability** — the generators built to hurt
//!    (congestion cliques, long-line starvation, hotspot storms) must
//!    still converge under the default negotiated config.

use detrand::DetRng;
use harness::{bench_group, bench_main, BatchSize, Bench};
use jroute::pathfinder::{self, NetSpec, PathFinderConfig};
use jroute_bench::SEED;
use jroute_obs::Recorder;
use jroute_svc::{RoutingService, ServiceConfig, Trace};
use jroute_workloads::{
    congestion_cliques, hotspot_storm, long_line_starvation, ChurnParams, ChurnScenario,
};
use virtex::{Device, Family, RowCol};

const CHURN_STEPS: usize = 150;

fn det_cfg(threads: usize) -> ServiceConfig {
    ServiceConfig {
        threads,
        audit: true,
        ..Default::default()
    }
}

/// Soak a churn scenario and hand back its recorded trace plus the
/// census it must replay onto.
fn record_churn(dev: &Device) -> (Trace, Vec<(virtex::Segment, jroute::NetId)>) {
    let mut sc = ChurnScenario::new(dev, det_cfg(2), ChurnParams::default(), SEED);
    for _ in 0..CHURN_STEPS {
        sc.step().expect("churn soak must stay violation-free");
    }
    (sc.trace().clone(), sc.svc().db().census())
}

/// The three adversarial rows of the corpus.
fn adversarial_rows(dev: &Device) -> Vec<(&'static str, Vec<NetSpec>)> {
    let mut rng = DetRng::seed_from_u64(SEED);
    let d = dev.dims();
    vec![
        ("cliques", congestion_cliques(dev, 4, 6, 5, &mut rng)),
        ("starvation", long_line_starvation(dev, 10, 3, &mut rng)),
        (
            "hotspot",
            hotspot_storm(dev, RowCol::new(d.rows / 3, d.cols / 3), 3, 24, &mut rng),
        ),
    ]
}

struct Run {
    legal: bool,
    iterations: usize,
    open_pushes: u64,
    nodes_expanded: usize,
}

fn run(dev: &Device, specs: &[NetSpec], cfg: &PathFinderConfig) -> Run {
    let obs = Recorder::enabled();
    let r = pathfinder::route_all_obs(dev, specs, cfg, &obs).unwrap();
    Run {
        legal: r.legal,
        iterations: r.iterations,
        open_pushes: obs.report().counter("maze.open_pushes").unwrap_or(0),
        nodes_expanded: r.nodes_expanded,
    }
}

fn table() {
    let dev = Device::new(Family::Xcv300);

    eprintln!("\n=== E16: scenario corpus (XCV300 adversarial, XCV50 churn) ===");
    eprintln!(
        "{:<22} | {:>5} {:>6} {:>6} {:>12} {:>12}",
        "row", "nets", "legal", "iters", "pushes", "nodes"
    );

    let base = PathFinderConfig::default();
    for (name, specs) in adversarial_rows(&dev) {
        let r = run(&dev, &specs, &base);
        eprintln!(
            "{:<15}{:<7} | {:>5} {:>6} {:>6} {:>12} {:>12}",
            name,
            "static",
            specs.len(),
            r.legal,
            r.iterations,
            r.open_pushes,
            r.nodes_expanded
        );
        assert!(r.legal, "{name}: static default must converge");
    }

    // Replay fidelity: the churn trace lands a fresh service on the
    // soaked service's exact census.
    let churn_dev = Device::new(Family::Xcv50);
    let (trace, census) = record_churn(&churn_dev);
    let mut fresh = RoutingService::new(&churn_dev, det_cfg(2));
    let summary = trace.replay(&mut fresh).expect("trace replays");
    assert_eq!(summary.submitted, trace.len());
    assert_eq!(fresh.db().census(), census);
    eprintln!(
        "churn trace: {} steps, {} requests, {} succeeded, census {} segments — replay exact",
        CHURN_STEPS,
        summary.submitted,
        summary.succeeded,
        census.len()
    );
}

fn bench(c: &mut Bench) {
    table();
    let mut g = c.benchmark_group("e16");

    let dev = Device::new(Family::Xcv300);
    let base = PathFinderConfig::default();
    for (name, specs) in adversarial_rows(&dev) {
        g.bench_function(format!("static_{name}"), |b| {
            b.iter_batched(
                || (),
                |_| pathfinder::route_all(&dev, &specs, &base).unwrap(),
                BatchSize::PerIteration,
            )
        });
    }

    let churn_dev = Device::new(Family::Xcv50);
    let (trace, _) = record_churn(&churn_dev);
    g.bench_function(format!("replay_churn_{CHURN_STEPS}"), |b| {
        b.iter_batched(
            || RoutingService::new(&churn_dev, det_cfg(2)),
            |mut svc| trace.replay(&mut svc).unwrap(),
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
