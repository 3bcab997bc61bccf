//! E13 (§3.1/§6): timing — greedy (non-timing-driven) vs timing-driven
//! fan-out routing.
//!
//! Paper: the greedy fan-out router *"is not timing driven, [so it] is
//! suitable only for non-critical nets"*, and §6 promises *"skew
//! minimization will be addressed"*. Under the delay model we compare
//! critical-path delay and skew of the greedy resource-sharing tree vs
//! the timing-driven independent-branch router.

use detrand::DetRng;
use harness::{bench_group, bench_main, BatchSize, Bench};
use jroute::{EndPoint, Router};
use jroute_bench::SEED;
use jroute_timing::{analyze_net, route_fanout_timing_driven};
use jroute_workloads::fanout_spec;
use virtex::{Device, Family, RowCol};

fn dev() -> Device {
    Device::new(Family::Xcv300)
}

fn spec(dev: &Device, fanout: usize, seed_off: u64) -> jroute::pathfinder::NetSpec {
    let mut rng = DetRng::seed_from_u64(SEED + seed_off);
    fanout_spec(dev, RowCol::new(16, 24), fanout, 10, &mut rng)
}

fn greedy(dev: &Device, fanout: usize, seed_off: u64) -> (u64, u64, usize) {
    let s = spec(dev, fanout, seed_off);
    let mut r = Router::new(dev);
    let sinks: Vec<EndPoint> = s.sinks.iter().map(|&p| p.into()).collect();
    r.route_fanout(&s.source.into(), &sinks).unwrap();
    let t = analyze_net(
        r.bits(),
        dev.canonicalize(s.source.rc, s.source.wire).unwrap(),
    );
    (t.max_delay(), t.skew(), r.bits().on_pip_count())
}

fn timing_driven(dev: &Device, fanout: usize, seed_off: u64) -> (u64, u64, usize) {
    let s = spec(dev, fanout, seed_off);
    let mut r = Router::new(dev);
    let sinks: Vec<EndPoint> = s.sinks.iter().map(|&p| p.into()).collect();
    route_fanout_timing_driven(&mut r, &s.source.into(), &sinks).unwrap();
    let t = analyze_net(
        r.bits(),
        dev.canonicalize(s.source.rc, s.source.wire).unwrap(),
    );
    (t.max_delay(), t.skew(), r.bits().on_pip_count())
}

fn table() {
    eprintln!("\n=== E13: greedy vs timing-driven fan-out (paper §3.1 / §6) ===");
    eprintln!(
        "{:<8} | {:>9} {:>8} {:>6} | {:>9} {:>8} {:>6}",
        "fanout", "g-max(ps)", "g-skew", "g-pips", "t-max(ps)", "t-skew", "t-pips"
    );
    let dev = dev();
    for fanout in [2usize, 4, 8, 12] {
        let (gm, gs, gp) = greedy(&dev, fanout, fanout as u64);
        let (tm, ts, tp) = timing_driven(&dev, fanout, fanout as u64);
        eprintln!(
            "{:<8} | {:>9} {:>8} {:>6} | {:>9} {:>8} {:>6}",
            fanout, gm, gs, gp, tm, ts, tp
        );
        // Both routers are deterministic, so this row is the same on
        // every run: the timing-driven tree must not lose on the
        // critical path.
        assert!(tm <= gm, "timing-driven {tm}ps worse than greedy {gm}ps");
    }
}

fn bench(c: &mut Bench) {
    table();
    let dev = dev();
    let mut g = c.benchmark_group("e13");
    for fanout in [4usize, 12] {
        g.bench_function(format!("greedy_fanout_{fanout}"), |b| {
            b.iter_batched(
                || (),
                |_| greedy(&dev, fanout, fanout as u64),
                BatchSize::PerIteration,
            )
        });
        g.bench_function(format!("timing_driven_fanout_{fanout}"), |b| {
            b.iter_batched(
                || (),
                |_| timing_driven(&dev, fanout, fanout as u64),
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
