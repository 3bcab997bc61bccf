//! E5 (§3.3): run-time core replacement vs full reconfiguration.
//!
//! Paper: *"A core may be replaced with the same type of core having
//! different parameters. In this case the user can unroute the core then
//! replace it"* — without *"having to reconfigure the entire design"*.
//! We build a stimulus → multiplier → adder pipeline, then swap the
//! multiplier constant, and compare (a) configuration frames touched and
//! changed and (b) wall time against rebuilding the whole design from a
//! blank device. A new constant keeps every route, so the replacement
//! dirties LUT frames only (asserted).

use harness::{bench_group, bench_main, BatchSize, Bench};
use jbits::frame::WORDS_PER_TILE;
use jbits::{changed_frames, snapshot, Bitstream};
use jroute::{EndPoint, Router};
use jroute_cores::{replace_with, ConstAdder, ConstMultiplier, RtpCore, StimulusBank};
use virtex::{Device, Family, RowCol};

fn dev() -> Device {
    Device::new(Family::Xcv300)
}

struct Design {
    router: Router,
    stim: StimulusBank,
    mul: ConstMultiplier,
    adder: ConstAdder,
}

fn build(dev: &Device, k: u8) -> Design {
    let mut router = Router::new(dev);
    let mut stim = StimulusBank::new(4, RowCol::new(4, 4));
    let mut mul = ConstMultiplier::new(k, 8, RowCol::new(4, 12));
    let mut adder = ConstAdder::new(8, 17, RowCol::new(4, 22));
    stim.implement(&mut router).unwrap();
    mul.implement(&mut router).unwrap();
    adder.implement(&mut router).unwrap();
    let s: Vec<EndPoint> = stim.out_ports().iter().map(|&p| p.into()).collect();
    let a: Vec<EndPoint> = mul.a_ports().iter().map(|&p| p.into()).collect();
    router.route_bus(&s, &a).unwrap();
    let p: Vec<EndPoint> = mul.p_ports().iter().map(|&p| p.into()).collect();
    let d: Vec<EndPoint> = adder.a_ports().iter().map(|&p| p.into()).collect();
    router.route_bus(&p, &d).unwrap();
    Design {
        router,
        stim,
        mul,
        adder,
    }
}

fn table() {
    eprintln!("\n=== E5: RTR core replacement vs full reconfiguration (paper §3.3) ===");
    let dev = dev();

    // Full build: frames touched, and frames changed against a blank
    // device.
    let blank = snapshot(&Bitstream::new(&dev));
    let mut d = build(&dev, 3);
    let full_touched = d.router.bits_mut().frames_mut().take().len();
    let built = snapshot(d.router.bits());
    let full_changed = changed_frames(&blank, &built).len();

    // Replacement: a new constant keeps every route and rewrites LUTs.
    replace_with(&mut d.mul, &mut d.router, |m| m.set_constant(11)).unwrap();
    let touched = d.router.bits_mut().frames_mut().take();
    let replace_changed = changed_frames(&built, &snapshot(d.router.bits())).len();
    assert!(
        d.router.remembered().is_empty(),
        "connections must be re-made"
    );
    assert!(
        touched.iter().all(|f| f.word >= WORDS_PER_TILE),
        "a constant replace must dirty LUT frames only: {touched:?}"
    );

    eprintln!("{:<28} {:>8} {:>8}", "action", "touched", "changed");
    eprintln!(
        "{:<28} {:>8} {:>8}",
        "full design configuration", full_touched, full_changed
    );
    eprintln!(
        "{:<28} {:>8} {:>8}",
        "replace multiplier (K=3→11)",
        touched.len(),
        replace_changed
    );
    eprintln!(
        "replacement touches {:.0}% of the full-configuration frames, all of them LUT frames",
        100.0 * touched.len() as f64 / full_touched as f64
    );
    assert!(
        touched.len() < full_touched,
        "partial reconfig must be cheaper"
    );
    let _ = (&d.stim, &d.adder);
}

fn bench(c: &mut Bench) {
    table();
    let dev = dev();
    let mut g = c.benchmark_group("e5");
    g.bench_function("replace_multiplier_constant", |b| {
        b.iter_batched(
            || build(&dev, 3),
            |mut d| {
                replace_with(&mut d.mul, &mut d.router, |m| m.set_constant(11)).unwrap();
                d
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("full_rebuild", |b| {
        b.iter_batched(|| (), |_| build(&dev, 11), BatchSize::PerIteration)
    });
    g.finish();
}

bench_group! {
    name = benches;
    config = Bench::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
bench_main!(benches);
