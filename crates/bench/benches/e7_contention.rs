//! E7 (§3.4): contention detection and the cost of protection.
//!
//! Paper: *"The router makes sure that this situation does not occur, and
//! therefore protects the device. An exception is thrown in cases where
//! the user tries to make connections that create contention."* We hammer
//! the router with adversarial manual connections and verify every
//! double-drive is rejected, then measure the overhead of the `is_on`
//! check and of contention-checked PIP writes vs raw JBits writes.

use detrand::DetRng;
use harness::{bench_group, bench_main, BatchSize, Bench};
use jbits::Bitstream;
use jroute::{RouteError, Router};
use jroute_bench::SEED;
use virtex::{Device, Family, RowCol, Wire};

fn dev() -> Device {
    Device::new(Family::Xcv300)
}

/// Random (existing) pips in a window, many of which collide.
fn adversarial_pips(dev: &Device, n: usize) -> Vec<(RowCol, Wire, Wire)> {
    let mut rng = DetRng::seed_from_u64(SEED);
    let mut out = Vec::with_capacity(n);
    let mut buf = Vec::new();
    while out.len() < n {
        let rc = RowCol::new(rng.gen_range(8u16..12), rng.gen_range(8u16..12));
        let from = Wire(rng.gen_range(0..virtex::wire::NUM_LOCAL_WIRES as u16));
        buf.clear();
        dev.arch().pips_from(rc, from, &mut buf);
        if buf.is_empty() {
            continue;
        }
        let to = buf[rng.gen_range(0..buf.len())];
        out.push((rc, from, to));
    }
    out
}

fn table() {
    eprintln!("\n=== E7: contention protection (paper §3.4) ===");
    let dev = dev();
    let pips = adversarial_pips(&dev, 2000);
    let mut r = Router::new(&dev);
    let (mut ok, mut contention, mut other) = (0usize, 0usize, 0usize);
    for &(rc, from, to) in &pips {
        match r.route_pip(rc, from, to) {
            Ok(()) => ok += 1,
            Err(RouteError::Contention { .. }) => contention += 1,
            Err(_) => other += 1,
        }
    }
    eprintln!("manual connections attempted: {}", pips.len());
    eprintln!("accepted: {ok}  contention-rejected: {contention}  other: {other}");
    assert!(
        contention > 0,
        "the adversarial workload must provoke contention"
    );
    // Invariant: after the storm, no segment is double-driven.
    let mut double = 0usize;
    for rc in dev.dims().iter_tiles() {
        for pip in r.bits().pips_at(rc) {
            if let Some(seg) = dev.canonicalize(rc, pip.to) {
                if r.bits().segment_drivers(seg).count() > 1 {
                    double += 1;
                }
            }
        }
    }
    eprintln!("doubly driven segments after storm: {double}");
    assert_eq!(double, 0, "protection must hold under adversarial use");
}

fn bench(c: &mut Bench) {
    table();
    let dev = dev();
    let pips = adversarial_pips(&dev, 500);
    let mut g = c.benchmark_group("e7");
    g.bench_function("router_protected_writes_500", |b| {
        b.iter_batched(
            || Router::new(&dev),
            |mut r| {
                for &(rc, from, to) in &pips {
                    let _ = r.route_pip(rc, from, to);
                }
                r
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("raw_jbits_writes_500", |b| {
        b.iter_batched(
            || Bitstream::new(&dev),
            |mut bits| {
                for &(rc, from, to) in &pips {
                    let _ = bits.set_pip(rc, from, to);
                }
                bits
            },
            BatchSize::PerIteration,
        )
    });
    g.bench_function("is_on_query", |b| {
        let mut r = Router::new(&dev);
        for &(rc, from, to) in &pips[..100] {
            let _ = r.route_pip(rc, from, to);
        }
        b.iter(|| {
            let mut n = 0usize;
            for &(rc, _, to) in &pips {
                if r.is_on(rc, to).unwrap_or(false) {
                    n += 1;
                }
            }
            n
        })
    });
    g.finish();
}

bench_group! {
    name = benches;
    config = Bench::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
bench_main!(benches);
