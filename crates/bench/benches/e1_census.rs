//! E1 (paper Fig. 1 / §2): architecture census.
//!
//! Verifies and prints the routing-resource counts the paper publishes
//! for the Virtex fabric, per family member, and benchmarks the
//! architecture-class queries the routers depend on.

use harness::{bench_group, bench_main, BatchSize, Bench};
use virtex::wire::{self, HEXES_PER_DIR, NUM_GCLK, NUM_LONG, SINGLES_PER_DIR};
use virtex::{Device, Dir, Family, RowCol, Segment, Wire};

fn census() {
    eprintln!("\n=== E1: architecture census (paper §2) ===");
    eprintln!(
        "{:<10} {:>6} {:>8} {:>12} {:>10} {:>8} {:>6}",
        "family", "rows", "cols", "singles/dir", "hexes/dir", "longs", "gclk"
    );
    for f in Family::ALL {
        let dev = Device::new(f);
        let rc = RowCol::new(dev.dims().rows / 2, dev.dims().cols / 2);
        let singles = (0..SINGLES_PER_DIR)
            .filter(|&i| dev.wire_exists(rc, wire::single(Dir::North, i)))
            .count();
        let hexes = (0..HEXES_PER_DIR)
            .filter(|&i| dev.wire_exists(rc, wire::hex(Dir::East, i)))
            .count();
        eprintln!(
            "{:<10} {:>6} {:>8} {:>12} {:>10} {:>8} {:>6}",
            f.name(),
            dev.dims().rows,
            dev.dims().cols,
            singles,
            hexes,
            2 * NUM_LONG,
            NUM_GCLK
        );
        assert_eq!(singles, 24, "paper: 24 singles per direction");
        assert_eq!(hexes, 12, "paper: 12 accessible hexes per direction");
    }
    // Long-line access spacing.
    let dev = Device::new(Family::Xcv300);
    let access: Vec<u16> = (0..dev.dims().cols)
        .filter(|&c| dev.wire_exists(RowCol::new(3, c), wire::long_h(0)))
        .collect();
    assert!(
        access.windows(2).all(|w| w[1] - w[0] == 6),
        "longs accessible every 6 blocks"
    );
    eprintln!("long-line access columns (XCV300): every 6 CLBs ✓");
}

fn bench(c: &mut Bench) {
    census();
    let dev = Device::new(Family::Xcv1000);
    let rc = RowCol::new(32, 48);
    c.bench_function("e1/pips_from_full_tile", |b| {
        b.iter_batched(
            || Vec::with_capacity(64),
            |mut buf| {
                for w in Wire::all() {
                    buf.clear();
                    dev.arch().pips_from(rc, w, &mut buf);
                }
                buf
            },
            BatchSize::SmallInput,
        )
    });
    // The maze's view of the same tile: every segment the tile owns,
    // expanded through the interconnect table (all taps' PIP edges).
    let owned: Vec<Segment> = Wire::all()
        .filter_map(|w| dev.canonicalize(rc, w))
        .filter(|s| s.rc == rc)
        .collect();
    let ic = dev.interconnect();
    c.bench_function("e1/adjacency_table_full_tile", |b| {
        b.iter(|| {
            let mut n = 0u32;
            for &seg in &owned {
                ic.for_each_edge(seg, |e| n += e.cost);
            }
            n
        })
    });
    c.bench_function("e1/canonicalize_full_tile", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for w in Wire::all() {
                if dev.canonicalize(rc, w).is_some() {
                    n += 1;
                }
            }
            n
        })
    });
}

bench_group! {
    name = benches;
    config = Bench::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
bench_main!(benches);
