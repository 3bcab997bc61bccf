//! Parallel routing of independent nets (the E12 extension): route a
//! large random netlist with several worker threads and verify the
//! committed configuration is contention-free.
//!
//! Run with: `cargo run --release --example parallel_routing`

use detrand::DetRng;
use jroute::parallel::{route_parallel, ParallelConfig};
use jroute_workloads::{random_netlist, NetlistParams};
use std::time::Instant;
use virtex::{Device, Family};

fn main() {
    let device = Device::new(Family::Xcv1000); // 64x96 CLBs
    let mut rng = DetRng::seed_from_u64(7);
    let specs = random_netlist(
        &device,
        &NetlistParams {
            nets: 150,
            max_fanout: 2,
            max_span: Some(12),
        },
        &mut rng,
    );
    println!(
        "{} nets on {} ({} CLBs)",
        specs.len(),
        device.family(),
        device.dims().tiles()
    );

    let mut baseline = None;
    for threads in [1usize, 2, 4, 8] {
        let cfg = ParallelConfig {
            threads,
            ..Default::default()
        };
        let t0 = Instant::now();
        let result = route_parallel(&device, &specs, &cfg);
        let dt = t0.elapsed().as_secs_f64();
        let base = *baseline.get_or_insert(dt);
        println!(
            "threads={threads}: routed {}/{} in {:>6.1} ms ({} waves, {} stale, {:.2}x)",
            result.nets.len(),
            specs.len(),
            dt * 1e3,
            result.waves,
            result.researched,
            base / dt
        );

        // Commit to a bitstream and verify the single-driver invariant.
        let mut bits = jbits::Bitstream::new(&device);
        for net in &result.nets {
            for &(rc, pip) in &net.pips {
                bits.set_pip(rc, pip.from, pip.to).expect("legal pip");
            }
        }
        for net in &result.nets {
            for seg in &net.segments {
                assert!(
                    bits.segment_drivers(*seg).count() <= 1,
                    "contention on {seg}"
                );
            }
        }
    }
    println!("all thread counts produced contention-free configurations");
}
