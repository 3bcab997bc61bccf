//! A timing-driven fan-out router.
//!
//! The paper concedes its greedy fan-out router *"is not timing driven
//! \[and\] is suitable only for non-critical nets. For critical nets,
//! however, the user would need to specify the routes at a lower level"*
//! (§3.1). This module closes that gap one level up: instead of forcing
//! users down to manual paths, it grows the net as a timing-driven tree —
//! each sink routed against the existing tree with segments offered at
//! their accumulated arrival delay and new wires costed by the delay
//! model — so critical nets get minimum-arrival branches.
//!
//! Built entirely on the public `jroute` API: the tree grows through
//! [`jroute::steiner::grow`], the same builder as the greedy router and
//! PathFinder, and the committed PIPs go through `Router::route_pip`, so
//! all contention protection and net bookkeeping apply unchanged.

use crate::analysis::segment_arrivals;
use jroute::maze::{MazeConfig, MazeScratch, CRIT_ONE};
use jroute::{steiner, EndPoint, Result, RouteError, Router};
use virtex::Segment;

/// Route `source` to every sink minimizing per-sink *arrival time*.
///
/// Classic timing-driven tree growth: each sink is routed by a search
/// whose start set is the existing tree, with each tree segment offered
/// at its accumulated arrival delay (not zero, as the greedy
/// resource-minimizing router does) and each new segment costed by the
/// delay model. Grafting near the source is therefore preferred for
/// critical sinks even when deeper reuse would save wire.
///
/// Every sink is checked before anything is searched: one already in
/// use, by any net, is refused. Returns the number of PIPs configured.
/// Compare with [`jroute::Router::route_fanout`] (greedy,
/// resource-minimizing) in experiment E13.
pub fn route_fanout_timing_driven(
    router: &mut Router,
    source: &EndPoint,
    sinks: &[EndPoint],
) -> Result<usize> {
    let dev = *router.device();
    let canonical = |pin: jroute::Pin| {
        dev.canonicalize(pin.rc, pin.wire)
            .ok_or(RouteError::NoSuchWire {
                rc: pin.rc,
                wire: pin.wire,
            })
    };
    let src = router.resolve(source)?[0];
    let src_seg = canonical(src)?;
    let cfg = MazeConfig {
        use_long_lines: router.options().use_long_lines,
        // Exact A*: critical nets are worth the extra expansions, and at
        // weight 1 each leg is provably minimum-arrival (the delay
        // lookahead is admissible).
        heuristic_weight: 1,
        // `crit = CRIT_ONE` puts the shared maze cost blend at the
        // pure-delay endpoint: every expansion is charged
        // `delay_units(wire)` and the lookahead switches to its delay
        // tables — the same cost the criticality-driven PathFinder
        // converges to for its most critical sinks, so this router and
        // `pathfinder` price wires identically.
        crit: CRIT_ONE,
        ..Default::default()
    };

    // Resolve all sink pins first and route the most critical (farthest)
    // first, so the timing-driven tree forms around the worst path.
    let mut pins = Vec::new();
    for ep in sinks {
        pins.extend(router.resolve(ep)?);
    }
    pins.sort_by_key(|p| std::cmp::Reverse(p.rc.manhattan(src.rc)));
    let mut goals = Vec::with_capacity(pins.len());
    for pin in pins {
        let goal = canonical(pin)?;
        // The sink itself must be free (the maze never blocks its goal).
        if router.nets().owner(goal).is_some() || router.bits().is_segment_driven(goal) {
            return Err(RouteError::ResourceInUse {
                segment: goal,
                owner: router.nets().owner(goal),
            });
        }
        goals.push(goal);
    }
    // The existing tree, offered at its true arrival delays: one
    // readback, in a fixed order (the source first, at 0 ps) so the
    // maze's tie-breaking never depends on map iteration.
    let mut seed: Vec<(Segment, u64)> = segment_arrivals(router.bits(), src_seg)
        .into_iter()
        .collect();
    seed.sort_unstable_by_key(|&(seg, ps)| (ps, seg));
    let tree = {
        let nets = router.nets();
        let bits = router.bits();
        steiner::grow(
            &dev,
            &seed,
            &goals,
            &[],
            &cfg,
            // Any driven or claimed wire cannot take a second driving
            // PIP (§3.4); tree reuse happens through the start set,
            // never by re-entering.
            |seg| nets.is_used(seg) || bits.is_segment_driven(seg),
            // At `crit = CRIT_ONE` the maze already charges
            // `delay_units(wire)` per expansion; no congestion term.
            |_| 0,
            &mut MazeScratch::new(&dev),
            router.recorder(),
        )
    }
    .map_err(|i| RouteError::Unroutable {
        from: src_seg,
        to: goals[i],
    })?;
    for &(rc, pip) in &tree.pips {
        router.route_pip(rc, pip.from, pip.to)?;
    }
    Ok(tree.pips.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_net;
    use jroute::Pin;
    use virtex::{wire, Device, Family, RowCol};

    #[test]
    fn timing_driven_routes_all_sinks_with_independent_branches() {
        let dev = Device::new(Family::Xcv300);
        let mut r = Router::new(&dev);
        let src: EndPoint = Pin::new(10, 10, wire::S0_YQ).into();
        let sinks: Vec<EndPoint> = vec![
            Pin::new(10, 18, wire::S0_F3).into(),
            Pin::new(16, 10, wire::S1_F1).into(),
            Pin::new(14, 16, wire::slice_in(0, 1)).into(),
        ];
        let n = route_fanout_timing_driven(&mut r, &src, &sinks).unwrap();
        assert!(n > 0);
        let seg = dev.canonicalize(RowCol::new(10, 10), wire::S0_YQ).unwrap();
        let t = analyze_net(r.bits(), seg);
        assert_eq!(t.fanout(), 3);
    }

    #[test]
    fn timing_driven_never_exceeds_greedy_max_delay() {
        // The paper's claim inverted: the timing-driven variant must be
        // at least as good on critical-path delay as the greedy
        // resource-sharing one.
        let dev = Device::new(Family::Xcv300);
        let src_pin = Pin::new(8, 8, wire::S0_YQ);
        let sink_pins = [
            Pin::new(8, 20, wire::S0_F3),
            Pin::new(20, 8, wire::S1_F1),
            Pin::new(18, 18, wire::slice_in(0, 1)),
        ];
        let sinks: Vec<EndPoint> = sink_pins.iter().map(|&p| p.into()).collect();

        let mut greedy = Router::new(&dev);
        greedy.route_fanout(&src_pin.into(), &sinks).unwrap();
        let g = analyze_net(
            greedy.bits(),
            dev.canonicalize(src_pin.rc, src_pin.wire).unwrap(),
        );

        let mut driven = Router::new(&dev);
        route_fanout_timing_driven(&mut driven, &src_pin.into(), &sinks).unwrap();
        let d = analyze_net(
            driven.bits(),
            dev.canonicalize(src_pin.rc, src_pin.wire).unwrap(),
        );

        assert_eq!(g.fanout(), 3);
        assert_eq!(d.fanout(), 3);
        assert!(
            d.max_delay() <= g.max_delay(),
            "timing-driven {}ps vs greedy {}ps",
            d.max_delay(),
            g.max_delay()
        );
    }

    #[test]
    fn timing_driven_routing_is_deterministic() {
        // The tree readback is a map; the builder is offered it in a
        // fixed order, so every fresh router builds the same tree.
        let dev = Device::new(Family::Xcv300);
        let src: EndPoint = Pin::new(12, 12, wire::S0_YQ).into();
        let sinks: Vec<EndPoint> = vec![
            Pin::new(12, 20, wire::S0_F3).into(),
            Pin::new(18, 12, wire::S1_F1).into(),
            Pin::new(16, 18, wire::slice_in(0, 1)).into(),
            Pin::new(8, 16, wire::S0_F3).into(),
            Pin::new(6, 10, wire::S1_F1).into(),
        ];
        let route = || {
            let mut r = Router::new(&dev);
            route_fanout_timing_driven(&mut r, &src, &sinks).unwrap();
            let mut pips: Vec<(RowCol, u16, u16)> = dev
                .dims()
                .iter_tiles()
                .flat_map(|rc| {
                    r.bits()
                        .pips_at(rc)
                        .iter()
                        .map(move |p| (rc, p.from.0, p.to.0))
                })
                .collect();
            pips.sort_unstable();
            pips
        };
        let first = route();
        assert!(!first.is_empty());
        for run in 1..40 {
            assert_eq!(route(), first, "run {run} built a different tree");
        }
    }

    #[test]
    fn contention_protection_applies() {
        // A sink already owned by another net is refused, not stolen.
        let dev = Device::new(Family::Xcv300);
        let mut r = Router::new(&dev);
        let other_src: EndPoint = Pin::new(4, 4, wire::S1_YQ).into();
        let contested: EndPoint = Pin::new(6, 6, wire::S0_F3).into();
        r.route(&other_src, &contested).unwrap();
        let src: EndPoint = Pin::new(8, 8, wire::S0_YQ).into();
        let err = route_fanout_timing_driven(&mut r, &src, &[contested]).unwrap_err();
        assert!(matches!(
            err,
            RouteError::Unroutable { .. } | RouteError::ResourceInUse { .. }
        ));
    }
}
