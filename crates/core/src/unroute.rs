//! The unrouter (paper §3.3).
//!
//! *"Run-time reconfiguration requires an unrouter. There may be
//! situations when a route is no longer needed, or the net endpoints
//! change. Unrouting the nets free up resources."*
//!
//! * [`unroute_forward`] — *"In the forward direction a source pin is
//!   specified. The unrouter then follows each of the wires the pin
//!   drives and turns it off. This continues until all of the sinks are
//!   found."*
//! * [`reverse_unroute`] — *"Only the branch that leads to the specified
//!   pin is turned off ... The unrouter starts at the sink pin and works
//!   backwards, turning off wires along the way, until it comes to a
//!   point where a wire is driving multiple wires."*

use crate::endpoint::Pin;
use crate::error::{NetId, Result, RouteError};
use crate::net::NetDb;
use crate::trace;
use jbits::Bitstream;
use virtex::Segment;

/// Count of on-PIPs sourced by `seg` (its fan-out degree in the
/// configuration).
fn fanout_degree(bits: &Bitstream, seg: Segment) -> usize {
    let mut n = 0;
    virtex::segment::for_each_tap(bits.device().dims(), seg, |t| {
        n += bits
            .pips_at(t.rc)
            .iter()
            .filter(|p| p.from == t.wire)
            .count();
    });
    n
}

/// Forward-unroute the entire net driven by `source`: turn off every PIP
/// reachable from it. Returns the number of PIPs cleared.
///
/// Works from the bitstream (so it also unroutes nets configured with raw
/// JBits calls); if the router's net database knows a net rooted at
/// `source`, that net is deleted too.
pub fn unroute_forward(bits: &mut Bitstream, nets: &mut NetDb, source: Segment) -> Result<usize> {
    let traced = trace::trace(bits, source);
    if traced.pips.is_empty() {
        return Err(RouteError::NoSuchNet { segment: source });
    }
    for &(rc, pip) in &traced.pips {
        bits.clear_pip(rc, pip.from, pip.to)?;
    }
    if let Some(id) = nets.net_at_source(source) {
        nets.remove_net(id);
    } else if let Some(id) = nets.owner(source) {
        // Source was mid-net (unrouting a branch head forward): drop the
        // cleared pips from the owning net.
        let dev = *bits.device();
        for &(rc, pip) in &traced.pips {
            if let Some(target) = dev.canonicalize(rc, pip.to) {
                nets.remove_pip(id, rc, pip, target);
            }
        }
    }
    Ok(traced.pips.len())
}

/// Reverse-unroute only the branch feeding `sink`. Returns the number of
/// PIPs cleared.
///
/// Walks backwards from the sink, clearing PIPs, and stops at the first
/// segment that still drives something else (a fan-out point) or at the
/// net source.
pub fn reverse_unroute(bits: &mut Bitstream, nets: &mut NetDb, sink: Segment) -> Result<usize> {
    let dev = *bits.device();
    let owner: Option<NetId> = nets.owner(sink);
    let mut cur = sink;
    let mut cleared = 0usize;
    loop {
        let Some((rc, pip)) = bits.segment_driver(cur) else {
            if cleared == 0 {
                return Err(RouteError::NoSuchNet { segment: sink });
            }
            break;
        };
        bits.clear_pip(rc, pip.from, pip.to)?;
        cleared += 1;
        if let Some(id) = owner {
            nets.remove_pip(id, rc, pip, cur);
        }
        let Some(driver) = dev.canonicalize(rc, pip.from) else {
            break;
        };
        // Stop at a fan-out point: the driver still feeds other wires.
        if fanout_degree(bits, driver) > 0 {
            break;
        }
        // Stop at the net source (its pin still belongs to the net).
        if owner.is_some() && nets.net_at_source(driver) == owner {
            break;
        }
        if driver.wire.is_clb_output() {
            break;
        }
        cur = driver;
    }
    if let Some(id) = owner {
        if sink.wire.is_clb_input() {
            nets.remove_sink(id, Pin::at(sink.rc, sink.wire));
        }
        // If the walk consumed the entire net, drop the net record.
        if nets.net(id).is_some_and(|n| n.pips.is_empty()) {
            nets.remove_net(id);
        }
    }
    Ok(cleared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jbits::{snapshot, Bitstream};
    use virtex::{wire, Device, Dir, Family, RowCol};

    /// Paper example route plus net bookkeeping.
    fn example() -> (Bitstream, NetDb, Segment) {
        let dev = Device::new(Family::Xcv50);
        let mut b = Bitstream::new(&dev);
        let mut nets = NetDb::new(dev.seg_space());
        let src_pin = Pin::new(5, 7, wire::S1_YQ);
        let src = dev.canonicalize(src_pin.rc, src_pin.wire).unwrap();
        let id = nets.create(src_pin, src).unwrap();
        let steps: [(RowCol, virtex::Wire, virtex::Wire); 4] = [
            (RowCol::new(5, 7), wire::S1_YQ, wire::out(1)),
            (RowCol::new(5, 7), wire::out(1), wire::single(Dir::East, 5)),
            (
                RowCol::new(5, 8),
                wire::single_end(Dir::East, 5),
                wire::single(Dir::North, 0),
            ),
            (
                RowCol::new(6, 8),
                wire::single_end(Dir::North, 0),
                wire::S0_F3,
            ),
        ];
        for (rc, f, t) in steps {
            b.set_pip(rc, f, t).unwrap();
            let target = dev.canonicalize(rc, t).unwrap();
            nets.add_pip(id, rc, jbits::Pip::new(f, t), target).unwrap();
        }
        nets.add_sink(id, Pin::new(6, 8, wire::S0_F3));
        (b, nets, src)
    }

    #[test]
    fn forward_unroute_restores_blank_bitstream() {
        let dev = Device::new(Family::Xcv50);
        let blank = snapshot(&Bitstream::new(&dev));
        let (mut b, mut nets, src) = example();
        let n = unroute_forward(&mut b, &mut nets, src).unwrap();
        assert_eq!(n, 4);
        assert_eq!(
            snapshot(&b),
            blank,
            "unroute must return device to prior state"
        );
        assert!(nets.is_empty());
        assert_eq!(nets.used_segments(), 0);
        // Unrouting again reports there is no net.
        assert!(matches!(
            unroute_forward(&mut b, &mut nets, src),
            Err(RouteError::NoSuchNet { .. })
        ));
    }

    #[test]
    fn reverse_unroute_removes_whole_stem_without_fanout() {
        let (mut b, mut nets, _) = example();
        let dev = *b.device();
        let sink = dev.canonicalize(RowCol::new(6, 8), wire::S0_F3).unwrap();
        let n = reverse_unroute(&mut b, &mut nets, sink).unwrap();
        // All four pips form a single branch; all are cleared.
        assert_eq!(n, 4);
        assert_eq!(b.on_pip_count(), 0);
        assert!(nets.is_empty());
    }

    #[test]
    fn reverse_unroute_stops_at_fanout_point() {
        let (mut b, mut nets, src) = example();
        let dev = *b.device();
        // Add a branch from OUT[1]: drive SINGLE_N[3]@(5,7) and on to a
        // second sink at (6,7).
        let id = nets.net_at_source(src).unwrap();
        let branch: [(RowCol, virtex::Wire, virtex::Wire); 2] = [
            (RowCol::new(5, 7), wire::out(1), wire::single(Dir::North, 3)),
            (
                RowCol::new(6, 7),
                wire::single_end(Dir::North, 3),
                wire::slice_in(1, 8),
            ),
        ];
        for (rc, f, t) in branch {
            b.set_pip(rc, f, t).unwrap();
            let target = dev.canonicalize(rc, t).unwrap();
            nets.add_pip(id, rc, jbits::Pip::new(f, t), target).unwrap();
        }
        nets.add_sink(id, Pin::new(6, 7, wire::slice_in(1, 8)));
        let before = b.on_pip_count();
        assert_eq!(before, 6);

        // Remove only the original (6,8) branch.
        let sink = dev.canonicalize(RowCol::new(6, 8), wire::S0_F3).unwrap();
        let n = reverse_unroute(&mut b, &mut nets, sink).unwrap();
        // Cleared: S0_F3 driver, SINGLE_N[0] driver, SINGLE_E[5] driver —
        // then OUT[1] still drives SINGLE_N[3], so the walk stops.
        assert_eq!(n, 3);
        assert_eq!(b.on_pip_count(), 3);
        // The other branch is intact.
        let traced = crate::trace::trace(&b, src);
        assert_eq!(traced.sinks, vec![Pin::new(6, 7, wire::slice_in(1, 8))]);
        // The net record shrank but survives.
        let net = nets.net(id).unwrap();
        assert_eq!(net.pips.len(), 3);
        assert_eq!(net.sinks.len(), 1);
    }

    #[test]
    fn reverse_unroute_of_undriven_sink_fails() {
        let (mut b, mut nets, _) = example();
        let dev = *b.device();
        let sink = dev.canonicalize(RowCol::new(1, 1), wire::S0_F3).unwrap();
        assert!(matches!(
            reverse_unroute(&mut b, &mut nets, sink),
            Err(RouteError::NoSuchNet { .. })
        ));
    }

    #[test]
    fn forward_unroute_works_without_netdb_knowledge() {
        // Configure with raw JBits only (no net records), then unroute.
        let dev = Device::new(Family::Xcv50);
        let mut b = Bitstream::new(&dev);
        b.set_pip(RowCol::new(5, 7), wire::S1_YQ, wire::out(1))
            .unwrap();
        b.set_pip(RowCol::new(5, 7), wire::out(1), wire::single(Dir::East, 5))
            .unwrap();
        let mut nets = NetDb::new(dev.seg_space());
        let src = dev.canonicalize(RowCol::new(5, 7), wire::S1_YQ).unwrap();
        let n = unroute_forward(&mut b, &mut nets, src).unwrap();
        assert_eq!(n, 2);
        assert_eq!(b.on_pip_count(), 0);
    }
}
