//! The architecture description class: programmable interconnect point
//! (PIP) connectivity.
//!
//! Paper §3: *"Also in this Java class is a description of each wire,
//! including how long it is, its direction, which wires can drive it, and
//! which wires it can drive."* This module is the single source of truth
//! for which `(from, to)` wire pairs can be connected inside a tile's
//! general routing matrix (GRM). Routers must query it rather than assume
//! connectivity, which is what makes them architecture-independent (paper
//! §5).
//!
//! ## Drive rules (paper §2)
//!
//! * *"Logic block outputs drive all length interconnects"* — slice
//!   outputs reach the OMUX (`OUT[j]`), direct connects and feedback; the
//!   OMUX drives singles, hexes and (at access tiles) long lines.
//! * *"longs can drive hexes only"*.
//! * *"hexes drive singles and other hexes"*.
//! * *"singles drive logic block inputs, vertical long lines, and other
//!   singles"*.
//! * *"Some hexes are bi-directional"* — here: even-indexed hexes can also
//!   be driven at their endpoint.
//! * Long lines are *"buffered, bi-directional"* — driveable at every
//!   access tap.
//! * Global clock nets drive only CLK input pins.
//!
//! ## Fan-out patterns
//!
//! Real Virtex GRM fan-out is sparse and irregular (and proprietary at the
//! bit level); we use sparse *deterministic* patterns with the same
//! shape — each driver reaches a small fixed subset of each target class,
//! and the subsets are chosen so the paper's §3.1 worked example
//! (`S1_YQ → Out[1] → SingleEast[5] → SingleNorth[0] → S0F3`) is legal.
//! The formulas are documented inline; the tests verify full coverage
//! (every single/hex/long/input is drivable by *something*).

use crate::geometry::{Dims, Dir, RowCol};
use crate::segment::{self, Segment, Tap};
use crate::wire::{
    self, Wire, WireKind, HEXES_PER_DIR, INPUTS_PER_SLICE, LONG_ACCESS, NUM_LONG, NUM_OUT,
    NUM_SLICE_IN, SINGLES_PER_DIR,
};

/// Whether hex `idx` is one of the bi-directional hexes (driveable at
/// either endpoint). Half of the 12 accessible hexes per direction.
#[inline]
pub const fn hex_is_bidir(idx: u8) -> bool {
    idx.is_multiple_of(2)
}

/// The architecture description for one device geometry.
///
/// Stateless and cheap to copy; all queries are closed-form.
#[derive(Debug, Clone, Copy)]
pub struct Arch {
    dims: Dims,
}

impl Arch {
    /// Architecture description for a device of the given dimensions.
    pub const fn new(dims: Dims) -> Self {
        Arch { dims }
    }

    #[inline]
    /// Device dimensions this description is for.
    pub const fn dims(&self) -> Dims {
        self.dims
    }

    /// Append every wire that `from` can drive through a PIP at tile `rc`.
    ///
    /// `from` is a local name; targets are local names at the same tile.
    /// Results are filtered to wires that exist at `rc`. Workhorse-buffer
    /// style: the caller clears `out`.
    pub fn pips_from(&self, rc: RowCol, from: Wire, out: &mut Vec<Wire>) {
        if !segment::wire_exists(self.dims, rc, from) {
            return;
        }
        pip_candidates(from, |w| {
            if segment::wire_exists(self.dims, rc, w) {
                out.push(w);
            }
        });
    }

    /// Whether the GRM at `rc` contains a PIP connecting `from` to `to`.
    pub fn pip_exists(&self, rc: RowCol, from: Wire, to: Wire) -> bool {
        let mut buf = Vec::with_capacity(32);
        self.pips_from(rc, from, &mut buf);
        buf.contains(&to)
    }

    /// Append every local wire that can drive `to` through a PIP at `rc`.
    ///
    /// Computed by scanning the (small, fixed) candidate driver classes and
    /// testing `pips_from`; intended for trace/debug paths, not for router
    /// inner loops.
    pub fn pips_into(&self, rc: RowCol, to: Wire, out: &mut Vec<Wire>) {
        if !segment::wire_exists(self.dims, rc, to) {
            return;
        }
        let mut buf = Vec::with_capacity(64);
        for from in Wire::all() {
            if from == to || !segment::wire_exists(self.dims, rc, from) {
                continue;
            }
            buf.clear();
            self.pips_from(rc, from, &mut buf);
            if buf.contains(&to) {
                out.push(from);
            }
        }
    }

    /// Append the taps of `seg` at which it can drive other wires
    /// (out-taps). For most wires this is the far end / mid taps; for
    /// bi-directional resources it includes the origin.
    pub fn source_taps(&self, seg: Segment, out: &mut Vec<Tap>) {
        let mut all = Vec::with_capacity(4);
        segment::taps(self.dims, seg, &mut all);
        let mut probe = Vec::with_capacity(8);
        for tap in all {
            probe.clear();
            self.pips_from(tap.rc, tap.wire, &mut probe);
            if !probe.is_empty() {
                out.push(tap);
            }
        }
    }

    /// The taps of `seg` at which it can *be driven* (drive-in taps), in
    /// order: the origin for ordinary wires, both endpoints for
    /// bi-directional hexes, every access tap for long lines. Allocates
    /// nothing.
    pub fn drive_taps(&self, seg: Segment) -> impl Iterator<Item = Tap> {
        let origin = Tap {
            rc: seg.rc,
            wire: seg.wire,
        };
        let (origin, far) = match seg.wire.kind() {
            // The long-line walk below starts at the origin.
            WireKind::LongH(_) | WireKind::LongV(_) => (None, None),
            WireKind::Hex { dir, idx } if hex_is_bidir(idx) => (
                Some(origin),
                Some(Tap {
                    rc: seg.rc.step_unchecked(dir, wire::HEX_SPAN),
                    wire: wire::hex_end(dir, idx as usize),
                }),
            ),
            _ => (Some(origin), None),
        };
        origin
            .into_iter()
            .chain(far)
            .chain(segment::long_taps(self.dims, seg))
    }

    /// Length, in CLBs, of the wire (0 for tile-local resources; longs
    /// report the full row/column span).
    pub fn wire_length(&self, wire: Wire) -> u16 {
        match wire.kind() {
            WireKind::Single { .. }
            | WireKind::SingleEnd { .. }
            | WireKind::DirectE(_)
            | WireKind::DirectWEnd(_) => 1,
            WireKind::Hex { .. } | WireKind::HexMid { .. } | WireKind::HexEnd { .. } => {
                wire::HEX_SPAN
            }
            WireKind::LongH(_) => self.dims.cols,
            WireKind::LongV(_) => self.dims.rows,
            _ => 0,
        }
    }

    /// Direction of travel of the wire, if it has one.
    pub fn wire_dir(&self, wire: Wire) -> Option<Dir> {
        match wire.kind() {
            WireKind::Single { dir, .. }
            | WireKind::SingleEnd { dir, .. }
            | WireKind::Hex { dir, .. }
            | WireKind::HexMid { dir, .. }
            | WireKind::HexEnd { dir, .. } => Some(dir),
            WireKind::DirectE(_) | WireKind::DirectWEnd(_) => Some(Dir::East),
            _ => None,
        }
    }

    /// Whether long-line PIPs surface at this tile (column access for
    /// horizontal longs, row access for vertical).
    #[inline]
    pub fn is_long_h_access(&self, rc: RowCol) -> bool {
        rc.col.is_multiple_of(LONG_ACCESS)
    }

    /// See [`Arch::is_long_h_access`].
    #[inline]
    pub fn is_long_v_access(&self, rc: RowCol) -> bool {
        rc.row.is_multiple_of(LONG_ACCESS)
    }
}

/// Every wire `from` can drive through a PIP, before the existence
/// filter. The GRM pattern is the same at every tile: [`Arch::pips_from`]
/// keeps the targets that exist at its tile, and the interconnect table
/// ([`crate::interconnect`]) stores them with the window each one needs.
/// Both rely on the order targets come out in here.
pub(crate) fn pip_candidates(from: Wire, mut push: impl FnMut(Wire)) {
    match from.kind() {
        WireKind::SliceOut { slice, pin } => {
            let k = (slice * 4 + pin) as usize;
            // Each output reaches two OMUX lines: OUT[k] and OUT[k+2].
            push(wire::out(k % NUM_OUT));
            push(wire::out((k + 2) % NUM_OUT));
            push(wire::direct_e(k));
            push(wire::feedback(k));
        }
        WireKind::Out(j) => {
            let j = j as usize;
            for d in Dir::ALL {
                let di = d.index();
                // OUT[j] drives singles {3j+2d, +8, +16} (mod 24) ...
                for off in [0usize, 8, 16] {
                    push(wire::single(d, (3 * j + 2 * di + off) % SINGLES_PER_DIR));
                }
                // ... and hexes {j+d, +4, +8} (mod 12), at their origin.
                for off in [0usize, 4, 8] {
                    let i = (j + di + off) % HEXES_PER_DIR;
                    push(wire::hex(d, i));
                    // Bi-directional hexes can also be driven at their
                    // far endpoint.
                    if hex_is_bidir(i as u8) {
                        push(wire::hex_end(d, i));
                    }
                }
            }
            // Long lines at access tiles ("outputs drive all length
            // interconnects").
            push(wire::long_h(j % NUM_LONG));
            push(wire::long_h((j + 6) % NUM_LONG));
            push(wire::long_v((j + 3) % NUM_LONG));
            push(wire::long_v((j + 9) % NUM_LONG));
        }
        WireKind::SingleEnd { dir, idx } => {
            let (i, di) = (idx as usize, dir.index());
            // Singles drive logic-block inputs ...
            for k in 0..4usize {
                let p = (7 * i + 3 * di + k) % NUM_SLICE_IN;
                push(wire::slice_in(
                    p / INPUTS_PER_SLICE,
                    (p % INPUTS_PER_SLICE) as u8,
                ));
            }
            // ... other singles ...
            for d2 in Dir::ALL {
                let d2i = d2.index();
                push(wire::single(d2, (i + 19 + d2i) % SINGLES_PER_DIR));
                push(wire::single(d2, (i + 7 + d2i) % SINGLES_PER_DIR));
            }
            // ... and vertical long lines.
            push(wire::long_v((i + di) % NUM_LONG));
        }
        WireKind::HexMid { idx, .. } | WireKind::HexEnd { idx, .. } => {
            hex_tap_fanout(idx, &mut push);
        }
        WireKind::Hex { idx, .. } => {
            // The origin tap fans out only on bi-directional hexes
            // (signal may have been driven at the far endpoint).
            if hex_is_bidir(idx) {
                hex_tap_fanout(idx, &mut push);
            }
        }
        WireKind::LongH(i) | WireKind::LongV(i) => {
            let i = i as usize;
            // Longs can drive hexes only.
            for d in Dir::ALL {
                let di = d.index();
                let t = (i + di) % HEXES_PER_DIR;
                push(wire::hex(d, t));
                if hex_is_bidir(t as u8) {
                    push(wire::hex_end(d, t));
                }
            }
        }
        WireKind::DirectWEnd(i) => {
            for k in 0..3usize {
                let p = (3 * i as usize + k) % NUM_SLICE_IN;
                push(wire::slice_in(
                    p / INPUTS_PER_SLICE,
                    (p % INPUTS_PER_SLICE) as u8,
                ));
            }
        }
        WireKind::Feedback(i) => {
            for k in 0..3usize {
                let p = (3 * i as usize + 13 + k) % NUM_SLICE_IN;
                push(wire::slice_in(
                    p / INPUTS_PER_SLICE,
                    (p % INPUTS_PER_SLICE) as u8,
                ));
            }
        }
        WireKind::Gclk(_) => {
            // Dedicated global nets drive only clock pins.
            push(wire::slice_in(0, wire::slice_in_pin::CLK));
            push(wire::slice_in(1, wire::slice_in_pin::CLK));
        }
        // Signals leave these names at other taps; no local fan-out.
        WireKind::SliceIn { .. } | WireKind::Single { .. } | WireKind::DirectE(_) => {}
    }
}

/// Fan-out shared by hex mid/end taps (and origin taps of
/// bi-directional hexes): singles and other hexes (paper §2).
fn hex_tap_fanout(idx: u8, push: &mut impl FnMut(Wire)) {
    let i = idx as usize;
    for d2 in Dir::ALL {
        let d2i = d2.index();
        push(wire::single(d2, (2 * i + d2i) % SINGLES_PER_DIR));
        push(wire::single(d2, (2 * i + d2i + 12) % SINGLES_PER_DIR));
        let h1 = (i + 3 + d2i) % HEXES_PER_DIR;
        let h2 = (i + 9 + d2i) % HEXES_PER_DIR;
        push(wire::hex(d2, h1));
        push(wire::hex(d2, h2));
        if hex_is_bidir(h1 as u8) {
            push(wire::hex_end(d2, h1));
        }
        if hex_is_bidir(h2 as u8) {
            push(wire::hex_end(d2, h2));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::slice_in_pin;

    const DIMS: Dims = Dims::new(16, 24);

    fn arch() -> Arch {
        Arch::new(DIMS)
    }

    fn pips(rc: RowCol, from: Wire) -> Vec<Wire> {
        let mut v = Vec::new();
        arch().pips_from(rc, from, &mut v);
        v
    }

    #[test]
    fn paper_worked_example_pips_exist() {
        // §3.1: route(5,7,S1_YQ,Out[1]); route(5,7,Out[1],SingleEast[5]);
        //       route(5,8,SingleWest[5],SingleNorth[0]);
        //       route(6,8,SingleSouth[0],S0F3);
        let a = arch();
        assert!(a.pip_exists(RowCol::new(5, 7), wire::S1_YQ, wire::out(1)));
        assert!(a.pip_exists(RowCol::new(5, 7), wire::out(1), wire::single(Dir::East, 5)));
        // "SingleWest[5]" at (5,8) is our SINGLE_E_END[5].
        assert!(a.pip_exists(
            RowCol::new(5, 8),
            wire::single_end(Dir::East, 5),
            wire::single(Dir::North, 0)
        ));
        // "SingleSouth[0]" at (6,8) is our SINGLE_N_END[0].
        assert!(a.pip_exists(
            RowCol::new(6, 8),
            wire::single_end(Dir::North, 0),
            wire::S0_F3
        ));
    }

    #[test]
    fn drive_rules_outputs() {
        // Slice outputs reach only OMUX, direct and feedback.
        for w in pips(RowCol::new(4, 4), wire::S1_YQ) {
            assert!(
                matches!(
                    w.kind(),
                    WireKind::Out(_) | WireKind::DirectE(_) | WireKind::Feedback(_)
                ),
                "unexpected slice-out target {w}"
            );
        }
        // OMUX drives singles, hexes and longs only.
        for w in pips(RowCol::new(6, 6), wire::out(3)) {
            assert!(
                matches!(
                    w.kind(),
                    WireKind::Single { .. }
                        | WireKind::Hex { .. }
                        | WireKind::HexEnd { .. }
                        | WireKind::LongH(_)
                        | WireKind::LongV(_)
                ),
                "unexpected OMUX target {w}"
            );
        }
    }

    #[test]
    fn drive_rules_longs_drive_hexes_only() {
        for rc in [RowCol::new(0, 0), RowCol::new(6, 12)] {
            for i in 0..NUM_LONG {
                for w in pips(rc, wire::long_h(i)) {
                    assert!(
                        matches!(w.kind(), WireKind::Hex { .. } | WireKind::HexEnd { .. }),
                        "long drove {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn drive_rules_hexes_drive_singles_and_hexes() {
        for w in pips(RowCol::new(8, 9), wire::hex_mid(Dir::North, 5)) {
            assert!(
                matches!(
                    w.kind(),
                    WireKind::Single { .. } | WireKind::Hex { .. } | WireKind::HexEnd { .. }
                ),
                "hex tap drove {w}"
            );
        }
    }

    #[test]
    fn drive_rules_singles() {
        // Singles drive inputs, singles and vertical longs — and vertical
        // longs only at access rows.
        for rc in [RowCol::new(6, 3), RowCol::new(7, 3)] {
            for w in pips(rc, wire::single_end(Dir::East, 11)) {
                match w.kind() {
                    WireKind::SliceIn { .. } | WireKind::Single { .. } => {}
                    WireKind::LongV(_) => {
                        assert!(arch().is_long_v_access(rc), "LONG_V pip off access row")
                    }
                    other => panic!("single drove {other:?}"),
                }
            }
        }
    }

    #[test]
    fn unidirectional_hexes_have_no_endpoint_drive() {
        let a = arch();
        let rc = RowCol::new(2, 2);
        // idx 1 is unidirectional, idx 0/2... bidirectional.
        for j in 0..NUM_OUT {
            for w in pips(rc, wire::out(j)) {
                if let WireKind::HexEnd { idx, .. } = w.kind() {
                    assert!(
                        hex_is_bidir(idx),
                        "OUT drove endpoint of unidirectional hex"
                    );
                }
            }
        }
        // drive_taps reports both ends for bidir, one for unidir.
        let bidir = Segment {
            rc,
            wire: wire::hex(Dir::East, 4),
        };
        let unidir = Segment {
            rc,
            wire: wire::hex(Dir::East, 5),
        };
        assert_eq!(a.drive_taps(bidir).count(), 2);
        assert_eq!(a.drive_taps(unidir).count(), 1);
    }

    #[test]
    fn every_single_is_drivable_from_omux_at_interior_tile() {
        let rc = RowCol::new(8, 8);
        for d in Dir::ALL {
            for i in 0..SINGLES_PER_DIR {
                let target = wire::single(d, i);
                let drivable = (0..NUM_OUT).any(|j| pips(rc, wire::out(j)).contains(&target));
                assert!(drivable, "no OMUX drives {}", target.name());
            }
        }
    }

    #[test]
    fn every_hex_is_drivable_from_omux_at_interior_tile() {
        let rc = RowCol::new(8, 8);
        for d in Dir::ALL {
            for i in 0..HEXES_PER_DIR {
                let target = wire::hex(d, i);
                let drivable = (0..NUM_OUT).any(|j| pips(rc, wire::out(j)).contains(&target));
                assert!(drivable, "no OMUX drives {}", target.name());
            }
        }
    }

    #[test]
    fn every_long_is_drivable_from_omux_at_access_tile() {
        let rc = RowCol::new(6, 6);
        for i in 0..NUM_LONG {
            for target in [wire::long_h(i), wire::long_v(i)] {
                let drivable = (0..NUM_OUT).any(|j| pips(rc, wire::out(j)).contains(&target));
                assert!(drivable, "no OMUX drives {}", target.name());
            }
        }
    }

    #[test]
    fn every_input_pin_is_reachable_from_arriving_singles() {
        let rc = RowCol::new(8, 8);
        for slice in 0..2usize {
            for pin in 0..INPUTS_PER_SLICE as u8 {
                let target = wire::slice_in(slice, pin);
                let reachable = Dir::ALL.iter().any(|&d| {
                    (0..SINGLES_PER_DIR).any(|i| pips(rc, wire::single_end(d, i)).contains(&target))
                });
                assert!(reachable, "no arriving single drives {}", target.name());
            }
        }
    }

    #[test]
    fn gclk_drives_only_clock_pins() {
        let p = pips(RowCol::new(3, 3), wire::gclk(2));
        assert_eq!(
            p,
            vec![
                wire::slice_in(0, slice_in_pin::CLK),
                wire::slice_in(1, slice_in_pin::CLK)
            ]
        );
    }

    #[test]
    fn pips_into_inverts_pips_from() {
        let a = arch();
        let rc = RowCol::new(5, 8);
        let mut into = Vec::new();
        a.pips_into(rc, wire::single(Dir::North, 0), &mut into);
        assert!(into.contains(&wire::single_end(Dir::East, 5)));
        for from in &into {
            assert!(a.pip_exists(rc, *from, wire::single(Dir::North, 0)));
        }
    }

    #[test]
    fn no_pips_at_nonexistent_wires() {
        // Top-row north single doesn't exist; nothing may drive into or
        // out of it.
        let rc = RowCol::new(15, 4);
        assert!(pips(rc, wire::single(Dir::North, 0)).is_empty());
        for j in 0..NUM_OUT {
            for w in pips(rc, wire::out(j)) {
                assert!(
                    segment::wire_exists(DIMS, rc, w),
                    "pip to nonexistent wire {w}"
                );
            }
        }
    }

    #[test]
    fn source_taps_of_a_single_is_its_far_end() {
        let a = arch();
        let seg = Segment {
            rc: RowCol::new(5, 7),
            wire: wire::single(Dir::East, 5),
        };
        let mut t = Vec::new();
        a.source_taps(seg, &mut t);
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].rc, RowCol::new(5, 8));
        assert_eq!(t[0].wire, wire::single_end(Dir::East, 5));
    }

    #[test]
    fn wire_metadata() {
        let a = arch();
        assert_eq!(a.wire_length(wire::single(Dir::North, 0)), 1);
        assert_eq!(a.wire_length(wire::hex(Dir::South, 3)), 6);
        assert_eq!(a.wire_length(wire::long_h(0)), DIMS.cols);
        assert_eq!(a.wire_length(wire::out(0)), 0);
        assert_eq!(a.wire_dir(wire::hex_end(Dir::West, 1)), Some(Dir::West));
        assert_eq!(a.wire_dir(wire::out(0)), None);
    }
}
