//! The interconnect table: every canonical wire's outgoing PIP edges,
//! listed once per device geometry.
//!
//! The maze router expands a segment by asking which segments it can
//! drive. The generator answers from first principles: the segment's
//! taps ([`segment::taps`]), each tap's GRM fan-out ([`Arch::pips_from`],
//! one existence test per candidate), then the canonical form and dense
//! index of each target. All of that is the same at every tile except for
//! which edges the device border clips. This module evaluates the
//! generator once, for each canonical wire, at the centre of a device
//! large enough that nothing is clipped, and records each edge relative to
//! the expanded segment (the prjcombine "interconnect database" model:
//! one list per wire of a tile type, instantiated over the grid).
//!
//! Each entry stores the on-chip window its tap and target need, so a
//! border tile walks the same list and skips the entries the border
//! removes. A long-line target exists only at an access tile, so its
//! entries are resolved at walk time. Entries keep the generator's order,
//! so a search that walks the table pushes the same nodes in the same
//! order and breaks ties the same way. Long-line and global-clock origins
//! (whose taps span the whole device) keep the generator, as do
//! non-canonical names, which no search expands.

use crate::arch::{pip_candidates, Arch};
use crate::delay::delay_units;
use crate::geometry::{Dims, RowCol};
use crate::lookahead::CostModel;
use crate::segment::{self, Segment, Tap, Window};
use crate::segspace::{SegIdx, SegSpace};
use crate::wire::{Wire, WireKind, HEX_SPAN, LONG_ACCESS, NUM_LOCAL_WIRES};

/// One PIP edge out of a segment: the PIP `(rc, from → to)` and the
/// canonical segment it drives, with that segment's entry prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Tile of the PIP (a tap of the expanded segment).
    pub rc: RowCol,
    /// Local name of the expanded segment at `rc`.
    pub from: Wire,
    /// Local name of the driven wire at `rc`.
    pub to: Wire,
    /// Canonical form of the driven wire.
    pub seg: Segment,
    /// Dense index of `seg`.
    pub idx: SegIdx,
    /// [`CostModel::wire_cost`] of `seg`.
    pub cost: u32,
    /// [`delay_units`] of `seg`.
    pub delay: u32,
    /// `seg` is a long line.
    pub long: bool,
    /// `to` is a CLB input pin.
    pub clb_input: bool,
}

/// How an entry's target is found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// At a fixed offset: `idx + delta`, tile `rc + (dr, dc)`.
    Fixed { delta: i32, dr: i8, dc: i8 },
    /// A horizontal long line: present at access columns, canonical at
    /// column 0 of the tap's row.
    LongH,
    /// A vertical long line: present at access rows, canonical at row 0
    /// of the tap's column.
    LongV,
}

/// One edge of a wire's list, relative to the expanded segment.
#[derive(Debug, Clone, Copy)]
struct Entry {
    target: Target,
    /// Tiles the tap and the target need on-chip.
    window: Window,
    /// Tap tile offset from the expanded segment's tile.
    tap_dr: i8,
    tap_dc: i8,
    from: Wire,
    to: Wire,
    /// Canonical wire of the target.
    wire: Wire,
    cost: u16,
    delay: u16,
    clb_input: bool,
}

/// The per-geometry interconnect table (see the module docs).
#[derive(Debug)]
pub struct Interconnect {
    dims: Dims,
    model: CostModel,
    /// `lists[w]`: the edges of canonical wire `w`, or `None` where the
    /// generator answers.
    lists: Vec<Option<Box<[Entry]>>>,
}

/// Largest tile offset an edge reaches from its segment: a tap at the
/// end of a hex, then a hex driven there.
const REACH: u16 = 2 * HEX_SPAN;

impl Interconnect {
    /// The table for a `dims`-sized device, from the per-geometry
    /// registry that also holds its [`crate::Lookahead`].
    pub fn get(dims: Dims) -> &'static Interconnect {
        crate::lookahead::tables(dims).1
    }

    pub(crate) fn build(dims: Dims) -> Interconnect {
        // A device on which every edge of a segment at `centre` exists
        // (the centre is also a long-line access tile).
        let (vdims, centre) = (
            Dims::new(2 * REACH + 1, 2 * REACH + 1),
            RowCol::new(REACH, REACH),
        );
        let offset = |rc: RowCol| (rc.row as i8 - REACH as i8, rc.col as i8 - REACH as i8);
        let model = CostModel::for_dims(dims);
        let mut taps = Vec::new();
        let lists = Wire::all()
            .map(|wire| {
                // Wires that are canonical at an interior tile; long lines
                // and global clocks are canonical only at row or column 0.
                let seg = Segment { rc: centre, wire };
                if !segment::is_canonical(vdims, seg) {
                    return None;
                }
                let mut list = Vec::new();
                taps.clear();
                segment::taps(vdims, seg, &mut taps);
                for tap in &taps {
                    let (tap_dr, tap_dc) = offset(tap.rc);
                    pip_candidates(tap.wire, |to| {
                        let window = Window::of(tap.wire.kind())
                            .union(Window::of(to.kind()))
                            .shift(tap_dr, tap_dc);
                        let (target, canon) = match to.kind() {
                            WireKind::LongH(_) => (Target::LongH, to),
                            WireKind::LongV(_) => (Target::LongV, to),
                            _ => {
                                let next = segment::canonicalize(vdims, tap.rc, to)
                                    .expect("every candidate exists at the centre");
                                let (dr, dc) = offset(next.rc);
                                let delta = (dr as i32 * dims.cols as i32 + dc as i32)
                                    * NUM_LOCAL_WIRES as i32
                                    + next.wire.0 as i32
                                    - wire.0 as i32;
                                (Target::Fixed { delta, dr, dc }, next.wire)
                            }
                        };
                        list.push(Entry {
                            target,
                            window,
                            tap_dr,
                            tap_dc,
                            from: tap.wire,
                            to,
                            wire: canon,
                            cost: model.wire_cost(canon) as u16,
                            delay: delay_units(canon) as u16,
                            clb_input: to.is_clb_input(),
                        });
                    });
                }
                Some(list.into_boxed_slice())
            })
            .collect();
        Interconnect { dims, model, lists }
    }

    /// Call `f` with every edge out of canonical segment `seg`, in the
    /// generator's order: taps in [`segment::taps`] order, then each
    /// tap's targets in [`Arch::pips_from`] order.
    #[inline]
    pub fn for_each_edge(&self, seg: Segment, mut f: impl FnMut(Edge)) {
        let Some(list) = &self.lists[seg.wire.0 as usize] else {
            return self.generate(seg, f);
        };
        let space = SegSpace::new(self.dims);
        let idx = space.index(seg).0 as i32;
        let (row, col) = (seg.rc.row as i32, seg.rc.col as i32);
        let at = |dr: i8, dc: i8| RowCol::new((row + dr as i32) as u16, (col + dc as i32) as u16);
        for e in list.iter() {
            if !e.window.fits(seg.rc, self.dims) {
                continue;
            }
            let rc = at(e.tap_dr, e.tap_dc);
            let (next, ni) = match e.target {
                Target::Fixed { delta, dr, dc } => (
                    Segment {
                        rc: at(dr, dc),
                        wire: e.wire,
                    },
                    SegIdx((idx + delta) as u32),
                ),
                Target::LongH if rc.col.is_multiple_of(LONG_ACCESS) => {
                    let next = Segment {
                        rc: RowCol::new(rc.row, 0),
                        wire: e.wire,
                    };
                    (next, space.index(next))
                }
                Target::LongV if rc.row.is_multiple_of(LONG_ACCESS) => {
                    let next = Segment {
                        rc: RowCol::new(0, rc.col),
                        wire: e.wire,
                    };
                    (next, space.index(next))
                }
                // A long line not accessible at this tap.
                Target::LongH | Target::LongV => continue,
            };
            f(Edge {
                rc,
                from: e.from,
                to: e.to,
                seg: next,
                idx: ni,
                cost: e.cost as u32,
                delay: e.delay as u32,
                long: !matches!(e.target, Target::Fixed { .. }),
                clb_input: e.clb_input,
            });
        }
    }

    /// The generator the table reproduces: taps, then each tap's PIP
    /// fan-out, then the canonical form of each target. It still serves
    /// long-line and global-clock origins.
    fn generate(&self, seg: Segment, mut f: impl FnMut(Edge)) {
        let arch = Arch::new(self.dims);
        let mut taps: Vec<Tap> = Vec::new();
        let mut fanout = Vec::new();
        segment::taps(self.dims, seg, &mut taps);
        for tap in taps {
            fanout.clear();
            arch.pips_from(tap.rc, tap.wire, &mut fanout);
            for &to in &fanout {
                let Some(next) = segment::canonicalize(self.dims, tap.rc, to) else {
                    continue;
                };
                f(Edge {
                    rc: tap.rc,
                    from: tap.wire,
                    to,
                    seg: next,
                    idx: SegSpace::new(self.dims).index(next),
                    cost: self.model.wire_cost(next.wire),
                    delay: delay_units(next.wire),
                    long: matches!(next.wire.kind(), WireKind::LongH(_) | WireKind::LongV(_)),
                    clb_input: to.is_clb_input(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, Family};

    fn edges(ic: &Interconnect, seg: Segment, table: bool) -> Vec<Edge> {
        let mut out = Vec::new();
        if table {
            ic.for_each_edge(seg, |e| out.push(e));
        } else {
            ic.generate(seg, |e| out.push(e));
        }
        out
    }

    /// Every canonical segment of `dims`, border tiles included.
    fn canonical_segments(dims: Dims) -> impl Iterator<Item = Segment> {
        dims.iter_tiles().flat_map(move |rc| {
            Wire::all()
                .map(move |wire| Segment { rc, wire })
                .filter(move |&s| segment::is_canonical(dims, s))
        })
    }

    /// The table and the generator give the same edges in the same order
    /// for `seg`. The full lists are compared, long-line edges included:
    /// a search without long lines walks the same list and drops the
    /// edges flagged `long`, so this covers both settings.
    fn assert_same(ic: &Interconnect, seg: Segment) {
        assert_eq!(
            edges(ic, seg, true),
            edges(ic, seg, false),
            "edges of {seg}"
        );
    }

    #[test]
    fn table_matches_the_generator_on_every_small_device_segment() {
        for family in [Family::Xcv50, Family::Xcv300] {
            let dims = family.dims();
            let ic = Interconnect::get(dims);
            let mut n = 0;
            for seg in canonical_segments(dims) {
                assert_same(ic, seg);
                n += 1;
            }
            assert!(n > dims.tiles() * 150, "{family:?}: only {n} segments");
        }
    }

    #[test]
    fn table_matches_the_generator_on_sampled_xcv1000_segments() {
        let dev = Device::new(Family::Xcv1000);
        let dims = dev.dims();
        let ic = Interconnect::get(dims);
        let mut rng = detrand::DetRng::seed_from_u64(0x1c7ab1e);
        let mut n = 0;
        while n < 20_000 {
            let rc = RowCol::new(
                rng.gen_range(0..dims.rows as u64) as u16,
                rng.gen_range(0..dims.cols as u64) as u16,
            );
            let wire = Wire(rng.gen_range(0..NUM_LOCAL_WIRES as u64) as u16);
            let seg = Segment { rc, wire };
            if segment::is_canonical(dims, seg) {
                assert_same(ic, seg);
                n += 1;
            }
        }
    }

    #[test]
    fn border_and_long_edges_are_clipped_like_the_generator() {
        let dims = Family::Xcv50.dims();
        let ic = Interconnect::get(dims);
        // An OMUX output at a corner: most singles and hexes are off-chip.
        let corner = Segment {
            rc: RowCol::new(dims.rows - 1, dims.cols - 1),
            wire: crate::wire::out(3),
        };
        let interior = Segment {
            rc: RowCol::new(7, 7),
            ..corner
        };
        assert!(edges(ic, corner, true).len() < edges(ic, interior, true).len());
        // Long-line targets surface only at access tiles.
        let at_access = Segment {
            rc: RowCol::new(6, 6),
            ..corner
        };
        assert!(edges(ic, at_access, true).iter().any(|e| e.long));
        assert!(!edges(ic, interior, true).iter().any(|e| e.long));
    }
}
