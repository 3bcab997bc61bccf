//! Canonical wire segments.
//!
//! A physical wire *segment* (one piece of metal) is visible at several
//! tiles under several local names: an east single is `SINGLE_E[i]` at its
//! origin and `SINGLE_E_END[i]` one tile east; a hex is visible at its
//! origin, midpoint and endpoint; a long line at every sixth tile of its
//! row/column; a global clock everywhere. Occupancy, contention and net
//! identity are properties of the *segment*, so every router data
//! structure keys on the canonical `(tile, wire)` pair defined here.
//!
//! Canonical form: the origin-form local name at the tile that owns the
//! resource —
//! * singles/hexes/directs: the `Single`/`Hex`/`DirectE` name at the
//!   origin tile;
//! * horizontal longs: `LONG_H[i]` at column 0 of their row;
//! * vertical longs: `LONG_V[i]` at row 0 of their column;
//! * global clocks: `GCLK[i]` at tile (0,0);
//! * everything else (pins, OMUX, feedback) is tile-local already.

use crate::geometry::{Dims, Dir, RowCol};
use crate::wire::{self, Wire, WireKind, HEX_SPAN, LONG_ACCESS, NUM_LOCAL_WIRES};

/// A canonical wire segment: the globally unique identity of one routing
/// resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Segment {
    /// Tile owning the resource (origin tile of travelling wires).
    pub rc: RowCol,
    /// Origin-form local wire name.
    pub wire: Wire,
}

impl Segment {
    /// Dense index in `0 .. dims.tiles() * NUM_LOCAL_WIRES`, usable for
    /// flat visited/occupancy arrays.
    #[inline]
    pub fn index(self, dims: Dims) -> usize {
        dims.tile_index(self.rc) * NUM_LOCAL_WIRES + self.wire.0 as usize
    }

    /// Inverse of [`Segment::index`]. The result is only meaningful for
    /// indices produced from canonical segments.
    #[inline]
    pub fn from_index(index: usize, dims: Dims) -> Segment {
        Segment {
            rc: dims.tile_at(index / NUM_LOCAL_WIRES),
            wire: Wire((index % NUM_LOCAL_WIRES) as u16),
        }
    }
}

impl std::fmt::Display for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.wire.name(), self.rc)
    }
}

/// An inclusive rectangle of tile offsets from an anchor tile: the tiles
/// a local name (or a PIP between two names) needs on-chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Window {
    pub(crate) row_lo: i8,
    pub(crate) row_hi: i8,
    pub(crate) col_lo: i8,
    pub(crate) col_hi: i8,
}

impl Window {
    /// The anchor tile alone.
    const TILE: Window = Window {
        row_lo: 0,
        row_hi: 0,
        col_lo: 0,
        col_hi: 0,
    };

    /// A wire travelling `dir` that reaches `back` tiles behind the
    /// anchor and `fwd` tiles ahead of it.
    const fn along(dir: Dir, back: u16, fwd: u16) -> Window {
        let (back, fwd) = (back as i8, fwd as i8);
        let (lo, hi) = match dir {
            Dir::North | Dir::East => (-back, fwd),
            Dir::South | Dir::West => (-fwd, back),
        };
        if dir.is_vertical() {
            Window {
                row_lo: lo,
                row_hi: hi,
                ..Window::TILE
            }
        } else {
            Window {
                col_lo: lo,
                col_hi: hi,
                ..Window::TILE
            }
        }
    }

    /// The window a wire of `kind` needs around the tile that names it: a
    /// travelling wire's whole span, the tile itself for everything else.
    /// Long lines also need an access tile, which a window cannot express.
    pub(crate) const fn of(kind: WireKind) -> Window {
        match kind {
            WireKind::Single { dir, .. } => Window::along(dir, 0, 1),
            WireKind::SingleEnd { dir, .. } => Window::along(dir, 1, 0),
            WireKind::Hex { dir, .. } => Window::along(dir, 0, HEX_SPAN),
            WireKind::HexMid { dir, .. } => Window::along(dir, HEX_SPAN / 2, HEX_SPAN / 2),
            WireKind::HexEnd { dir, .. } => Window::along(dir, HEX_SPAN, 0),
            WireKind::DirectE(_) => Window::along(Dir::East, 0, 1),
            WireKind::DirectWEnd(_) => Window::along(Dir::East, 1, 0),
            _ => Window::TILE,
        }
    }

    /// This window moved by `(dr, dc)` tiles.
    pub(crate) const fn shift(self, dr: i8, dc: i8) -> Window {
        Window {
            row_lo: self.row_lo + dr,
            row_hi: self.row_hi + dr,
            col_lo: self.col_lo + dc,
            col_hi: self.col_hi + dc,
        }
    }

    /// The smallest window covering both.
    pub(crate) fn union(self, o: Window) -> Window {
        Window {
            row_lo: self.row_lo.min(o.row_lo),
            row_hi: self.row_hi.max(o.row_hi),
            col_lo: self.col_lo.min(o.col_lo),
            col_hi: self.col_hi.max(o.col_hi),
        }
    }

    /// Whether the window, anchored at `rc`, lies on a `dims` device.
    #[inline]
    pub(crate) fn fits(self, rc: RowCol, dims: Dims) -> bool {
        let (r, c) = (rc.row as i32, rc.col as i32);
        r + self.row_lo as i32 >= 0
            && r + (self.row_hi as i32) < dims.rows as i32
            && c + self.col_lo as i32 >= 0
            && c + (self.col_hi as i32) < dims.cols as i32
    }
}

/// Whether local name `wire` denotes an existing resource at tile `rc` on a
/// `dims`-sized device. Travelling wires only exist where their full span
/// lies on-chip; long lines are only visible at access tiles (every
/// [`LONG_ACCESS`] CLBs, per paper §2 "Long lines can be accessed every 6
/// blocks").
#[inline]
pub fn wire_exists(dims: Dims, rc: RowCol, wire: Wire) -> bool {
    let kind = wire.kind();
    Window::of(kind).fits(rc, dims)
        && match kind {
            WireKind::LongH(_) => rc.col.is_multiple_of(LONG_ACCESS),
            WireKind::LongV(_) => rc.row.is_multiple_of(LONG_ACCESS),
            _ => true,
        }
}

/// Resolve a local `(tile, wire)` name to its canonical segment.
///
/// Returns `None` when the name does not denote an existing resource at
/// `rc` (off-chip span, non-access tile for a long line, …).
pub fn canonicalize(dims: Dims, rc: RowCol, wire: Wire) -> Option<Segment> {
    if !wire_exists(dims, rc, wire) {
        return None;
    }
    let seg = match wire.kind() {
        WireKind::SingleEnd { dir, idx } => Segment {
            rc: rc.step_unchecked(dir.opposite(), 1),
            wire: wire::single(dir, idx as usize),
        },
        WireKind::HexMid { dir, idx } => Segment {
            rc: rc.step_unchecked(dir.opposite(), HEX_SPAN / 2),
            wire: wire::hex(dir, idx as usize),
        },
        WireKind::HexEnd { dir, idx } => Segment {
            rc: rc.step_unchecked(dir.opposite(), HEX_SPAN),
            wire: wire::hex(dir, idx as usize),
        },
        WireKind::LongH(_) => Segment {
            rc: RowCol::new(rc.row, 0),
            wire,
        },
        WireKind::LongV(_) => Segment {
            rc: RowCol::new(0, rc.col),
            wire,
        },
        WireKind::DirectWEnd(idx) => Segment {
            rc: rc.step_unchecked(Dir::West, 1),
            wire: wire::direct_e(idx as usize),
        },
        WireKind::Gclk(_) => Segment {
            rc: RowCol::new(0, 0),
            wire,
        },
        _ => Segment { rc, wire },
    };
    debug_assert!(is_canonical(dims, seg), "non-canonical result {seg}");
    Some(seg)
}

/// Whether `seg` is already in canonical form on a `dims` device.
pub fn is_canonical(dims: Dims, seg: Segment) -> bool {
    if !wire_exists(dims, seg.rc, seg.wire) {
        return false;
    }
    match seg.wire.kind() {
        WireKind::SingleEnd { .. }
        | WireKind::HexMid { .. }
        | WireKind::HexEnd { .. }
        | WireKind::DirectWEnd(_) => false,
        WireKind::LongH(_) => seg.rc.col == 0,
        WireKind::LongV(_) => seg.rc.row == 0,
        WireKind::Gclk(_) => seg.rc == RowCol::new(0, 0),
        _ => true,
    }
}

/// A place where a segment surfaces: the tile and the local name it bears
/// there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tap {
    /// Tile at which the segment surfaces.
    pub rc: RowCol,
    /// Local name the segment bears there.
    pub wire: Wire,
}

/// Enumerate every tap of a canonical segment: each `(tile, local name)`
/// pair at which the segment is visible, origin first.
///
/// Taps are appended to `out` (workhorse-buffer style; the caller clears).
pub fn taps(dims: Dims, seg: Segment, out: &mut Vec<Tap>) {
    for_each_tap(dims, seg, |t| out.push(t));
}

/// Call `f` with every tap of a canonical segment, in [`taps`] order,
/// without a buffer.
#[inline]
pub fn for_each_tap(dims: Dims, seg: Segment, mut f: impl FnMut(Tap)) {
    debug_assert!(
        is_canonical(dims, seg),
        "taps() wants canonical input, got {seg}"
    );
    let rc = seg.rc;
    match seg.wire.kind() {
        WireKind::Single { dir, idx } => {
            f(Tap { rc, wire: seg.wire });
            f(Tap {
                rc: rc.step_unchecked(dir, 1),
                wire: wire::single_end(dir, idx as usize),
            });
        }
        WireKind::Hex { dir, idx } => {
            f(Tap { rc, wire: seg.wire });
            f(Tap {
                rc: rc.step_unchecked(dir, HEX_SPAN / 2),
                wire: wire::hex_mid(dir, idx as usize),
            });
            f(Tap {
                rc: rc.step_unchecked(dir, HEX_SPAN),
                wire: wire::hex_end(dir, idx as usize),
            });
        }
        WireKind::LongH(_) | WireKind::LongV(_) => long_taps(dims, seg).for_each(f),
        WireKind::DirectE(idx) => {
            f(Tap { rc, wire: seg.wire });
            f(Tap {
                rc: rc.step_unchecked(Dir::East, 1),
                wire: wire::direct_w_end(idx as usize),
            });
        }
        WireKind::Gclk(_) => {
            // Global clocks surface at every tile; callers that only need
            // a specific tile should not enumerate this.
            for t in dims.iter_tiles() {
                f(Tap {
                    rc: t,
                    wire: seg.wire,
                });
            }
        }
        _ => f(Tap { rc, wire: seg.wire }),
    }
}

/// The access taps of a canonical long line, origin first: every
/// [`LONG_ACCESS`]th tile of its row or column. Empty for every other
/// wire.
pub(crate) fn long_taps(dims: Dims, seg: Segment) -> impl Iterator<Item = Tap> {
    let (span, horizontal) = match seg.wire.kind() {
        WireKind::LongH(_) => (dims.cols, true),
        WireKind::LongV(_) => (dims.rows, false),
        _ => (0, true),
    };
    (0..span).step_by(LONG_ACCESS as usize).map(move |k| Tap {
        rc: if horizontal {
            RowCol::new(seg.rc.row, k)
        } else {
            RowCol::new(k, seg.rc.col)
        },
        wire: seg.wire,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{HEXES_PER_DIR, SINGLES_PER_DIR};

    const DIMS: Dims = Dims::new(16, 24);

    #[test]
    fn paper_example_alias_single_east() {
        // Paper §3.1: SingleEast[5] driven at (5,7) is SingleWest[5] at
        // (5,8) — in our naming, SINGLE_E_END[5] at (5,8).
        let origin = canonicalize(DIMS, RowCol::new(5, 7), wire::single(Dir::East, 5)).unwrap();
        let arriving =
            canonicalize(DIMS, RowCol::new(5, 8), wire::single_end(Dir::East, 5)).unwrap();
        assert_eq!(origin, arriving);
    }

    #[test]
    fn hex_taps_are_origin_mid_end() {
        let seg = canonicalize(DIMS, RowCol::new(2, 3), wire::hex(Dir::North, 7)).unwrap();
        let mut t = Vec::new();
        taps(DIMS, seg, &mut t);
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].rc, RowCol::new(2, 3));
        assert_eq!(t[1].rc, RowCol::new(5, 3));
        assert_eq!(t[2].rc, RowCol::new(8, 3));
        // And every tap canonicalizes back to the same segment.
        for tap in &t {
            assert_eq!(canonicalize(DIMS, tap.rc, tap.wire), Some(seg));
        }
    }

    #[test]
    fn edge_wires_do_not_exist() {
        // A north single at the top row has no far end.
        assert!(!wire_exists(
            DIMS,
            RowCol::new(15, 0),
            wire::single(Dir::North, 0)
        ));
        // A hex needs its whole 6-CLB span on chip.
        assert!(!wire_exists(
            DIMS,
            RowCol::new(11, 0),
            wire::hex(Dir::North, 0)
        ));
        assert!(wire_exists(
            DIMS,
            RowCol::new(9, 0),
            wire::hex(Dir::North, 0)
        ));
        // Long lines only at access tiles.
        assert!(wire_exists(DIMS, RowCol::new(3, 6), wire::long_h(0)));
        assert!(!wire_exists(DIMS, RowCol::new(3, 7), wire::long_h(0)));
    }

    #[test]
    fn long_lines_access_every_six_blocks() {
        // Paper §2: "Long lines can be accessed every 6 blocks."
        let seg = canonicalize(DIMS, RowCol::new(3, 12), wire::long_h(4)).unwrap();
        assert_eq!(seg.rc, RowCol::new(3, 0));
        let mut t = Vec::new();
        taps(DIMS, seg, &mut t);
        let cols: Vec<u16> = t.iter().map(|tap| tap.rc.col).collect();
        assert_eq!(cols, vec![0, 6, 12, 18]);
        assert!(t.iter().all(|tap| tap.rc.row == 3));
    }

    #[test]
    fn every_existing_local_name_canonicalizes_and_is_a_tap() {
        // Structural soundness over a whole small device: canonicalize is
        // idempotent and consistent with taps().
        let mut buf = Vec::new();
        for rc in DIMS.iter_tiles() {
            for w in Wire::all() {
                let Some(seg) = canonicalize(DIMS, rc, w) else {
                    assert!(!wire_exists(DIMS, rc, w));
                    continue;
                };
                assert!(is_canonical(DIMS, seg));
                // The (rc, w) pair must appear among the segment's taps.
                buf.clear();
                taps(DIMS, seg, &mut buf);
                assert!(
                    buf.iter().any(|t| t.rc == rc && t.wire == w),
                    "{} not a tap of {}",
                    w.name(),
                    seg
                );
            }
        }
    }

    #[test]
    fn segment_index_round_trips() {
        for (rc, w) in [
            (RowCol::new(0, 0), wire::out(0)),
            (RowCol::new(5, 7), wire::S1_YQ),
            (RowCol::new(9, 0), wire::hex(Dir::North, 11)),
            (RowCol::new(15, 23), wire::feedback(7)),
        ] {
            let seg = canonicalize(DIMS, rc, w).unwrap();
            assert_eq!(Segment::from_index(seg.index(DIMS), DIMS), seg);
        }
    }

    #[test]
    fn distinct_segments_have_distinct_indices() {
        let a = canonicalize(DIMS, RowCol::new(1, 1), wire::single(Dir::North, 3)).unwrap();
        let b = canonicalize(DIMS, RowCol::new(1, 2), wire::single(Dir::North, 3)).unwrap();
        let c = canonicalize(DIMS, RowCol::new(1, 1), wire::single(Dir::North, 4)).unwrap();
        assert_ne!(a.index(DIMS), b.index(DIMS));
        assert_ne!(a.index(DIMS), c.index(DIMS));
    }

    #[test]
    fn singles_per_dir_and_hexes_per_dir_census() {
        // At an interior tile all 24 singles and 12 hexes per direction
        // exist (paper §2 counts).
        let rc = RowCol::new(8, 12);
        for dir in Dir::ALL {
            let singles = (0..SINGLES_PER_DIR)
                .filter(|&i| wire_exists(DIMS, rc, wire::single(dir, i)))
                .count();
            assert_eq!(singles, 24);
            let hexes = (0..HEXES_PER_DIR)
                .filter(|&i| wire_exists(DIMS, rc, wire::hex(dir, i)))
                .count();
            assert_eq!(hexes, 12);
        }
    }
}
