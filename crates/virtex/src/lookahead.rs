//! Precomputed distance lookahead for A*-guided maze routing.
//!
//! The maze router used to re-derive a weighted Manhattan heuristic on
//! every pop. That estimate is *inadmissible* under the fabric's real
//! cost profile (hexes move six CLBs for one entry cost, direct-east
//! wires cross a column for two), which forced a weight-and-clamp
//! compromise in the queue keys. This module replaces it with a small
//! per-device table: for each axis distance `d`, the provably minimal
//! cost any combination of routing wires can pay to close `d` CLBs.
//!
//! The table is a shortest-path computation over "distance space": node
//! `d` is *an axis distance of d tiles to the goal*, and every wire
//! class contributes edges `d -> |d - reach|` and `d -> d + reach`
//! (paths may overshoot or detour, bounded by the device edge) at its
//! entry cost. Wires that close no distance on the axis (outputs,
//! feedbacks, slice inputs) map to zero-length moves and drop out. The
//! result is a true lower bound on remaining path cost: at weight 1 the
//! search is admissible, and any weighted-A* focusing on top of it
//! (`MazeConfig::heuristic_weight` in `jroute`) inflates path cost by
//! at most that factor — a far tighter bargain than weighting an
//! already-inadmissible Manhattan estimate.
//!
//! Tables are built once per device geometry and cached in a global
//! registry keyed by [`Dims`] (the same way [`crate::SegSpace`] is a
//! cheap pure function of `Dims`), because [`crate::Device`] is `Copy`
//! and cannot own heap state. The registry holds each geometry's
//! [`Interconnect`] table next to its lookahead, and builds both at once.

use crate::delay::delay_units;
use crate::geometry::{Dims, RowCol};
use crate::interconnect::Interconnect;
use crate::segment::Segment;
use crate::wire::{self, Wire, WireKind, HEX_SPAN, LONG_ACCESS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Base cost of *entering* a segment, by resource class. Hexes cost 1
/// per CLB travelled; singles are relatively more expensive per CLB,
/// which steers long connections onto hexes exactly as on the real
/// fabric. This is the single source of truth for wire entry costs:
/// the maze router charges from it and the lookahead lower-bounds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// CLB input pins (F/G LUT inputs and control).
    pub slice_in: u32,
    /// Slice outputs, direct-east hops and feedback lines.
    pub out: u32,
    /// Single-length lines (1 CLB of reach).
    pub single: u32,
    /// Hex lines (6 CLBs of reach, tapped at 0/3/6).
    pub hex: u32,
    /// Horizontal long lines (span the device's columns).
    pub long_h: u32,
    /// Vertical long lines (span the device's rows).
    pub long_v: u32,
}

impl CostModel {
    /// The cost profile for a `dims`-sized device. Long lines scale with
    /// the span they buy.
    pub const fn for_dims(dims: Dims) -> CostModel {
        CostModel {
            slice_in: 1,
            out: 2,
            single: 4,
            hex: 6,
            long_h: 6 + dims.cols as u32 / 4,
            long_v: 6 + dims.rows as u32 / 4,
        }
    }

    /// Entry cost of `w` under this model.
    #[inline]
    pub fn wire_cost(self, w: Wire) -> u32 {
        match w.kind() {
            WireKind::SliceIn { .. } => self.slice_in,
            WireKind::Out(_) => self.out,
            WireKind::DirectE(_) | WireKind::Feedback(_) => self.out,
            WireKind::Single { .. } => self.single,
            WireKind::Hex { .. } => self.hex,
            WireKind::LongH(_) => self.long_h,
            WireKind::LongV(_) => self.long_v,
            // Never entered via PIPs (sources / aliases are canonicalized).
            _ => self.single,
        }
    }
}

/// Per-device distance-lookahead table: admissible lower bounds on the
/// cost of closing a row/column distance, with and without long lines.
#[derive(Debug)]
pub struct Lookahead {
    dims: Dims,
    model: CostModel,
    /// `row[d]` = min cost to close a row distance of `d` (singles+hexes).
    row: Vec<u32>,
    /// `col[d]` = same for columns (direct-east participates here).
    col: Vec<u32>,
    /// Variants when long lines are allowed (a single long can close any
    /// distance on its axis for one entry cost).
    row_long: Vec<u32>,
    col_long: Vec<u32>,
    /// Delay-space twins of the four tables above: `row_d[d]` = min
    /// *delay* (in [`crate::delay`] cost units) any wire combination
    /// pays to close a row distance of `d`. Built by the same
    /// Bellman-Ford with [`delay_units`] move costs, so timing-driven
    /// weighted A* gets a (distance, delay) estimate pair that is
    /// admissible in both spaces.
    row_d: Vec<u32>,
    col_d: Vec<u32>,
    row_d_long: Vec<u32>,
    col_d_long: Vec<u32>,
}

static TABLE_BUILDS: AtomicU64 = AtomicU64::new(0);
static TABLE_HITS: AtomicU64 = AtomicU64::new(0);

/// `(builds, cache_hits)` of the global per-geometry registry (lookahead
/// and interconnect tables) since process start. Exposed for telemetry: a
/// healthy run builds once per device geometry and hits thereafter.
pub fn cache_stats() -> (u64, u64) {
    (
        TABLE_BUILDS.load(Ordering::Relaxed),
        TABLE_HITS.load(Ordering::Relaxed),
    )
}

/// Bellman-Ford over distance space: `lb[d]` = min cost to close an
/// axis distance of `d` using moves `(reach, cost)`, where a move may
/// go toward the goal (overshooting past it) or away from it, bounded
/// by the `n`-tile device edge. The graph has `n` nodes and a handful
/// of move classes, so the fixpoint is immediate in practice.
fn axis_table(n: usize, moves: &[(u16, u32)]) -> Vec<u32> {
    let n = n.max(1);
    let mut lb = vec![u32::MAX; n];
    lb[0] = 0;
    let mut changed = true;
    while changed {
        changed = false;
        for d in 0..n {
            let cur = lb[d];
            if cur == u32::MAX {
                continue;
            }
            for &(reach, cost) in moves {
                let toward = d.abs_diff(reach as usize);
                let away = d + reach as usize;
                let cand = cur + cost;
                if cand < lb[toward] {
                    lb[toward] = cand;
                    changed = true;
                }
                if away < n && cand < lb[away] {
                    lb[away] = cand;
                    changed = true;
                }
            }
        }
    }
    lb
}

/// One-shot direct-east discount over a repeatable-move column table: a
/// direct wire terminates at a CLB input, so any path uses at most one.
fn with_direct(plain: &[u32], direct: u32) -> Vec<u32> {
    (0..plain.len())
        .map(|d| {
            let toward = direct.saturating_add(plain[d.abs_diff(1)]);
            let away = plain
                .get(d + 1)
                .map_or(u32::MAX, |&c| direct.saturating_add(c));
            plain[d].min(toward).min(away)
        })
        .collect()
}

/// The registry behind [`Lookahead::get`] and [`Interconnect::get`]:
/// both tables of a geometry, built together on its first use and leaked
/// for the process lifetime.
pub(crate) fn tables(dims: Dims) -> (&'static Lookahead, &'static Interconnect) {
    type Entry = (&'static Lookahead, &'static Interconnect);
    static CACHE: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = cache
        .lock()
        .expect("registry lock poisoned: a table build panicked");
    if let Some(&entry) = guard.iter().find(|(la, _)| la.dims == dims) {
        TABLE_HITS.fetch_add(1, Ordering::Relaxed);
        return entry;
    }
    TABLE_BUILDS.fetch_add(1, Ordering::Relaxed);
    let entry: Entry = (
        Box::leak(Box::new(Lookahead::build(dims))),
        Box::leak(Box::new(Interconnect::build(dims))),
    );
    guard.push(entry);
    entry
}

impl Lookahead {
    fn build(dims: Dims) -> Lookahead {
        let model = CostModel::for_dims(dims);
        let hex_mid = HEX_SPAN / 2;
        // Both axes: singles (reach 1) and hexes (tapped at mid and end).
        let moves = [
            (1u16, model.single),
            (hex_mid, model.hex),
            (HEX_SPAN, model.hex),
        ];
        let row = axis_table(dims.rows as usize, &moves);
        // The column axis additionally has direct-east hops (reach 1,
        // cheap) — apply the one-shot discount over the repeatable-move
        // table instead of a repeatable move.
        let col = with_direct(&axis_table(dims.cols as usize, &moves), model.out);
        // With long lines enabled a single entry can close any distance
        // on its axis, so the bound caps at the long's entry cost.
        let row_long = row.iter().map(|&c| c.min(model.long_v)).collect();
        let col_long = col.iter().map(|&c| c.min(model.long_h)).collect();
        // Delay space: same move set, per-class delay units as costs.
        let single_d = delay_units(wire::single(crate::Dir::North, 0));
        let hex_d = delay_units(wire::hex(crate::Dir::North, 0));
        let direct_d = delay_units(wire::direct_e(0));
        let long_h_d = delay_units(wire::long_h(0));
        let long_v_d = delay_units(wire::long_v(0));
        let moves_d = [(1u16, single_d), (hex_mid, hex_d), (HEX_SPAN, hex_d)];
        let row_d = axis_table(dims.rows as usize, &moves_d);
        let col_d = with_direct(&axis_table(dims.cols as usize, &moves_d), direct_d);
        let row_d_long = row_d.iter().map(|&c| c.min(long_v_d)).collect();
        let col_d_long = col_d.iter().map(|&c| c.min(long_h_d)).collect();
        Lookahead {
            dims,
            model,
            row,
            col,
            row_long,
            col_long,
            row_d,
            col_d,
            row_d_long,
            col_d_long,
        }
    }

    /// The lookahead for a `dims`-sized device, built on first use and
    /// cached for the process lifetime (device geometries are a small
    /// closed set — one per [`crate::Family`]).
    pub fn get(dims: Dims) -> &'static Lookahead {
        tables(dims).0
    }

    /// The cost model the table lower-bounds.
    #[inline]
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// The two axis tables (row, col) for the given space and long-line
    /// setting.
    #[inline]
    fn tables(&self, delay: bool, longs: bool) -> (&[u32], &[u32]) {
        match (delay, longs) {
            (false, false) => (&self.row, &self.col),
            (false, true) => (&self.row_long, &self.col_long),
            (true, false) => (&self.row_d, &self.col_d),
            (true, true) => (&self.row_d_long, &self.col_d_long),
        }
    }

    /// Lower bound on the cost of closing `dr` rows and `dc` columns.
    /// Axis bounds add because every routing wire moves along one axis.
    #[inline]
    pub fn bound(&self, dr: u16, dc: u16, longs: bool) -> u32 {
        let (row, col) = self.tables(false, longs);
        row[dr as usize] + col[dc as usize]
    }

    /// Delay-space twin of [`Lookahead::bound`]: lower bound on the
    /// *delay* (in [`crate::delay`] cost units) of closing `dr` rows and
    /// `dc` columns.
    #[inline]
    pub fn bound_delay(&self, dr: u16, dc: u16, longs: bool) -> u32 {
        let (row, col) = self.tables(true, longs);
        row[dr as usize] + col[dc as usize]
    }

    /// Estimate from `seg` under each of `N` pairs of axis tables, from
    /// one walk over the segment's taps: the bound from its nearest tap
    /// (long lines use their every-[`LONG_ACCESS`] access-point pattern).
    #[inline]
    fn est_in<const N: usize>(
        &self,
        tables: [(&[u32], &[u32]); N],
        seg: Segment,
        goal: RowCol,
    ) -> [u32; N] {
        let sum = |dr: u16, dc: u16| tables.map(|(row, col)| row[dr as usize] + col[dc as usize]);
        let at = |rc: RowCol| sum(rc.row.abs_diff(goal.row), rc.col.abs_diff(goal.col));
        let min = |a: [u32; N], b: [u32; N]| std::array::from_fn(|i| a[i].min(b[i]));
        let off_access = |g: u16| (g % LONG_ACCESS).min(LONG_ACCESS - g % LONG_ACCESS);
        match seg.wire.kind() {
            WireKind::Single { dir, .. } => {
                let far = seg.rc.step(dir, 1, self.dims).unwrap_or(seg.rc);
                min(at(seg.rc), at(far))
            }
            WireKind::Hex { dir, .. } => {
                let mid = seg.rc.step(dir, HEX_SPAN / 2, self.dims).unwrap_or(seg.rc);
                let end = seg.rc.step(dir, HEX_SPAN, self.dims).unwrap_or(seg.rc);
                min(min(at(seg.rc), at(mid)), at(end))
            }
            // Reachable every LONG_ACCESS columns along its row.
            WireKind::LongH(_) => sum(seg.rc.row.abs_diff(goal.row), off_access(goal.col)),
            WireKind::LongV(_) => sum(off_access(goal.row), seg.rc.col.abs_diff(goal.col)),
            _ => at(seg.rc),
        }
    }

    /// Admissible remaining-cost estimate from `seg` to the goal tile.
    pub fn estimate(&self, seg: Segment, goal: RowCol, longs: bool) -> u32 {
        let [h] = self.est_in([self.tables(false, longs)], seg, goal);
        h
    }

    /// Admissible remaining-*delay* estimate from `seg` to the goal tile,
    /// in [`crate::delay`] cost units.
    pub fn estimate_delay(&self, seg: Segment, goal: RowCol, longs: bool) -> u32 {
        let [h] = self.est_in([self.tables(true, longs)], seg, goal);
        h
    }

    /// The (distance-cost, delay) estimate pair — what a
    /// criticality-blended weighted A* needs per push — from one walk
    /// over `seg`'s taps.
    #[inline]
    pub fn estimate_pair(&self, seg: Segment, goal: RowCol, longs: bool) -> (u32, u32) {
        let [h, d] = self.est_in(
            [self.tables(false, longs), self.tables(true, longs)],
            seg,
            goal,
        );
        (h, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Device, Family};

    #[test]
    fn axis_table_matches_hand_derived_bounds() {
        let dims = Device::new(Family::Xcv50).dims(); // 16 x 24
        let la = Lookahead::get(dims);
        // Distance 0 is free; 1 is one single (4); 2 is two singles (8);
        // 3 is one hex mid-tap (6); 4 is hex + single (10); 6 one hex;
        // 12 two hexes.
        for (d, want) in [(0, 0), (1, 4), (2, 8), (3, 6), (4, 10), (6, 6), (12, 12)] {
            assert_eq!(la.bound(d, 0, false), want, "row distance {d}");
        }
        // Columns can use direct-east (cost 2) once for a ±1 remainder.
        assert_eq!(la.bound(0, 1, false), 2);
        assert_eq!(la.bound(0, 2, false), 6); // direct + single, not 2 directs
        assert_eq!(la.bound(0, 4, false), 8); // hex mid-tap + direct-east
                                              // 5 = 6 - 1: hex overshoot + direct remainder beats 5 singles.
        assert_eq!(la.bound(0, 5, false), 8);
    }

    #[test]
    fn long_tables_cap_at_long_entry_cost() {
        let dims = Device::new(Family::Xcv1000).dims(); // 64 x 96
        let la = Lookahead::get(dims);
        let m = CostModel::for_dims(dims);
        assert_eq!(la.bound(dims.rows - 1, 0, true), m.long_v);
        assert_eq!(la.bound(0, dims.cols - 1, true), m.long_h);
        // Without longs the bound keeps growing with distance.
        assert!(la.bound(dims.rows - 1, 0, false) > m.long_v);
        // Long variant is never larger than the plain one.
        for d in 0..dims.rows {
            assert!(la.bound(d, 0, true) <= la.bound(d, 0, false));
        }
    }

    #[test]
    fn bounds_are_monotone_enough_to_be_admissible() {
        // Spot-check admissibility against brute force: the bound for
        // distance d never exceeds d singles (a real path that always
        // exists along one axis inside the device).
        let dims = Device::new(Family::Xcv300).dims();
        let la = Lookahead::get(dims);
        let m = la.model();
        for d in 0..dims.rows {
            assert!(la.bound(d, 0, false) <= d as u32 * m.single);
        }
        for d in 1..dims.cols {
            // One direct-east hop plus singles is always a real path shape.
            assert!(la.bound(0, d, false) <= m.out + (d as u32 - 1) * m.single);
        }
    }

    #[test]
    fn delay_tables_match_hand_derived_bounds() {
        use crate::delay::delay_units;
        use crate::{wire, Dir};
        let dims = Device::new(Family::Xcv50).dims();
        let la = Lookahead::get(dims);
        let s = delay_units(wire::single(Dir::North, 0)); // (120+150)/50 = 5
        let h = delay_units(wire::hex(Dir::North, 0)); // (120+350)/50 = 9
        assert_eq!(la.bound_delay(0, 0, false), 0);
        assert_eq!(la.bound_delay(1, 0, false), s);
        assert_eq!(la.bound_delay(2, 0, false), 2 * s);
        // Distance 3: a hex mid-tap (9) beats three singles (15).
        assert_eq!(la.bound_delay(3, 0, false), h);
        assert_eq!(la.bound_delay(6, 0, false), h);
        // Columns get the one-shot direct-east discount ((120+60)/50 = 3).
        assert_eq!(la.bound_delay(0, 1, false), delay_units(wire::direct_e(0)));
        // Long tables cap at the long's entry delay.
        let big = Device::new(Family::Xcv1000).dims();
        let bl = Lookahead::get(big);
        assert_eq!(
            bl.bound_delay(big.rows - 1, 0, true),
            delay_units(wire::long_v(0))
        );
        assert!(bl.bound_delay(big.rows - 1, 0, false) > delay_units(wire::long_v(0)));
    }

    #[test]
    fn delay_estimates_are_admissible_against_singles() {
        use crate::delay::delay_units;
        use crate::{wire, Dir};
        let dims = Device::new(Family::Xcv300).dims();
        let la = Lookahead::get(dims);
        let s = delay_units(wire::single(Dir::North, 0));
        for d in 0..dims.rows {
            assert!(la.bound_delay(d, 0, false) <= d as u32 * s);
        }
        // The pair accessor agrees with the scalar calls.
        let seg = Segment {
            rc: RowCol::new(3, 4),
            wire: wire::hex(Dir::East, 0),
        };
        let goal = RowCol::new(10, 12);
        assert_eq!(
            la.estimate_pair(seg, goal, false),
            (
                la.estimate(seg, goal, false),
                la.estimate_delay(seg, goal, false)
            )
        );
    }

    #[test]
    fn pair_walk_matches_the_scalar_estimates_on_every_xcv50_segment() {
        use crate::segment::is_canonical;
        use crate::Wire;
        let dims = Family::Xcv50.dims();
        let la = Lookahead::get(dims);
        let goals = [
            RowCol::new(0, 0),
            RowCol::new(7, 11),
            RowCol::new(15, 23),
            RowCol::new(6, 18),
            RowCol::new(12, 5),
        ];
        for rc in dims.iter_tiles() {
            for wire in Wire::all() {
                let seg = Segment { rc, wire };
                if !is_canonical(dims, seg) {
                    continue;
                }
                for goal in goals {
                    for longs in [false, true] {
                        assert_eq!(
                            la.estimate_pair(seg, goal, longs),
                            (
                                la.estimate(seg, goal, longs),
                                la.estimate_delay(seg, goal, longs)
                            ),
                            "{seg} -> {goal} longs={longs}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cache_reuses_tables_per_dims() {
        // What `MazeScratch::new` resolves, over repeated devices of one
        // family: the same two tables every time, served from the cache.
        let fam = Family::Xcv600;
        let first = (
            Device::new(fam).lookahead(),
            Device::new(fam).interconnect(),
        );
        let (builds, hits) = cache_stats();
        for _ in 0..4 {
            let dev = Device::new(fam);
            assert!(std::ptr::eq(dev.lookahead(), first.0));
            assert!(std::ptr::eq(dev.interconnect(), first.1));
        }
        let (builds2, hits2) = cache_stats();
        assert!(builds >= 1);
        assert!(hits2 >= hits + 8, "every repeat is a cache hit");
        // Other tests may build other geometries concurrently, but no
        // more than one build per geometry.
        assert!(
            builds2 <= (Family::ALL.len() + Family::SYNTHETIC.len()) as u64,
            "{builds2} builds"
        );
        let a = Lookahead::get(Dims::new(16, 24));
        let b = Lookahead::get(Dims::new(16, 24));
        assert!(std::ptr::eq(a, b));
    }
}
