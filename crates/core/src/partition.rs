//! Partition → dispatch support for the unified negotiated router.
//!
//! The incremental PathFinder negotiator and the ordered routing engine
//! ([`crate::parallel`]) both confine each net's maze searches to a box
//! around its terminals. This module makes that box a first-class
//! object ([`SearchBox`], one growth policy shared by every call site)
//! and builds on it the observation
//! that makes negotiation parallelizable at all: **nets whose search
//! regions are disjoint cannot interact** — their searches read disjoint
//! congestion state and their routes occupy disjoint segments — so they
//! may be ripped up, re-searched and committed together without changing
//! any result.
//!
//! [`partition_waves`] turns one iteration's dirty-net set into a
//! sequence of such *waves* by recursive bisection over the search boxes
//! (the strategy of the ParaDRo-style open-source parallel routers, see
//! PAPERS.md): cut the region along its longer axis at the median box
//! midpoint, recurse into the fully-left and fully-right sets, zip-merge
//! their wave lists (wave *k* of the left side is box-disjoint from wave
//! *k* of the right side *by the cut*), and recurse separately into the
//! straddlers. Sets in which every box overlaps every cut degrade to one
//! singleton wave per net — bisection always terminates, and a wave is
//! never allowed to contain two overlapping boxes.
//!
//! A wave worker builds its own [`crate::maze::MazeScratch`]; the maze
//! keeps dropped scratches' device-sized arrays for the next one, so
//! waves and iterations reuse the same few sets.

use crate::pathfinder::NetSpec;
use virtex::wire::HEX_SPAN;
use virtex::{BBox, Dims};

/// Default margin (tiles beyond the terminal bounding box) a search
/// region grants for detours before any growth.
pub const DEFAULT_MARGIN: u16 = 3;

/// A net's canonical search region: the terminal bounding box plus the
/// extra patience it has earned, with one growth policy for every
/// router.
///
/// The actual maze region ([`SearchBox::region`]) expands the terminal
/// box by `margin + HEX_SPAN + growth`: the margin buys detour room,
/// the [`HEX_SPAN`] slack keeps hexes whose canonical origin trails
/// outside the box but whose taps land inside it reachable, and the
/// growth term widens nets that keep getting ripped up until they
/// asymptotically see the whole device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBox {
    terminals: BBox,
    growth: u16,
}

impl SearchBox {
    /// Region seeded from an explicit terminal box.
    pub fn new(terminals: BBox) -> Self {
        SearchBox {
            terminals,
            growth: 0,
        }
    }

    /// Region covering every terminal pin of `spec` (source and sinks),
    /// by raw pin position.
    pub fn of_spec(spec: &NetSpec) -> Self {
        let mut b = BBox::at(spec.source.rc);
        for s in &spec.sinks {
            b.include(s.rc);
        }
        SearchBox::new(b)
    }

    /// Grow the region by `by` extra tiles of margin (saturating). The
    /// negotiators call this with 1 per repeat rip-up and [`HEX_SPAN`]
    /// per outright search failure.
    pub fn widen(&mut self, by: u16) {
        self.growth = self.growth.saturating_add(by);
    }

    /// The maze search region at `margin` tiles of slack, clamped to the
    /// device.
    pub fn region(&self, margin: u16, dims: Dims) -> BBox {
        self.terminals.expand(margin + HEX_SPAN + self.growth, dims)
    }
}

/// Whether two inclusive boxes share no tile — the invariant
/// [`partition_waves`] guarantees within every wave.
#[inline]
pub fn disjoint(a: BBox, b: BBox) -> bool {
    a.max.row < b.min.row || b.max.row < a.min.row || a.max.col < b.min.col || b.max.col < a.min.col
}

/// Output of [`partition_waves`]: waves of mutually box-disjoint nets.
#[derive(Debug)]
pub struct WavePlan {
    /// Waves in dispatch order; each wave holds indices into the input
    /// slice, ascending, with pairwise-disjoint boxes. Every input index
    /// appears in exactly one wave.
    pub waves: Vec<Vec<usize>>,
    /// Nets that straddled a bisection cut (or sat in an inseparable
    /// clique) and were pushed into later waves — the serialization the
    /// partition could not avoid.
    pub conflicts: usize,
}

/// Partition `boxes` into bbox-disjoint waves by recursive bisection.
pub fn partition_waves(boxes: &[BBox]) -> WavePlan {
    let mut conflicts = 0usize;
    let items: Vec<(usize, BBox)> = boxes.iter().copied().enumerate().collect();
    let mut waves = bisect(items, &mut conflicts);
    for w in &mut waves {
        w.sort_unstable();
    }
    WavePlan { waves, conflicts }
}

#[derive(Clone, Copy)]
enum Axis {
    Row,
    Col,
}

fn lo(b: BBox, axis: Axis) -> u16 {
    match axis {
        Axis::Row => b.min.row,
        Axis::Col => b.min.col,
    }
}

fn hi(b: BBox, axis: Axis) -> u16 {
    match axis {
        Axis::Row => b.max.row,
        Axis::Col => b.max.col,
    }
}

/// The two axes, the one with the larger union extent first (ties go to
/// rows): cutting across the long direction of the populated area gives
/// the most even splits.
fn axes_by_extent(items: &[(usize, BBox)]) -> [Axis; 2] {
    let mut union = items[0].1;
    for &(_, b) in &items[1..] {
        union.include(b.min);
        union.include(b.max);
    }
    let rows = union.max.row - union.min.row;
    let cols = union.max.col - union.min.col;
    if rows >= cols {
        [Axis::Row, Axis::Col]
    } else {
        [Axis::Col, Axis::Row]
    }
}

/// Try to cut `items` along `axis`. Candidate cut lines are the distinct
/// lower box edges; for a cut `c`, boxes with `hi < c` go left, `lo >= c`
/// go right, the rest straddle. The sweep picks the candidate with the
/// most even split (largest smaller side; ties broken by fewest
/// straddlers), so a cut that cleanly separates everything is always
/// preferred over one that manufactures straddlers. Returns
/// `(left, right, straddle)` only when both clean sides are non-empty —
/// the condition that guarantees every recursive call strictly shrinks.
type Cut = (Vec<(usize, BBox)>, Vec<(usize, BBox)>, Vec<(usize, BBox)>);

fn cut(items: &[(usize, BBox)], axis: Axis) -> Option<Cut> {
    let n = items.len();
    let mut los: Vec<u16> = items.iter().map(|&(_, b)| lo(b, axis)).collect();
    let mut his: Vec<u16> = items.iter().map(|&(_, b)| hi(b, axis)).collect();
    los.sort_unstable();
    his.sort_unstable();
    let mut cands = los.clone();
    cands.dedup();
    let mut best: Option<((usize, std::cmp::Reverse<usize>), u16)> = None;
    for &c in &cands {
        let l = his.partition_point(|&h| h < c);
        let r = n - los.partition_point(|&x| x < c);
        if l == 0 || r == 0 {
            continue;
        }
        let score = (l.min(r), std::cmp::Reverse(n - l - r));
        if best.is_none_or(|(s, _)| score > s) {
            best = Some((score, c));
        }
    }
    let (_, c) = best?;
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut straddle = Vec::new();
    for &(i, b) in items {
        if hi(b, axis) < c {
            left.push((i, b));
        } else if lo(b, axis) >= c {
            right.push((i, b));
        } else {
            straddle.push((i, b));
        }
    }
    Some((left, right, straddle))
}

/// Merge two wave lists positionally. Wave `k` of `a` and wave `k` of
/// `b` came from opposite sides of a cut, so their union is still
/// pairwise disjoint.
fn zip_merge(mut a: Vec<Vec<usize>>, b: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
    for (k, wave) in b.into_iter().enumerate() {
        if k < a.len() {
            a[k].extend(wave);
        } else {
            a.push(wave);
        }
    }
    a
}

fn bisect(items: Vec<(usize, BBox)>, conflicts: &mut usize) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return items.into_iter().map(|(i, _)| vec![i]).collect();
    }
    for axis in axes_by_extent(&items) {
        if let Some((left, right, straddle)) = cut(&items, axis) {
            let mut waves = zip_merge(bisect(left, conflicts), bisect(right, conflicts));
            if !straddle.is_empty() {
                // Straddlers overlap the cut line, hence possibly each
                // other and both sides: they get their own later waves
                // (recursed independently — typically the other axis
                // separates them).
                *conflicts += straddle.len();
                waves.extend(bisect(straddle, conflicts));
            }
            return waves;
        }
    }
    // Pathological clique: no cut on either axis separates anything
    // (e.g. every box overlaps a common hotspot). Serialize: one
    // singleton wave per net, which is trivially valid and terminates.
    *conflicts += items.len() - 1;
    items.into_iter().map(|(i, _)| vec![i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Pin;
    use virtex::{wire, Family, RowCol};

    fn bb(r0: u16, c0: u16, r1: u16, c1: u16) -> BBox {
        BBox {
            min: RowCol::new(r0, c0),
            max: RowCol::new(r1, c1),
        }
    }

    /// Every index exactly once; within a wave, pairwise disjoint.
    fn check_plan(boxes: &[BBox], plan: &WavePlan) {
        let mut seen = vec![0usize; boxes.len()];
        for wave in &plan.waves {
            for (a, &i) in wave.iter().enumerate() {
                seen[i] += 1;
                for &j in &wave[a + 1..] {
                    assert!(
                        disjoint(boxes[i], boxes[j]),
                        "wave holds overlapping boxes {i} and {j}"
                    );
                }
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "coverage: {seen:?}");
    }

    #[test]
    fn partitions_scattered_boxes_into_one_wave() {
        let boxes: Vec<BBox> = (0..8)
            .map(|i| bb(i * 10, i * 12, i * 10 + 5, i * 12 + 6))
            .collect();
        let plan = partition_waves(&boxes);
        check_plan(&boxes, &plan);
        assert_eq!(plan.waves.len(), 1, "disjoint boxes need no serialization");
        assert_eq!(plan.conflicts, 0);
        assert_eq!(plan.waves[0].len(), 8);
    }

    #[test]
    fn identical_boxes_serialize_into_singleton_waves() {
        let boxes = vec![bb(5, 5, 20, 20); 6];
        let plan = partition_waves(&boxes);
        check_plan(&boxes, &plan);
        assert_eq!(plan.waves.len(), 6, "all-overlapping boxes must serialize");
        assert_eq!(plan.conflicts, 5);
    }

    #[test]
    fn straddlers_land_in_later_waves() {
        // Two clusters plus one box spanning both: the spanner must not
        // share a wave with anything it overlaps.
        let boxes = vec![
            bb(0, 0, 4, 4),
            bb(0, 30, 4, 34),
            bb(20, 0, 24, 4),
            bb(20, 30, 24, 34),
            bb(0, 0, 24, 34),
        ];
        let plan = partition_waves(&boxes);
        check_plan(&boxes, &plan);
        assert!(plan.waves.len() >= 2);
        assert!(plan.conflicts >= 1);
    }

    #[test]
    fn empty_input_gives_empty_plan() {
        let plan = partition_waves(&[]);
        assert!(plan.waves.is_empty());
        assert_eq!(plan.conflicts, 0);
    }

    #[test]
    fn search_box_matches_legacy_expansion() {
        let dims = Family::Xcv50.dims();
        let spec = NetSpec::new(
            Pin::new(4, 6, wire::S0_YQ),
            vec![Pin::new(9, 2, wire::S0_F3)],
        );
        let mut sb = SearchBox::of_spec(&spec);
        assert_eq!(sb, SearchBox::new(bb(4, 2, 9, 6)));
        let mut legacy = bb(4, 2, 9, 6);
        legacy = legacy.expand(DEFAULT_MARGIN + HEX_SPAN, dims);
        assert_eq!(sb.region(DEFAULT_MARGIN, dims), legacy);
        sb.widen(2);
        assert_eq!(
            sb.region(DEFAULT_MARGIN, dims),
            bb(4, 2, 9, 6).expand(DEFAULT_MARGIN + HEX_SPAN + 2, dims)
        );
    }
}
