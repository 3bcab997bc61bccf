//! Maze routing over the segment graph.
//!
//! The paper's auto-routing calls (§3.1) name the classic maze router
//! \[4\]\[5\] as the fallback when templates fail, and as one possible
//! implementation of point-to-point routing. This module implements an
//! A*-guided variant of Lee's algorithm over *canonical segments*: nodes
//! are wire segments, edges are GRM PIPs queried from the architecture
//! class (so the router itself carries no architecture knowledge — paper
//! §5).
//!
//! The search supports multiple start segments with per-start initial
//! costs, which is how fan-out routing reuses an existing tree (*"For
//! each sink, the router attempts to reuse the previous paths as much as
//! possible"*, §3.1): every segment already on the net is offered as a
//! zero-cost start.
//!
//! Expansion walks the per-device [`Interconnect`] table: each canonical
//! wire's PIP edges, listed once per geometry with their targets' index
//! deltas and entry prices, in the order the tap/PIP generator emits them
//! (so the open list breaks ties exactly as the generator would).
//! Long-line and global-clock origins still go through the generator.
//!
//! Scratch state (visited/cost/parent arrays over the dense segment index
//! space) is epoch-stamped and reused across searches, so a search
//! allocates nothing after warm-up beyond the generator's tap buffers
//! when it expands a long line.
//!
//! Queue keys are `g + w·h` with `h` served by the per-device
//! [`Lookahead`] table: an admissible lower bound on remaining cost
//! under the real wire-cost profile (hexes close 6 CLBs for one entry
//! cost). At [`MazeConfig::heuristic_weight`] `w = 1` found paths are
//! cost-optimal (the negotiated router's setting); the greedy default
//! `w = 2` inflates path cost by at most 2× in exchange for far fewer
//! expansions. Searches can additionally be confined to a [`BBox`] region
//! ([`MazeConfig::bbox`]), the PathFinder-style pruning that keeps
//! reroute cost proportional to net span rather than device size.
//!
//! Timing-driven callers set [`MazeConfig::crit`]: the edge cost becomes
//! the RWRoute blend `(1 − crit)·congestion + crit·delay` (fixed-point
//! over [`CRIT_ONE`]), with the delay term from [`virtex::delay`] and
//! the heuristic blending the lookahead's (distance, delay) pair the
//! same way, so one search engine serves both the pure-congestion
//! negotiator and the criticality-weighted one.

use crate::dial::DialQueue;
use jbits::Pip;
use jroute_obs::{Counter, Histo, Recorder};
use std::sync::Mutex;
use virtex::lookahead::Lookahead;
use virtex::{BBox, Device, Interconnect, RowCol, SegIdx, Segment, Wire};

/// Tuning knobs for a maze search.
#[derive(Debug, Clone)]
pub struct MazeConfig {
    /// Allow long lines. Default `false`: the paper's initial fan-out
    /// implementation notes *"Currently long lines are not supported;
    /// only hexes and singles are used"*. Experiment E9 flips this.
    pub use_long_lines: bool,
    /// Abort after expanding this many nodes (safety valve on congested
    /// fabrics).
    pub max_nodes: usize,
    /// Restrict expansion to segments whose canonical origin lies inside
    /// this box (PathFinder-style region pruning). Long lines are exempt
    /// — they exist to escape the neighbourhood. `None` searches the
    /// whole device. Callers that bound the search should be prepared to
    /// retry unbounded on failure: a box can cut the only legal detour.
    pub bbox: Option<BBox>,
    /// Weighted-A* focus factor applied to the lookahead estimate
    /// (`f = g + w·h`). At 1 the search is admissible and paths are
    /// cost-optimal; the default 2 trades bounded path-cost inflation
    /// for far fewer expansions on long spans — the greedy RTR bargain
    /// the paper makes explicitly (§3.1). The negotiated router runs at
    /// 1: its convergence accounting wants true minimum-cost reroutes.
    pub heuristic_weight: u32,
    /// Criticality of the connection being routed, fixed-point in
    /// `0..=`[`CRIT_ONE`]. Blends the edge cost the RWRoute way:
    /// `cost = ((CRIT_ONE − crit)·congestion + crit·delay) / CRIT_ONE`,
    /// where the delay term is the per-wire-class model in
    /// [`virtex::delay`] (in the same cost units) and the heuristic
    /// blends the lookahead's (distance, delay) estimate pair
    /// identically, so weighted A* stays consistent. At the default 0
    /// the search takes the exact pure-congestion path — bit-identical
    /// to the non-timing-driven router.
    pub crit: u32,
}

/// Fixed-point denominator for [`MazeConfig::crit`]: a criticality of
/// `CRIT_ONE` means 1.0 (pure delay cost, zero congestion weight).
pub const CRIT_ONE: u32 = 256;
const CRIT_SHIFT: u32 = 8;

/// `((CRIT_ONE − crit)·cong + crit·delay) / CRIT_ONE` without overflow.
#[inline]
pub(crate) fn blend(crit: u32, cong: u32, delay: u32) -> u32 {
    (((CRIT_ONE - crit) as u64 * cong as u64 + crit as u64 * delay as u64) >> CRIT_SHIFT) as u32
}

impl Default for MazeConfig {
    fn default() -> Self {
        MazeConfig {
            use_long_lines: false,
            max_nodes: 2_000_000,
            bbox: None,
            heuristic_weight: 2,
            crit: 0,
        }
    }
}

/// Reusable search state sized for one device: epoch-stamped best-cost /
/// predecessor arrays over the dense segment index plus the bucketed
/// open list, all reset in O(1) per search.
///
/// The per-segment record is two all-zero `u64` words so both arrays are
/// allocated as untouched zero pages (`vec![0; n]` lowers to
/// `alloc_zeroed`): constructing a scratch for a large device costs
/// microseconds and physical memory proportional to the region searches
/// actually explore, not to the full segment space. That matters to the
/// parallel router, where every worker owns a scratch per round — an
/// eagerly-written map would charge each worker tens of megabytes of
/// memory traffic before it routed anything. Packing also keeps the hot
/// relax test (`seen` + `cost`) to a single cache line per neighbour,
/// which dominates on fabrics whose scratch overflows the cache.
///
/// Untouched zero pages are what the allocator hands out the first time
/// only. glibc maps a large block fresh until one is freed, then serves
/// blocks of that size from its heap, where `alloc_zeroed` writes every
/// page and a fragmented heap can keep a second copy resident. So a
/// dropped router hands its scratch's arrays on to the next scratch of
/// the same size (`SPARE`); the epoch stamps make them as good as
/// zeroed.
///
/// `meta` holds `stamp << 32 | cost` with `stamp = (epoch << 1) |
/// closed`; a slot is live iff `stamp >> 1 == epoch`. The `closed` bit
/// replaces the classic stale-heap-entry test — the Dial queue clamps
/// below-base priorities, so a popped priority says nothing about
/// whether the entry is outdated, but "already expanded and not improved
/// since" does (recording an improvement clears the bit, reopening the
/// node). `link` holds the bit-packed predecessor record; the
/// predecessor's *index* is not stored — `(rc, from)` names the physical
/// wire the path arrived over, so canonicalizing it during the (cold)
/// reconstruction walk recovers the predecessor exactly, and the scratch
/// carries no per-segment index field that would cap the segment space
/// (the synthetic super-Virtex rows exceed the 16.7 M segments a 24-bit
/// packed index allowed).
#[derive(Debug)]
pub struct MazeScratch {
    epoch: u32,
    /// `(epoch << 1 | closed) << 32 | cost`.
    meta: Vec<u64>,
    /// Packed [`PrevEntry`]: `start[0] rc.row[4:14] rc.col[14:24]
    /// from[24:34] to[34:44]`.
    link: Vec<u64>,
    open: DialQueue,
    /// Per-device distance lookahead, resolved once at construction so
    /// the per-pop heuristic is two table reads (no locks, no rebuild).
    la: &'static Lookahead,
    /// Per-device interconnect table, resolved next to `la`: the edges
    /// each expansion walks.
    ic: &'static Interconnect,
    /// Typed metric handles cached per recorder (keyed by
    /// [`Recorder::id`]), so a search records through lock-free sharded
    /// atomics instead of string-keyed map lookups. A scratch handed a
    /// different recorder re-resolves.
    meters: Option<MazeMeters>,
}

/// Pre-resolved registry handles for the maze search telemetry.
#[derive(Debug, Clone)]
struct MazeMeters {
    rec: usize,
    searches: Counter,
    failures: Counter,
    pushes: Counter,
    pops: Counter,
    prunes: Counter,
    expanded: Histo,
}

impl MazeMeters {
    fn resolve(obs: &Recorder) -> Self {
        MazeMeters {
            rec: obs.id(),
            searches: obs.counter("maze.searches"),
            failures: obs.counter("maze.search_failures"),
            pushes: obs.counter("maze.open_pushes"),
            pops: obs.counter("maze.open_pops"),
            prunes: obs.counter("maze.bbox_prunes"),
            expanded: obs.histogram("maze.nodes_expanded"),
        }
    }
}

/// Predecessor record for one search node: the PIP `(rc, from → to)`
/// that entered it, or a start marker. The predecessor *node* is implied
/// rather than stored — `(rc, from)` is an alias position of the
/// predecessor's physical segment, so canonicalizing it recovers the
/// node during reconstruction.
#[derive(Debug, Clone, Copy)]
struct PrevEntry {
    /// Search start: no predecessor (`rc`/`from`/`to` echo the start
    /// segment and are not walked).
    start: bool,
    rc: RowCol,
    from: Wire,
    to: Wire,
}

impl PrevEntry {
    #[inline]
    fn pack(self) -> u64 {
        debug_assert!(self.from.0 < 1 << 10 && self.to.0 < 1 << 10);
        self.start as u64
            | (self.rc.row as u64) << 4
            | (self.rc.col as u64) << 14
            | (self.from.0 as u64) << 24
            | (self.to.0 as u64) << 34
    }

    #[inline]
    fn unpack(w: u64) -> Self {
        PrevEntry {
            start: w & 1 != 0,
            rc: RowCol::new((w >> 4) as u16 & 0x3FF, (w >> 14) as u16 & 0x3FF),
            from: Wire((w >> 24) as u16 & 0x3FF),
            to: Wire((w >> 34) as u16 & 0x3FF),
        }
    }
}

/// Epochs use 31 bits of the stamp half-word; wrap rewrites the stamps.
const EPOCH_MAX: u32 = u32::MAX >> 1;

/// A scratch's device-sized state: the epoch and the arrays it stamps.
type Arrays = (u32, Vec<u64>, Vec<u64>);

/// The arrays of the last dropped [`crate::Router`], kept for the next
/// [`MazeScratch::new`] of the same size. An RTR application rebuilds
/// its router per design state; this way each router reuses one set of
/// arrays instead of cycling device-sized blocks through the allocator.
/// One set only: [`crate::ScratchPool`]s keep their own scratches, and
/// every retained set stays resident.
static SPARE: Mutex<Option<Arrays>> = Mutex::new(None);

impl MazeScratch {
    /// Scratch sized for `dev`'s segment space, on the arrays a dropped
    /// router left if they have that size.
    pub fn new(dev: &Device) -> Self {
        let n = dev.seg_space().len();
        let spare = SPARE
            .lock()
            .expect("spare lock poisoned")
            .take_if(|s| s.1.len() == n);
        Self::on_arrays(dev, spare.unwrap_or_else(|| (0, vec![0; n], vec![0; n])))
    }

    /// Leave this scratch's arrays to the next [`MazeScratch::new`] of
    /// the same size; the scratch must not search again.
    pub(crate) fn hand_on(&mut self) {
        // A poisoned lock only loses the reuse.
        if let Ok(mut spare) = SPARE.lock() {
            *spare = Some(self.take_arrays());
        }
    }

    /// Scratch for `dev` continuing from `arrays`. Every stamp in them is
    /// older than their epoch, so every slot starts unseen.
    fn on_arrays(dev: &Device, (epoch, meta, link): Arrays) -> Self {
        let dims = dev.dims();
        assert!(
            dims.rows < 1 << 10 && dims.cols < 1 << 10,
            "tile coordinates exceed packed field"
        );
        debug_assert_eq!(meta.len(), dev.seg_space().len());
        MazeScratch {
            epoch,
            meta,
            link,
            open: DialQueue::new(),
            la: dev.lookahead(),
            ic: dev.interconnect(),
            meters: None,
        }
    }

    fn take_arrays(&mut self) -> Arrays {
        (
            self.epoch,
            std::mem::take(&mut self.meta),
            std::mem::take(&mut self.link),
        )
    }

    /// Metric handles for `obs`, resolved once and cached on the scratch
    /// (the scratch already has exactly the right lifetime: one per
    /// worker, reused across every search that worker runs).
    fn meters_for(&mut self, obs: &Recorder) -> &MazeMeters {
        if self.meters.as_ref().map(|m| m.rec) != Some(obs.id()) {
            self.meters = Some(MazeMeters::resolve(obs));
        }
        self.meters.as_ref().expect("just resolved")
    }

    #[inline]
    fn begin(&mut self) {
        self.epoch += 1;
        if self.epoch > EPOCH_MAX {
            self.meta.fill(0);
            self.epoch = 1;
        }
        self.open.clear();
    }

    #[inline]
    fn seen(&self, i: SegIdx) -> bool {
        (self.meta[i.as_usize()] >> 33) as u32 == self.epoch
    }

    #[inline]
    fn cost(&self, i: SegIdx) -> u32 {
        if self.seen(i) {
            self.meta[i.as_usize()] as u32
        } else {
            u32::MAX
        }
    }

    /// Record an improved cost, (re)opening the node.
    #[inline]
    fn record(&mut self, i: SegIdx, cost: u32, prev: PrevEntry) {
        let i = i.as_usize();
        self.meta[i] = (self.epoch as u64) << 33 | cost as u64;
        self.link[i] = prev.pack();
    }

    /// Close `i` for expansion; returns `false` if it was already closed
    /// at its current cost.
    #[inline]
    fn close(&mut self, i: SegIdx) -> bool {
        let e = &mut self.meta[i.as_usize()];
        let closed = (self.epoch as u64) << 1 | 1;
        if *e >> 32 == closed {
            return false;
        }
        *e = closed << 32 | *e & 0xFFFF_FFFF;
        true
    }

    /// Predecessor record of a live node (the reconstruction walk).
    #[inline]
    fn prev_of(&self, i: SegIdx) -> PrevEntry {
        debug_assert!(self.seen(i), "path nodes are recorded");
        PrevEntry::unpack(self.link[i.as_usize()])
    }
}

/// Result of a successful maze search.
#[derive(Debug, Clone)]
pub struct MazeResult {
    /// PIPs to configure, in source-to-sink order. PIPs whose source
    /// segment was an existing-net start (reuse) are only the new suffix.
    pub pips: Vec<(RowCol, Pip)>,
    /// New segments entered by the path, in source-to-sink order
    /// (excludes the start segment).
    pub segments: Vec<Segment>,
    /// Total path cost.
    pub cost: u32,
    /// Nodes expanded during the search (E8 metric).
    pub nodes_expanded: usize,
}

/// A* search from any of `starts` to `goal`.
///
/// * `blocked(seg)` — segments the path may not enter (typically: used by
///   another net). The goal is never blocked-checked: callers decide
///   whether the sink itself is free.
/// * `extra_cost(seg)` — additive congestion cost (PathFinder's present +
///   history terms); zero for plain routing.
pub fn search(
    dev: &Device,
    starts: &[(Segment, u32)],
    goal: Segment,
    cfg: &MazeConfig,
    blocked: impl FnMut(Segment) -> bool,
    extra_cost: impl FnMut(Segment) -> u32,
    scratch: &mut MazeScratch,
) -> Option<MazeResult> {
    search_obs(
        dev,
        starts,
        goal,
        cfg,
        blocked,
        extra_cost,
        scratch,
        &Recorder::disabled(),
    )
}

/// [`search`] with telemetry: one `maze.search` span per call (its note
/// is the node-expansion count), plus nodes-expanded / open-list
/// histograms and counters. A disabled recorder reduces to plain
/// `search` at the cost of a handful of local integer increments.
#[allow(clippy::too_many_arguments)] // mirrors `search` + the recorder
pub fn search_obs(
    dev: &Device,
    starts: &[(Segment, u32)],
    goal: Segment,
    cfg: &MazeConfig,
    mut blocked: impl FnMut(Segment) -> bool,
    mut extra_cost: impl FnMut(Segment) -> u32,
    scratch: &mut MazeScratch,
    obs: &Recorder,
) -> Option<MazeResult> {
    let mut span = obs.span("maze.search");
    // Cheap Arc clones; resolved through the scratch cache, so the hot
    // path below never touches the registry lock.
    let m = scratch.meters_for(obs).clone();
    let dims = dev.dims();
    let space = dev.seg_space();
    let (la, ic) = (scratch.la, scratch.ic);
    let longs = cfg.use_long_lines;
    let hw = cfg.heuristic_weight.max(1);
    let crit = cfg.crit.min(CRIT_ONE);
    // Blended remaining-cost estimate; at crit 0 this is exactly the
    // pure-distance lookahead the congestion-only router uses.
    let est = |seg: Segment| -> u32 {
        if crit == 0 {
            la.estimate(seg, goal.rc, longs)
        } else {
            let (hd, hdel) = la.estimate_pair(seg, goal.rc, longs);
            blend(crit, hd, hdel)
        }
    };
    // A box covering the whole device prunes nothing; drop it so the hot
    // loop skips the contains test entirely.
    let bbox = cfg.bbox.filter(|b| !b.covers(dims));
    scratch.begin();
    let goal_idx = space.index(goal);

    let mut pushes = 0u64;
    let mut pops = 0u64;
    let mut prunes = 0u64;
    for &(seg, c0) in starts {
        let i = space.index(seg);
        if !scratch.seen(i) || scratch.cost(i) > c0 {
            scratch.record(
                i,
                c0,
                PrevEntry {
                    start: true,
                    rc: seg.rc,
                    from: seg.wire,
                    to: seg.wire,
                },
            );
            scratch.open.push(c0 + hw * est(seg), i.0);
            pushes += 1;
        }
    }

    let mut expanded = 0usize;
    let finish = |expanded: usize,
                  pushes: u64,
                  pops: u64,
                  prunes: u64,
                  span: &mut jroute_obs::Span,
                  found: bool| {
        span.note(expanded as u64);
        m.searches.inc();
        if !found {
            m.failures.inc();
        }
        m.pushes.add(pushes);
        m.pops.add(pops);
        m.prunes.add(prunes);
        m.expanded.record(expanded as u64);
    };

    while let Some((_, raw)) = scratch.open.pop() {
        pops += 1;
        let idx = SegIdx(raw);
        if idx == goal_idx {
            finish(expanded, pushes, pops, prunes, &mut span, true);
            return Some(reconstruct(dev, scratch, idx, expanded));
        }
        // Skip entries already expanded at their current (or better)
        // cost; an improved record reopens the node.
        if !scratch.close(idx) {
            continue;
        }
        let seg = space.segment(idx);
        let g = scratch.cost(idx);
        expanded += 1;
        if expanded > cfg.max_nodes {
            finish(expanded, pushes, pops, prunes, &mut span, false);
            return None;
        }

        ic.for_each_edge(seg, |e| {
            if e.idx == idx {
                return;
            }
            // Only the goal pin may be a CLB input.
            if e.clb_input && e.idx != goal_idx {
                return;
            }
            if !longs && e.long {
                return;
            }
            if e.idx != goal_idx {
                if let Some(b) = bbox {
                    // Long lines are exempt: their canonical origin says
                    // little about where they are usable.
                    if !e.long && !b.contains(e.seg.rc) {
                        prunes += 1;
                        return;
                    }
                }
                if blocked(e.seg) {
                    return;
                }
            }
            let step = e.cost + extra_cost(e.seg);
            let ng = if crit == 0 {
                g + step
            } else {
                g + blend(crit, step, e.delay)
            };
            if !scratch.seen(e.idx) || scratch.cost(e.idx) > ng {
                scratch.record(
                    e.idx,
                    ng,
                    PrevEntry {
                        start: false,
                        rc: e.rc,
                        from: e.from,
                        to: e.to,
                    },
                );
                scratch.open.push(ng + hw * est(e.seg), e.idx.0);
                pushes += 1;
            }
        });
    }
    finish(expanded, pushes, pops, prunes, &mut span, false);
    None
}

fn reconstruct(
    dev: &Device,
    scratch: &MazeScratch,
    goal_idx: SegIdx,
    expanded: usize,
) -> MazeResult {
    let space = dev.seg_space();
    let mut pips = Vec::new();
    let mut segments = Vec::new();
    let mut idx = goal_idx;
    let cost = scratch.cost(goal_idx);
    loop {
        let e = scratch.prev_of(idx);
        if e.start {
            break;
        }
        segments.push(space.segment(idx));
        pips.push((e.rc, Pip::new(e.from, e.to)));
        // `(rc, from)` is the alias position the path entered through;
        // its canonical form is the predecessor node.
        let prev = dev
            .canonicalize(e.rc, e.from)
            .expect("path predecessor is a live segment");
        idx = space.index(prev);
    }
    pips.reverse();
    segments.reverse();
    MazeResult {
        pips,
        segments,
        cost,
        nodes_expanded: expanded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Pin;
    use virtex::{wire, Device, Family, WireKind};

    fn dev() -> Device {
        Device::new(Family::Xcv50)
    }

    fn seg_of(dev: &Device, pin: Pin) -> Segment {
        dev.canonicalize(pin.rc, pin.wire).unwrap()
    }

    /// A scratch on another scratch's arrays starts with every slot
    /// unseen: the same search expands the same nodes and finds the
    /// same path as on fresh arrays.
    #[test]
    fn handed_on_arrays_start_unseen() {
        let dev = dev();
        let src = seg_of(&dev, Pin::new(5, 7, wire::S1_YQ));
        let sink = seg_of(&dev, Pin::new(12, 20, wire::S0_F3));
        let run = |scratch: &mut MazeScratch| {
            let r = search(
                &dev,
                &[(src, 0)],
                sink,
                &MazeConfig::default(),
                |_| false,
                |_| 0,
                scratch,
            )
            .expect("route exists");
            (r.pips, r.cost, r.nodes_expanded)
        };
        let mut first = MazeScratch::new(&dev);
        let want = run(&mut first);
        let mut next = MazeScratch::on_arrays(&dev, first.take_arrays());
        assert_eq!(run(&mut next), want);
    }

    #[test]
    fn routes_the_paper_example_pair() {
        let dev = dev();
        let mut scratch = MazeScratch::new(&dev);
        let src = seg_of(&dev, Pin::new(5, 7, wire::S1_YQ));
        let sink = seg_of(&dev, Pin::new(6, 8, wire::S0_F3));
        let r = search(
            &dev,
            &[(src, 0)],
            sink,
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
        )
        .expect("route exists");
        assert!(!r.pips.is_empty());
        // Path ends by driving the sink pin.
        let (last_rc, last_pip) = *r.pips.last().unwrap();
        assert_eq!(last_rc, RowCol::new(6, 8));
        assert_eq!(last_pip.to, wire::S0_F3);
        // First pip leaves the source.
        assert_eq!(r.pips[0].1.from, wire::S1_YQ);
        // Every consecutive pip pair is connected.
        for w in r.segments.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn long_distance_routes_prefer_hexes() {
        let dev = dev();
        let mut scratch = MazeScratch::new(&dev);
        let src = seg_of(&dev, Pin::new(1, 1, wire::S0_YQ));
        let sink = seg_of(&dev, Pin::new(14, 20, wire::S1_F1));
        let r = search(
            &dev,
            &[(src, 0)],
            sink,
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
        )
        .expect("route exists");
        let hexes = r
            .segments
            .iter()
            .filter(|s| matches!(s.wire.kind(), WireKind::Hex { .. }))
            .count();
        let singles = r
            .segments
            .iter()
            .filter(|s| matches!(s.wire.kind(), WireKind::Single { .. }))
            .count();
        assert!(
            hexes >= 3,
            "expected hex usage on a 32-CLB route, got {hexes}"
        );
        assert!(
            hexes >= singles,
            "hexes should dominate: {hexes} vs {singles}"
        );
    }

    #[test]
    fn no_long_lines_unless_enabled() {
        let dev = dev();
        let mut scratch = MazeScratch::new(&dev);
        let src = seg_of(&dev, Pin::new(0, 0, wire::S0_YQ));
        let sink = seg_of(&dev, Pin::new(0, 23, wire::S0_F3));
        let r = search(
            &dev,
            &[(src, 0)],
            sink,
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
        )
        .unwrap();
        assert!(r
            .segments
            .iter()
            .all(|s| !matches!(s.wire.kind(), WireKind::LongH(_) | WireKind::LongV(_))));
    }

    #[test]
    fn blocked_segments_are_avoided() {
        let dev = dev();
        let mut scratch = MazeScratch::new(&dev);
        let src = seg_of(&dev, Pin::new(5, 7, wire::S1_YQ));
        let sink = seg_of(&dev, Pin::new(6, 8, wire::S0_F3));
        // First find the unconstrained route, then ban one of its middle
        // segments and require a different route.
        let r1 = search(
            &dev,
            &[(src, 0)],
            sink,
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
        )
        .unwrap();
        let banned = r1.segments[r1.segments.len() / 2];
        let r2 = search(
            &dev,
            &[(src, 0)],
            sink,
            &MazeConfig::default(),
            |s| s == banned,
            |_| 0,
            &mut scratch,
        )
        .expect("alternate route exists");
        assert!(!r2.segments.contains(&banned));
        assert!(r2.cost >= r1.cost, "detour cannot be cheaper");
    }

    #[test]
    fn impossible_routes_return_none() {
        let dev = dev();
        let mut scratch = MazeScratch::new(&dev);
        let src = seg_of(&dev, Pin::new(5, 7, wire::S1_YQ));
        let sink = seg_of(&dev, Pin::new(6, 8, wire::S0_F3));
        // Block everything: no path can leave the source.
        let r = search(
            &dev,
            &[(src, 0)],
            sink,
            &MazeConfig::default(),
            |_| true,
            |_| 0,
            &mut scratch,
        );
        assert!(r.is_none());
    }

    #[test]
    fn reuse_starts_give_zero_cost_branching() {
        let dev = dev();
        let mut scratch = MazeScratch::new(&dev);
        let src = seg_of(&dev, Pin::new(2, 2, wire::S0_YQ));
        let far_sink = seg_of(&dev, Pin::new(2, 12, wire::S0_F3));
        let r1 = search(
            &dev,
            &[(src, 0)],
            far_sink,
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
        )
        .unwrap();
        // Second sink near the far end of the first route: with the whole
        // tree offered as zero-cost starts the incremental cost must be
        // well under routing from scratch.
        let near_sink = seg_of(&dev, Pin::new(3, 12, wire::S1_F1));
        let mut starts = vec![(src, 0)];
        starts.extend(r1.segments.iter().map(|&s| (s, 0)));
        let r2 = search(
            &dev,
            &starts,
            near_sink,
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
        )
        .unwrap();
        let r2_scratch = search(
            &dev,
            &[(src, 0)],
            near_sink,
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
        )
        .unwrap();
        assert!(
            r2.cost < r2_scratch.cost,
            "reuse ({}) should beat from-scratch ({})",
            r2.cost,
            r2_scratch.cost
        );
    }

    #[test]
    fn blend_endpoints_and_midpoint() {
        assert_eq!(blend(0, 7, 99), 7);
        assert_eq!(blend(CRIT_ONE, 7, 99), 99);
        assert_eq!(blend(CRIT_ONE / 2, 10, 20), 15);
    }

    #[test]
    fn full_crit_search_is_delay_optimal() {
        // At crit = CRIT_ONE with weight 1 the search minimizes path
        // delay, so its summed per-wire delay can never exceed the
        // congestion-optimal route's.
        let dev = dev();
        let mut scratch = MazeScratch::new(&dev);
        let src = seg_of(&dev, Pin::new(1, 1, wire::S0_YQ));
        let sink = seg_of(&dev, Pin::new(14, 20, wire::S1_F1));
        let delay_of = |r: &MazeResult| -> u32 {
            r.segments
                .iter()
                .map(|s| virtex::delay::delay_units(s.wire))
                .sum()
        };
        let cfg = MazeConfig {
            heuristic_weight: 1,
            ..MazeConfig::default()
        };
        let cong = search(
            &dev,
            &[(src, 0)],
            sink,
            &cfg,
            |_| false,
            |_| 0,
            &mut scratch,
        )
        .expect("route exists");
        let cfg_t = MazeConfig {
            crit: CRIT_ONE,
            ..cfg
        };
        let timed = search(
            &dev,
            &[(src, 0)],
            sink,
            &cfg_t,
            |_| false,
            |_| 0,
            &mut scratch,
        )
        .expect("route exists");
        assert!(
            delay_of(&timed) <= delay_of(&cong),
            "timing-driven delay {} must not exceed congestion-driven {}",
            delay_of(&timed),
            delay_of(&cong)
        );
        // And the timing-driven cost field is the blended (pure-delay)
        // path cost.
        assert_eq!(timed.cost, delay_of(&timed));
    }

    #[test]
    fn extra_cost_steers_the_route() {
        let dev = dev();
        let mut scratch = MazeScratch::new(&dev);
        let src = seg_of(&dev, Pin::new(5, 7, wire::S1_YQ));
        let sink = seg_of(&dev, Pin::new(6, 8, wire::S0_F3));
        let r1 = search(
            &dev,
            &[(src, 0)],
            sink,
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
        )
        .unwrap();
        let hot = r1.segments[0];
        // A large congestion cost on the first-choice segment must push
        // the router elsewhere.
        let r2 = search(
            &dev,
            &[(src, 0)],
            sink,
            &MazeConfig::default(),
            |_| false,
            |s| if s == hot { 10_000 } else { 0 },
            &mut scratch,
        )
        .unwrap();
        assert!(!r2.segments.contains(&hot));
    }
}
