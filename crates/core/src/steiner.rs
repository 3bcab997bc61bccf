//! Congestion-aware Steiner-tree construction for high-fanout nets.
//!
//! The paper's fan-out router grows a tree greedily: *"Each sink gets
//! routed in order of increasing distance from the source. For each
//! sink, the router attempts to reuse the previous paths as much as
//! possible"* (§3.1). That order is a poor Steiner approximation when
//! sinks cluster far from the source — the first leg commits wiring the
//! later sinks cannot profit from. This module implements the classic
//! sequential (Takahashi–Matsuyama-style) alternative: connect the
//! *nearest unconnected sink to the partial tree*, branching from the
//! cheapest point on it, with every leg found by the maze engine's
//! bounded searches so congestion (and, when criticality is set, delay)
//! is priced into each branch.
//!
//! Because neither insertion order dominates on every instance, the
//! builder runs both — the caller's greedy order and nearest-to-tree —
//! and commits the cheaper tree. The greedy arm is the paper's loop
//! itself: every leg starts from the whole tree built so far, at zero
//! cost when criticality is zero. That gives a structural guarantee the
//! benches assert: the returned tree's weighted wirelength never
//! exceeds the greedy path-reuse tree's on the same instance.
//!
//! The greedy arm (`grow` in input order) is also how PathFinder
//! builds every net below its Steiner fan-out
//! ([`TimingConfig::steiner_fanout`](crate::pathfinder::TimingConfig::steiner_fanout)),
//! timing-driven or not, so negotiation has one tree grower. Nets at or
//! above the fan-out take the best-of-two [`build_tree_obs`].
//!
//! Both are pure functions of their inputs (device, congestion
//! snapshot, criticalities): they take their scratch from the caller
//! (`ScratchPool`-leased in the partition-parallel waves) and perform
//! no global mutation, so they compose with the wave dispatcher and
//! stay bit-identical across worker counts.

use crate::maze::{self, blend, MazeConfig, MazeResult, MazeScratch, CRIT_ONE};
use jbits::Pip;
use jroute_obs::Recorder;
use std::collections::HashMap;
use virtex::delay::{ps_to_units, wire_delay_ps, PIP_DELAY_PS};
use virtex::{Device, RowCol, Segment};

/// A routed multi-sink tree.
#[derive(Debug, Clone)]
pub struct SteinerTree {
    /// PIPs to configure, concatenated leg by leg in connection order
    /// (each leg is source-to-sink ordered, so a prefix of the list is
    /// always a connected tree).
    pub pips: Vec<(RowCol, Pip)>,
    /// New segments entered by the tree, aligned with `pips`.
    pub segments: Vec<Segment>,
    /// Per-sink arrival delay in picoseconds, aligned with the *input*
    /// goal order (not connection order).
    pub sink_delays: Vec<u64>,
    /// Total blended search cost over all legs (congestion-priced; the
    /// arm-selection metric).
    pub cost: u32,
    /// Weighted wirelength: Σ base `wire_cost` over `segments`,
    /// congestion-free — the E3 comparison metric.
    pub wirelength: u32,
    /// Maze nodes expanded across every search of both arms.
    pub nodes_expanded: usize,
    /// Whether the nearest-to-tree arm beat the greedy arm strictly.
    pub steiner_won: bool,
    /// Distinct non-source branch points in the winning tree.
    pub branches: usize,
    /// Legs that grafted onto reused tree wiring rather than the source.
    pub reuse_hits: usize,
}

/// Crit-scaled initial cost of a tree start: an arrival of `ps` weighs
/// `crit · delay_units(ps)` in the blended cost space (zero when
/// criticality is zero — the paper's plain zero-cost tree reuse).
#[inline]
fn start_cost(crit: u32, ps: u64) -> u32 {
    blend(crit.min(CRIT_ONE), 0, ps_to_units(ps))
}

/// Drop the redundant prefix of a maze leg that re-entered the existing
/// tree. With crit-scaled (non-zero) start costs a search may reach a
/// tree segment more cheaply than its offered start cost and route
/// *through* it; the prefix before the last such segment would
/// double-drive wiring the tree already drives. Returns the graft
/// segment the kept suffix branches from, or `None` if the leg begins
/// at a start marker (graft = the start itself).
fn trim_reentry(arrivals: &HashMap<Segment, u64>, r: &mut MazeResult) -> Option<Segment> {
    let last = r
        .segments
        .iter()
        .rposition(|seg| arrivals.contains_key(seg));
    if let Some(j) = last {
        let graft = r.segments[j];
        r.segments.drain(..=j);
        r.pips.drain(..=j);
        Some(graft)
    } else {
        None
    }
}

/// Grow one tree in the given `order` of goal indices: the paper's
/// path-reuse loop, where every leg starts from the whole tree built so
/// far. In input order this is the greedy arm of [`build_tree_obs`] and
/// the builder of every PathFinder net below the Steiner fan-out.
/// Returns `None` if any leg is unroutable under `cfg` (callers retry
/// unbounded or report the miss, exactly like single-sink routing).
#[allow(clippy::too_many_arguments)]
pub(crate) fn grow(
    dev: &Device,
    src: Segment,
    goals: &[Segment],
    crits: &[u32],
    order: &[usize],
    cfg: &MazeConfig,
    mut blocked: impl FnMut(Segment) -> bool,
    mut extra_cost: impl FnMut(Segment) -> u32,
    scratch: &mut MazeScratch,
    obs: &Recorder,
) -> Option<SteinerTree> {
    let la = dev.lookahead();
    let mut arrivals: HashMap<Segment, u64> = HashMap::new();
    arrivals.insert(src, 0);
    // Insertion-ordered (segment, arrival ps) list: the start set for
    // every leg. Deterministic order keeps Dial-queue tie-breaking — and
    // therefore results — independent of map iteration.
    let mut tree: Vec<(Segment, u64)> = vec![(src, 0)];
    let mut arm = SteinerTree {
        pips: Vec::new(),
        segments: Vec::new(),
        sink_delays: vec![0; goals.len()],
        cost: 0,
        wirelength: 0,
        nodes_expanded: 0,
        steiner_won: false,
        branches: 0,
        reuse_hits: 0,
    };
    let mut grafts: Vec<Segment> = Vec::new();
    let mut starts: Vec<(Segment, u32)> = Vec::new();
    for &i in order {
        let crit = crits.get(i).copied().unwrap_or(0).min(CRIT_ONE);
        starts.clear();
        starts.extend(tree.iter().map(|&(seg, ps)| (seg, start_cost(crit, ps))));
        let leg_cfg = MazeConfig {
            crit,
            ..cfg.clone()
        };
        let mut r = maze::search_obs(
            dev,
            &starts,
            goals[i],
            &leg_cfg,
            &mut blocked,
            &mut extra_cost,
            scratch,
            obs,
        )?;
        arm.nodes_expanded += r.nodes_expanded;
        arm.cost = arm.cost.saturating_add(r.cost);
        let graft = trim_reentry(&arrivals, &mut r).or_else(|| {
            r.pips
                .first()
                .and_then(|&(rc, pip)| dev.canonicalize(rc, pip.from))
        });
        let Some(graft) = graft else {
            // Empty leg: the goal was already on the tree.
            arm.sink_delays[i] = arrivals.get(&goals[i]).copied().unwrap_or(0);
            continue;
        };
        if graft != src {
            arm.reuse_hits += 1;
            if !grafts.contains(&graft) {
                grafts.push(graft);
            }
        }
        let mut at = arrivals.get(&graft).copied().unwrap_or(0);
        for (j, &seg) in r.segments.iter().enumerate() {
            at += PIP_DELAY_PS + wire_delay_ps(seg.wire);
            arm.wirelength += la.model().wire_cost(seg.wire);
            arrivals.insert(seg, at);
            // A CLB input is a dead end: no later leg can start there.
            if !seg.wire.is_clb_input() {
                tree.push((seg, at));
            }
            debug_assert!(j < r.pips.len());
        }
        arm.sink_delays[i] = at;
        arm.pips.extend_from_slice(&r.pips);
        arm.segments.extend_from_slice(&r.segments);
    }
    arm.branches = grafts.len();
    Some(arm)
}

/// The nearest-unconnected-sink-to-tree insertion order: repeatedly pick
/// the remaining goal with the smallest lookahead distance to any tree
/// terminal (source or connected sink), smallest index on ties.
fn nearest_order(dev: &Device, src: Segment, goals: &[Segment], longs: bool) -> Vec<usize> {
    let la = dev.lookahead();
    let mut terminals: Vec<RowCol> = vec![src.rc];
    let mut remaining: Vec<usize> = (0..goals.len()).collect();
    let mut order = Vec::with_capacity(goals.len());
    while !remaining.is_empty() {
        let (pos, &best) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| {
                let d = terminals
                    .iter()
                    .map(|&t| la.estimate(goals[i], t, longs))
                    .min()
                    .unwrap_or(u32::MAX);
                (d, i)
            })
            .expect("remaining is non-empty");
        remaining.swap_remove(pos);
        order.push(best);
        terminals.push(goals[best].rc);
    }
    order
}

/// Build a multi-sink tree from `src` to every goal, trying both the
/// caller's (greedy, distance-sorted) order and the nearest-to-tree
/// Steiner order, and returning the cheaper tree by total blended
/// search cost. `crits` holds per-goal criticalities in [`CRIT_ONE`]
/// fixed-point units (empty for pure-congestion routing). Returns
/// `None` if either arm fails to route every goal under `cfg` — the
/// caller retries unbounded or falls back, exactly as for single legs.
#[allow(clippy::too_many_arguments)]
pub fn build_tree_obs(
    dev: &Device,
    src: Segment,
    goals: &[Segment],
    crits: &[u32],
    cfg: &MazeConfig,
    mut blocked: impl FnMut(Segment) -> bool,
    mut extra_cost: impl FnMut(Segment) -> u32,
    scratch: &mut MazeScratch,
    obs: &Recorder,
) -> Option<SteinerTree> {
    let greedy_order: Vec<usize> = (0..goals.len()).collect();
    let greedy = grow(
        dev,
        src,
        goals,
        crits,
        &greedy_order,
        cfg,
        &mut blocked,
        &mut extra_cost,
        scratch,
        obs,
    )?;
    // With fewer than three sinks both orders coincide (the nearest
    // unconnected sink to a source-only tree is the nearest to the
    // source): skip the second arm.
    let steiner = if goals.len() >= 3 {
        let order = nearest_order(dev, src, goals, cfg.use_long_lines);
        if order == greedy_order {
            None
        } else {
            grow(
                dev,
                src,
                goals,
                crits,
                &order,
                cfg,
                &mut blocked,
                &mut extra_cost,
                scratch,
                obs,
            )
        }
    } else {
        None
    };
    let total_nodes = greedy.nodes_expanded + steiner.as_ref().map_or(0, |s| s.nodes_expanded);
    // Strict improvement only: on a tie the paper's greedy tree stands.
    let steiner_won = steiner.as_ref().is_some_and(|s| s.cost < greedy.cost);
    let mut tree = if steiner_won {
        steiner.expect("won arm exists")
    } else {
        greedy
    };
    tree.nodes_expanded = total_nodes;
    tree.steiner_won = steiner_won;
    obs.counter("steiner.builds").inc();
    if steiner_won {
        obs.counter("steiner.wins").inc();
    }
    obs.counter("steiner.branches").add(tree.branches as u64);
    obs.counter("steiner.reuse_hits")
        .add(tree.reuse_hits as u64);
    Some(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Pin;
    use virtex::{wire, Device, Family};

    fn dev() -> Device {
        Device::new(Family::Xcv300)
    }

    fn seg_of(dev: &Device, pin: Pin) -> Segment {
        dev.canonicalize(pin.rc, pin.wire).unwrap()
    }

    /// A source at the center-left with a far cluster of sinks: the
    /// greedy order routes each cluster sink from near-equal distance,
    /// while the Steiner order rides one trunk and branches locally.
    fn cluster(dev: &Device) -> (Segment, Vec<Segment>) {
        let src = seg_of(dev, Pin::new(16, 4, wire::S0_YQ));
        use virtex::wire::{slice_in, slice_in_pin};
        let sinks = vec![
            seg_of(dev, Pin::new(14, 30, slice_in(0, slice_in_pin::F1))),
            seg_of(dev, Pin::new(15, 31, slice_in(1, slice_in_pin::F2))),
            seg_of(dev, Pin::new(16, 30, slice_in(0, slice_in_pin::G1))),
            seg_of(dev, Pin::new(17, 31, slice_in(1, slice_in_pin::F3))),
            seg_of(dev, Pin::new(18, 30, slice_in(0, slice_in_pin::F4))),
            seg_of(dev, Pin::new(14, 32, slice_in(1, slice_in_pin::G2))),
        ];
        (src, sinks)
    }

    #[test]
    fn tree_reaches_every_sink_without_duplicates() {
        let dev = dev();
        let (src, sinks) = cluster(&dev);
        let mut scratch = MazeScratch::new(&dev);
        let t = build_tree_obs(
            &dev,
            src,
            &sinks,
            &[],
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
            &Recorder::disabled(),
        )
        .expect("tree routes");
        for s in &sinks {
            assert!(t.segments.contains(s), "sink {s} reached");
        }
        let mut seen = std::collections::HashSet::new();
        for s in &t.segments {
            assert!(seen.insert(*s), "segment {s} appears twice (cycle)");
        }
        assert_eq!(t.pips.len(), t.segments.len());
        assert_eq!(t.sink_delays.len(), sinks.len());
        assert!(t.sink_delays.iter().all(|&d| d > 0));
    }

    #[test]
    fn never_worse_than_greedy_and_wins_on_clusters() {
        let dev = dev();
        let (src, sinks) = cluster(&dev);
        let mut scratch = MazeScratch::new(&dev);
        // The greedy reference: input order only.
        let greedy = grow(
            &dev,
            src,
            &sinks,
            &[],
            &(0..sinks.len()).collect::<Vec<_>>(),
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
            &Recorder::disabled(),
        )
        .expect("greedy routes");
        let t = build_tree_obs(
            &dev,
            src,
            &sinks,
            &[],
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
            &Recorder::disabled(),
        )
        .expect("tree routes");
        assert!(t.cost <= greedy.cost, "best-of-two can never lose");
        assert!(
            t.wirelength <= greedy.wirelength || t.cost < greedy.cost,
            "picked arm is cheaper"
        );
    }

    #[test]
    fn blocked_segments_are_respected() {
        let dev = dev();
        let (src, sinks) = cluster(&dev);
        let mut scratch = MazeScratch::new(&dev);
        let t = build_tree_obs(
            &dev,
            src,
            &sinks,
            &[],
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
            &Recorder::disabled(),
        )
        .unwrap();
        let banned = t.segments[t.segments.len() / 2];
        if banned.wire.is_clb_input() {
            return; // picking a pin would block a sink itself
        }
        let t2 = build_tree_obs(
            &dev,
            src,
            &sinks,
            &[],
            &MazeConfig::default(),
            |s| s == banned,
            |_| 0,
            &mut scratch,
            &Recorder::disabled(),
        )
        .expect("detour exists");
        assert!(!t2.segments.contains(&banned));
    }

    #[test]
    fn per_sink_criticality_scales_start_costs() {
        assert_eq!(start_cost(0, 10_000), 0);
        assert_eq!(
            start_cost(CRIT_ONE, 10_000),
            ps_to_units(10_000),
            "full criticality charges the whole arrival"
        );
        assert!(start_cost(CRIT_ONE / 2, 10_000) < ps_to_units(10_000));
    }
}
