//! Tree growth for multi-sink nets: the paper's path-reuse loop.
//!
//! The paper's fan-out router grows a tree greedily: *"Each sink gets
//! routed in order of increasing distance from the source. For each
//! sink, the router attempts to reuse the previous paths as much as
//! possible"* (§3.1). [`grow`] is that loop, and the one tree builder:
//! every leg is a maze search whose start set is the whole tree built
//! so far, each tree segment offered at its criticality-scaled arrival
//! delay (zero at criticality zero), so congestion — and, when
//! criticality is set, delay — is priced into every branch.
//!
//! Its callers differ only in what they hand it:
//! - [`Router::route_fanout`](crate::Router::route_fanout) grows at
//!   criticality zero from the net's existing wiring;
//! - PathFinder grows every net at its per-sink criticalities against
//!   a frozen congestion snapshot;
//! - `jroute_timing::route_fanout_timing_driven` grows at [`CRIT_ONE`]
//!   from the bitstream readback of the tree;
//! - the ordered engine's [`route_net`](crate::parallel::route_net)
//!   grows every net of `route_parallel` and the batch service from its
//!   source, around the committed nets, at the maze config's `crit`.
//!
//! A goal with no per-goal criticality searches at `cfg.crit`, so a
//! caller that prices every sink alike passes no criticalities at all.
//!
//! `grow` is a pure function of its inputs (device, seed, congestion
//! snapshot, criticalities): it takes its scratch from the caller (each
//! wave worker's own in the partition-parallel waves) and performs
//! no global mutation, so it composes with the wave dispatcher and
//! stays bit-identical across worker counts.

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
    /// Per-sink arrival delay in picoseconds, aligned with the goals.
    pub sink_delays: Vec<u64>,
    /// Maze nodes expanded across every leg's search.
    pub nodes_expanded: usize,
}

/// Crit-scaled initial cost of a tree start: an arrival of `ps` weighs
/// `crit · delay_units(ps)` in the blended cost space (zero when
/// criticality is zero — the paper's plain zero-cost tree reuse).
#[inline]
fn start_cost(crit: u32, ps: u64) -> u32 {
    blend(crit.min(CRIT_ONE), 0, ps_to_units(ps))
}

/// Drop the redundant prefix of a maze leg that re-entered the existing
/// tree, and return the arrival time of the tree segment the kept
/// suffix branches from. With crit-scaled (non-zero) start costs a
/// search may reach a tree segment more cheaply than its offered start
/// cost and route *through* it; the prefix before the last such segment
/// would double-drive wiring the tree already drives. Without a
/// re-entry the leg branches from the start its first PIP leaves.
fn graft_arrival(dev: &Device, arrivals: &HashMap<Segment, u64>, r: &mut MazeResult) -> u64 {
    let graft = match r.segments.iter().rposition(|s| arrivals.contains_key(s)) {
        Some(j) => {
            let graft = r.segments[j];
            r.segments.drain(..=j);
            r.pips.drain(..=j);
            Some(graft)
        }
        None => r
            .pips
            .first()
            .and_then(|&(rc, pip)| dev.canonicalize(rc, pip.from)),
    };
    graft.and_then(|g| arrivals.get(&g).copied()).unwrap_or(0)
}

/// Grow a tree from `seed` to every goal, connecting goals in input
/// order: the paper's path-reuse loop, where every leg starts from the
/// whole tree built so far.
///
/// `seed` is the tree to grow from: the source first, then any wiring
/// the net already has, each segment at its arrival time in
/// picoseconds. A goal already on the tree (in the seed, reached by an
/// earlier leg, or named twice) costs no search; its delay is read from
/// the tree. `crits` holds per-goal criticalities in [`CRIT_ONE`]
/// fixed-point units; each leg searches at its goal's criticality in
/// place of `cfg.crit`, and a goal with no entry reads `cfg.crit`.
///
/// Returns `Err(i)` when goal `i`'s leg is unroutable under `cfg`;
/// callers retry unbounded or report the miss, as for single-sink
/// routing.
#[allow(clippy::too_many_arguments)]
pub fn grow(
    dev: &Device,
    seed: &[(Segment, u64)],
    goals: &[Segment],
    crits: &[u32],
    cfg: &MazeConfig,
    mut blocked: impl FnMut(Segment) -> bool,
    mut extra_cost: impl FnMut(Segment) -> u32,
    scratch: &mut MazeScratch,
    obs: &Recorder,
) -> Result<SteinerTree, usize> {
    let mut arrivals: HashMap<Segment, u64> = seed.iter().copied().collect();
    // Insertion-ordered (segment, arrival ps) list: the start set for
    // every leg. Deterministic order keeps Dial-queue tie-breaking — and
    // therefore results — independent of map iteration. A CLB input is
    // a dead end: no leg can start there.
    let mut tree: Vec<(Segment, u64)> = seed
        .iter()
        .copied()
        .filter(|(seg, _)| !seg.wire.is_clb_input())
        .collect();
    let mut out = SteinerTree {
        pips: Vec::new(),
        segments: Vec::new(),
        sink_delays: vec![0; goals.len()],
        nodes_expanded: 0,
    };
    let mut starts: Vec<(Segment, u32)> = Vec::new();
    for (i, &goal) in goals.iter().enumerate() {
        if let Some(&at) = arrivals.get(&goal) {
            out.sink_delays[i] = at;
            continue;
        }
        let crit = crits.get(i).copied().unwrap_or(cfg.crit).min(CRIT_ONE);
        starts.clear();
        starts.extend(tree.iter().map(|&(seg, ps)| (seg, start_cost(crit, ps))));
        let leg_cfg = MazeConfig {
            crit,
            ..cfg.clone()
        };
        let mut r = maze::search_obs(
            dev,
            &starts,
            goal,
            &leg_cfg,
            &mut blocked,
            &mut extra_cost,
            scratch,
            obs,
        )
        .ok_or(i)?;
        out.nodes_expanded += r.nodes_expanded;
        let mut at = graft_arrival(dev, &arrivals, &mut r);
        for &seg in &r.segments {
            at += PIP_DELAY_PS + wire_delay_ps(seg.wire);
            arrivals.insert(seg, at);
            if !seg.wire.is_clb_input() {
                tree.push((seg, at));
            }
        }
        out.sink_delays[i] = at;
        out.pips.extend_from_slice(&r.pips);
        out.segments.extend_from_slice(&r.segments);
    }
    Ok(out)
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

    /// A source at the center-left with a far cluster of sinks.
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

    fn grow_free(
        dev: &Device,
        src: Segment,
        goals: &[Segment],
        blocked: impl FnMut(Segment) -> bool,
        obs: &Recorder,
    ) -> Result<SteinerTree, usize> {
        let mut scratch = MazeScratch::new(dev);
        grow(
            dev,
            &[(src, 0)],
            goals,
            &[],
            &MazeConfig::default(),
            blocked,
            |_| 0,
            &mut scratch,
            obs,
        )
    }

    #[test]
    fn tree_reaches_every_sink_without_duplicates() {
        let dev = dev();
        let (src, sinks) = cluster(&dev);
        let t =
            grow_free(&dev, src, &sinks, |_| false, &Recorder::disabled()).expect("tree routes");
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
    fn blocked_segments_are_respected() {
        let dev = dev();
        let (src, sinks) = cluster(&dev);
        let t = grow_free(&dev, src, &sinks, |_| false, &Recorder::disabled()).unwrap();
        let banned = t.segments[t.segments.len() / 2];
        if banned.wire.is_clb_input() {
            return; // picking a pin would block a sink itself
        }
        let t2 = grow_free(&dev, src, &sinks, |s| s == banned, &Recorder::disabled())
            .expect("detour exists");
        assert!(!t2.segments.contains(&banned));
    }

    #[test]
    fn a_goal_already_on_the_tree_costs_no_search() {
        let dev = dev();
        let (src, sinks) = cluster(&dev);
        let (a, b) = (sinks[0], sinks[1]);
        let obs = Recorder::enabled();
        let t = grow_free(&dev, src, &[a, b, a], |_| false, &obs).unwrap();
        assert_eq!(obs.report().counter("maze.searches"), Some(2));
        assert_eq!(t.sink_delays[0], t.sink_delays[2]);
        assert_eq!(t.segments.iter().filter(|&&s| s == a).count(), 1);
        // A seed that already reaches a goal: nothing to search.
        let obs = Recorder::enabled();
        let mut scratch = MazeScratch::new(&dev);
        let t2 = grow(
            &dev,
            &[(src, 0), (a, 700)],
            &[a],
            &[],
            &MazeConfig::default(),
            |_| false,
            |_| 0,
            &mut scratch,
            &obs,
        )
        .unwrap();
        assert!(t2.pips.is_empty());
        assert_eq!(t2.sink_delays, vec![700]);
        assert_eq!(obs.report().counter("maze.searches").unwrap_or(0), 0);
    }

    #[test]
    fn an_unroutable_leg_names_its_goal() {
        let dev = dev();
        let (src, sinks) = cluster(&dev);
        // Only the first leg's own wiring may be entered: the first sink
        // routes exactly as before, a far second one cannot be reached.
        let first = grow_free(&dev, src, &sinks[..1], |_| false, &Recorder::disabled()).unwrap();
        let far = seg_of(&dev, Pin::new(2, 44, wire::S0_F3));
        let err = grow_free(
            &dev,
            src,
            &[sinks[0], far],
            |s| !first.segments.contains(&s),
            &Recorder::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, 1);
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
