//! The §3.1 template matcher: a budgeted depth-first search over the
//! wires a template allows, with a memo of the subtrees known to fail.
//!
//! The search state lives in one reusable [`TemplateMatcher`] per
//! router, so a search allocates nothing per node: candidate moves go on
//! one shared stack (each open node owns a contiguous run of it), the
//! open nodes on an explicit frame stack, and the memo keeps its
//! capacity from one search to the next.

use super::Router;
use jbits::Pip;
use jroute_obs::{Counter, Recorder};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use virtex::{template_value, Interconnect, RowCol, SegIdx, Segment, TemplateValue};

/// Nodes one template search may visit before it gives up and the
/// auto-router falls back to the maze (§3.1).
pub(super) const TEMPLATE_BUDGET: usize = 4_096;

/// A candidate step: turn on `pip` at `rc`, entering segment `next`
/// (dense index `idx`).
#[derive(Debug, Clone, Copy)]
struct Move {
    rc: RowCol,
    pip: Pip,
    next: Segment,
    idx: SegIdx,
}

/// An open node of the search. Its depth is its index on the frame stack.
#[derive(Debug)]
struct Frame {
    key: MemoKey,
    /// Budget left when the node was entered, before paying for it.
    entry: usize,
    /// Its candidate moves are `moves[base..]` up to the next frame's run.
    base: usize,
    /// The next candidate to try.
    next: usize,
}

/// `(segment, depth)`: a subtree of the search. The depth is a full
/// `usize`, so a user template of any length gets distinct keys.
type MemoKey = (SegIdx, usize);

/// Outcome of entering one node.
enum Visit {
    /// The node completes the template on the goal.
    Found,
    /// The node cannot be part of a match (or the budget is spent).
    Failed,
    /// The node has been expanded onto the frame stack.
    Open,
}

/// The Fx multiply-rotate hasher. Memo keys are `(segment, depth)`
/// pairs the search generates itself, at most [`TEMPLATE_BUDGET`] of
/// them, so SipHash's flooding resistance buys nothing and its cost
/// would show on every node.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// Pre-resolved registry handles for the matcher telemetry, cached per
/// recorder (keyed by [`Recorder::id`]) like the maze scratch's.
#[derive(Debug)]
struct TemplateMeters {
    rec: usize,
    /// Subtrees actually searched (budgeted nodes paid for).
    nodes: Counter,
    /// Subtrees answered from the memo instead.
    replayed: Counter,
}

impl TemplateMeters {
    fn resolve(obs: &Recorder) -> Self {
        TemplateMeters {
            rec: obs.id(),
            nodes: obs.counter("template.nodes"),
            replayed: obs.counter("template.replayed"),
        }
    }
}

/// Reusable state of the template matcher (one per router).
#[derive(Debug, Default)]
pub(super) struct TemplateMatcher {
    moves: Vec<Move>,
    frames: Vec<Frame>,
    path: Vec<(RowCol, Pip)>,
    /// Failed subtree → budget its full search consumed.
    memo: HashMap<MemoKey, usize, BuildHasherDefault<WordHasher>>,
    nodes: u64,
    replayed: u64,
    meters: Option<TemplateMeters>,
}

impl TemplateMatcher {
    /// Match `values` from `start` so the last step lands on `goal`, in
    /// the fabric of `r` as it stands; returns the PIPs of the first
    /// match in depth-first order. Every node visited costs one unit of
    /// `budget`; at zero the search fails.
    ///
    /// A subtree that fails with budget to spare is recorded in the memo
    /// with the budget it consumed, and replayed from there on (the
    /// exactness argument is on [`Router::template_search`]). A subtree
    /// that ran the budget out is not recorded: once the budget is spent
    /// no later node can match, so the search stops there. Each record
    /// stands for at least one paid node, so the memo never holds more
    /// than [`TEMPLATE_BUDGET`] entries.
    pub(super) fn search(
        &mut self,
        r: &Router,
        start: Segment,
        goal: Segment,
        values: &[TemplateValue],
        budget: &mut usize,
    ) -> Option<Vec<(RowCol, Pip)>> {
        self.memo.clear();
        self.moves.clear();
        self.frames.clear();
        self.path.clear();
        self.nodes = 0;
        self.replayed = 0;
        let ic = r.device.interconnect();
        let idx = r.device.seg_space().index(start);
        let found = match self.enter(r, ic, start, idx, goal, values, budget) {
            Visit::Found => true,
            Visit::Failed => false,
            Visit::Open => self.walk(r, ic, goal, values, budget),
        };
        let (nodes, replayed) = (self.nodes, self.replayed);
        let m = self.meters_for(&r.obs);
        m.nodes.add(nodes);
        m.replayed.add(replayed);
        found.then(|| self.path.clone())
    }

    /// Drive the frame stack until a match is found or the search fails.
    fn walk(
        &mut self,
        r: &Router,
        ic: &Interconnect,
        goal: Segment,
        values: &[TemplateValue],
        budget: &mut usize,
    ) -> bool {
        loop {
            let Some(top) = self.frames.last_mut() else {
                return false;
            };
            if top.next == self.moves.len() {
                // Every move out of the node failed: its subtree is dead.
                let done = self.frames.pop().expect("top frame exists");
                self.moves.truncate(done.base);
                self.path.pop();
                if *budget == 0 {
                    return false;
                }
                self.memo.insert(done.key, done.entry - *budget);
                continue;
            }
            let mv = self.moves[top.next];
            top.next += 1;
            self.path.push((mv.rc, mv.pip));
            match self.enter(r, ic, mv.next, mv.idx, goal, values, budget) {
                Visit::Found => return true,
                Visit::Failed if *budget == 0 => return false,
                Visit::Failed => {
                    self.path.pop();
                }
                Visit::Open => {}
            }
        }
    }

    /// Visit `seg` (dense index `idx`) at the depth of the next frame.
    #[allow(clippy::too_many_arguments)]
    fn enter(
        &mut self,
        r: &Router,
        ic: &Interconnect,
        seg: Segment,
        idx: SegIdx,
        goal: Segment,
        values: &[TemplateValue],
        budget: &mut usize,
    ) -> Visit {
        let depth = self.frames.len();
        let key = (idx, depth);
        if let Some(&cost) = self.memo.get(&key) {
            self.replayed += 1;
            *budget = budget.saturating_sub(cost);
            return Visit::Failed;
        }
        if *budget == 0 {
            return Visit::Failed;
        }
        *budget -= 1;
        self.nodes += 1;
        let Some(&want) = values.get(depth) else {
            return if seg == goal {
                Visit::Found
            } else {
                Visit::Failed
            };
        };
        let base = self.moves.len();
        self.expand(r, ic, seg, goal, want, depth + 1 == values.len());
        self.frames.push(Frame {
            key,
            entry: *budget + 1,
            base,
            next: base,
        });
        Visit::Open
    }

    /// Push the moves out of `cur` that match `want`, in the plain
    /// search's order: the interconnect table lists a segment's edges as
    /// the generator does (its taps, then each tap's fan-out).
    fn expand(
        &mut self,
        r: &Router,
        ic: &Interconnect,
        cur: Segment,
        goal: Segment,
        want: TemplateValue,
        last: bool,
    ) {
        let moves = &mut self.moves;
        ic.for_each_edge(cur, |e| {
            if template_value(e.to) != want {
                return;
            }
            // Must land exactly on the goal with the last step.
            if last != (e.seg == goal) {
                return;
            }
            // "checks to make sure the wire is not already in use" —
            // including by this net's own earlier branches: a driven
            // wire cannot take a second driving PIP (§3.4).
            if r.nets.is_used(e.seg) || r.bits.is_segment_driven(e.seg) {
                return;
            }
            moves.push(Move {
                rc: e.rc,
                pip: Pip::new(e.from, e.to),
                next: e.seg,
                idx: e.idx,
            });
        });
    }

    fn meters_for(&mut self, obs: &Recorder) -> &TemplateMeters {
        if self.meters.as_ref().map(|m| m.rec) != Some(obs.id()) {
            self.meters = Some(TemplateMeters::resolve(obs));
        }
        self.meters.as_ref().expect("just resolved")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates_db;
    use crate::{EndPoint, Pin};
    use detrand::{DetRng, SliceRandom};
    use virtex::segment::{self, Tap};
    use virtex::{wire, Device, Family, Wire};

    /// The plain recursive matcher the memoized one replaces: the same
    /// budgeted depth-first search, re-searching every subtree it meets.
    fn reference(
        r: &Router,
        cur: Segment,
        goal: Segment,
        values: &[TemplateValue],
        acc: &mut Vec<(RowCol, Pip)>,
        budget: &mut usize,
    ) -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        let Some((&want, rest)) = values.split_first() else {
            return cur == goal;
        };
        let mut taps: Vec<Tap> = Vec::with_capacity(4);
        segment::taps(r.device.dims(), cur, &mut taps);
        let mut fanout: Vec<Wire> = Vec::with_capacity(40);
        for tap in &taps {
            fanout.clear();
            r.device.arch().pips_from(tap.rc, tap.wire, &mut fanout);
            for &to in &fanout {
                if template_value(to) != want {
                    continue;
                }
                let Some(next) = r.device.canonicalize(tap.rc, to) else {
                    continue;
                };
                if rest.is_empty() != (next == goal) {
                    continue;
                }
                if r.nets.is_used(next) || r.bits.is_segment_driven(next) {
                    continue;
                }
                acc.push((tap.rc, Pip::new(tap.wire, to)));
                if reference(r, next, goal, rest, acc, budget) {
                    return true;
                }
                acc.pop();
            }
        }
        false
    }

    /// A template read off a random walk from `start`: the walk's end is
    /// the goal, so the template has a match unless the walk crossed
    /// wires that are in use.
    fn walk(
        dev: &Device,
        start: Segment,
        steps: usize,
        rng: &mut DetRng,
    ) -> (Segment, Vec<TemplateValue>) {
        let (mut cur, mut values) = (start, Vec::with_capacity(steps));
        let (mut taps, mut fanout, mut moves) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..steps {
            taps.clear();
            segment::taps(dev.dims(), cur, &mut taps);
            moves.clear();
            for tap in &taps {
                fanout.clear();
                dev.arch().pips_from(tap.rc, tap.wire, &mut fanout);
                moves.extend(fanout.iter().map(|&to| (tap.rc, to)));
            }
            let Some(&(rc, to)) = moves.choose(rng) else {
                break;
            };
            values.push(template_value(to));
            cur = dev.canonicalize(rc, to).expect("a PIP target exists");
        }
        (cur, values)
    }

    #[test]
    fn memoized_matcher_matches_the_plain_search() {
        let dev = Device::new(Family::Xcv300);
        let dims = dev.dims();
        let all_wires: Vec<Wire> = Wire::all().collect();
        let (mut found, mut exhausted, mut failed, mut replayed) = (0, 0, 0, 0);
        harness::check_with("memoized_matcher_matches_the_plain_search", 48, |rng| {
            let mut r = Router::new(&dev);
            let window = rng.gen_range(8..13u16);
            let origin = RowCol::new(
                rng.gen_range(1..dims.rows - window - 1),
                rng.gen_range(1..dims.cols - window - 1),
            );
            let in_window = |rng: &mut DetRng| {
                RowCol::new(
                    origin.row + rng.gen_range(0..window),
                    origin.col + rng.gen_range(0..window),
                )
            };
            // Occupancy: routed nets, then raw JBits PIPs behind the
            // router's back (§3.4).
            let nets = rng.gen_range(4..24usize);
            for spec in jroute_workloads::netgen::window_netlist(&dev, nets, window, origin, rng) {
                // The workloads crate links its own build of this one, so
                // its pins are rebuilt here from their coordinates.
                let (src, sink) = (spec.source, spec.sinks[0]);
                let _ = r.route(
                    &EndPoint::Pin(Pin::at(src.rc, src.wire)),
                    &EndPoint::Pin(Pin::at(sink.rc, sink.wire)),
                );
            }
            let mut fanout = Vec::new();
            for _ in 0..rng.gen_range(0..48) {
                let rc = in_window(rng);
                let from = *all_wires.choose(rng).expect("wires exist");
                fanout.clear();
                dev.arch().pips_from(rc, from, &mut fanout);
                if let Some(&to) = fanout.choose(rng) {
                    let _ = r.bits_mut().set_pip(rc, from, to);
                }
            }

            let mut cases: Vec<(Segment, Segment, Vec<TemplateValue>)> = Vec::new();
            for _ in 0..4 {
                // The auto-router's predefined templates for a pin pair.
                let src = Pin::at(
                    in_window(rng),
                    wire::slice_out(rng.gen_range(0..2usize), rng.gen_range(0..4u8)),
                );
                let dst = Pin::at(
                    in_window(rng),
                    wire::slice_in(rng.gen_range(0..2usize), rng.gen_range(0..8u8)),
                );
                let start = dev.canonicalize(src.rc, src.wire).expect("pin");
                let goal = dev.canonicalize(dst.rc, dst.wire).expect("pin");
                for t in templates_db::candidates(src.rc, src.wire, dst.rc, dst.wire) {
                    cases.push((start, goal, t.values().to_vec()));
                }
                // User templates: one read off a walk (one in four is
                // hundreds of steps long), and a decoy pairing one walk's
                // steps with another walk's end, which rarely matches and
                // often runs the budget out trying.
                let steps = if rng.gen_range(0..4) == 0 {
                    rng.gen_range(200..400usize)
                } else {
                    rng.gen_range(1..25usize)
                };
                let (goal, values) = walk(&dev, start, steps, rng);
                cases.push((start, goal, values));
                for _ in 0..2 {
                    let steps = rng.gen_range(4..16usize);
                    let (goal, _) = walk(&dev, start, steps, rng);
                    let (_, values) = walk(&dev, start, steps, rng);
                    cases.push((start, goal, values));
                }
            }

            let mut m = TemplateMatcher::default();
            for (start, goal, values) in cases {
                let (mut want_budget, mut want_path) = (TEMPLATE_BUDGET, Vec::new());
                let want = reference(&r, start, goal, &values, &mut want_path, &mut want_budget)
                    .then_some(want_path);
                let mut got_budget = TEMPLATE_BUDGET;
                let got = m.search(&r, start, goal, &values, &mut got_budget);
                assert_eq!(got, want, "first match differs ({} steps)", values.len());
                assert_eq!(got_budget, want_budget, "budget spent differs");
                assert!(m.memo.len() <= TEMPLATE_BUDGET);
                match (&got, got_budget) {
                    (Some(_), _) => found += 1,
                    (None, 0) => exhausted += 1,
                    (None, _) => failed += 1,
                }
                replayed += m.replayed;
            }
        });
        // Every outcome, and the memo, were exercised.
        assert!(
            found > 0 && exhausted > 0 && failed > 0 && replayed > 0,
            "found {found}, exhausted {exhausted}, failed {failed}, replayed {replayed}"
        );
    }
}
