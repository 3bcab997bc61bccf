//! PathFinder-style negotiated-congestion router: the "traditional"
//! baseline.
//!
//! The paper contrasts its greedy auto-router with conventional CAD
//! routers: *"In an RTR environment traditional routing algorithms
//! require too much time"* (§3.1), and cites the routability-driven
//! router of Swartz/Betz/Rose \[6\] as future work (§6). Experiment E8
//! measures that trade-off: this module implements the classic
//! negotiated-congestion scheme (PathFinder, as used by \[6\] and VPR) over
//! our segment graph.
//!
//! The algorithm routes every net allowing resource overuse, then
//! iterates: shared segments become increasingly expensive (present
//! congestion × a growing factor, plus an accumulated history term) until
//! every segment has at most one net, or the iteration budget runs out.
//!
//! Iterations after the first are *incremental*: only nets whose route
//! touches an overused segment (or that failed last round) are ripped up
//! and rerouted; converged nets stay put with their occupancy priced
//! into everyone else's searches. Combined with per-net bounding-box
//! region pruning and the admissible distance lookahead in
//! [`maze`](crate::maze), late iterations cost time proportional to the
//! surviving congestion, not to the design (ROADMAP E9/E10; cf. the
//! hotspot-aware incremental rerouting of arXiv:2407.00009).

use crate::endpoint::Pin;
use crate::error::{Result, RouteError};
use crate::maze::{MazeConfig, MazeScratch, CRIT_ONE};
use crate::partition::{self, SearchBox};
use crate::schedule::WaveExec;
use crate::steiner::{self, SteinerTree};
use jbits::{Bitstream, Pip};
use jroute_obs::{Counter, Recorder};
use std::collections::HashMap;
use virtex::wire::HEX_SPAN;
use virtex::{BBox, Device, RowCol, SegIdx, SegSpace, SegVec, Segment};

/// Dense per-segment congestion state that persists across rip-up
/// iterations.
///
/// A segment can only be overused at the end of an iteration if it was
/// overused at the end of the last one or has been occupied since (a
/// release cannot create overuse), so accounting lists every occupy and
/// walks `prev overused ∪ occupied` rather than the segment space —
/// work proportional to routing activity, not device size (ROADMAP
/// E9/E10).
///
/// It also maintains the reverse overused-segment → nets index that
/// drives incremental rip-up: the first occupant of every segment lives
/// in a dense word (`owner`, net id + 1, zero = free) and only the
/// occupants *beyond* the first — which exist exactly on shared,
/// i.e. overused, segments — spill into a side table. Memory stays one
/// word per segment no matter how large the device.
#[derive(Debug)]
struct Congestion {
    /// Nets currently occupying each segment.
    present: SegVec<u16>,
    /// Accumulated history cost (grows while a segment stays overused).
    history: SegVec<u32>,
    /// Segments overused at the last [`Congestion::account`] call, in
    /// index order.
    overused: Vec<SegIdx>,
    /// Segments occupied since the last account, once per occupy.
    occupied: Vec<SegIdx>,
    /// First occupant net of each segment, stored as `net + 1` (0 = free).
    owner: SegVec<u32>,
    /// Occupants beyond the first, keyed by segment (congested slots only).
    extra: HashMap<SegIdx, Vec<u32>>,
}

impl Congestion {
    fn new(space: SegSpace) -> Self {
        Congestion {
            present: SegVec::new(space, 0),
            history: SegVec::new(space, 0),
            overused: Vec::new(),
            occupied: Vec::new(),
            owner: SegVec::new(space, 0),
            extra: HashMap::new(),
        }
    }

    fn occupy(&mut self, idx: SegIdx, net: u32) {
        self.present[idx] += 1;
        if self.owner[idx] == 0 {
            self.owner[idx] = net + 1;
        } else {
            self.extra.entry(idx).or_default().push(net);
        }
        self.occupied.push(idx);
    }

    fn release(&mut self, idx: SegIdx, net: u32) {
        self.present[idx] -= 1;
        if self.owner[idx] == net + 1 {
            self.owner[idx] = match self.extra.get_mut(&idx) {
                Some(v) => {
                    let promoted = v.pop().expect("spill entries are non-empty") + 1;
                    if v.is_empty() {
                        self.extra.remove(&idx);
                    }
                    promoted
                }
                None => 0,
            };
        } else {
            let v = self
                .extra
                .get_mut(&idx)
                .expect("releasing a recorded occupant");
            let p = v
                .iter()
                .position(|&n| n == net)
                .expect("releasing a recorded occupant");
            v.swap_remove(p);
            if v.is_empty() {
                self.extra.remove(&idx);
            }
        }
    }

    /// Occupy a freshly built tree as net `net`'s route.
    fn commit(&mut self, net: usize, spec: &NetSpec, tree: SteinerTree) -> RoutedNet {
        let space = self.present.space();
        for seg in &tree.segments {
            self.occupy(space.index(*seg), net as u32);
        }
        RoutedNet {
            spec: spec.clone(),
            pips: tree.pips,
            segments: tree.segments,
            sink_delays: tree.sink_delays,
        }
    }

    /// Release every segment of net `net`'s old route.
    fn rip_up(&mut self, net: usize, old: &RoutedNet) {
        let space = self.present.space();
        for seg in &old.segments {
            self.release(space.index(*seg), net as u32);
        }
    }

    /// Every net currently occupying `idx` (the reverse index).
    fn nets_at(&self, idx: SegIdx) -> impl Iterator<Item = u32> + '_ {
        let first = self.owner[idx].checked_sub(1);
        first
            .into_iter()
            .chain(self.extra.get(&idx).into_iter().flatten().copied())
    }

    fn cost(&self, idx: SegIdx, pres_fac: u32) -> u32 {
        self.history[idx].saturating_add((self.present[idx] as u32).saturating_mul(pres_fac))
    }

    /// End-of-iteration accounting: bump history once on every overused
    /// segment and return how many there are. Only segments that were
    /// overused last round or occupied since can qualify, so only those
    /// are visited; the survivors are sorted and deduplicated.
    fn account(&mut self, hist_cost: u32) -> usize {
        let present = &self.present;
        let mut still: Vec<SegIdx> = self
            .overused
            .drain(..)
            .chain(self.occupied.drain(..))
            .filter(|&idx| present[idx] > 1)
            .collect();
        still.sort_unstable();
        still.dedup();
        for &idx in &still {
            self.history[idx] += hist_cost;
        }
        self.overused = still;
        self.overused.len()
    }
}

/// One net to route: a source pin and its sinks.
#[derive(Debug, Clone)]
pub struct NetSpec {
    /// Driving pin.
    pub source: Pin,
    /// Pins to reach.
    pub sinks: Vec<Pin>,
}

impl NetSpec {
    /// Net from `source` to `sinks`.
    pub fn new(source: Pin, sinks: impl Into<Vec<Pin>>) -> Self {
        NetSpec {
            source,
            sinks: sinks.into(),
        }
    }
}

/// Timing-driven negotiation knobs: RWRoute-style criticality blending.
///
/// Per-sink criticality is `(sink delay / critical delay) ^ crit_exp`,
/// recomputed from the dense per-net delay cache that rides the dirty
/// set (only rerouted nets get fresh delays). It blends the maze edge
/// cost as `(1 − crit)·congestion + crit·delay` ([`MazeConfig::crit`]),
/// so critical connections pay less for congestion and detour last.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingConfig {
    /// Criticality sharpening exponent: higher values focus the delay
    /// weighting on the near-critical tail (RWRoute's recipe).
    pub crit_exp: f32,
    /// Criticality ceiling in [`CRIT_ONE`] fixed-point units, kept below
    /// `CRIT_ONE` so even the critical path stays congestion-aware
    /// enough to converge.
    pub max_crit: u32,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            crit_exp: 2.0,
            max_crit: 232, // ≈ 0.91
        }
    }
}

/// PathFinder tuning parameters.
#[derive(Debug, Clone)]
pub struct PathFinderConfig {
    /// Maximum rip-up/re-route iterations before giving up.
    pub max_iterations: usize,
    /// Initial present-congestion factor.
    pub pres_fac: u32,
    /// Multiplier applied to `pres_fac` each iteration.
    pub pres_growth: u32,
    /// History cost added per iteration a segment stays overused.
    pub hist_cost: u32,
    /// Maze options (long lines, node budget).
    pub maze: MazeConfig,
    /// After the first iteration, rip up only nets that touch an
    /// overused segment or failed last round. `false` restores the
    /// classic full-ripup schedule (the reference the equivalence
    /// property test compares against).
    pub incremental: bool,
    /// Confine each net's searches to its terminal bounding box expanded
    /// by this margin (plus hex reach); the box grows every time the net
    /// is ripped up again, so hard nets asymptotically see the whole
    /// device. `None` disables region pruning.
    pub bbox_margin: Option<u16>,
    /// Drive `pres_fac` growth from the overuse curve (accelerate on
    /// plateau, hold on oscillation) instead of multiplying blindly.
    pub adaptive_pres: bool,
    /// Worker threads for wave dispatch (1 = fully sequential). The
    /// engine's outputs are identical for every value — waves only run
    /// nets whose search regions are disjoint, so thread count changes
    /// wall clock, never results.
    pub threads: usize,
    /// Timing-driven negotiation. `None` (the default) prices searches
    /// by congestion alone; `Some` folds per-sink criticality into every
    /// search and runs one criticality refinement pass after the first
    /// legal convergence. The criticality table is frozen per iteration
    /// before waves dispatch, so results stay bit-identical across
    /// worker counts.
    pub timing: Option<TimingConfig>,
}

impl Default for PathFinderConfig {
    fn default() -> Self {
        PathFinderConfig {
            max_iterations: 30,
            pres_fac: 4,
            pres_growth: 2,
            hist_cost: 2,
            maze: MazeConfig {
                // Admissible search: negotiation wants true minimum-cost
                // reroutes, not the greedy weighted-A* shortcut.
                heuristic_weight: 1,
                ..MazeConfig::default()
            },
            incremental: true,
            bbox_margin: Some(partition::DEFAULT_MARGIN),
            adaptive_pres: true,
            threads: 1,
            timing: None,
        }
    }
}

impl PathFinderConfig {
    /// The default configuration with timing-driven negotiation enabled.
    pub fn timing_driven() -> Self {
        PathFinderConfig {
            timing: Some(TimingConfig::default()),
            ..Default::default()
        }
    }
}

/// A net with its pins resolved to canonical segments and its search
/// region precomputed — built once before iteration 0 instead of
/// re-canonicalizing every pin on every iteration.
#[derive(Debug)]
struct PreparedNet {
    src: Segment,
    sinks: Vec<Segment>,
    /// Canonical search region with its earned growth
    /// ([`SearchBox`] carries the shared growth policy); `None` when
    /// pruning is off.
    sbox: Option<SearchBox>,
}

impl PreparedNet {
    /// The maze search region for this net's current patience level.
    fn search_box(&self, margin: u16, dims: virtex::Dims) -> Option<BBox> {
        self.sbox.map(|b| b.region(margin, dims))
    }

    /// Widen the region by `by` tiles (no-op when pruning is off).
    fn widen(&mut self, by: u16) {
        if let Some(b) = &mut self.sbox {
            b.widen(by);
        }
    }
}

/// Ceiling on the present-congestion factor. Beyond this every shared
/// segment is already effectively forbidden; capping keeps per-segment
/// costs (and therefore accumulated path costs) comfortably inside u32
/// even on the accelerated adaptive schedule.
const PRES_FAC_MAX: u32 = 1 << 20;

/// Next `pres_fac` from the shape of the overuse curve. Classic
/// PathFinder multiplies blindly; this accelerates through plateaus
/// (congestion stopped improving — push harder) and holds through
/// oscillation (nets are trading places — let history accumulate
/// instead of amplifying the swing).
fn next_pres_fac(pres_fac: u32, cfg: &PathFinderConfig, overused: usize, prev: usize) -> u32 {
    let next = if !cfg.adaptive_pres {
        pres_fac.saturating_mul(cfg.pres_growth)
    } else if overused > prev {
        // Oscillation: nets are trading places; hold and let history work.
        pres_fac
    } else if overused * 20 >= prev * 19 {
        // Less than 5% better than last round: a plateau.
        pres_fac.saturating_mul(cfg.pres_growth.saturating_mul(2).max(2))
    } else {
        pres_fac.saturating_mul(cfg.pres_growth)
    };
    next.min(PRES_FAC_MAX)
}

/// A routed net, produced by the negotiated router and by the ordered
/// engine ([`crate::parallel`]) alike.
#[derive(Debug, Clone)]
pub struct RoutedNet {
    /// The net as requested.
    pub spec: NetSpec,
    /// PIPs in configuration order.
    pub pips: Vec<(RowCol, Pip)>,
    /// Segments used (for occupancy accounting).
    pub segments: Vec<Segment>,
    /// Per-sink arrival delay in picoseconds (aligned with
    /// `spec.sinks`), maintained incrementally while the tree is built.
    /// Always filled; timing-driven negotiation reads it to set the next
    /// iteration's criticalities.
    pub sink_delays: Vec<u64>,
}

/// Outcome of a negotiated-congestion routing run.
#[derive(Debug)]
pub struct PathFinderResult {
    /// Successfully routed nets (all of them, when `legal`).
    pub nets: Vec<RoutedNet>,
    /// Whether the final state is overuse-free.
    pub legal: bool,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Maze nodes expanded by the trees that were built (effort metric
    /// for E8); a build that failed adds nothing.
    pub nodes_expanded: usize,
    /// Segments still overused when the budget ran out.
    pub overused: usize,
}

/// Route `specs` with negotiated congestion.
pub fn route_all(
    dev: &Device,
    specs: &[NetSpec],
    cfg: &PathFinderConfig,
) -> Result<PathFinderResult> {
    route_all_obs(dev, specs, cfg, &Recorder::disabled())
}

/// [`route_all`] with observability: emits a `pathfinder.route_all` span,
/// per-iteration `pathfinder.overused` events (the congestion curve) and
/// `pathfinder.pres_fac` events (the adaptive schedule), counters for
/// rip-ups / rerouted nets / bounding-box fallbacks, a
/// `pathfinder.converged` event on success, and per-search maze metrics.
pub fn route_all_obs(
    dev: &Device,
    specs: &[NetSpec],
    cfg: &PathFinderConfig,
    obs: &Recorder,
) -> Result<PathFinderResult> {
    // A negotiation run is a causal root: every maze search below links
    // back to it ambiently (same thread), so a flight recording shows
    // which negotiation triggered which search.
    let mut span = obs.span_root("pathfinder.route_all");
    span.note(specs.len() as u64);
    let c_iterations = obs.counter("pathfinder.iterations");
    let c_rerouted = obs.counter("pathfinder.nets_rerouted");
    let c_ripups = obs.counter("pathfinder.ripups");
    let c_bbox_fallbacks = obs.counter("pathfinder.bbox_fallbacks");
    let c_waves = obs.counter("pathfinder.waves");
    let c_partition_conflicts = obs.counter("pathfinder.partition_conflicts");
    let h_iter_overuse = obs.histogram("pathfinder.iter_overuse");
    let h_wave_size = obs.histogram("pathfinder.wave_size");
    let h_crit = obs.histogram("pathfinder.crit");
    let g_crit_max = obs.gauge("pathfinder.crit_max");
    let g_crit_p99 = obs.gauge("pathfinder.crit_p99");
    let space = dev.seg_space();
    let dims = dev.dims();
    let mut cong = Congestion::new(space);
    let exec = WaveExec {
        threads: cfg.threads,
    };
    // Waves require every dirty net to carry a search region that really
    // confines its search: long lines are bbox-exempt in the maze, so a
    // config that uses them falls back to the sequential schedule.
    let waveable = cfg.bbox_margin.is_some() && !cfg.maze.use_long_lines;
    let mut routes: Vec<Option<RoutedNet>> = vec![None; specs.len()];
    let mut pres_fac = cfg.pres_fac;
    let mut nodes_expanded = 0usize;

    // Resolve every pin once, up front (the per-iteration loop used to
    // re-canonicalize all of them on every pass).
    let mut prepared = Vec::with_capacity(specs.len());
    for spec in specs {
        let resolve = |pin: &Pin| {
            dev.canonicalize(pin.rc, pin.wire)
                .ok_or(RouteError::NoSuchWire {
                    rc: pin.rc,
                    wire: pin.wire,
                })
        };
        let src = resolve(&spec.source)?;
        let sinks = spec.sinks.iter().map(resolve).collect::<Result<Vec<_>>>()?;
        let sbox = match cfg.bbox_margin {
            Some(_) => {
                SearchBox::of_points(std::iter::once(src.rc).chain(sinks.iter().map(|s| s.rc)))
            }
            None => None,
        };
        prepared.push(PreparedNet { src, sinks, sbox });
    }

    // Nets to (re)route this iteration; the first pass routes everything.
    let mut dirty: Vec<usize> = (0..specs.len()).collect();
    let mut prev_overused: Option<usize> = None;
    // Timing mode runs one crit-weighted refinement over every net after
    // the first legal convergence (see below); this latches so it
    // happens exactly once.
    let mut refined = false;

    let mut iterations = 0usize;
    for iter in 0..cfg.max_iterations {
        iterations = iter + 1;
        c_iterations.inc();
        c_rerouted.add(dirty.len() as u64);
        // Criticality table for this iteration, frozen before any wave
        // dispatch so workers read it immutably (bit-identical results
        // across worker counts). The per-net delays it normalizes were
        // refreshed incrementally: only nets rerouted last iteration
        // carry new `sink_delays`. Iteration 0 has no delays yet, so the
        // first pass is pure congestion — the classic schedule.
        let crits_iter: Vec<Vec<u32>> = match &cfg.timing {
            Some(t) => {
                let crits = compute_crits(&routes, t);
                let mut all: Vec<u32> = crits.iter().flatten().copied().collect();
                if !all.is_empty() {
                    all.sort_unstable();
                    g_crit_max.set(*all.last().expect("non-empty") as u64);
                    g_crit_p99.set(all[((all.len() * 99) / 100).min(all.len() - 1)] as u64);
                    for &c in &all {
                        h_crit.record(c as u64);
                    }
                }
                crits
            }
            None => Vec::new(),
        };
        let net_crits = |i: usize| crits_iter.get(i).map_or(&[][..], Vec::as_slice);
        let mut any_failure = false;
        // Nets left for the sequential cleanup pass below: every dirty
        // net when waves are off, else only the wave misses (whose
        // bounded search already failed — they skip straight to an
        // unbounded one).
        let mut serial: Vec<(usize, bool)> = Vec::new();
        if waveable {
            // Partition the dirty set into waves of nets whose search
            // regions are pairwise disjoint: such nets cannot read or
            // write each other's congestion, so ripping up, searching and
            // committing them together is exactly the sequential result.
            let margin = cfg.bbox_margin.expect("waveable implies a margin");
            let boxes: Vec<BBox> = dirty
                .iter()
                .map(|&i| {
                    prepared[i]
                        .search_box(margin, dims)
                        .expect("waveable nets carry a region")
                })
                .collect();
            let plan = partition::partition_waves(&boxes);
            c_waves.add(plan.waves.len() as u64);
            c_partition_conflicts.add(plan.conflicts as u64);
            for wave in &plan.waves {
                h_wave_size.record(wave.len() as u64);
                // Barrier 1 — rip-up, in net order on this thread.
                for &k in wave {
                    let i = dirty[k];
                    if let Some(old) = routes[i].take() {
                        c_ripups.inc();
                        cong.rip_up(i, &old);
                    }
                }
                // Parallel bounded searches against the now-frozen
                // congestion (shared immutably; each worker builds its
                // own scratch).
                let searched = exec.run_wave(
                    wave,
                    || MazeScratch::new(dev),
                    |scratch, k| {
                        route_net_tree(
                            dev,
                            space,
                            &cong,
                            pres_fac,
                            &prepared[dirty[k]],
                            net_crits(dirty[k]),
                            Some(boxes[k]),
                            &cfg.maze,
                            None,
                            scratch,
                            obs,
                        )
                    },
                );
                // Barrier 2 — commit, in net order. Disjointness makes
                // the order immaterial for results; fixing it anyway
                // keeps the run reproducible down to iteration counts.
                for (&k, built) in wave.iter().zip(searched) {
                    let i = dirty[k];
                    match built {
                        Some(tree) => {
                            nodes_expanded += tree.nodes_expanded;
                            routes[i] = Some(cong.commit(i, &specs[i], tree));
                        }
                        None => serial.push((i, true)),
                    }
                }
            }
            serial.sort_unstable();
        } else {
            serial.extend(dirty.iter().map(|&i| (i, false)));
        }
        let mut scratch = MazeScratch::new(dev);
        for &(i, skip_bounded) in &serial {
            // Rip up the previous route of this net (no-op for wave
            // misses — the wave already released them).
            if let Some(old) = routes[i].take() {
                c_ripups.inc();
                cong.rip_up(i, &old);
            }
            let prep = &prepared[i];
            let bbox = if skip_bounded {
                // The bounded wave search missed: the region was too
                // tight for a legal detour. Count the fallback once and
                // search the whole device so bounding can slow a route
                // down but never lose one.
                c_bbox_fallbacks.inc();
                None
            } else {
                cfg.bbox_margin.and_then(|m| prep.search_box(m, dims))
            };
            let built = route_net_tree(
                dev,
                space,
                &cong,
                pres_fac,
                prep,
                net_crits(i),
                bbox,
                &cfg.maze,
                Some(&c_bbox_fallbacks),
                &mut scratch,
                obs,
            );
            let Some(tree) = built else {
                // Node budget exhausted — leave unrouted this iteration;
                // congestion relief may fix it next round.
                any_failure = true;
                prepared[i].widen(HEX_SPAN);
                continue;
            };
            nodes_expanded += tree.nodes_expanded;
            routes[i] = Some(cong.commit(i, &specs[i], tree));
        }

        // Congestion accounting over prev-overused ∪ occupied only.
        let overused = cong.account(cfg.hist_cost);
        obs.event("pathfinder.overused", overused as u64);
        h_iter_overuse.record(overused as u64);
        if overused == 0 && !any_failure && routes.iter().all(|r| r.is_some()) {
            if cfg.timing.is_some() && !refined && iterations < cfg.max_iterations {
                // First legal convergence under timing: the initial pass
                // routed with an *empty* criticality table (no delays
                // existed yet), so the delay term has not steered
                // anything. Re-route every net once against the now
                // measured criticalities — critical sinks move onto fast
                // wires, non-critical sinks stay congestion-priced — and
                // negotiate any overuse that introduces as usual. One
                // latched pass keeps the schedule deterministic.
                refined = true;
                dirty = (0..specs.len()).collect();
                continue;
            }
            obs.event("pathfinder.converged", iterations as u64);
            let nets = routes.into_iter().map(|r| r.expect("all routed")).collect();
            return Ok(PathFinderResult {
                nets,
                legal: true,
                iterations,
                nodes_expanded,
                overused: 0,
            });
        }

        if cfg.incremental {
            // Dirty set for the next pass: nets without a route plus every
            // occupant of a surviving overused segment (via the reverse
            // index — cost proportional to the congestion, not the design).
            let mut next: Vec<usize> = (0..specs.len()).filter(|&i| routes[i].is_none()).collect();
            for &o in &cong.overused {
                next.extend(cong.nets_at(o).map(|n| n as usize));
            }
            next.sort_unstable();
            next.dedup();
            // A net that keeps coming back earns a wider search region.
            for &i in &next {
                prepared[i].widen(1);
            }
            dirty = next;
        }

        pres_fac = match prev_overused {
            Some(prev) => next_pres_fac(pres_fac, cfg, overused, prev),
            None => pres_fac.saturating_mul(cfg.pres_growth).min(PRES_FAC_MAX),
        };
        obs.event("pathfinder.pres_fac", pres_fac as u64);
        prev_overused = Some(overused);
    }

    // `account` ran at the end of the final iteration, so the residual
    // overuse is exactly the surviving overused set.
    let overused = cong.overused.len();
    obs.counter("pathfinder.budget_exhausted").inc();
    let nets = routes.into_iter().flatten().collect();
    Ok(PathFinderResult {
        nets,
        legal: false,
        iterations,
        nodes_expanded,
        overused,
    })
}

/// Per-net, per-sink criticality table for one iteration, in
/// [`CRIT_ONE`] fixed-point units: `(delay / critical delay) ^ crit_exp`
/// capped at `max_crit`. The delays come from the dense per-net cache on
/// [`RoutedNet::sink_delays`] — refreshed only for nets the dirty set
/// rerouted, so the expensive part of the pass rides rip-up activity,
/// not design size. Unrouted nets (and iteration 0, before any delays
/// exist) get empty rows, which read as the maze config's `crit` (zero
/// unless the caller sets it).
fn compute_crits(routes: &[Option<RoutedNet>], tcfg: &TimingConfig) -> Vec<Vec<u32>> {
    let max_ps = routes
        .iter()
        .flatten()
        .flat_map(|r| &r.sink_delays)
        .copied()
        .max()
        .unwrap_or(0);
    if max_ps == 0 {
        return vec![Vec::new(); routes.len()];
    }
    let cap = tcfg.max_crit.min(CRIT_ONE);
    routes
        .iter()
        .map(|r| match r {
            Some(net) => net
                .sink_delays
                .iter()
                .map(|&d| {
                    let frac = d as f64 / max_ps as f64;
                    let c = (frac.powf(tcfg.crit_exp as f64) * CRIT_ONE as f64) as u32;
                    c.min(cap)
                })
                .collect(),
            None => Vec::new(),
        })
        .collect()
}

/// One net's tree construction against a frozen congestion snapshot.
/// Pure with respect to shared state — nothing is occupied or released
/// here; the caller commits (at the wave barrier or inline).
///
/// Every net grows the paper's path-reuse tree through
/// [`steiner::grow`]. `crits` holds this net's per-sink criticalities
/// (empty for the pure-congestion cost). `retry_unbounded` selects the
/// serial-pass semantics: a bounded miss counts a fallback and rebuilds
/// the whole net over the device (wave workers pass `None` and fail
/// fast — their misses take the serial path afterwards).
#[allow(clippy::too_many_arguments)]
fn route_net_tree(
    dev: &Device,
    space: SegSpace,
    cong: &Congestion,
    pres_fac: u32,
    prep: &PreparedNet,
    crits: &[u32],
    bbox: Option<BBox>,
    maze_cfg: &MazeConfig,
    retry_unbounded: Option<&Counter>,
    scratch: &mut MazeScratch,
    obs: &Recorder,
) -> Option<SteinerTree> {
    let build = |mc: &MazeConfig, scratch: &mut MazeScratch| {
        steiner::grow(
            dev,
            &[(prep.src, 0)],
            &prep.sinks,
            crits,
            mc,
            |_| false,
            // Overuse is allowed; congestion is priced.
            |seg| cong.cost(space.index(seg), pres_fac),
            scratch,
            obs,
        )
        .ok()
    };
    let mut mc = MazeConfig {
        bbox,
        ..maze_cfg.clone()
    };
    let tree = build(&mc, scratch);
    if tree.is_some() || mc.bbox.is_none() {
        return tree;
    }
    // The region is too tight for this net: search the whole device so
    // bounding can slow a route down but never lose one.
    retry_unbounded?.inc();
    mc.bbox = None;
    build(&mc, scratch)
}

/// Program a legal PathFinder result into a bitstream.
///
/// Returns [`RouteError::IllegalResult`] if the result is not legal
/// (overuse would configure contention).
pub fn apply(result: &PathFinderResult, bits: &mut Bitstream) -> Result<()> {
    if !result.legal {
        return Err(RouteError::IllegalResult {
            overused: result.overused,
        });
    }
    for net in &result.nets {
        for &(rc, pip) in &net.pips {
            bits.set_pip(rc, pip.from, pip.to)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::{wire, Device, Family};

    fn dev() -> Device {
        Device::new(Family::Xcv50)
    }

    #[test]
    fn routes_disjoint_nets_in_one_iteration() {
        let dev = dev();
        let specs: Vec<NetSpec> = (0..4)
            .map(|i| {
                NetSpec::new(
                    Pin::new(2 + 3 * i, 2, wire::S0_YQ),
                    vec![Pin::new(2 + 3 * i, 8, wire::S0_F3)],
                )
            })
            .collect();
        let r = route_all(&dev, &specs, &PathFinderConfig::default()).unwrap();
        assert!(r.legal);
        assert_eq!(r.nets.len(), 4);
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn negotiates_contending_nets_apart() {
        let dev = dev();
        // Several nets squeezed through the same neighbourhood: they must
        // negotiate distinct resources.
        let specs: Vec<NetSpec> = (0..6)
            .map(|i| {
                NetSpec::new(
                    Pin::new(8, 8, wire::slice_out(i % 2, (i / 2 % 4) as u8)),
                    vec![Pin::new(10, 10, wire::slice_in(i % 2, (i % 13) as u8))],
                )
            })
            .collect();
        let r = route_all(&dev, &specs, &PathFinderConfig::default()).unwrap();
        assert!(r.legal, "negotiation should resolve local congestion");
        // No segment shared between different nets.
        let mut seen = std::collections::HashMap::new();
        for (i, net) in r.nets.iter().enumerate() {
            for seg in &net.segments {
                if let Some(prev) = seen.insert(*seg, i) {
                    panic!("segment {seg} shared by nets {prev} and {i}");
                }
            }
        }
    }

    /// A workload congested enough to need several negotiation rounds:
    /// sixteen nets from two source tiles all funnelled into the input
    /// pins of a single sink tile.
    fn contended_specs() -> Vec<NetSpec> {
        (0..16u16)
            .map(|i| {
                let src = if i < 8 {
                    Pin::new(8, 8, wire::slice_out((i % 2) as usize, (i / 2) as u8))
                } else {
                    Pin::new(
                        12,
                        12,
                        wire::slice_out((i % 2) as usize, ((i - 8) / 2) as u8),
                    )
                };
                NetSpec::new(
                    src,
                    vec![Pin::new(
                        10,
                        10,
                        wire::slice_in((i % 2) as usize, (i / 2 % 13) as u8),
                    )],
                )
            })
            .collect()
    }

    #[test]
    fn incremental_reroutes_strictly_fewer_nets_than_full_ripup() {
        let dev = dev();
        let specs = contended_specs();
        let full_cfg = PathFinderConfig {
            incremental: false,
            bbox_margin: None,
            adaptive_pres: false,
            ..Default::default()
        };
        let incr_cfg = PathFinderConfig::default();
        let full_obs = Recorder::enabled();
        let full = route_all_obs(&dev, &specs, &full_cfg, &full_obs).unwrap();
        let incr_obs = Recorder::enabled();
        let incr = route_all_obs(&dev, &specs, &incr_cfg, &incr_obs).unwrap();
        assert!(full.legal && incr.legal);
        assert!(incr.iterations > 1, "workload must actually contend");
        let full_n = full_obs
            .report()
            .counter("pathfinder.nets_rerouted")
            .unwrap();
        let incr_n = incr_obs
            .report()
            .counter("pathfinder.nets_rerouted")
            .unwrap();
        // Full rip-up redoes every net every round; incremental only the
        // congested ones, so its total net-searches must be strictly lower.
        assert!(
            incr_n < full_n,
            "incremental rerouted {incr_n} nets vs full {full_n}"
        );
        assert_eq!(full_n, (specs.len() * full.iterations) as u64);
    }

    #[test]
    fn incremental_negotiation_is_contention_free() {
        let dev = dev();
        let r = route_all(&dev, &contended_specs(), &PathFinderConfig::default()).unwrap();
        assert!(r.legal);
        let mut seen = std::collections::HashMap::new();
        for (i, net) in r.nets.iter().enumerate() {
            for seg in &net.segments {
                if let Some(prev) = seen.insert(*seg, i) {
                    panic!("segment {seg} shared by nets {prev} and {i}");
                }
            }
        }
    }

    #[test]
    fn legal_result_applies_to_bitstream_without_contention() {
        let dev = dev();
        let specs: Vec<NetSpec> = (0..3)
            .map(|i| {
                NetSpec::new(
                    Pin::new(4, 4 + i, wire::S1_YQ),
                    vec![
                        Pin::new(6, 6 + i, wire::S0_F3),
                        Pin::new(7, 4 + i, wire::S1_F1),
                    ],
                )
            })
            .collect();
        let r = route_all(&dev, &specs, &PathFinderConfig::default()).unwrap();
        assert!(r.legal);
        let mut bits = Bitstream::new(&dev);
        apply(&r, &mut bits).unwrap();
        // Every segment has at most one driver.
        for net in &r.nets {
            for seg in &net.segments {
                assert!(
                    bits.segment_drivers(*seg).count() <= 1,
                    "contention on {seg}"
                );
            }
        }
    }

    #[test]
    fn a_repeated_sink_shares_its_first_branch() {
        let dev = dev();
        let sink = Pin::new(6, 9, wire::S0_F3);
        let specs = vec![NetSpec::new(
            Pin::new(4, 4, wire::S1_YQ),
            vec![sink, Pin::new(7, 5, wire::S1_F1), sink],
        )];
        for cfg in [
            PathFinderConfig::default(),
            PathFinderConfig::timing_driven(),
        ] {
            let r = route_all(&dev, &specs, &cfg).unwrap();
            assert!(r.legal, "a repeated sink is not a second driver");
            let net = &r.nets[0];
            let sink_seg = dev.canonicalize(sink.rc, sink.wire).unwrap();
            assert_eq!(net.segments.iter().filter(|&&s| s == sink_seg).count(), 1);
            assert_eq!(net.sink_delays[0], net.sink_delays[2]);
        }
    }

    #[test]
    fn account_bumps_each_overused_segment_once() {
        let mut cong = Congestion::new(SegSpace::new(virtex::Dims::new(2, 2)));
        let (churned, stale, released, lone) = (SegIdx(9), SegIdx(3), SegIdx(5), SegIdx(7));
        for idx in [churned, stale, released] {
            cong.occupy(idx, 0);
            cong.occupy(idx, 1);
        }
        cong.occupy(lone, 0);
        assert_eq!(cong.account(10), 3);

        // Rip up and re-commit both occupants of `churned` twice over;
        // leave `stale` alone; only release on `released` and `lone`.
        for _ in 0..2 {
            for net in [1, 0] {
                cong.release(churned, net);
                cong.occupy(churned, net);
            }
        }
        cong.release(released, 1);
        cong.release(lone, 0);
        assert_eq!(cong.account(10), 2);
        assert_eq!(cong.overused, vec![stale, churned]);
        assert_eq!(cong.history[churned], 20);
        assert_eq!(cong.history[stale], 20);
        assert_eq!(cong.history[released], 10);
        assert_eq!(cong.history[lone], 0);
    }

    #[test]
    fn illegal_results_refuse_to_apply() {
        let dev = dev();
        let r = PathFinderResult {
            nets: vec![],
            legal: false,
            iterations: 0,
            nodes_expanded: 0,
            overused: 1,
        };
        let mut bits = Bitstream::new(&dev);
        assert_eq!(
            apply(&r, &mut bits),
            Err(RouteError::IllegalResult { overused: 1 })
        );
    }
}
