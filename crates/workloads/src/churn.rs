//! Continuous compose / relocate / replace churn over RTP cores.
//!
//! The paper's run-time model (§5) is cores arriving, moving and being
//! swapped while the design runs. This module drives that model for
//! thousands of steps against the `jroute-svc` batch front-end: a
//! [`ChurnScenario`] owns a [`RoutingService`], a
//! [`jroute_cores::Floorplan`] and a seeded [`DetRng`], and each
//! [`ChurnScenario::step`] performs one churn action —
//!
//! * **compose** — first-fit place a new core and atomically route its
//!   nets (`Replace { remove: [], add }`: all-or-nothing, like a core);
//! * **relocate** — place a second region, translate the core's nets to
//!   it, and atomically swap old for new (`Replace`);
//! * **replace** — swap the core's nets for a different variant in the
//!   same region;
//! * **retire** — unroute the core and free its region;
//!
//! — then runs the batch and audits the committed state (leak check of
//! the NetDb against the committed requests, net-count census,
//! monotonic service counters). Any
//! violation is returned as a [`ChurnViolation`]; a clean soak of N
//! steps is N `Ok` results.
//!
//! Every submission is simultaneously recorded into a
//! [`Trace`], so a finished soak can be replayed
//! into a *fresh* deterministic service and the two censuses compared —
//! the strongest end-to-end check the scenario corpus has (and the
//! `e16_scenarios` fixture source).

use detrand::DetRng;
use jroute::pathfinder::{NetSpec, PathFinderConfig, PathFinderResult};
use jroute::Pin;
use jroute_cores::floorplan::{Floorplan, Region, RegionId};
use jroute_obs::Recorder;
use jroute_svc::{RequestId, RequestKind, RoutingService, ServiceConfig, Trace, TraceId, TraceOp};
use virtex::wire::{self, slice_in_pin};
use virtex::{Device, RowCol};

/// Knobs of a churn scenario.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Core footprint rows.
    pub core_rows: u16,
    /// Core footprint columns.
    pub core_cols: u16,
    /// Nets per core (all routed/torn as one atomic request).
    pub nets_per_core: usize,
    /// Ceiling on simultaneously live cores; composes beyond it are
    /// skipped in favour of churning the live set.
    pub max_live_cores: usize,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            core_rows: 3,
            core_cols: 3,
            nets_per_core: 3,
            max_live_cores: 6,
        }
    }
}

/// What one step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChurnAction {
    /// Placed and routed a new core.
    Compose,
    /// Moved a core to a different region.
    Relocate,
    /// Swapped a core's nets for a new variant in place.
    Replace,
    /// Unrouted a core and freed its region.
    Retire,
}

/// One audited churn step.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// 0-based step index.
    pub step: usize,
    /// Action attempted.
    pub action: ChurnAction,
    /// Whether the service committed it (a congested or rejected request
    /// leaves the previous state intact — that is not a violation).
    pub committed: bool,
    /// Live cores after the step.
    pub live_cores: usize,
    /// Live nets after the step.
    pub live_nets: usize,
}

/// An invariant the audit caught broken. Any of these failing means the
/// service corrupted committed state — the soak must abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChurnViolation {
    /// The net database and the service's committed requests disagree
    /// (leaked or lost nets).
    LeakedSegments {
        /// Step that caught it.
        step: usize,
        /// Disagreeing segments and nets.
        segments: usize,
    },
    /// The database's net count does not match the live-core bookkeeping.
    NetCount {
        /// Step that caught it.
        step: usize,
        /// Nets in the database.
        db: usize,
        /// Nets the live cores should own.
        expected: usize,
    },
    /// A cumulative service counter went backwards.
    CounterRegressed {
        /// Step that caught it.
        step: usize,
        /// Counter name.
        name: &'static str,
        /// Previous value.
        prev: u64,
        /// Current (smaller) value.
        now: u64,
    },
    /// The submission queue rejected a scenario request (the scenario
    /// always drains between steps, so this means the queue is
    /// misconfigured for the core size).
    QueueFull,
}

impl std::fmt::Display for ChurnViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnViolation::LeakedSegments { step, segments } => {
                write!(
                    f,
                    "step {step}: {segments} segments disagree with the committed requests"
                )
            }
            ChurnViolation::NetCount { step, db, expected } => {
                write!(
                    f,
                    "step {step}: database holds {db} nets, cores own {expected}"
                )
            }
            ChurnViolation::CounterRegressed {
                step,
                name,
                prev,
                now,
            } => write!(f, "step {step}: counter {name} regressed {prev} -> {now}"),
            ChurnViolation::QueueFull => write!(f, "submission queue full mid-scenario"),
        }
    }
}

impl std::error::Error for ChurnViolation {}

/// Cumulative counters the audit requires to be monotonic.
const MONOTONIC: [&str; 4] = ["svc.batches", "svc.executed", "svc.routed", "svc.replaced"];

#[derive(Debug)]
struct LiveCore {
    region_id: RegionId,
    region: Region,
    /// Committed request currently owning the core's nets.
    owner: RequestId,
    /// The same request in the trace-id namespace.
    trace_owner: TraceId,
    specs: Vec<NetSpec>,
}

/// The churn soak driver. See the module docs for the step semantics.
#[derive(Debug)]
pub struct ChurnScenario<'d> {
    svc: RoutingService<'d>,
    fp: Floorplan,
    rng: DetRng,
    params: ChurnParams,
    trace: Trace,
    live: Vec<LiveCore>,
    step: usize,
    submitted: u32,
    next_region: RegionId,
    counters: Vec<(&'static str, u64)>,
}

impl<'d> ChurnScenario<'d> {
    /// Scenario over `dev`. The config's `audit` flag is forced on —
    /// the per-step leak check is the point of the soak. The recorded
    /// trace replays to the identical census at any worker count.
    pub fn new(dev: &'d Device, mut cfg: ServiceConfig, params: ChurnParams, seed: u64) -> Self {
        cfg.audit = true;
        Self::with_recorder(dev, cfg, params, seed, Recorder::disabled())
    }

    /// [`ChurnScenario::new`] with a live recorder.
    pub fn with_recorder(
        dev: &'d Device,
        mut cfg: ServiceConfig,
        params: ChurnParams,
        seed: u64,
        obs: Recorder,
    ) -> Self {
        cfg.audit = true;
        ChurnScenario {
            svc: RoutingService::with_recorder(dev, cfg, obs),
            fp: Floorplan::new(dev.dims()),
            rng: DetRng::seed_from_u64(seed),
            params,
            trace: Trace::new(dev.family()),
            live: Vec::new(),
            step: 0,
            submitted: 0,
            next_region: 0,
            counters: MONOTONIC.iter().map(|&n| (n, 0)).collect(),
        }
    }

    /// The service (committed state, recorder).
    pub fn svc(&self) -> &RoutingService<'d> {
        &self.svc
    }

    /// The request trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Live cores.
    pub fn live_cores(&self) -> usize {
        self.live.len()
    }

    /// Nets the live cores own.
    pub fn live_nets(&self) -> usize {
        self.live.iter().map(|c| c.specs.len()).sum()
    }

    /// Specs of every live net — the incremental negotiator's input.
    pub fn live_specs(&self) -> Vec<NetSpec> {
        self.live
            .iter()
            .flat_map(|c| c.specs.iter().cloned())
            .collect()
    }

    /// Steps executed.
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Run the unified PathFinder negotiator over the live nets (a
    /// from-scratch legality cross-check of the scenario's current
    /// demand) through the service — which applies its thread count and
    /// deterministic policy, and whose recorder catches the wave/search
    /// telemetry.
    pub fn negotiate(&self, cfg: &PathFinderConfig) -> jroute::Result<PathFinderResult> {
        self.svc.negotiate(&self.live_specs(), cfg)
    }

    /// Execute one churn action, run the batch, audit. `Ok` carries what
    /// happened; `Err` means committed state is corrupt and the soak
    /// should abort.
    pub fn step(&mut self) -> Result<StepOutcome, ChurnViolation> {
        let step = self.step;
        self.step += 1;
        let roll: u32 = self.rng.gen_range(0..100u32);
        let action =
            if self.live.len() < 2 || (self.live.len() < self.params.max_live_cores && roll < 35) {
                ChurnAction::Compose
            } else if roll < 55 {
                ChurnAction::Relocate
            } else if roll < 80 {
                ChurnAction::Replace
            } else {
                ChurnAction::Retire
            };
        let committed = match action {
            ChurnAction::Compose => self.compose(step)?,
            ChurnAction::Relocate => self.relocate(step)?,
            ChurnAction::Replace => self.replace(step)?,
            ChurnAction::Retire => self.retire(step)?,
        };
        Ok(StepOutcome {
            step,
            action,
            committed,
            live_cores: self.live.len(),
            live_nets: self.live_nets(),
        })
    }

    /// Nets of a core occupying `region`: sources and sinks on distinct
    /// tiles inside it. Regions are disjoint, so per-core uniqueness
    /// gives global uniqueness for free.
    fn core_netlist(&mut self, region: Region) -> Vec<NetSpec> {
        let mut used_src = std::collections::HashSet::new();
        let mut used_sink = std::collections::HashSet::new();
        let mut specs = Vec::with_capacity(self.params.nets_per_core);
        let mut guard = 0usize;
        while specs.len() < self.params.nets_per_core {
            guard += 1;
            assert!(
                guard < self.params.nets_per_core * 1000,
                "core netlist starved — footprint too small for {} nets",
                self.params.nets_per_core
            );
            let tile = |rng: &mut DetRng| {
                RowCol::new(
                    region.origin.row + rng.gen_range(0..region.rows),
                    region.origin.col + rng.gen_range(0..region.cols),
                )
            };
            let src_rc = tile(&mut self.rng);
            let sink_rc = tile(&mut self.rng);
            if src_rc == sink_rc {
                continue;
            }
            let src = Pin::at(
                src_rc,
                wire::slice_out(self.rng.gen_range(0..2usize), self.rng.gen_range(0..4u8)),
            );
            let sink = Pin::at(
                sink_rc,
                wire::slice_in(
                    self.rng.gen_range(0..2usize),
                    self.rng.gen_range(slice_in_pin::F1..=slice_in_pin::G4),
                ),
            );
            if !used_src.insert(src) {
                continue;
            }
            if !used_sink.insert(sink) {
                used_src.remove(&src);
                continue;
            }
            specs.push(NetSpec::new(src, vec![sink]));
        }
        specs
    }

    /// Submit one request (recording it), run the batch, audit, and
    /// report whether the request committed.
    fn run_one(
        &mut self,
        step: usize,
        kind: RequestKind,
        op: TraceOp,
    ) -> Result<(RequestId, TraceId, bool), ChurnViolation> {
        let trace_id = self.trace.record(128, None, op);
        debug_assert_eq!(trace_id, self.submitted);
        self.submitted += 1;
        let Ok(id) = self.svc.submit(kind) else {
            return Err(ChurnViolation::QueueFull);
        };
        let report = self.svc.run_batch();
        self.trace.end_batch();
        if let Some(segments) = report.leaked_segments {
            if segments != 0 {
                return Err(ChurnViolation::LeakedSegments { step, segments });
            }
        }
        let committed = report.outcome(id).is_some_and(|o| o.is_success());
        self.audit(step)?;
        Ok((id, trace_id, committed))
    }

    /// Post-batch invariants beyond the service's own leak check.
    fn audit(&mut self, step: usize) -> Result<(), ChurnViolation> {
        let db = self.svc.db().len();
        let expected = self.live_nets();
        if db != expected {
            return Err(ChurnViolation::NetCount { step, db, expected });
        }
        let report = self.svc.recorder().report();
        if report.enabled {
            for (name, prev) in &mut self.counters {
                let now = report.counter(name).unwrap_or(0);
                if now < *prev {
                    return Err(ChurnViolation::CounterRegressed {
                        step,
                        name,
                        prev: *prev,
                        now,
                    });
                }
                *prev = now;
            }
        }
        Ok(())
    }

    fn compose(&mut self, step: usize) -> Result<bool, ChurnViolation> {
        let (rows, cols) = (self.params.core_rows, self.params.core_cols);
        let region_id = self.next_region;
        let Some(origin) = self.fp.place(region_id, rows, cols) else {
            // Device full: churn the live set instead.
            return self.retire(step);
        };
        self.next_region += 1;
        let region = Region { origin, rows, cols };
        let specs = self.core_netlist(region);
        // Note: audit() runs inside run_one *before* the live list knows
        // about this core, so account for it through `pending_nets`.
        self.live.push(LiveCore {
            region_id,
            region,
            owner: 0,
            trace_owner: 0,
            specs: specs.clone(),
        });
        let res = self.run_one(
            step,
            RequestKind::Replace {
                remove: vec![],
                add: specs.clone(),
            },
            TraceOp::Replace {
                remove: vec![],
                add: specs,
            },
        );
        match res {
            Ok((id, tid, true)) => {
                let core = self.live.last_mut().expect("just pushed");
                core.owner = id;
                core.trace_owner = tid;
                Ok(true)
            }
            Ok((_, _, false)) => {
                self.live.pop();
                self.fp.release(region_id);
                // The failed attempt changed nothing; re-audit with the
                // bookkeeping rolled back.
                self.audit(step)?;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    fn pick_core(&mut self) -> usize {
        self.rng.gen_range(0..self.live.len())
    }

    fn relocate(&mut self, step: usize) -> Result<bool, ChurnViolation> {
        let idx = self.pick_core();
        let (rows, cols) = (self.live[idx].region.rows, self.live[idx].region.cols);
        let region_id = self.next_region;
        let Some(origin) = self.fp.place(region_id, rows, cols) else {
            // Nowhere to move: replace in place instead.
            return self.replace(step);
        };
        self.next_region += 1;
        let new_region = Region { origin, rows, cols };
        let old = &self.live[idx];
        let (old_origin, old_region_id) = (old.region.origin, old.region_id);
        // Translate the core's nets to the new origin: same footprint,
        // same internal topology, different tiles.
        let dr = origin.row as i32 - old_origin.row as i32;
        let dc = origin.col as i32 - old_origin.col as i32;
        let shift = |pin: &Pin| {
            Pin::at(
                RowCol::new(
                    (pin.rc.row as i32 + dr) as u16,
                    (pin.rc.col as i32 + dc) as u16,
                ),
                pin.wire,
            )
        };
        let moved: Vec<NetSpec> = old
            .specs
            .iter()
            .map(|s| {
                NetSpec::new(
                    shift(&s.source),
                    s.sinks.iter().map(&shift).collect::<Vec<_>>(),
                )
            })
            .collect();
        let (owner, trace_owner) = (old.owner, old.trace_owner);
        // Pre-commit the bookkeeping so the mid-run audit sees the
        // post-swap world; roll back on failure.
        let saved = std::mem::replace(
            &mut self.live[idx],
            LiveCore {
                region_id,
                region: new_region,
                owner,
                trace_owner,
                specs: moved.clone(),
            },
        );
        let res = self.run_one(
            step,
            RequestKind::Replace {
                remove: vec![owner],
                add: moved.clone(),
            },
            TraceOp::Replace {
                remove: vec![trace_owner],
                add: moved,
            },
        );
        match res {
            Ok((id, tid, true)) => {
                self.fp.release(old_region_id);
                let core = &mut self.live[idx];
                core.owner = id;
                core.trace_owner = tid;
                Ok(true)
            }
            Ok((_, _, false)) => {
                self.live[idx] = saved;
                self.fp.release(region_id);
                self.audit(step)?;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    fn replace(&mut self, step: usize) -> Result<bool, ChurnViolation> {
        let idx = self.pick_core();
        let region = self.live[idx].region;
        let variant = self.core_netlist(region);
        let (owner, trace_owner) = (self.live[idx].owner, self.live[idx].trace_owner);
        let saved = std::mem::replace(&mut self.live[idx].specs, variant.clone());
        let res = self.run_one(
            step,
            RequestKind::Replace {
                remove: vec![owner],
                add: variant.clone(),
            },
            TraceOp::Replace {
                remove: vec![trace_owner],
                add: variant,
            },
        );
        match res {
            Ok((id, tid, true)) => {
                let core = &mut self.live[idx];
                core.owner = id;
                core.trace_owner = tid;
                Ok(true)
            }
            Ok((_, _, false)) => {
                self.live[idx].specs = saved;
                self.audit(step)?;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    fn retire(&mut self, step: usize) -> Result<bool, ChurnViolation> {
        if self.live.is_empty() {
            return Ok(false);
        }
        let idx = self.pick_core();
        let core = self.live.swap_remove(idx);
        let res = self.run_one(
            step,
            RequestKind::Unroute(core.owner),
            TraceOp::Unroute(core.trace_owner),
        );
        match res {
            Ok((_, _, true)) => {
                self.fp.release(core.region_id);
                Ok(true)
            }
            Ok((_, _, false)) => {
                // An unroute of a committed request cannot fail unless
                // state is corrupt; surface it as a count mismatch.
                self.live.push(core);
                self.audit(step)?;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::Family;

    fn cfg(threads: usize) -> ServiceConfig {
        ServiceConfig {
            threads,
            audit: true,
            ..Default::default()
        }
    }

    #[test]
    fn a_short_soak_stays_clean_and_replays() {
        let dev = Device::new(Family::Xcv50);
        let mut sc = ChurnScenario::new(&dev, cfg(2), ChurnParams::default(), 5);
        let mut actions = std::collections::HashSet::new();
        for _ in 0..60 {
            let out = sc.step().expect("no violations");
            actions.insert(out.action);
        }
        assert!(sc.live_cores() >= 2, "the scenario keeps cores live");
        assert!(
            actions.len() >= 3,
            "60 steps should exercise several action kinds, saw {actions:?}"
        );
        // The recorded trace replays into a fresh service onto the
        // identical census.
        let mut fresh = RoutingService::new(&dev, cfg(2));
        sc.trace().replay(&mut fresh).expect("trace replays");
        assert_eq!(fresh.db().census(), sc.svc().db().census());
    }

    #[test]
    fn negotiator_routes_the_live_demand() {
        let dev = Device::new(Family::Xcv50);
        let mut sc = ChurnScenario::new(&dev, cfg(1), ChurnParams::default(), 9);
        for _ in 0..20 {
            sc.step().unwrap();
        }
        let res = sc
            .negotiate(&PathFinderConfig::default())
            .expect("pins resolve");
        assert!(res.legal, "live demand must be routable from scratch");
        assert_eq!(res.nets.len(), sc.live_nets());
    }
}
