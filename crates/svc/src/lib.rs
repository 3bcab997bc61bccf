//! `jroute-svc` — batch/async routing service front-end.
//!
//! JRoute's run-time reconfiguration model (paper §3, §5) makes the
//! router a *service*: cores come and go while the design runs, and each
//! change is a burst of route / unroute / replace operations whose
//! latency is application latency. This crate provides that front-end
//! over the ordered routing engine in `jroute::parallel`:
//!
//! * a bounded submission queue ([`RoutingService::submit`]) with
//!   backpressure ([`QueueFull`]), per-request ids, priorities and
//!   deadlines;
//! * batch execution ([`RoutingService::run_batch`]): requests commit
//!   one at a time in `(priority, submission)` order, while their maze
//!   searches run in parallel waves of requests whose search regions
//!   are disjoint;
//! * cancellation ([`CancelToken`]) and deadline expiry: an abandoned
//!   request stops searching and changes nothing, and a `Replace`
//!   changes the database only once every replacement has a path;
//! * determinism by construction: a batch is a serialization in
//!   `(priority, submission)` order at every worker count, so replaying
//!   its log through [`model::SequentialModel`] reproduces the service's
//!   net database exactly;
//! * `jroute-obs` spans and counters for queue depth, waves, stale
//!   re-searches and per-request latency.
//!
//! ```
//! use jroute_svc::{RequestKind, RoutingService, ServiceConfig};
//! use jroute::pathfinder::NetSpec;
//! use jroute::Pin;
//! use virtex::{wire, Device, Family};
//!
//! let dev = Device::new(Family::Xcv50);
//! let mut svc = RoutingService::new(&dev, ServiceConfig::default());
//! let id = svc
//!     .submit(RequestKind::Route(NetSpec::new(
//!         Pin::new(2, 2, wire::S0_YQ),
//!         vec![Pin::new(4, 6, wire::S0_F3)],
//!     )))
//!     .unwrap();
//! let report = svc.run_batch();
//! assert!(report.outcome(id).unwrap().is_success());
//! ```

pub mod model;
mod request;
pub mod server;
pub mod trace;

pub use request::{
    BatchReport, CancelToken, Deadline, LogEntry, QueueFull, Reject, Request, RequestId,
    RequestKind, RequestOutcome, TenantId,
};
pub use server::{
    serve, ExecMode, FaultPlan, ServerClient, ServerConfig, ServerLogEntry, ServerOutcome,
    ServerReport, TenantHandle, TenantReport, Ticket,
};
pub use trace::{ReplaySummary, Trace, TraceError, TraceId, TraceOp, TraceReq};

use jroute::maze::MazeConfig;
use jroute::parallel::{Abandon, Committed, Engine, Job, RouteFail};
use jroute::pathfinder::{self, NetSpec, PathFinderConfig, PathFinderResult};
use jroute::schedule::WaveExec;
use jroute::{NetDb, NetId, ScratchPool};
use jroute_obs::{Aggregator, Counter, Gauge, Histo, Recorder};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;
use virtex::Device;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads a batch's search waves run on. Results are the
    /// same at every width.
    pub threads: usize,
    /// Maze options shared by every request.
    pub maze: MazeConfig,
    /// Bounded submission-queue capacity; [`RoutingService::submit`]
    /// fails with [`QueueFull`] beyond it.
    pub queue_capacity: usize,
    /// After each batch, check the net database against the nets the
    /// committed requests hold and report disagreements in
    /// [`BatchReport::leaked_segments`]. An O(segment-space) scan —
    /// cheap next to routing, but off by default for benches.
    pub audit: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            maze: MazeConfig::default(),
            queue_capacity: 1024,
            audit: cfg!(debug_assertions),
        }
    }
}

/// The batch routing service: a submission queue, a net database of
/// committed state, and the batch executor.
#[derive(Debug)]
pub struct RoutingService<'d> {
    dev: &'d Device,
    cfg: ServiceConfig,
    db: NetDb,
    pending: VecDeque<Request>,
    /// Nets each committed request produced — the victim namespace for
    /// `Unroute`/`Replace`.
    committed: HashMap<RequestId, Vec<NetId>>,
    next_id: RequestId,
    /// Maze scratch kept across batches, so a batch allocates none.
    pool: ScratchPool,
    obs: Recorder,
    meters: SvcMeters,
    /// Rolling per-batch time-series (queue depth, batch latency
    /// quantiles, wave and re-search rates) — `Some` iff the recorder is
    /// enabled; ticked once at the end of every `run_batch`.
    window: Option<Aggregator>,
}

/// Pre-registered sharded-registry handles for the service's hot
/// batch-loop metrics: no string-keyed map lookups while a batch runs.
#[derive(Debug, Clone)]
struct SvcMeters {
    batches: Counter,
    executed: Counter,
    waves: Counter,
    researched: Counter,
    queue_depth: Gauge,
    /// Queue depth after each submission.
    queue_depths: Histo,
    batch_ns: Histo,
    request_ns: Histo,
    /// One counter per terminal outcome, in [`OUTCOME_COUNTERS`] order.
    outcomes: [Counter; 7],
}

/// Report names of the per-outcome counters.
const OUTCOME_COUNTERS: [&str; 7] = [
    "svc.routed",
    "svc.unrouted",
    "svc.replaced",
    "svc.cancelled",
    "svc.expired",
    "svc.congested",
    "svc.rejected",
];

impl SvcMeters {
    fn resolve(obs: &Recorder) -> Self {
        SvcMeters {
            batches: obs.counter("svc.batches"),
            executed: obs.counter("svc.executed"),
            waves: obs.counter("svc.waves"),
            researched: obs.counter("svc.researched"),
            queue_depth: obs.gauge("svc.queue_depth_now"),
            queue_depths: obs.histogram("svc.queue_depth"),
            batch_ns: obs.histogram("svc.batch_ns"),
            request_ns: obs.histogram("svc.request_ns"),
            outcomes: OUTCOME_COUNTERS.map(|name| obs.counter(name)),
        }
    }

    /// The counter `outcome` tallies under.
    fn outcome(&self, outcome: &RequestOutcome) -> &Counter {
        let slot = match outcome {
            RequestOutcome::Routed { .. } => 0,
            RequestOutcome::Unrouted { .. } => 1,
            RequestOutcome::Replaced { .. } => 2,
            RequestOutcome::Cancelled => 3,
            RequestOutcome::Expired => 4,
            RequestOutcome::Congested { .. } => 5,
            RequestOutcome::Rejected(_) => 6,
        };
        &self.outcomes[slot]
    }
}

/// How many per-batch samples the service's rolling window retains.
const WINDOW_SAMPLES: usize = 256;

/// Whether a request at commit step `step` of a batch started at
/// `started` is past its deadline.
fn expired(deadline: Option<Deadline>, step: usize, started: Instant) -> bool {
    match deadline {
        None => false,
        Some(Deadline::Steps(s)) => step as u64 >= s,
        Some(Deadline::Elapsed(d)) => started.elapsed() >= d,
    }
}

/// The committed requests `kind` tears down.
pub(crate) fn targets(kind: &RequestKind) -> &[RequestId] {
    match kind {
        RequestKind::Route(_) => &[],
        RequestKind::Unroute(t) => std::slice::from_ref(t),
        RequestKind::Replace { remove, .. } => remove,
    }
}

/// Record a committed request in the victim namespace and describe it.
fn record(
    committed: &mut HashMap<RequestId, Vec<NetId>>,
    req: &Request,
    done: Committed,
) -> RequestOutcome {
    for t in targets(&req.kind) {
        committed.remove(t);
    }
    let added: Vec<NetId> = done.added.iter().map(|&(id, _)| id).collect();
    match &req.kind {
        RequestKind::Route(_) => {
            let (net, routed) = &done.added[0];
            committed.insert(req.id, added);
            RequestOutcome::Routed {
                net: *net,
                segments: routed.segments.len() + 1,
            }
        }
        RequestKind::Unroute(_) => RequestOutcome::Unrouted { nets: done.removed },
        RequestKind::Replace { .. } => {
            committed.insert(req.id, added.clone());
            RequestOutcome::Replaced {
                removed: done.removed,
                added,
            }
        }
    }
}

impl<'d> RoutingService<'d> {
    /// New service over one device with a disabled recorder.
    pub fn new(dev: &'d Device, cfg: ServiceConfig) -> Self {
        Self::with_recorder(dev, cfg, Recorder::disabled())
    }

    /// New service with an observability recorder; every batch emits
    /// `svc.*` spans, counters and histograms through it.
    pub fn with_recorder(dev: &'d Device, cfg: ServiceConfig, obs: Recorder) -> Self {
        let meters = SvcMeters::resolve(&obs);
        let window = obs.is_enabled().then(|| {
            let mut w = Aggregator::new(WINDOW_SAMPLES);
            w.track_gauge("svc.queue_depth", meters.queue_depth.clone());
            w.track_histogram("svc.batch_ns", meters.batch_ns.clone());
            w.track_counter("svc.executed", meters.executed.clone());
            w.track_counter("svc.waves", meters.waves.clone());
            w.track_counter("svc.researched", meters.researched.clone());
            w.track_counter(
                "pathfinder.nets_rerouted",
                obs.counter("pathfinder.nets_rerouted"),
            );
            // Wave telemetry from the unified partition-parallel engine:
            // how many barriers each negotiation needed, how wide its
            // waves ran, and how many nets the partitioner had to
            // serialize (straddlers + cliques).
            w.track_counter("pathfinder.waves", obs.counter("pathfinder.waves"));
            w.track_counter(
                "pathfinder.partition_conflicts",
                obs.counter("pathfinder.partition_conflicts"),
            );
            w.track_histogram(
                "pathfinder.wave_size",
                obs.histogram("pathfinder.wave_size"),
            );
            // Timing-driven telemetry: the per-iteration criticality
            // distribution.
            w.track_gauge("pathfinder.crit_max", obs.gauge("pathfinder.crit_max"));
            w.track_gauge("pathfinder.crit_p99", obs.gauge("pathfinder.crit_p99"));
            w.track_histogram("pathfinder.crit", obs.histogram("pathfinder.crit"));
            w
        });
        RoutingService {
            dev,
            cfg,
            db: NetDb::new(dev.seg_space()),
            pending: VecDeque::new(),
            committed: HashMap::new(),
            next_id: 0,
            pool: ScratchPool::new(),
            obs,
            meters,
            window,
        }
    }

    /// The committed net database.
    pub fn db(&self) -> &NetDb {
        &self.db
    }

    /// The device this service routes on.
    pub fn device(&self) -> &'d Device {
        self.dev
    }

    /// Resize the worker set future batches search on — how the
    /// multi-tenant server applies its per-batch [`ThreadBudget`]
    /// lease. Never changes results.
    ///
    /// [`ThreadBudget`]: jroute::schedule::ThreadBudget
    pub(crate) fn set_threads(&mut self, threads: usize) {
        self.cfg.threads = threads.max(1);
    }

    /// The recorder batches report through.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Run the unified partition-parallel negotiator over `specs` on the
    /// service's worker count (results are identical at every width —
    /// the engine is deterministic by construction).
    ///
    /// This is how `Replace`-heavy scenarios cross-check their live
    /// demand (see the churn workload): the negotiation shares the
    /// service recorder, so its wave/search telemetry lands in the
    /// service's rolling window.
    pub fn negotiate(
        &self,
        specs: &[NetSpec],
        cfg: &PathFinderConfig,
    ) -> jroute::Result<PathFinderResult> {
        let cfg = PathFinderConfig {
            threads: self.cfg.threads,
            ..cfg.clone()
        };
        pathfinder::route_all_obs(self.dev, specs, &cfg, &self.obs)
    }

    /// The rolling per-batch time-series (one sample appended at the end
    /// of every non-empty `run_batch`): queue depth at submission peak,
    /// batch latency p50/p99, executed/wave/re-search deltas and
    /// nets rerouted by negotiation. `None` when the recorder is
    /// disabled.
    pub fn window(&self) -> Option<&Aggregator> {
        self.window.as_ref()
    }

    /// Queued (not yet executed) requests.
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Nets a committed request produced, if it is still committed.
    pub fn nets_of(&self, id: RequestId) -> Option<&[NetId]> {
        self.committed.get(&id).map(|v| v.as_slice())
    }

    /// Submit with default priority (128) and no deadline.
    pub fn submit(&mut self, kind: RequestKind) -> Result<RequestId, QueueFull> {
        self.submit_with(kind, 128, None).map(|(id, _)| id)
    }

    /// Submit with explicit priority (lower runs earlier) and optional
    /// deadline. Returns the request id and its cancellation token.
    pub fn submit_with(
        &mut self,
        kind: RequestKind,
        priority: u8,
        deadline: Option<Deadline>,
    ) -> Result<(RequestId, CancelToken), QueueFull> {
        if self.pending.len() >= self.cfg.queue_capacity {
            return Err(QueueFull {
                capacity: self.cfg.queue_capacity,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        let cancel = Arc::new(AtomicBool::new(false));
        let req = self.request(id, kind, priority, deadline, Arc::clone(&cancel));
        self.pending.push_back(req);
        self.meters.queue_depths.record(self.pending.len() as u64);
        self.meters.queue_depth.set(self.pending.len() as u64);
        Ok((id, CancelToken(cancel)))
    }

    /// A request with the given id and cancellation flag. The server
    /// front-end calls this at batch time with the admission id and the
    /// flag it minted at admission (so a request can be cancelled while
    /// still in the server's queue).
    pub(crate) fn request(
        &self,
        id: RequestId,
        kind: RequestKind,
        priority: u8,
        deadline: Option<Deadline>,
        cancel: Arc<AtomicBool>,
    ) -> Request {
        // Mint the request's causal root here: everything the request
        // causes — its search on whichever worker, a commit re-search,
        // every maze search — links back to this span's trace id.
        let mut root = self.obs.span_root("svc.request");
        root.note(id);
        Request {
            id,
            priority,
            deadline,
            kind,
            cancel,
            ctx: root.ctx(),
        }
    }

    /// Cancellation token for a queued request (e.g. when the id came
    /// from [`RoutingService::submit`]).
    pub fn cancel_token(&self, id: RequestId) -> Option<CancelToken> {
        self.pending
            .iter()
            .find(|r| r.id == id)
            .map(|r| CancelToken(Arc::clone(&r.cancel)))
    }

    /// Drain the queue and execute everything as one batch.
    ///
    /// Requests commit one at a time in priority order (ties by request
    /// id, which is submission order), each against the state every
    /// earlier request left; their searches run ahead in parallel waves
    /// ([`jroute::parallel::Engine`]). Successful requests change the
    /// database, everything else leaves no trace. The report carries one
    /// terminal outcome per drained request plus the commit log.
    pub fn run_batch(&mut self) -> BatchReport {
        // The gauge keeps the pre-drain depth until after the window
        // tick, so each sample reports the depth this batch consumed.
        let requests = self.pending.drain(..).collect();
        self.run(requests)
    }

    /// Execute `requests` as one batch, as [`RoutingService::run_batch`]
    /// describes. Their ids must be distinct; `Unroute`/`Replace`
    /// victims name ids of earlier batches.
    pub(crate) fn run(&mut self, mut requests: Vec<Request>) -> BatchReport {
        let mut span = self.obs.span_root("svc.batch");
        let batch_started = self.obs.elapsed_ns();
        let started = Instant::now();
        span.note(requests.len() as u64);
        requests.sort_by_key(|r| (r.priority, r.id));
        if requests.is_empty() {
            return BatchReport {
                outcomes: Vec::new(),
                log: Vec::new(),
                researched: 0,
                leaked_segments: self.cfg.audit.then_some(0),
            };
        }

        // Victims resolve against the commitments the batch starts from;
        // the commit loop below re-checks that no earlier request of the
        // batch consumed them.
        let plans: Vec<Result<Vec<NetId>, Reject>> = requests
            .iter()
            .map(|req| self.resolve(targets(&req.kind)))
            .collect();
        let jobs = requests
            .iter()
            .zip(&plans)
            .enumerate()
            .map(|(k, (req, plan))| {
                let victims = plan.as_ref().ok()?.clone();
                if req.is_cancelled() || expired(req.deadline, k, started) {
                    return None;
                }
                let specs: &[NetSpec] = match &req.kind {
                    RequestKind::Route(spec) => std::slice::from_ref(spec),
                    RequestKind::Unroute(_) => &[],
                    RequestKind::Replace { add, .. } => add,
                };
                let deadline = match req.deadline {
                    Some(Deadline::Elapsed(d)) => Some(started + d),
                    _ => None,
                };
                Some(Job {
                    victims,
                    specs,
                    ctx: req.ctx,
                    abandon: Abandon {
                        cancel: Some(&req.cancel),
                        deadline,
                    },
                })
            })
            .collect();
        let exec = WaveExec {
            threads: self.cfg.threads,
        };
        let mut engine = Engine::new(
            self.dev,
            &self.db,
            jobs,
            &self.cfg.maze,
            exec,
            &self.pool,
            &self.obs,
            "svc.exec",
        );

        let mut outcomes = Vec::with_capacity(requests.len());
        let mut log = Vec::with_capacity(requests.len());
        for (k, (req, plan)) in requests.iter().zip(plans).enumerate() {
            let decided = if req.is_cancelled() {
                Some(RequestOutcome::Cancelled)
            } else if expired(req.deadline, k, started) {
                Some(RequestOutcome::Expired)
            } else if let Err(reject) = plan {
                Some(RequestOutcome::Rejected(reject))
            } else {
                targets(&req.kind)
                    .iter()
                    .find(|t| !self.committed.contains_key(t))
                    .map(|&t| RequestOutcome::Rejected(Reject::UnknownTarget(t)))
            };
            let outcome = match decided {
                Some(outcome) => {
                    engine.skip(k);
                    outcome
                }
                None => match engine.commit(k, &mut self.db) {
                    Ok(done) => record(&mut self.committed, req, done),
                    Err(_) if req.is_cancelled() => RequestOutcome::Cancelled,
                    Err(_) if expired(req.deadline, k, started) => RequestOutcome::Expired,
                    Err(RouteFail::NoPath) => RequestOutcome::Congested {},
                    Err(RouteFail::BadWire) => RequestOutcome::Rejected(Reject::BadWire),
                },
            };
            self.meters.request_ns.record_duration(started.elapsed());
            log.push(LogEntry {
                step: k as u64,
                request: req.id,
            });
            outcomes.push((req.id, outcome));
        }
        let stats = engine.stats();
        drop(engine);
        let leaked_segments = self.cfg.audit.then(|| self.audit());

        self.meters.batches.inc();
        self.meters.executed.add(requests.len() as u64);
        self.meters.waves.add(stats.waves);
        self.meters.researched.add(stats.researched);
        for (_, o) in &outcomes {
            self.meters.outcome(o).inc();
        }
        let now = self.obs.elapsed_ns();
        self.meters
            .batch_ns
            .record(now.saturating_sub(batch_started));
        if let Some(w) = self.window.as_mut() {
            w.tick(now);
        }
        self.meters.queue_depth.set(self.pending.len() as u64);
        outcomes.sort_by_key(|&(id, _)| id);
        BatchReport {
            outcomes,
            log,
            researched: stats.researched,
            leaked_segments,
        }
    }

    /// The nets `targets` name, against the current commitments. A
    /// target that is not committed, or named twice, is unknown.
    fn resolve(&self, targets: &[RequestId]) -> Result<Vec<NetId>, Reject> {
        let mut nets = Vec::new();
        for (i, &t) in targets.iter().enumerate() {
            let held = self
                .committed
                .get(&t)
                .filter(|_| !targets[..i].contains(&t));
            nets.extend_from_slice(held.ok_or(Reject::UnknownTarget(t))?);
        }
        Ok(nets)
    }

    /// Post-batch bookkeeping check: segments the database holds for no
    /// committed request, plus committed nets missing from the database.
    fn audit(&self) -> usize {
        let held: HashSet<NetId> = self.committed.values().flatten().copied().collect();
        let stray = self
            .db
            .iter_used()
            .filter(|(_, id)| !held.contains(id))
            .count();
        let lost = held.iter().filter(|&&id| self.db.net(id).is_none()).count();
        stray + lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jroute::pathfinder::NetSpec;
    use jroute::Pin;
    use virtex::{wire, Device, Family};

    fn dev() -> Device {
        Device::new(Family::Xcv50)
    }

    fn cfg(threads: usize) -> ServiceConfig {
        ServiceConfig {
            threads,
            audit: true,
            ..Default::default()
        }
    }

    fn spec(i: usize) -> NetSpec {
        let r = (2 + (i * 3) % 12) as u16;
        let c = (2 + (i * 5) % 16) as u16;
        NetSpec::new(
            Pin::new(r, c, wire::S0_YQ),
            vec![Pin::new(r + 2, c + 4, wire::S0_F3)],
        )
    }

    #[test]
    fn route_then_unroute_roundtrip() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, cfg(2));
        let id = svc.submit(RequestKind::Route(spec(0))).unwrap();
        let report = svc.run_batch();
        assert!(matches!(
            report.outcome(id),
            Some(RequestOutcome::Routed { .. })
        ));
        assert_eq!(report.leaked_segments, Some(0));
        assert_eq!(svc.db().len(), 1);
        assert!(svc.db().used_segments() > 0);

        let un = svc.submit(RequestKind::Unroute(id)).unwrap();
        let report = svc.run_batch();
        assert!(matches!(
            report.outcome(un),
            Some(RequestOutcome::Unrouted { .. })
        ));
        assert_eq!(report.leaked_segments, Some(0));
        assert!(svc.db().is_empty());
        assert_eq!(svc.db().used_segments(), 0);
        assert!(svc.nets_of(id).is_none(), "victim entry retired");
    }

    #[test]
    fn replace_swaps_nets() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, cfg(2));
        let a = svc.submit(RequestKind::Route(spec(0))).unwrap();
        svc.run_batch();
        let old_net = svc.nets_of(a).unwrap()[0];

        let r = svc
            .submit(RequestKind::Replace {
                remove: vec![a],
                add: vec![spec(1), spec(2)],
            })
            .unwrap();
        let report = svc.run_batch();
        match report.outcome(r) {
            Some(RequestOutcome::Replaced { removed, added }) => {
                assert_eq!(removed, &vec![old_net]);
                assert_eq!(added.len(), 2);
            }
            other => panic!("expected Replaced, got {other:?}"),
        }
        assert_eq!(report.leaked_segments, Some(0));
        assert_eq!(svc.db().len(), 2);
        assert!(svc.db().net(old_net).is_none());
    }

    #[test]
    fn replace_rolls_back_when_an_add_cannot_route() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, cfg(2));
        let a = svc.submit(RequestKind::Route(spec(0))).unwrap();
        svc.run_batch();
        let before = svc.db().census();

        // Second add names a wire off the device: the whole request must
        // reject and the victim must keep every segment.
        let r = svc
            .submit(RequestKind::Replace {
                remove: vec![a],
                add: vec![
                    spec(1),
                    NetSpec::new(
                        Pin::new(2, 2, wire::S1_YQ),
                        vec![Pin::new(200, 200, wire::S0_F3)],
                    ),
                ],
            })
            .unwrap();
        let report = svc.run_batch();
        assert!(matches!(
            report.outcome(r),
            Some(RequestOutcome::Rejected(Reject::BadWire))
        ));
        assert_eq!(report.leaked_segments, Some(0));
        assert_eq!(svc.db().census(), before, "victim state must be intact");
        assert!(svc.nets_of(a).is_some(), "victim request still committed");
    }

    #[test]
    fn bounded_queue_pushes_back() {
        let dev = dev();
        let mut svc = RoutingService::new(
            &dev,
            ServiceConfig {
                queue_capacity: 2,
                ..cfg(1)
            },
        );
        svc.submit(RequestKind::Route(spec(0))).unwrap();
        svc.submit(RequestKind::Route(spec(1))).unwrap();
        let err = svc.submit(RequestKind::Route(spec(2))).unwrap_err();
        assert_eq!(err, QueueFull { capacity: 2 });
        // Draining the queue restores capacity.
        svc.run_batch();
        svc.submit(RequestKind::Route(spec(2))).unwrap();
    }

    #[test]
    fn cancelled_request_leaves_no_trace() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, cfg(2));
        let (id, token) = svc
            .submit_with(RequestKind::Route(spec(0)), 128, None)
            .unwrap();
        token.cancel();
        assert!(svc.cancel_token(id).unwrap().is_cancelled());
        let report = svc.run_batch();
        assert_eq!(report.outcome(id), Some(&RequestOutcome::Cancelled));
        assert_eq!(report.leaked_segments, Some(0));
        assert!(svc.db().is_empty());
    }

    #[test]
    fn zero_step_deadline_expires() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, cfg(1));
        let (id, _) = svc
            .submit_with(RequestKind::Route(spec(0)), 128, Some(Deadline::Steps(0)))
            .unwrap();
        let report = svc.run_batch();
        assert_eq!(report.outcome(id), Some(&RequestOutcome::Expired));
        assert_eq!(report.leaked_segments, Some(0));
        assert!(svc.db().is_empty());
    }

    #[test]
    fn unknown_victims_are_rejected() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, cfg(1));
        let un = svc.submit(RequestKind::Unroute(999)).unwrap();
        let a = svc.submit(RequestKind::Route(spec(0))).unwrap();
        let b = svc.submit(RequestKind::Route(spec(5))).unwrap();
        let report = svc.run_batch();
        assert_eq!(
            report.outcome(un),
            Some(&RequestOutcome::Rejected(Reject::UnknownTarget(999)))
        );
        let before = svc.db().census();
        let a_net = svc.nets_of(a).unwrap()[0];

        // A Replace that names its victim twice is refused whole, and the
        // victim keeps its net and every segment.
        let twice = svc
            .submit(RequestKind::Replace {
                remove: vec![a, a],
                add: vec![],
            })
            .unwrap();
        let report = svc.run_batch();
        assert_eq!(
            report.outcome(twice),
            Some(&RequestOutcome::Rejected(Reject::UnknownTarget(a)))
        );
        assert_eq!(svc.nets_of(a), Some(&[a_net][..]));
        assert_eq!(svc.db().census(), before, "victim state must be intact");

        // Two requests of one batch name the same victim: the earlier
        // consumes it at its commit, the later is refused.
        let u1 = svc.submit(RequestKind::Unroute(a)).unwrap();
        let u2 = svc.submit(RequestKind::Unroute(a)).unwrap();
        let r1 = svc
            .submit(RequestKind::Replace {
                remove: vec![b],
                add: vec![spec(6)],
            })
            .unwrap();
        let r2 = svc
            .submit(RequestKind::Replace {
                remove: vec![b],
                add: vec![spec(7)],
            })
            .unwrap();
        let report = svc.run_batch();
        assert!(report.outcome(u1).unwrap().is_success());
        assert_eq!(
            report.outcome(u2),
            Some(&RequestOutcome::Rejected(Reject::UnknownTarget(a)))
        );
        assert!(report.outcome(r1).unwrap().is_success());
        assert_eq!(
            report.outcome(r2),
            Some(&RequestOutcome::Rejected(Reject::UnknownTarget(b)))
        );
        assert_eq!(report.leaked_segments, Some(0));
        assert_eq!(svc.db().len(), 1, "only r1's replacement remains");
    }

    #[test]
    fn same_seed_reproduces_schedule_and_state() {
        let dev = dev();
        let run = |threads: usize| {
            let mut svc = RoutingService::new(&dev, cfg(threads));
            let mut rng = detrand::DetRng::seed_from_u64(0xDEAD);
            for i in 0..8 {
                let priority = rng.gen_range(0u32..4) as u8;
                svc.submit_with(RequestKind::Route(spec(i)), priority, None)
                    .unwrap();
            }
            let report = svc.run_batch();
            (report.log, svc.db().census())
        };
        let one = run(1);
        assert_eq!(one, run(1), "same seed, same log and state");
        assert_eq!(one, run(4), "and at every width");
    }

    #[test]
    fn priority_runs_most_urgent_first() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, cfg(1));
        let lazy = svc
            .submit_with(RequestKind::Route(spec(0)), 200, None)
            .unwrap()
            .0;
        let urgent = svc
            .submit_with(RequestKind::Route(spec(1)), 10, None)
            .unwrap()
            .0;
        let report = svc.run_batch();
        assert_eq!(report.log[0].request, urgent);
        assert_eq!(report.log[1].request, lazy);
    }

    #[test]
    fn threaded_mode_commits_disjoint_nets() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, cfg(4));
        for i in 0..12 {
            svc.submit(RequestKind::Route(spec(i))).unwrap();
        }
        let report = svc.run_batch();
        assert_eq!(report.leaked_segments, Some(0));
        let mut seen = HashSet::new();
        for (seg, _) in svc.db().iter_used() {
            assert!(seen.insert(seg), "segment {seg} owned twice");
        }
        assert!(report.outcomes.iter().all(|(_, o)| o.is_success()));
    }

    #[test]
    fn deterministic_log_replays_through_the_model() {
        let dev = dev();
        let mut svc = RoutingService::new(&dev, cfg(3));
        let mut subs = Vec::new();
        for i in 0..6 {
            subs.push(svc.submit(RequestKind::Route(spec(i))).unwrap());
        }
        // Mix in an unroute of the first request via a second batch to
        // exercise victim resolution as well.
        let report = svc.run_batch();
        assert!(report.outcomes.iter().all(|(_, o)| o.is_success()));
        let requests: HashMap<RequestId, RequestKind> = subs
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, RequestKind::Route(spec(i))))
            .collect();
        let mut m = model::SequentialModel::new(&dev, MazeConfig::default());
        for entry in &report.log {
            m.apply(entry.request, &requests[&entry.request]);
        }
        assert_eq!(m.db().census(), svc.db().census());
    }
}
