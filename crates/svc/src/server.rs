//! Async multi-tenant routing server over [`RoutingService`].
//!
//! JRoute's end state is routing as a long-running *service*: many
//! independent reconfigurable cores (tenants), each owning a device
//! shard, issuing route/unroute/replace calls concurrently while the
//! designs run (paper §1, §3; the JIT-overlay line in PAPERS.md). This
//! module grows the synchronous `run_batch` front-end into that shape:
//!
//! * **channel-fed driver loop** — producer handles
//!   ([`TenantHandle::submit`]) send admissions into one MPSC channel; a
//!   driver thread forms per-tenant batches by size watermark
//!   ([`ServerConfig::batch_max`]) and age watermark
//!   ([`ServerConfig::batch_wait`], counted in *logical steps* = global
//!   admissions processed), and dispatches them to per-tenant executor
//!   threads — so a long maze search on one tenant never stalls another
//!   tenant's queued unroutes, and batch `k+1` forms while batch `k`
//!   routes (pipelining);
//! * **tenancy** — each tenant owns a `Bitstream`-backed device and a
//!   [`NetDb`](jroute::NetDb) shard behind its own [`RoutingService`];
//!   executors share the machine through a
//!   [`ThreadBudget`](jroute::schedule::ThreadBudget) so the sum of
//!   concurrently routing workers respects [`ServerConfig::threads`];
//! * **admission control** — a bounded per-tenant gate rejects
//!   [`QueueFull`] synchronously at `submit`, the depth draining as
//!   requests reach terminal outcomes;
//! * **observability** — per-tenant labelled families
//!   (`svc.server.*{tenant="t"}`, see [`jroute_obs::labeled`]) flow
//!   through the sharded registry into an [`Aggregator`] window and the
//!   Prometheus exposition;
//! * **determinism** — every tenant batch is a serialization in
//!   `(priority, admission)` order whatever width its executor leased,
//!   so results depend only on where batches are cut. In
//!   [`ExecMode::Deterministic`] the driver blocks on the channel (no
//!   wall-clock flushes), so batch boundaries are a pure function of the
//!   admission sequence and a fixed submission trace is bit-replayable
//!   across any [`ServerConfig::threads`] and
//!   [`ServerConfig::tenant_threads`].
//!
//! Faults are contained per batch: a panic while a tenant's batch
//! executes (exercised via [`FaultPlan`]) marks that tenant *poisoned* —
//! the batch's tickets resolve [`ServerOutcome::Poisoned`], subsequent
//! admissions for that tenant answer `Poisoned` immediately, and every
//! other tenant keeps serving.

use crate::request::{Deadline, QueueFull, RequestId, RequestKind, RequestOutcome, TenantId};
use crate::trace::{Trace, TraceError, TraceOp};
use crate::{CancelToken, RoutingService, ServiceConfig};
use jroute::maze::MazeConfig;
use jroute::schedule::ThreadBudget;
use jroute::NetId;
use jroute_obs::{labeled, Aggregator, Counter, Gauge, Histo, Recorder};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use virtex::{Device, Segment};

/// Fault-injection plan for driver-loop tests: panic the executing
/// worker when the named admission reaches execution, mid-batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Panic while the batch containing admission `(tenant, seq)` is
    /// being fed to the tenant's service — after earlier requests in the
    /// batch were admitted, before any completes — so the whole batch is
    /// poisoned.
    pub panic_on: Option<(TenantId, u64)>,
}

/// How the server driver cuts batches. Results never depend on the
/// worker count, only on where batches are cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Watermark cuts plus a flush whenever the admission channel has
    /// been idle for 1 ms, so a quiet server drains promptly. Batch
    /// boundaries then depend on arrival timing.
    Threaded,
    /// Watermark cuts and explicit [`TenantHandle::flush`] only: batch
    /// boundaries are a pure function of the admission sequence.
    Deterministic,
}

/// Multi-tenant server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shared routing-pool width: the budgeted sum of worker threads
    /// across all tenants routing concurrently. Affects wall clock only,
    /// never results.
    pub threads: usize,
    /// Widest lease one tenant's executor takes from the pool per batch.
    pub tenant_threads: usize,
    /// Maze options shared by every tenant.
    pub maze: MazeConfig,
    /// Per-tenant admission-gate capacity; [`TenantHandle::submit`]
    /// fails with [`QueueFull`] beyond it.
    pub queue_capacity: usize,
    /// How the driver cuts batches.
    pub mode: ExecMode,
    /// Post-batch bookkeeping audits on every tenant service.
    pub audit: bool,
    /// Size watermark: an admission that fills a tenant's forming batch
    /// to this many requests cuts it immediately.
    pub batch_max: usize,
    /// Age watermark in logical steps (global admissions processed): a
    /// forming batch whose oldest request has waited this many steps is
    /// cut at the next step. Threaded mode additionally flushes pending
    /// batches on channel-idle timeouts, so a quiet server still makes
    /// progress; deterministic mode cuts on logical steps and explicit
    /// [`TenantHandle::flush`] only.
    pub batch_wait: u64,
    /// Fault injection (tests only; default = no faults).
    pub fault: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            tenant_threads: 2,
            maze: MazeConfig::default(),
            queue_capacity: 1024,
            mode: ExecMode::Threaded,
            audit: cfg!(debug_assertions),
            batch_max: 32,
            batch_wait: 8,
            fault: FaultPlan::default(),
        }
    }
}

/// The [`ServiceConfig`] every tenant's executor runs under — public so
/// replay-fidelity tests can drive a standalone [`RoutingService`] with
/// the exact policy the server uses.
pub fn tenant_service_config(cfg: &ServerConfig) -> ServiceConfig {
    ServiceConfig {
        threads: cfg.tenant_threads.max(1),
        maze: cfg.maze.clone(),
        // A cut batch is fed to the service whole, so the service queue
        // must hold at least one full batch.
        queue_capacity: cfg.queue_capacity.max(cfg.batch_max).max(1),
        audit: cfg.audit,
    }
}

// ----------------------------------------------------------------------
// Batch former
// ----------------------------------------------------------------------

/// Pure per-tenant batch former: accumulates items and cuts batches on
/// the size watermark, the age watermark (in the caller's logical
/// clock), or an explicit flush. No wall clock anywhere — the driver
/// owns time, which is what keeps batch boundaries replayable.
#[derive(Debug)]
pub struct BatchFormer<T> {
    max: usize,
    wait: u64,
    pending: Vec<(u64, T)>,
}

impl<T> BatchFormer<T> {
    /// A former cutting at `max` items or `wait` logical steps of age.
    pub fn new(max: usize, wait: u64) -> Self {
        BatchFormer {
            max: max.max(1),
            wait,
            pending: Vec::new(),
        }
    }

    /// Accept one item admitted at logical step `now`; returns the cut
    /// batch when this item fills it to the size watermark.
    pub fn push(&mut self, now: u64, item: T) -> Option<Vec<T>> {
        self.pending.push((now, item));
        (self.pending.len() >= self.max).then(|| self.take())
    }

    /// Whether the oldest pending item has aged to the watermark at
    /// logical step `now`.
    pub fn due(&self, now: u64) -> bool {
        self.pending
            .first()
            .is_some_and(|&(at, _)| now.saturating_sub(at) >= self.wait)
    }

    /// Cut whatever is pending (empty → `None`).
    pub fn flush(&mut self) -> Option<Vec<T>> {
        (!self.pending.is_empty()).then(|| self.take())
    }

    /// Items currently pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    fn take(&mut self) -> Vec<T> {
        self.pending.drain(..).map(|(_, item)| item).collect()
    }
}

// ----------------------------------------------------------------------
// Tickets and outcomes
// ----------------------------------------------------------------------

/// Terminal status of one server admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerOutcome {
    /// The request ran to a service outcome (which may itself be a
    /// rejection — see [`RequestOutcome`]).
    Done(RequestOutcome),
    /// The request was in (or behind) a batch whose executor panicked;
    /// its effects, if any, are untrusted and its tenant stopped
    /// serving.
    Poisoned,
}

impl ServerOutcome {
    /// Whether the admission changed its tenant's committed state.
    pub fn is_success(&self) -> bool {
        matches!(self, ServerOutcome::Done(o) if o.is_success())
    }
}

#[derive(Debug, Default)]
struct TicketState {
    slot: Mutex<Option<ServerOutcome>>,
    ready: Condvar,
}

impl TicketState {
    fn fulfill(&self, outcome: ServerOutcome) {
        *self.slot.lock().unwrap() = Some(outcome);
        self.ready.notify_all();
    }
}

/// Handle to one admitted request: its per-tenant id (the victim
/// namespace for later `Unroute`/`Replace` admissions), a cancellation
/// token, and the terminal outcome.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    tenant: TenantId,
    cancel: Arc<AtomicBool>,
    state: Arc<TicketState>,
}

impl Ticket {
    /// Per-tenant admission id. Later admissions of the same tenant name
    /// this request as an `Unroute`/`Replace` victim by this id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant this admission belongs to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Token cancelling this request from any thread — while still
    /// queued in the server (pre-batch), while queued in the tenant
    /// service, or mid-search.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken(Arc::clone(&self.cancel))
    }

    /// The outcome, if already terminal.
    pub fn try_outcome(&self) -> Option<ServerOutcome> {
        self.state.slot.lock().unwrap().clone()
    }

    /// Block until the outcome is terminal. In deterministic mode make
    /// sure the request's batch can cut (watermark or
    /// [`TenantHandle::flush`]) before waiting.
    pub fn wait(&self) -> ServerOutcome {
        let mut slot = self.state.slot.lock().unwrap();
        loop {
            if let Some(outcome) = slot.clone() {
                return outcome;
            }
            slot = self.state.ready.wait(slot).unwrap();
        }
    }
}

// ----------------------------------------------------------------------
// Admission gate and producer handles
// ----------------------------------------------------------------------

/// Per-tenant admission control + submit-side meters.
#[derive(Debug)]
struct TenantGate {
    capacity: usize,
    depth: AtomicUsize,
    next_seq: AtomicU64,
    depth_gauge: Gauge,
    submitted: Counter,
    queue_full: Counter,
}

impl TenantGate {
    /// Reserve one queue slot, or fail with [`QueueFull`].
    fn admit(&self) -> Result<u64, QueueFull> {
        loop {
            let depth = self.depth.load(Ordering::SeqCst);
            if depth >= self.capacity {
                self.queue_full.inc();
                return Err(QueueFull {
                    capacity: self.capacity,
                });
            }
            if self
                .depth
                .compare_exchange(depth, depth + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                self.depth_gauge.set((depth + 1) as u64);
                self.submitted.inc();
                return Ok(self.next_seq.fetch_add(1, Ordering::SeqCst));
            }
        }
    }

    /// Release one slot at a terminal outcome.
    fn release(&self) {
        let before = self.depth.fetch_sub(1, Ordering::SeqCst);
        self.depth_gauge.set(before.saturating_sub(1) as u64);
    }
}

struct Submission {
    tenant: TenantId,
    seq: u64,
    kind: RequestKind,
    priority: u8,
    deadline: Option<Deadline>,
    cancel: Arc<AtomicBool>,
    ticket: Arc<TicketState>,
    submitted_ns: u64,
}

enum Msg {
    Submit(Box<Submission>),
    Flush(TenantId),
}

/// Cloneable producer handle for one tenant. Every clone feeds the same
/// driver loop; dropping the last handle (and the [`ServerClient`])
/// flushes pending batches and shuts the server down.
#[derive(Clone)]
pub struct TenantHandle {
    tenant: TenantId,
    tx: Sender<Msg>,
    gate: Arc<TenantGate>,
    obs: Recorder,
}

impl TenantHandle {
    /// Submit with default priority (128) and no deadline.
    pub fn submit(&self, kind: RequestKind) -> Result<Ticket, QueueFull> {
        self.submit_with(kind, 128, None)
    }

    /// Submit with explicit priority (lower runs earlier) and optional
    /// deadline. `Unroute`/`Replace` victims are named by the
    /// [`Ticket::id`] of this tenant's earlier admissions. Fails
    /// synchronously with [`QueueFull`] when the tenant's admission gate
    /// is at capacity.
    pub fn submit_with(
        &self,
        kind: RequestKind,
        priority: u8,
        deadline: Option<Deadline>,
    ) -> Result<Ticket, QueueFull> {
        let seq = self.gate.admit()?;
        let cancel = Arc::new(AtomicBool::new(false));
        let state = Arc::new(TicketState::default());
        let sub = Submission {
            tenant: self.tenant,
            seq,
            kind,
            priority,
            deadline,
            cancel: Arc::clone(&cancel),
            ticket: Arc::clone(&state),
            submitted_ns: self.obs.elapsed_ns(),
        };
        self.tx
            .send(Msg::Submit(Box::new(sub)))
            .expect("server driver alive while handles exist");
        Ok(Ticket {
            id: seq,
            tenant: self.tenant,
            cancel,
            state,
        })
    }

    /// Cut this tenant's forming batch now, regardless of watermarks.
    pub fn flush(&self) {
        self.tx
            .send(Msg::Flush(self.tenant))
            .expect("server driver alive while handles exist");
    }
}

/// Client-side root handle: mints per-tenant producer handles. Held by
/// the `serve` closure; when the closure returns (dropping this and all
/// [`TenantHandle`] clones), the server flushes and shuts down.
pub struct ServerClient {
    tx: Sender<Msg>,
    gates: Vec<Arc<TenantGate>>,
    obs: Recorder,
}

impl ServerClient {
    /// Number of tenants behind the server.
    pub fn tenants(&self) -> usize {
        self.gates.len()
    }

    /// Producer handle for tenant `tenant`. Panics on an out-of-range
    /// tenant.
    pub fn tenant(&self, tenant: TenantId) -> TenantHandle {
        let gate = Arc::clone(&self.gates[usize::from(tenant)]);
        TenantHandle {
            tenant,
            tx: self.tx.clone(),
            gate,
            obs: self.obs.clone(),
        }
    }
}

// ----------------------------------------------------------------------
// Reports
// ----------------------------------------------------------------------

/// One completion in a tenant's replayable log, in server terms: the
/// admission id (not the internal service [`RequestId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerLogEntry {
    /// 0-based batch index within the tenant.
    pub batch: u64,
    /// Commit step within the batch (the service's replay clock).
    pub step: u64,
    /// The admission ([`Ticket::id`]).
    pub seq: u64,
}

/// Everything one tenant's executor did over the server's lifetime.
#[derive(Debug)]
pub struct TenantReport {
    /// The tenant.
    pub tenant: TenantId,
    /// Batches executed.
    pub batches: u64,
    /// Whether a fault poisoned this tenant (see [`ServerOutcome::Poisoned`]).
    pub poisoned: bool,
    /// Terminal outcome per admission, sorted by admission id.
    pub outcomes: Vec<(u64, ServerOutcome)>,
    /// Decisions across all batches in commit order — replay the
    /// successful entries through
    /// [`SequentialModel`](crate::model::SequentialModel) to reproduce
    /// `census`.
    pub log: Vec<ServerLogEntry>,
    /// Summed audit disagreements across batches (`Some(0)` = clean;
    /// `None` when audits were off).
    pub leaked_segments: Option<usize>,
    /// Final `(segment, net)` census of the tenant's [`NetDb`] shard.
    pub census: Vec<(Segment, NetId)>,
}

impl TenantReport {
    /// Outcome of one admission, if it reached this tenant.
    pub fn outcome(&self, seq: u64) -> Option<&ServerOutcome> {
        self.outcomes
            .binary_search_by_key(&seq, |&(s, _)| s)
            .ok()
            .map(|i| &self.outcomes[i].1)
    }
}

/// Everything the server did: one report per tenant plus the rolling
/// per-batch telemetry window (when the recorder was enabled).
#[derive(Debug)]
pub struct ServerReport {
    /// Per-tenant reports, indexed by tenant id.
    pub tenants: Vec<TenantReport>,
    /// Rolling window over the per-tenant labelled families, ticked once
    /// per dispatched batch.
    pub window: Option<Aggregator>,
}

// ----------------------------------------------------------------------
// The server
// ----------------------------------------------------------------------

/// How many per-batch samples the server's rolling window retains.
const WINDOW_SAMPLES: usize = 256;

/// Executor-side per-tenant meters (labelled families).
struct ExecMeters {
    completed: Counter,
    batches: Counter,
    request_ns: Histo,
}

/// Run a multi-tenant routing server over `devices` (one tenant per
/// device, tenant `t` = `devices[t]`) and hand the client closure its
/// [`ServerClient`]. The server runs for exactly the closure's lifetime:
/// when it returns, pending batches flush, outstanding requests
/// complete, and the per-tenant reports come back with the closure's
/// result.
///
/// The closure runs on the calling thread; driver and tenant executors
/// run on scoped threads behind it. Producer handles are `Clone + Send`,
/// so the closure may fan submissions out across its own threads.
///
/// # Panics
///
/// Panics if `devices` is empty or holds more than `u16::MAX` tenants.
pub fn serve<R>(
    devices: &[&Device],
    cfg: ServerConfig,
    obs: Recorder,
    client: impl FnOnce(&ServerClient) -> R,
) -> (R, ServerReport) {
    assert!(!devices.is_empty(), "server needs at least one tenant");
    assert!(devices.len() <= usize::from(u16::MAX), "too many tenants");
    let budget = Arc::new(ThreadBudget::new(cfg.threads));
    let gates: Vec<Arc<TenantGate>> = (0..devices.len())
        .map(|t| {
            Arc::new(TenantGate {
                capacity: cfg.queue_capacity.max(1),
                depth: AtomicUsize::new(0),
                next_seq: AtomicU64::new(0),
                depth_gauge: obs.gauge(&labeled("svc.server.queue_depth", "tenant", t)),
                submitted: obs.counter(&labeled("svc.server.submitted", "tenant", t)),
                queue_full: obs.counter(&labeled("svc.server.queue_full", "tenant", t)),
            })
        })
        .collect();
    let window = obs.is_enabled().then(|| {
        let mut w = Aggregator::new(WINDOW_SAMPLES);
        for t in 0..devices.len() {
            let depth = labeled("svc.server.queue_depth", "tenant", t);
            w.track_gauge(depth.clone(), obs.gauge(&depth));
            for name in [
                "svc.server.submitted",
                "svc.server.completed",
                "svc.server.batches",
                "svc.server.queue_full",
            ] {
                w.track_counter(
                    labeled(name, "tenant", t),
                    obs.counter(&labeled(name, "tenant", t)),
                );
            }
            w.track_histogram(
                labeled("svc.server.request_ns", "tenant", t),
                obs.histogram(&labeled("svc.server.request_ns", "tenant", t)),
            );
        }
        w
    });

    std::thread::scope(|scope| {
        let mut exec_txs: Vec<Sender<Vec<Submission>>> = Vec::with_capacity(devices.len());
        let mut exec_joins = Vec::with_capacity(devices.len());
        for (t, &dev) in devices.iter().enumerate() {
            let (tx, rx) = channel::<Vec<Submission>>();
            exec_txs.push(tx);
            let tenant = t as TenantId;
            let (cfg, obs, gate, budget) = (
                cfg.clone(),
                obs.clone(),
                Arc::clone(&gates[t]),
                Arc::clone(&budget),
            );
            exec_joins
                .push(scope.spawn(move || executor_loop(tenant, dev, rx, cfg, obs, gate, budget)));
        }
        let (tx, rx) = channel::<Msg>();
        let driver = {
            let (cfg, obs) = (cfg.clone(), obs.clone());
            scope.spawn(move || driver_loop(rx, exec_txs, cfg, obs, window))
        };
        let handle = ServerClient {
            tx,
            gates,
            obs: obs.clone(),
        };
        let result = client(&handle);
        drop(handle);
        let mut window = driver.join().expect("server driver never panics");
        let tenants: Vec<TenantReport> = exec_joins
            .into_iter()
            .map(|j| j.join().expect("tenant executor loop never panics"))
            .collect();
        // Final sample after every executor has drained, so the last
        // window entry reflects the complete run (the driver's ticks
        // race against executor completions by design).
        if let Some(w) = window.as_mut() {
            w.tick(obs.elapsed_ns());
        }
        (result, ServerReport { tenants, window })
    })
}

/// The driver loop: owns the logical clock (admissions processed), the
/// per-tenant batch formers and the telemetry window. Deterministic mode
/// blocks on the channel — batch boundaries depend only on the admission
/// sequence; threaded mode adds an idle-timeout flush so a quiet server
/// drains without waiting for watermarks.
fn driver_loop(
    rx: Receiver<Msg>,
    exec_txs: Vec<Sender<Vec<Submission>>>,
    cfg: ServerConfig,
    obs: Recorder,
    mut window: Option<Aggregator>,
) -> Option<Aggregator> {
    let deterministic = cfg.mode == ExecMode::Deterministic;
    let mut formers: Vec<BatchFormer<Submission>> = (0..exec_txs.len())
        .map(|_| BatchFormer::new(cfg.batch_max, cfg.batch_wait))
        .collect();
    let mut step: u64 = 0;
    let dispatch = |t: usize, batch: Vec<Submission>, window: &mut Option<Aggregator>| {
        // A dead executor is impossible (its loop catches panics), but
        // be safe: an unsent batch would strand tickets forever.
        exec_txs[t].send(batch).expect("tenant executor alive");
        if let Some(w) = window.as_mut() {
            w.tick(obs.elapsed_ns());
        }
    };
    loop {
        let msg = if deterministic {
            rx.recv().ok()
        } else {
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(msg) => Some(msg),
                Err(RecvTimeoutError::Timeout) => {
                    // Idle wall-clock flush: logical time is frozen while
                    // no admissions arrive, so age watermarks alone would
                    // strand a partial batch.
                    for (t, former) in formers.iter_mut().enumerate() {
                        if let Some(batch) = former.flush() {
                            dispatch(t, batch, &mut window);
                        }
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => None,
            }
        };
        match msg {
            Some(Msg::Submit(sub)) => {
                step += 1;
                let t = usize::from(sub.tenant);
                if let Some(batch) = formers[t].push(step, *sub) {
                    dispatch(t, batch, &mut window);
                }
                for (u, former) in formers.iter_mut().enumerate() {
                    if former.due(step) {
                        if let Some(batch) = former.flush() {
                            dispatch(u, batch, &mut window);
                        }
                    }
                }
            }
            Some(Msg::Flush(tenant)) => {
                if let Some(batch) = formers[usize::from(tenant)].flush() {
                    dispatch(usize::from(tenant), batch, &mut window);
                }
            }
            None => {
                // Every producer handle dropped: flush what formed and
                // shut down (dropping exec_txs ends the executors).
                for (t, former) in formers.iter_mut().enumerate() {
                    if let Some(batch) = former.flush() {
                        dispatch(t, batch, &mut window);
                    }
                }
                return window;
            }
        }
    }
}

/// One tenant's executor: owns the tenant's [`RoutingService`] (and
/// therefore its `NetDb` shard), translates admission ids to service
/// request ids, and contains faults to the batch that raised them.
fn executor_loop(
    tenant: TenantId,
    dev: &Device,
    rx: Receiver<Vec<Submission>>,
    cfg: ServerConfig,
    obs: Recorder,
    gate: Arc<TenantGate>,
    budget: Arc<ThreadBudget>,
) -> TenantReport {
    let mut svc = RoutingService::with_recorder(dev, tenant_service_config(&cfg), obs.clone());
    let meters = ExecMeters {
        completed: obs.counter(&labeled("svc.server.completed", "tenant", tenant)),
        batches: obs.counter(&labeled("svc.server.batches", "tenant", tenant)),
        request_ns: obs.histogram(&labeled("svc.server.request_ns", "tenant", tenant)),
    };
    let mut seq_to_req: HashMap<u64, RequestId> = HashMap::new();
    let mut outcomes: Vec<(u64, ServerOutcome)> = Vec::new();
    let mut log: Vec<ServerLogEntry> = Vec::new();
    let mut leaked: Option<usize> = cfg.audit.then_some(0);
    let mut poisoned = false;
    let mut batches: u64 = 0;

    while let Ok(batch) = rx.recv() {
        if poisoned {
            for sub in batch {
                finish(
                    &gate,
                    &meters,
                    &obs,
                    &sub,
                    ServerOutcome::Poisoned,
                    &mut outcomes,
                );
            }
            continue;
        }
        let batch_idx = batches;
        batches += 1;
        meters.batches.inc();
        // Lease width from the shared pool for the span of this batch;
        // the grant changes wall clock, never results.
        let lease = budget.lease(cfg.tenant_threads.max(1));
        svc.set_threads(lease.granted());
        let ran = catch_unwind(AssertUnwindSafe(|| {
            let mut ids = Vec::with_capacity(batch.len());
            for sub in &batch {
                if let Some((ft, fs)) = cfg.fault.panic_on {
                    if ft == tenant && fs == sub.seq {
                        panic!("injected fault: tenant {ft} admission {fs}");
                    }
                }
                let kind = translate(&sub.kind, &seq_to_req);
                let id = svc
                    .submit_injected(kind, sub.priority, sub.deadline, Arc::clone(&sub.cancel))
                    .expect("a cut batch fits the tenant service queue");
                ids.push(id);
            }
            let report = svc.run_batch();
            (ids, report)
        }));
        drop(lease);
        match ran {
            Ok((ids, report)) => {
                let req_to_seq: HashMap<RequestId, u64> = ids
                    .iter()
                    .zip(&batch)
                    .map(|(&id, sub)| (id, sub.seq))
                    .collect();
                for entry in &report.log {
                    log.push(ServerLogEntry {
                        batch: batch_idx,
                        step: entry.step,
                        seq: req_to_seq[&entry.request],
                    });
                }
                if let (Some(total), Some(found)) = (leaked.as_mut(), report.leaked_segments) {
                    *total += found;
                }
                for (sub, &id) in batch.iter().zip(&ids) {
                    seq_to_req.insert(sub.seq, id);
                    let outcome = report
                        .outcome(id)
                        .expect("one outcome per drained request")
                        .clone();
                    finish(
                        &gate,
                        &meters,
                        &obs,
                        sub,
                        ServerOutcome::Done(outcome),
                        &mut outcomes,
                    );
                }
            }
            Err(_) => {
                // The batch died mid-flight: its service state is
                // untrusted, so retire the whole tenant. Everything in
                // this batch — and every later admission — resolves
                // Poisoned; other tenants are unaffected.
                poisoned = true;
                for sub in &batch {
                    finish(
                        &gate,
                        &meters,
                        &obs,
                        sub,
                        ServerOutcome::Poisoned,
                        &mut outcomes,
                    );
                }
            }
        }
    }
    outcomes.sort_by_key(|&(seq, _)| seq);
    TenantReport {
        tenant,
        batches,
        poisoned,
        outcomes,
        log,
        leaked_segments: if poisoned { None } else { leaked },
        census: svc.db().census(),
    }
}

/// Resolve a terminal outcome: fulfill the ticket, release the admission
/// slot, record latency.
fn finish(
    gate: &TenantGate,
    meters: &ExecMeters,
    obs: &Recorder,
    sub: &Submission,
    outcome: ServerOutcome,
    outcomes: &mut Vec<(u64, ServerOutcome)>,
) {
    meters.completed.inc();
    meters
        .request_ns
        .record(obs.elapsed_ns().saturating_sub(sub.submitted_ns));
    outcomes.push((sub.seq, outcome.clone()));
    sub.ticket.fulfill(outcome);
    gate.release();
}

/// Translate a client kind (victims = admission ids) into a service kind
/// (victims = the tenant service's request ids). An unknown admission id
/// maps to a reserved never-issued request id, so the service rejects it
/// as `UnknownTarget` — the same terminal path as a stale victim.
fn translate(kind: &RequestKind, seq_to_req: &HashMap<u64, RequestId>) -> RequestKind {
    let lookup = |seq: &u64| seq_to_req.get(seq).copied().unwrap_or(u64::MAX);
    match kind {
        RequestKind::Route(spec) => RequestKind::Route(spec.clone()),
        RequestKind::Unroute(seq) => RequestKind::Unroute(lookup(seq)),
        RequestKind::Replace { remove, add } => RequestKind::Replace {
            remove: remove.iter().map(lookup).collect(),
            add: add.clone(),
        },
    }
}

// ----------------------------------------------------------------------
// Trace replay
// ----------------------------------------------------------------------

/// Replay a (possibly multi-tenant) recorded [`Trace`] through a server
/// over `devices`, preserving the recorded batch boundaries exactly:
/// watermark cuts are disabled, each recorded batch is flushed and
/// barriered before the next is submitted. The result is
/// bit-replayable — identical per-tenant censuses — in either mode and
/// for any [`ServerConfig::threads`].
///
/// Victims are recorded as global trace ids; they are translated to the
/// victim's per-tenant admission id here, so a trace request may only
/// name victims of its own tenant ([`Trace::validate`] enforces this).
pub fn replay_trace(
    devices: &[&Device],
    cfg: &ServerConfig,
    obs: Recorder,
    trace: &Trace,
) -> Result<ServerReport, TraceError> {
    trace.validate()?;
    if let Some(fam) = trace.family {
        for dev in devices {
            if dev.family() != fam {
                return Err(TraceError::FamilyMismatch {
                    trace: fam,
                    device: dev.family(),
                });
            }
        }
    }
    let cfg = ServerConfig {
        batch_max: usize::MAX,
        batch_wait: u64::MAX,
        ..cfg.clone()
    };
    let (result, report) = serve(devices, cfg, obs, |client| {
        // Global trace id -> (tenant, per-tenant admission id).
        let mut admitted: Vec<(TenantId, u64)> = Vec::new();
        let handles: Vec<TenantHandle> = (0..devices.len())
            .map(|t| client.tenant(t as TenantId))
            .collect();
        for batch in &trace.batches {
            let mut tickets = Vec::with_capacity(batch.len());
            for req in batch {
                let tenant = usize::from(req.tenant);
                if tenant >= handles.len() {
                    return Err(TraceError::UnknownTenant(req.tenant));
                }
                let victim = |tid: &crate::trace::TraceId| admitted[*tid as usize].1;
                let kind = match &req.op {
                    TraceOp::Route(spec) => RequestKind::Route(spec.clone()),
                    TraceOp::Unroute(tid) => RequestKind::Unroute(victim(tid)),
                    TraceOp::Replace { remove, add } => RequestKind::Replace {
                        remove: remove.iter().map(victim).collect(),
                        add: add.clone(),
                    },
                };
                let deadline = req.deadline.map(Deadline::Steps);
                let ticket = handles[tenant]
                    .submit_with(kind, req.priority, deadline)
                    .map_err(|_| TraceError::QueueFull)?;
                admitted.push((req.tenant, ticket.id()));
                tickets.push(ticket);
            }
            // Recorded batch boundary: cut everything submitted, then
            // barrier on it so the next recorded batch lands in the next
            // service batch.
            for handle in &handles {
                handle.flush();
            }
            for ticket in &tickets {
                ticket.wait();
            }
        }
        Ok(())
    });
    result?;
    Ok(report)
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

    fn det_cfg() -> ServerConfig {
        ServerConfig {
            threads: 4,
            tenant_threads: 2,
            mode: ExecMode::Deterministic,
            audit: true,
            ..Default::default()
        }
    }

    /// Distinct nets in a census (census rows are per *segment*).
    fn nets(census: &[(virtex::Segment, jroute::NetId)]) -> Vec<jroute::NetId> {
        let mut ids: Vec<_> = census.iter().map(|&(_, n)| n).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
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
    fn routes_across_tenants_and_isolates_shards() {
        let (d0, d1) = (dev(), dev());
        let ((), report) = serve(&[&d0, &d1], det_cfg(), Recorder::disabled(), |client| {
            let a = client.tenant(0);
            let b = client.tenant(1);
            let ta = a.submit(RequestKind::Route(spec(0))).unwrap();
            let tb = b.submit(RequestKind::Route(spec(1))).unwrap();
            a.flush();
            b.flush();
            assert!(ta.wait().is_success());
            assert!(tb.wait().is_success());
        });
        assert_eq!(report.tenants.len(), 2);
        for t in &report.tenants {
            assert_eq!(nets(&t.census).len(), 1, "one net per tenant shard");
            assert_eq!(t.leaked_segments, Some(0));
            assert!(!t.poisoned);
        }
        // Shards are independent: both tenants routed the *first* net of
        // their own service, so NetIds restart per shard.
        assert_eq!(
            nets(&report.tenants[0].census),
            nets(&report.tenants[1].census)
        );
    }

    #[test]
    fn unroute_names_victims_by_admission_id() {
        let d = dev();
        let ((), report) = serve(&[&d], det_cfg(), Recorder::disabled(), |client| {
            let h = client.tenant(0);
            let route = h.submit(RequestKind::Route(spec(0))).unwrap();
            h.flush();
            assert!(route.wait().is_success());
            let un = h.submit(RequestKind::Unroute(route.id())).unwrap();
            h.flush();
            assert!(un.wait().is_success());
        });
        assert!(report.tenants[0].census.is_empty(), "net unrouted");
        assert_eq!(report.tenants[0].leaked_segments, Some(0));
    }

    #[test]
    fn size_watermark_cuts_without_flush() {
        let d = dev();
        let cfg = ServerConfig {
            batch_max: 2,
            ..det_cfg()
        };
        let ((), report) = serve(&[&d], cfg, Recorder::disabled(), |client| {
            let h = client.tenant(0);
            let a = h.submit(RequestKind::Route(spec(0))).unwrap();
            let b = h.submit(RequestKind::Route(spec(1))).unwrap();
            // No flush: the second admission fills the batch.
            assert!(a.wait().is_success());
            assert!(b.wait().is_success());
        });
        assert_eq!(report.tenants[0].batches, 1);
    }

    #[test]
    fn age_watermark_cuts_on_later_admissions() {
        let (d0, d1) = (dev(), dev());
        let cfg = ServerConfig {
            batch_max: 100,
            batch_wait: 2,
            ..det_cfg()
        };
        let ((), report) = serve(&[&d0, &d1], cfg, Recorder::disabled(), |client| {
            let a = client.tenant(0);
            let b = client.tenant(1);
            let t = a.submit(RequestKind::Route(spec(0))).unwrap();
            // Tenant 1 admissions advance the logical clock past tenant
            // 0's age watermark.
            for i in 1..5 {
                b.submit(RequestKind::Route(spec(i))).unwrap();
            }
            assert!(t.wait().is_success(), "cut by age, not flush");
            b.flush();
        });
        assert_eq!(report.tenants[0].batches, 1);
    }

    #[test]
    fn queue_full_round_trips_and_recovers() {
        let d = dev();
        let cfg = ServerConfig {
            queue_capacity: 2,
            batch_max: 100,
            ..det_cfg()
        };
        let ((), report) = serve(&[&d], cfg, Recorder::disabled(), |client| {
            let h = client.tenant(0);
            let a = h.submit(RequestKind::Route(spec(0))).unwrap();
            let b = h.submit(RequestKind::Route(spec(1))).unwrap();
            let err = h.submit(RequestKind::Route(spec(2))).unwrap_err();
            assert_eq!(err, QueueFull { capacity: 2 });
            h.flush();
            assert!(a.wait().is_success());
            assert!(b.wait().is_success());
            // Terminal outcomes drained the gate: capacity is back.
            let c = h.submit(RequestKind::Route(spec(2))).unwrap();
            h.flush();
            assert!(c.wait().is_success());
        });
        assert_eq!(report.tenants[0].outcomes.len(), 3);
    }

    #[test]
    fn cancelling_a_queued_unbatched_request_resolves_cancelled() {
        let d = dev();
        let cfg = ServerConfig {
            batch_max: 100,
            ..det_cfg()
        };
        let ((), report) = serve(&[&d], cfg, Recorder::disabled(), |client| {
            let h = client.tenant(0);
            let t = h.submit(RequestKind::Route(spec(0))).unwrap();
            // Cancel while the request sits in the driver's forming
            // batch — before any service has seen it.
            t.cancel_token().cancel();
            h.flush();
            assert_eq!(t.wait(), ServerOutcome::Done(RequestOutcome::Cancelled));
        });
        assert!(report.tenants[0].census.is_empty());
        assert_eq!(report.tenants[0].leaked_segments, Some(0));
    }

    #[test]
    fn dropped_producer_handle_flushes_in_flight_requests() {
        let d = dev();
        let cfg = ServerConfig {
            batch_max: 100,
            ..det_cfg()
        };
        let (seq, report) = serve(&[&d], cfg, Recorder::disabled(), |client| {
            let h = client.tenant(0);
            let t = h.submit(RequestKind::Route(spec(0))).unwrap();
            // Drop every handle without flushing: the disconnect flush
            // must still run the request to a terminal outcome.
            t.id()
        });
        assert_eq!(
            report.tenants[0].outcome(seq).map(|o| o.is_success()),
            Some(true),
            "in-flight request completed on shutdown"
        );
    }

    #[test]
    fn worker_panic_poisons_the_tenant_but_not_the_server() {
        let (d0, d1) = (dev(), dev());
        let cfg = ServerConfig {
            batch_max: 2,
            fault: FaultPlan {
                panic_on: Some((0, 1)),
            },
            ..det_cfg()
        };
        let ((), report) = serve(&[&d0, &d1], cfg, Recorder::disabled(), |client| {
            let a = client.tenant(0);
            let b = client.tenant(1);
            // Admissions 0 and 1 form tenant 0's batch; the fault fires
            // while admission 1 is fed — mid-batch.
            let t0 = a.submit(RequestKind::Route(spec(0))).unwrap();
            let t1 = a.submit(RequestKind::Route(spec(1))).unwrap();
            assert_eq!(t0.wait(), ServerOutcome::Poisoned);
            assert_eq!(t1.wait(), ServerOutcome::Poisoned);
            // The poisoned tenant answers later admissions too...
            let t2 = a.submit(RequestKind::Route(spec(2))).unwrap();
            a.flush();
            assert_eq!(t2.wait(), ServerOutcome::Poisoned);
            // ...while the healthy tenant keeps serving.
            let tb = b.submit(RequestKind::Route(spec(3))).unwrap();
            b.flush();
            assert!(tb.wait().is_success());
        });
        assert!(report.tenants[0].poisoned);
        assert!(!report.tenants[1].poisoned);
        assert_eq!(nets(&report.tenants[1].census).len(), 1);
        assert_eq!(report.tenants[1].leaked_segments, Some(0));
    }

    #[test]
    fn per_tenant_metrics_flow_to_window_and_prometheus() {
        let d0 = dev();
        let d1 = dev();
        let obs = Recorder::enabled();
        let ((), report) = serve(&[&d0, &d1], det_cfg(), obs.clone(), |client| {
            for t in 0..2 {
                let h = client.tenant(t);
                let ticket = h.submit(RequestKind::Route(spec(t as usize))).unwrap();
                h.flush();
                assert!(ticket.wait().is_success());
            }
        });
        let window = report.window.expect("enabled recorder has a window");
        assert!(!window.is_empty());
        // Counter series are windowed deltas; summed over all samples
        // they recover the per-tenant total.
        let series = format!("{}.delta", labeled("svc.server.completed", "tenant", 1));
        let total: f64 = window.samples().filter_map(|s| s.value(&series)).sum();
        assert_eq!(total, 1.0);
        let text = jroute_obs::prometheus_text(&obs.report());
        assert!(text.contains("jroute_svc_server_submitted{tenant=\"0\"} 1"));
        assert!(text.contains("jroute_svc_server_submitted{tenant=\"1\"} 1"));
        assert!(text.contains("jroute_svc_server_request_ns{tenant=\"0\",quantile=\"0.99\"}"));
    }

    #[test]
    fn deterministic_replay_is_identical_across_pool_widths() {
        let (d0, d1) = (dev(), dev());
        let run = |pool: usize| {
            let cfg = ServerConfig {
                threads: pool,
                ..det_cfg()
            };
            let ((), report) = serve(&[&d0, &d1], cfg, Recorder::disabled(), |client| {
                for i in 0..6 {
                    let h = client.tenant((i % 2) as TenantId);
                    h.submit(RequestKind::Route(spec(i))).unwrap();
                }
                for t in 0..2 {
                    client.tenant(t).flush();
                }
            });
            report
                .tenants
                .into_iter()
                .map(|t| (t.census, t.log))
                .collect::<Vec<_>>()
        };
        let one = run(1);
        assert_eq!(one, run(4));
        assert_eq!(one, run(8));
    }
}
