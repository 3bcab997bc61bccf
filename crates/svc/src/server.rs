//! Async multi-tenant routing server over [`RoutingService`].
//!
//! JRoute's end state is routing as a long-running *service*: many
//! independent reconfigurable cores (tenants), each owning a device
//! shard, issuing route/unroute/replace calls concurrently while the
//! designs run (paper §1, §3; the JIT-overlay line in PAPERS.md). This
//! module grows the synchronous `run_batch` front-end into that shape:
//!
//! * **executors pull their batches** — every tenant has one executor
//!   thread fed by its own MPSC channel; producer handles
//!   ([`TenantHandle::submit`]) send admissions straight to it. An idle
//!   executor blocks for one message, then takes the rest of its batch
//!   as [`ExecMode`] says, at most [`ServerConfig::batch_max`] requests.
//!   Admissions queue in the channel while a batch routes, and a long
//!   maze search on one tenant never stalls another tenant's queue;
//! * **tenancy** — each tenant owns a `Bitstream`-backed device and a
//!   [`NetDb`](jroute::NetDb) shard behind its own [`RoutingService`];
//!   executors share the machine through a
//!   [`ThreadBudget`] so the sum of
//!   concurrently routing workers respects [`ServerConfig::threads`];
//! * **admission control** — a bounded per-tenant gate rejects
//!   [`QueueFull`] synchronously at `submit`, the depth draining as
//!   requests reach terminal outcomes;
//! * **observability** — per-tenant labelled families
//!   (`svc.server.*{tenant="t"}`, see [`jroute_obs::labeled`]) flow
//!   through the sharded registry into an [`Aggregator`] window, ticked
//!   whenever an executor takes a batch, and the Prometheus exposition;
//! * **determinism** — every tenant batch is a serialization in
//!   `(priority, admission)` order whatever width its executor leased,
//!   so results depend only on where batches are cut. In
//!   [`ExecMode::Deterministic`] an executor cuts only at `batch_max` or
//!   a [`TenantHandle::flush`], so batch boundaries are a pure function
//!   of that tenant's own admission and flush sequence and a fixed
//!   submission trace is bit-replayable across any
//!   [`ServerConfig::threads`] and [`ServerConfig::tenant_threads`].
//!
//! Faults are contained per batch: a panic while a tenant's batch
//! executes (exercised via [`FaultPlan`]) marks that tenant *poisoned* —
//! the batch's tickets resolve [`ServerOutcome::Poisoned`], subsequent
//! admissions for that tenant answer `Poisoned` immediately, and every
//! other tenant keeps serving.

use crate::request::{Deadline, QueueFull, RequestKind, RequestOutcome, TenantId};
use crate::trace::{Trace, TraceError, TraceOp};
use crate::{CancelToken, RoutingService, ServiceConfig};
use jroute::maze::MazeConfig;
use jroute::schedule::ThreadBudget;
use jroute::NetId;
use jroute_obs::{labeled, Aggregator, Counter, Gauge, Histo, Recorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use virtex::{Device, Segment};

/// Fault-injection plan for server tests: panic the executing worker
/// when the named admission reaches execution, mid-batch.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Panic while the batch containing admission `(tenant, seq)` is
    /// being fed to the tenant's service — after earlier requests in the
    /// batch were admitted, before any completes — so the whole batch is
    /// poisoned.
    pub panic_on: Option<(TenantId, u64)>,
}

/// How a tenant's executor cuts its batches. Results never depend on the
/// worker count, only on where batches are cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// An idle executor takes whatever its tenant has queued, up to
    /// [`ServerConfig::batch_max`]: load sets the batch size, with no
    /// timer, and batch boundaries depend on arrival timing.
    Threaded,
    /// An executor cuts only at [`ServerConfig::batch_max`] requests or
    /// at [`TenantHandle::flush`]: batch boundaries are a pure function
    /// of the tenant's own admission and flush sequence.
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
    /// How executors cut batches.
    pub mode: ExecMode,
    /// Post-batch bookkeeping audits on every tenant service.
    pub audit: bool,
    /// Most requests an executor takes as one batch; a deterministic
    /// executor cuts as soon as its batch reaches this size.
    pub batch_max: usize,
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
        // A standalone replay (`Trace::replay`) submits a whole batch to
        // the service queue, so the queue must hold at least one.
        queue_capacity: cfg.queue_capacity.max(cfg.batch_max).max(1),
        audit: cfg.audit,
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
    /// sure the request's batch can cut (`batch_max` or
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
    seq: u64,
    kind: RequestKind,
    priority: u8,
    deadline: Option<Deadline>,
    cancel: Arc<AtomicBool>,
    ticket: Arc<TicketState>,
    submitted_ns: u64,
}

enum Msg {
    Submit(Submission),
    Flush,
}

/// Cloneable producer handle for one tenant. Every clone feeds the
/// tenant's executor; dropping the last handle (and the
/// [`ServerClient`]) lets the executor run what is pending and stop.
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
            seq,
            kind,
            priority,
            deadline,
            cancel: Arc::clone(&cancel),
            ticket: Arc::clone(&state),
            submitted_ns: self.obs.elapsed_ns(),
        };
        self.tx
            .send(Msg::Submit(sub))
            .expect("tenant executor alive while handles exist");
        Ok(Ticket {
            id: seq,
            tenant: self.tenant,
            cancel,
            state,
        })
    }

    /// Cut this tenant's forming batch at this point of its admission
    /// sequence, whatever its size.
    pub fn flush(&self) {
        self.tx
            .send(Msg::Flush)
            .expect("tenant executor alive while handles exist");
    }
}

/// Client-side root handle: mints per-tenant producer handles. Held by
/// the `serve` closure; when the closure returns (dropping this and all
/// [`TenantHandle`] clones), the executors run what is pending and the
/// server shuts down.
pub struct ServerClient {
    handles: Vec<TenantHandle>,
}

impl ServerClient {
    /// Number of tenants behind the server.
    pub fn tenants(&self) -> usize {
        self.handles.len()
    }

    /// Producer handle for tenant `tenant`. Panics on an out-of-range
    /// tenant.
    pub fn tenant(&self, tenant: TenantId) -> TenantHandle {
        self.handles[usize::from(tenant)].clone()
    }
}

// ----------------------------------------------------------------------
// Reports
// ----------------------------------------------------------------------

/// One completion in a tenant's replayable log: the admission id
/// ([`Ticket::id`]) of the request decided at this step.
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
    /// Final `(segment, net)` census of the tenant's
    /// [`NetDb`](jroute::NetDb) shard.
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
    /// per batch an executor takes.
    pub window: Option<Aggregator>,
}

// ----------------------------------------------------------------------
// The server
// ----------------------------------------------------------------------

/// How many per-batch samples the server's rolling window retains.
const WINDOW_SAMPLES: usize = 256;

/// What every tenant executor shares: the configuration, the recorder,
/// the routing pool and the telemetry window.
struct Shared {
    cfg: ServerConfig,
    obs: Recorder,
    budget: Arc<ThreadBudget>,
    window: Option<Mutex<Aggregator>>,
}

/// Executor-side per-tenant meters (labelled families).
struct ExecMeters {
    completed: Counter,
    batches: Counter,
    request_ns: Histo,
}

/// Run a multi-tenant routing server over `devices` (one tenant per
/// device, tenant `t` = `devices[t]`) and hand the client closure its
/// [`ServerClient`]. The server runs for exactly the closure's lifetime:
/// when it returns, pending requests run, outstanding tickets resolve,
/// and the per-tenant reports come back with the closure's result.
///
/// The closure runs on the calling thread; tenant executors run on
/// scoped threads behind it. Producer handles are `Clone + Send`, so the
/// closure may fan submissions out across its own threads.
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
        Mutex::new(w)
    });
    let shared = Shared {
        budget: Arc::new(ThreadBudget::new(cfg.threads)),
        cfg,
        obs,
        window,
    };

    let (result, tenants) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(devices.len());
        let mut executors = Vec::with_capacity(devices.len());
        for (t, &dev) in devices.iter().enumerate() {
            let (tx, rx) = channel();
            let obs = &shared.obs;
            let gate = Arc::new(TenantGate {
                capacity: shared.cfg.queue_capacity.max(1),
                depth: AtomicUsize::new(0),
                next_seq: AtomicU64::new(0),
                depth_gauge: obs.gauge(&labeled("svc.server.queue_depth", "tenant", t)),
                submitted: obs.counter(&labeled("svc.server.submitted", "tenant", t)),
                queue_full: obs.counter(&labeled("svc.server.queue_full", "tenant", t)),
            });
            let tenant = t as TenantId;
            handles.push(TenantHandle {
                tenant,
                tx,
                gate: Arc::clone(&gate),
                obs: obs.clone(),
            });
            let shared = &shared;
            executors.push(scope.spawn(move || executor_loop(tenant, dev, rx, &gate, shared)));
        }
        let handle = ServerClient { handles };
        let result = client(&handle);
        // Dropping the last sender lets each executor run what is
        // pending and return its report.
        drop(handle);
        let tenants: Vec<TenantReport> = executors
            .into_iter()
            .map(|j| j.join().expect("tenant executor loop never panics"))
            .collect();
        (result, tenants)
    });
    // Final sample after every executor has drained, so the last window
    // entry reflects the complete run.
    let window = shared.window.map(|w| {
        let mut w = w
            .into_inner()
            .expect("no executor panics while ticking the window");
        w.tick(shared.obs.elapsed_ns());
        w
    });
    (result, ServerReport { tenants, window })
}

/// Block for a tenant's next batch, cut as `mode` says: `Threaded` takes
/// the first message plus whatever is already queued, `Deterministic`
/// reads on until a flush; both stop at `max` requests. `None` once
/// every producer handle is gone and nothing is pending.
fn next_batch(rx: &Receiver<Msg>, max: usize, mode: ExecMode) -> Option<Vec<Submission>> {
    let mut batch = Vec::new();
    while batch.len() < max.max(1) {
        let msg = match mode {
            ExecMode::Threaded if !batch.is_empty() => rx.try_recv().ok(),
            _ => rx.recv().ok(),
        };
        match msg {
            Some(Msg::Submit(sub)) => batch.push(sub),
            Some(Msg::Flush) if batch.is_empty() => {}
            Some(Msg::Flush) | None => break,
        }
    }
    (!batch.is_empty()).then_some(batch)
}

/// One tenant's executor: pulls the tenant's batches, owns its
/// [`RoutingService`] (and therefore its `NetDb` shard), runs each batch
/// under the requests' admission ids, and contains faults to the batch
/// that raised them.
fn executor_loop(
    tenant: TenantId,
    dev: &Device,
    rx: Receiver<Msg>,
    gate: &TenantGate,
    shared: &Shared,
) -> TenantReport {
    let Shared {
        cfg,
        obs,
        budget,
        window,
    } = shared;
    let mut svc = RoutingService::with_recorder(dev, tenant_service_config(cfg), obs.clone());
    let meters = ExecMeters {
        completed: obs.counter(&labeled("svc.server.completed", "tenant", tenant)),
        batches: obs.counter(&labeled("svc.server.batches", "tenant", tenant)),
        request_ns: obs.histogram(&labeled("svc.server.request_ns", "tenant", tenant)),
    };
    let mut outcomes: Vec<(u64, ServerOutcome)> = Vec::new();
    let mut log: Vec<ServerLogEntry> = Vec::new();
    let mut leaked: Option<usize> = cfg.audit.then_some(0);
    let mut poisoned = false;
    let mut batches: u64 = 0;

    while let Some(batch) = next_batch(&rx, cfg.batch_max, cfg.mode) {
        if let Some(w) = window {
            w.lock()
                .expect("no executor panics while ticking the window")
                .tick(obs.elapsed_ns());
        }
        if poisoned {
            for sub in batch {
                finish(
                    gate,
                    &meters,
                    obs,
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
            let requests = batch
                .iter()
                .map(|sub| {
                    if let Some((ft, fs)) = cfg.fault.panic_on {
                        if ft == tenant && fs == sub.seq {
                            panic!("injected fault: tenant {ft} admission {fs}");
                        }
                    }
                    svc.request(
                        sub.seq,
                        sub.kind.clone(),
                        sub.priority,
                        sub.deadline,
                        Arc::clone(&sub.cancel),
                    )
                })
                .collect();
            svc.run(requests)
        }));
        drop(lease);
        match ran {
            Ok(report) => {
                log.extend(report.log.iter().map(|entry| ServerLogEntry {
                    batch: batch_idx,
                    step: entry.step,
                    seq: entry.request,
                }));
                if let (Some(total), Some(found)) = (leaked.as_mut(), report.leaked_segments) {
                    *total += found;
                }
                for sub in &batch {
                    let outcome = report
                        .outcome(sub.seq)
                        .expect("one outcome per drained request")
                        .clone();
                    finish(
                        gate,
                        &meters,
                        obs,
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
                        gate,
                        &meters,
                        obs,
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

/// Resolve a terminal outcome: release the admission slot, record
/// latency, fulfill the ticket. The slot goes first, so a client woken
/// by [`Ticket::wait`] finds it free.
fn finish(
    gate: &TenantGate,
    meters: &ExecMeters,
    obs: &Recorder,
    sub: &Submission,
    outcome: ServerOutcome,
    outcomes: &mut Vec<(u64, ServerOutcome)>,
) {
    gate.release();
    meters.completed.inc();
    meters
        .request_ns
        .record(obs.elapsed_ns().saturating_sub(sub.submitted_ns));
    outcomes.push((sub.seq, outcome.clone()));
    sub.ticket.fulfill(outcome);
}

// ----------------------------------------------------------------------
// Trace replay
// ----------------------------------------------------------------------

/// Replay a (possibly multi-tenant) recorded [`Trace`] through a server
/// over `devices`, preserving the recorded batch boundaries exactly: the
/// server runs in [`ExecMode::Deterministic`] with no size cut, and each
/// recorded batch is flushed and barriered before the next is submitted.
/// The result is bit-replayable — identical per-tenant censuses —
/// whatever `cfg.mode` says and for any [`ServerConfig::threads`].
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
        mode: ExecMode::Deterministic,
        batch_max: usize::MAX,
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
    use crate::Reject;
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
    fn idle_threaded_server_runs_a_lone_request_without_flush() {
        let d = dev();
        let cfg = ServerConfig {
            mode: ExecMode::Threaded,
            ..det_cfg()
        };
        let ((), report) = serve(&[&d], cfg, Recorder::disabled(), |client| {
            let t = client
                .tenant(0)
                .submit(RequestKind::Route(spec(0)))
                .unwrap();
            // No flush and no size cut: the idle executor takes it.
            assert!(t.wait().is_success());
        });
        assert_eq!(report.tenants[0].batches, 1);
    }

    #[test]
    fn admission_slot_is_free_once_wait_returns() {
        let d = dev();
        let cfg = ServerConfig {
            queue_capacity: 1,
            ..det_cfg()
        };
        let ((), report) = serve(&[&d], cfg, Recorder::disabled(), |client| {
            let h = client.tenant(0);
            for i in 0..200 {
                let t = h
                    .submit(RequestKind::Unroute(u64::MAX))
                    .unwrap_or_else(|e| panic!("submit {i} refused after wait: {e}"));
                h.flush();
                t.wait();
            }
        });
        assert_eq!(report.tenants[0].outcomes.len(), 200);
    }

    #[test]
    fn rejections_name_the_admission_id_the_client_gave() {
        let d = dev();
        let ((), report) = serve(&[&d], det_cfg(), Recorder::disabled(), |client| {
            let h = client.tenant(0);
            // An unroute flushed with its victim: the service resolves
            // victims against the state the batch starts from.
            let route = h.submit(RequestKind::Route(spec(0))).unwrap();
            let early = h.submit(RequestKind::Unroute(route.id())).unwrap();
            h.flush();
            assert!(route.wait().is_success());
            assert_eq!(
                early.wait(),
                ServerOutcome::Done(RequestOutcome::Rejected(Reject::UnknownTarget(route.id())))
            );
            // A stale victim, already unrouted by an earlier batch.
            let un = h.submit(RequestKind::Unroute(route.id())).unwrap();
            h.flush();
            assert!(un.wait().is_success());
            let stale = h
                .submit(RequestKind::Replace {
                    remove: vec![route.id()],
                    add: vec![spec(1)],
                })
                .unwrap();
            h.flush();
            assert_eq!(
                stale.wait(),
                ServerOutcome::Done(RequestOutcome::Rejected(Reject::UnknownTarget(route.id())))
            );
        });
        assert!(report.tenants[0].census.is_empty());
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
            // Cancel while the request sits in the executor's forming
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
            // Drop every handle without flushing: on disconnect the
            // executor must still run the request to a terminal outcome.
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
