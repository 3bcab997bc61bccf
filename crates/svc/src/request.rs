//! Request and outcome vocabulary of the routing service.

use jroute::pathfinder::NetSpec;
use jroute::NetId;
use jroute_obs::TraceCtx;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Request identifier, unique for the life of one
/// [`RoutingService`](crate::RoutingService): assigned by its `submit`,
/// or the tenant's admission id ([`Ticket::id`](crate::Ticket::id)) when
/// the server runs it. `Unroute`/`Replace` requests name their victims
/// by the id of the request that routed them.
pub type RequestId = u64;

/// Tenant identifier in the multi-tenant server front-end
/// ([`server`](crate::server)): an index into the server's device list.
/// Tenant 0 is the implicit tenant of every single-tenant artifact —
/// legacy `.jrt` traces load as tenant 0.
pub type TenantId = u16;

/// What a request asks the service to do.
#[derive(Debug, Clone)]
pub enum RequestKind {
    /// Route one net (source plus one or more sinks).
    Route(NetSpec),
    /// Remove every net routed by an earlier, committed request.
    Unroute(RequestId),
    /// Atomically remove the nets of earlier requests and route
    /// replacements over the freed resources — the §5 "replace a core
    /// while the design runs" operation as one request. Either all of
    /// `add` routes (and the removals stick), or nothing changes and the
    /// victims keep their resources.
    Replace {
        /// Committed route requests whose nets are torn down.
        remove: Vec<RequestId>,
        /// Replacement nets routed over the freed (and any other
        /// available) resources.
        add: Vec<NetSpec>,
    },
}

/// When a request stops being worth finishing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// Expires once the batch has decided this many requests before it
    /// (its commit step is at least this). The step clock is part of the
    /// batch's fixed `(priority, submission)` order, so this deadline
    /// form replays exactly.
    Steps(u64),
    /// Expires this long after `run_batch` starts (wall clock), checked
    /// during the request's searches and at its commit. Reading a real
    /// clock makes the outcome depend on timing, so replays of batches
    /// that use it may differ.
    Elapsed(Duration),
}

/// One queued request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request id: service-assigned, or the admission id when the
    /// server front-end runs the batch. The tiebreak within a priority
    /// class.
    pub id: RequestId,
    /// Scheduling priority; lower values run earlier (0 = most urgent).
    pub priority: u8,
    /// Optional expiry.
    pub deadline: Option<Deadline>,
    /// The operation.
    pub kind: RequestKind,
    /// Shared cancellation flag (see [`CancelToken`]).
    pub(crate) cancel: Arc<AtomicBool>,
    /// Causal trace context minted at submission (the `svc.request` root
    /// span). Carried into the batch so every exec/maze span — on
    /// whichever worker its search ran — links back to the originating
    /// submission.
    pub(crate) ctx: TraceCtx,
}

impl Request {
    /// Whether the request has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::SeqCst)
    }
}

/// Cloneable handle that cancels one request from any thread, including
/// while a batch is running: the request's searches poll the flag on
/// every probe, and a cancelled request changes nothing.
#[derive(Debug, Clone)]
pub struct CancelToken(pub(crate) Arc<AtomicBool>);

impl CancelToken {
    /// Request cancellation. Idempotent; takes effect at the next poll.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Why a request was refused without being scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// An `Unroute`/`Replace` victim id is unknown, was not committed
    /// when the batch started, is named twice in one request, or was
    /// consumed by an earlier request of the same batch.
    UnknownTarget(RequestId),
    /// A net spec names a wire that does not exist on the device.
    BadWire,
}

/// Final status of one request after a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The net was routed and committed.
    Routed {
        /// Net created in the service's [`NetDb`](jroute::NetDb).
        net: NetId,
        /// Segments the net occupies.
        segments: usize,
    },
    /// The victims' nets were removed.
    Unrouted {
        /// Nets removed.
        nets: Vec<NetId>,
    },
    /// Victims removed and replacements routed.
    Replaced {
        /// Nets removed.
        removed: Vec<NetId>,
        /// Nets created, one per `add` spec in order.
        added: Vec<NetId>,
    },
    /// Cancelled via [`CancelToken`] before or during execution; nothing
    /// changed.
    Cancelled,
    /// The deadline expired before or during execution; nothing changed.
    Expired,
    /// A net of the request found no free path (or a terminal already
    /// taken) in the state every earlier request of the batch left;
    /// nothing changed.
    Congested {},
    /// Refused without scheduling.
    Rejected(Reject),
}

impl RequestOutcome {
    /// Whether the request changed the committed state.
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            RequestOutcome::Routed { .. }
                | RequestOutcome::Unrouted { .. }
                | RequestOutcome::Replaced { .. }
        )
    }
}

/// Backpressure error: the bounded submission queue is full. Run a batch
/// (or cancel queued work) before submitting more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// The queue's capacity.
    pub capacity: usize,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submission queue full ({} requests); run a batch to drain it",
            self.capacity
        )
    }
}

impl std::error::Error for QueueFull {}

/// One decided request in commit order — the replayable log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// Commit step (0-based, dense within the batch).
    pub step: u64,
    /// The request.
    pub request: RequestId,
}

/// Everything `run_batch` did.
#[derive(Debug)]
pub struct BatchReport {
    /// Final outcome per request, sorted by request id.
    pub outcomes: Vec<(RequestId, RequestOutcome)>,
    /// Every request in commit order, `(priority, submission)` — feed
    /// the successful entries to
    /// [`SequentialModel`](crate::model::SequentialModel) to replay the
    /// batch.
    pub log: Vec<LogEntry>,
    /// Wave search results re-searched at commit because a commit since
    /// their search made them stale (see [`jroute::parallel`]).
    pub researched: u64,
    /// When [`ServiceConfig::audit`](crate::ServiceConfig) is set: the
    /// segments the net database holds for no committed request plus the
    /// committed nets missing from it (must be 0 — anything else is a
    /// leaked or lost net).
    pub leaked_segments: Option<usize>,
}

impl BatchReport {
    /// Outcome of one request, if it was part of this batch.
    pub fn outcome(&self, id: RequestId) -> Option<&RequestOutcome> {
        self.outcomes
            .binary_search_by_key(&id, |&(rid, _)| rid)
            .ok()
            .map(|i| &self.outcomes[i].1)
    }
}
