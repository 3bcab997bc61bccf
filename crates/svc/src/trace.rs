//! `.jrt` request-trace record and replay.
//!
//! A scenario — a stream of `Route` / `Unroute` / `Replace` requests
//! with priorities and deadlines, split into batches — is itself an
//! artifact worth keeping: replayed against any service it
//! is a regression fixture, and replayed under different configs it is
//! an A/B benchmark input (the `e16_scenarios` rows). This module
//! defines that artifact: a [`Trace`] with a stable, hand-rolled binary
//! form in the style of [`virtex::codec`] (the workspace builds
//! hermetically, so there is no serde), conventionally stored in `.jrt`
//! files.
//!
//! ## Format
//!
//! Little-endian, fixed-width, append-only:
//!
//! ```text
//! magic  b"JRT1" (untagged) or b"JRT2" (tenant-tagged)
//! family Family codec (1 byte)
//! u32    batch count
//! per batch:
//!   u32  request count
//!   per request:
//!     u8   priority
//!     u16  tenant            (JRT2 only)
//!     u8   deadline tag: 0 = none, 1 = Steps(u64 LE)
//!     u8   op tag: 0 = Route, 1 = Unroute, 2 = Replace
//!     Route:   NetSpec
//!     Unroute: u32 victim (trace id)
//!     Replace: u16 victim count, u32 victims…, u16 add count, NetSpec…
//! NetSpec: Pin source, u16 sink count, Pin sinks…
//! Pin:     RowCol codec (4 bytes), Wire codec (2 bytes)
//! ```
//!
//! Victims are **trace ids**: the 0-based global submission index of the
//! earlier request whose nets are being torn down (requests number
//! across batch boundaries in submission order). Replay maps trace ids
//! to the live [`RequestId`]s the service hands out, so a trace is
//! position-independent — it replays into a fresh service or after
//! other traffic equally well.
//!
//! Multi-tenant scenarios for the [`server`](crate::server) tag each
//! request with its [`TenantId`]. A trace whose requests are all tenant
//! 0 encodes in the original `JRT1` form — old fixtures stay
//! byte-identical — and old `JRT1` files load with every request as
//! tenant 0. Victims must stay within their request's tenant.
//!
//! The encoding is canonical (one byte string per value, and the tagged
//! header iff a nonzero tenant exists), which the round-trip property
//! test exploits: decode followed by re-encode must reproduce the input
//! byte-for-byte.

use crate::{Deadline, RequestId, RequestKind, RoutingService, TenantId};
use jroute::pathfinder::NetSpec;
use jroute::Pin;
use virtex::codec::Codec;
use virtex::{Family, RowCol, Wire};

use crate::BatchReport;

/// File magic for untagged (single-tenant) `.jrt` traces.
pub const MAGIC: [u8; 4] = *b"JRT1";

/// File magic for tenant-tagged `.jrt` traces.
pub const MAGIC_V2: [u8; 4] = *b"JRT2";

/// Index of a request within a trace: its 0-based global submission
/// order, the namespace `Unroute`/`Replace` victims are named in.
pub type TraceId = u32;

/// One recorded request.
#[derive(Debug, Clone)]
pub struct TraceReq {
    /// Scheduling priority (lower runs earlier), as submitted.
    pub priority: u8,
    /// Tenant the request belongs to (0 for single-tenant traces,
    /// including every legacy `JRT1` file).
    pub tenant: TenantId,
    /// Step deadline, if any. Wall-clock deadlines are not recorded:
    /// they are meaningless to a deterministic replay.
    pub deadline: Option<u64>,
    /// The operation, with victims as trace ids.
    pub op: TraceOp,
}

/// A recorded operation. Mirrors [`RequestKind`] with victims renamed
/// into the trace-id namespace.
#[derive(Debug, Clone)]
pub enum TraceOp {
    /// Route one net.
    Route(NetSpec),
    /// Tear down the nets of an earlier request.
    Unroute(TraceId),
    /// Atomically swap the nets of earlier requests for replacements.
    Replace {
        /// Earlier requests whose nets are removed.
        remove: Vec<TraceId>,
        /// Replacement nets.
        add: Vec<NetSpec>,
    },
}

/// A recorded scenario: batches of requests against one device family.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Device family the pins were generated for.
    pub family: Option<Family>,
    /// Requests, grouped by the batch they ran in.
    pub batches: Vec<Vec<TraceReq>>,
}

impl Trace {
    /// Empty trace for `family`.
    pub fn new(family: Family) -> Self {
        Trace {
            family: Some(family),
            batches: vec![Vec::new()],
        }
    }

    /// Record one tenant-0 request into the current (last) batch and
    /// return its trace id.
    pub fn record(&mut self, priority: u8, deadline: Option<Deadline>, op: TraceOp) -> TraceId {
        self.record_for(0, priority, deadline, op)
    }

    /// Record one request for `tenant` into the current (last) batch and
    /// return its trace id.
    pub fn record_for(
        &mut self,
        tenant: TenantId,
        priority: u8,
        deadline: Option<Deadline>,
        op: TraceOp,
    ) -> TraceId {
        let id = self.len() as TraceId;
        let deadline = match deadline {
            Some(Deadline::Steps(s)) => Some(s),
            // Wall-clock deadlines depend on machine speed; a replay
            // cannot honour them meaningfully, so they are not recorded.
            Some(Deadline::Elapsed(_)) | None => None,
        };
        if self.batches.is_empty() {
            self.batches.push(Vec::new());
        }
        self.batches.last_mut().expect("non-empty").push(TraceReq {
            priority,
            tenant,
            deadline,
            op,
        });
        id
    }

    /// Close the current batch; subsequent records go to a new one.
    /// A trailing empty batch is not encoded.
    pub fn end_batch(&mut self) {
        if self.batches.last().is_none_or(|b| !b.is_empty()) {
            self.batches.push(Vec::new());
        }
    }

    /// Total requests recorded (the next trace id).
    pub fn len(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests in submission order, across batches.
    pub fn iter(&self) -> impl Iterator<Item = &TraceReq> {
        self.batches.iter().flatten()
    }

    /// Validate internal consistency: every victim reference names an
    /// earlier request *of the same tenant*. Returns the first bad
    /// reference.
    pub fn validate(&self) -> Result<(), TraceError> {
        let tenants: Vec<TenantId> = self.iter().map(|r| r.tenant).collect();
        for (seen, req) in (0 as TraceId..).zip(self.iter()) {
            let check = |ids: &[TraceId]| -> Result<(), TraceError> {
                if let Some(&v) = ids.iter().find(|&&v| v >= seen) {
                    return Err(TraceError::BadVictim(v));
                }
                match ids.iter().find(|&&v| tenants[v as usize] != req.tenant) {
                    Some(&v) => Err(TraceError::CrossTenantVictim(v)),
                    None => Ok(()),
                }
            };
            match &req.op {
                TraceOp::Route(_) => {}
                TraceOp::Unroute(v) => check(std::slice::from_ref(v))?,
                TraceOp::Replace { remove, .. } => check(remove)?,
            }
        }
        Ok(())
    }

    /// Number of tenant shards the trace spans: one past the highest
    /// tenant tag (0 for an empty trace).
    pub fn tenant_count(&self) -> usize {
        self.iter()
            .map(|r| usize::from(r.tenant) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Project one tenant's requests out as a standalone single-tenant
    /// (tenant-0) trace: batch structure is preserved and victims are
    /// renumbered into the subtrace's id space. Validate first —
    /// projection assumes victims never cross tenants.
    pub fn subtrace(&self, tenant: TenantId) -> Trace {
        // Global trace id -> subtrace id, for this tenant's requests.
        let mut local: Vec<Option<TraceId>> = Vec::with_capacity(self.len());
        let mut next: TraceId = 0;
        for req in self.iter() {
            if req.tenant == tenant {
                local.push(Some(next));
                next += 1;
            } else {
                local.push(None);
            }
        }
        let renumber = |v: &TraceId| local[*v as usize].expect("victim within tenant");
        let batches = self
            .batches
            .iter()
            .map(|batch| {
                batch
                    .iter()
                    .filter(|r| r.tenant == tenant)
                    .map(|r| TraceReq {
                        priority: r.priority,
                        tenant: 0,
                        deadline: r.deadline,
                        op: match &r.op {
                            TraceOp::Route(spec) => TraceOp::Route(spec.clone()),
                            TraceOp::Unroute(v) => TraceOp::Unroute(renumber(v)),
                            TraceOp::Replace { remove, add } => TraceOp::Replace {
                                remove: remove.iter().map(renumber).collect(),
                                add: add.clone(),
                            },
                        },
                    })
                    .collect()
            })
            .collect();
        Trace {
            family: self.family,
            batches,
        }
    }

    /// Write the encoded trace to a `.jrt` file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Read and decode a `.jrt` file.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let bytes = std::fs::read(&path)?;
        Trace::from_bytes(&bytes).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: not a valid .jrt trace", path.as_ref().display()),
            )
        })
    }

    /// Replay the trace through a service: submit each batch, run it,
    /// collect the reports. Trace-id victims are mapped to the live
    /// [`RequestId`]s assigned at submission, so replaying into a
    /// service that has already processed other traffic works.
    ///
    /// The trace's family must match the service's device; forward or
    /// out-of-range victim references fail before anything is submitted.
    /// Only single-tenant (all-tenant-0) traces replay through a bare
    /// service — route a tagged trace through
    /// [`server::replay_trace`](crate::server::replay_trace), or project
    /// one shard out with [`Trace::subtrace`].
    pub fn replay(&self, svc: &mut RoutingService<'_>) -> Result<ReplaySummary, TraceError> {
        if self.iter().any(|r| r.tenant != 0) {
            return Err(TraceError::MultiTenant);
        }
        if let Some(fam) = self.family {
            let have = svc.device().family();
            if fam != have {
                return Err(TraceError::FamilyMismatch {
                    trace: fam,
                    device: have,
                });
            }
        }
        self.validate()?;
        let mut ids: Vec<RequestId> = Vec::with_capacity(self.len());
        let mut reports = Vec::with_capacity(self.batches.len());
        for batch in &self.batches {
            for req in batch {
                let live = |v: TraceId| ids[v as usize];
                let kind = match &req.op {
                    TraceOp::Route(spec) => RequestKind::Route(spec.clone()),
                    TraceOp::Unroute(v) => RequestKind::Unroute(live(*v)),
                    TraceOp::Replace { remove, add } => RequestKind::Replace {
                        remove: remove.iter().map(|&v| live(v)).collect(),
                        add: add.clone(),
                    },
                };
                let deadline = req.deadline.map(Deadline::Steps);
                let (id, _) = svc
                    .submit_with(kind, req.priority, deadline)
                    .map_err(|_| TraceError::QueueFull)?;
                ids.push(id);
            }
            if !batch.is_empty() {
                reports.push(svc.run_batch());
            }
        }
        let succeeded = reports
            .iter()
            .flat_map(|r| &r.outcomes)
            .filter(|(_, o)| o.is_success())
            .count();
        Ok(ReplaySummary {
            submitted: ids.len(),
            succeeded,
            ids,
            reports,
        })
    }
}

/// What a [`Trace::replay`] did.
#[derive(Debug)]
pub struct ReplaySummary {
    /// Requests submitted (equals the trace length).
    pub submitted: usize,
    /// Requests whose outcome changed committed state.
    pub succeeded: usize,
    /// Live request id per trace id, in submission order.
    pub ids: Vec<RequestId>,
    /// One report per non-empty batch, in order.
    pub reports: Vec<BatchReport>,
}

/// Why a trace could not replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// The trace was recorded against a different device family.
    FamilyMismatch {
        /// Family recorded in the trace header.
        trace: Family,
        /// Family of the replaying service's device.
        device: Family,
    },
    /// A victim reference names a request at or after its own position.
    BadVictim(TraceId),
    /// A victim reference crosses tenant shards.
    CrossTenantVictim(TraceId),
    /// A request is tagged for a tenant the replaying server does not
    /// have a device for.
    UnknownTenant(TenantId),
    /// A tenant-tagged trace was replayed through a single-tenant
    /// service.
    MultiTenant,
    /// The service's submission queue could not hold a batch.
    QueueFull,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::FamilyMismatch { trace, device } => {
                write!(f, "trace is for {trace} but the device is {device}")
            }
            TraceError::BadVictim(v) => write!(f, "victim #{v} is not an earlier request"),
            TraceError::CrossTenantVictim(v) => {
                write!(f, "victim #{v} belongs to a different tenant")
            }
            TraceError::UnknownTenant(t) => {
                write!(f, "trace names tenant {t} but the server has no such shard")
            }
            TraceError::MultiTenant => {
                write!(
                    f,
                    "tenant-tagged trace cannot replay through a single-tenant service"
                )
            }
            TraceError::QueueFull => write!(f, "service queue cannot hold a trace batch"),
        }
    }
}

impl std::error::Error for TraceError {}

fn take_u8(input: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = input.split_first()?;
    *input = rest;
    Some(b)
}

fn take_u16(input: &mut &[u8]) -> Option<u16> {
    let (bytes, rest) = input.split_first_chunk::<2>()?;
    *input = rest;
    Some(u16::from_le_bytes(*bytes))
}

fn take_u32(input: &mut &[u8]) -> Option<u32> {
    let (bytes, rest) = input.split_first_chunk::<4>()?;
    *input = rest;
    Some(u32::from_le_bytes(*bytes))
}

fn take_u64(input: &mut &[u8]) -> Option<u64> {
    let (bytes, rest) = input.split_first_chunk::<8>()?;
    *input = rest;
    Some(u64::from_le_bytes(*bytes))
}

fn encode_pin(pin: &Pin, out: &mut Vec<u8>) {
    pin.rc.encode(out);
    pin.wire.encode(out);
}

fn decode_pin(input: &mut &[u8]) -> Option<Pin> {
    Some(Pin::at(RowCol::decode(input)?, Wire::decode(input)?))
}

fn encode_spec(spec: &NetSpec, out: &mut Vec<u8>) {
    encode_pin(&spec.source, out);
    debug_assert!(spec.sinks.len() <= u16::MAX as usize);
    out.extend_from_slice(&(spec.sinks.len() as u16).to_le_bytes());
    for s in &spec.sinks {
        encode_pin(s, out);
    }
}

fn decode_spec(input: &mut &[u8]) -> Option<NetSpec> {
    let source = decode_pin(input)?;
    let n = take_u16(input)? as usize;
    let mut sinks = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        sinks.push(decode_pin(input)?);
    }
    Some(NetSpec::new(source, sinks))
}

/// Encode one request; `tagged` selects the `JRT2` layout (tenant u16
/// after the priority byte).
fn encode_req(req: &TraceReq, tagged: bool, out: &mut Vec<u8>) {
    out.push(req.priority);
    if tagged {
        out.extend_from_slice(&req.tenant.to_le_bytes());
    } else {
        debug_assert_eq!(req.tenant, 0, "untagged encoding requires tenant 0");
    }
    match req.deadline {
        None => out.push(0),
        Some(steps) => {
            out.push(1);
            out.extend_from_slice(&steps.to_le_bytes());
        }
    }
    match &req.op {
        TraceOp::Route(spec) => {
            out.push(0);
            encode_spec(spec, out);
        }
        TraceOp::Unroute(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        TraceOp::Replace { remove, add } => {
            out.push(2);
            debug_assert!(remove.len() <= u16::MAX as usize);
            out.extend_from_slice(&(remove.len() as u16).to_le_bytes());
            for v in remove {
                out.extend_from_slice(&v.to_le_bytes());
            }
            debug_assert!(add.len() <= u16::MAX as usize);
            out.extend_from_slice(&(add.len() as u16).to_le_bytes());
            for spec in add {
                encode_spec(spec, out);
            }
        }
    }
}

/// Decode one request from the `tagged` (`JRT2`) or untagged (`JRT1`,
/// tenant 0) layout.
fn decode_req(input: &mut &[u8], tagged: bool) -> Option<TraceReq> {
    let priority = take_u8(input)?;
    let tenant = if tagged { take_u16(input)? } else { 0 };
    let deadline = match take_u8(input)? {
        0 => None,
        1 => Some(take_u64(input)?),
        _ => return None,
    };
    let op = match take_u8(input)? {
        0 => TraceOp::Route(decode_spec(input)?),
        1 => TraceOp::Unroute(take_u32(input)?),
        2 => {
            let nr = take_u16(input)? as usize;
            let mut remove = Vec::with_capacity(nr.min(1024));
            for _ in 0..nr {
                remove.push(take_u32(input)?);
            }
            let na = take_u16(input)? as usize;
            let mut add = Vec::with_capacity(na.min(1024));
            for _ in 0..na {
                add.push(decode_spec(input)?);
            }
            TraceOp::Replace { remove, add }
        }
        _ => return None,
    };
    Some(TraceReq {
        priority,
        tenant,
        deadline,
        op,
    })
}

impl Codec for Trace {
    fn encode(&self, out: &mut Vec<u8>) {
        // Canonical header selection: the tagged layout exists iff a
        // nonzero tenant does, so all-tenant-0 traces (every legacy
        // producer) still encode byte-identical `JRT1`.
        let tagged = self.iter().any(|r| r.tenant != 0);
        out.extend_from_slice(if tagged { &MAGIC_V2 } else { &MAGIC });
        self.family
            .expect("encoding a trace requires a family")
            .encode(out);
        // A trailing empty batch (an `end_batch` with nothing after it)
        // is a recording artifact, not content; skip it so record order
        // and re-encode stay canonical.
        let batches: Vec<&Vec<TraceReq>> = self
            .batches
            .iter()
            .enumerate()
            .filter(|&(i, b)| !b.is_empty() || i + 1 < self.batches.len())
            .map(|(_, b)| b)
            .collect();
        out.extend_from_slice(&(batches.len() as u32).to_le_bytes());
        for batch in batches {
            out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
            for req in batch {
                encode_req(req, tagged, out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let (magic, rest) = input.split_first_chunk::<4>()?;
        let tagged = match *magic {
            MAGIC => false,
            MAGIC_V2 => true,
            _ => return None,
        };
        *input = rest;
        let family = Family::decode(input)?;
        let nb = take_u32(input)? as usize;
        let mut batches = Vec::with_capacity(nb.min(1024));
        for _ in 0..nb {
            let nr = take_u32(input)? as usize;
            let mut batch = Vec::with_capacity(nr.min(4096));
            for _ in 0..nr {
                batch.push(decode_req(input, tagged)?);
            }
            batches.push(batch);
        }
        // Canonical: the tagged header must be necessary.
        if tagged && batches.iter().flatten().all(|r| r.tenant == 0) {
            return None;
        }
        Some(Trace {
            family: Some(family),
            batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RequestOutcome, ServiceConfig};
    use jroute::Pin as JPin;
    use virtex::{wire, Device};

    fn spec(i: u16) -> NetSpec {
        NetSpec::new(
            JPin::new(2 + i % 10, 2 + i % 14, wire::S0_YQ),
            vec![JPin::new(3 + i % 10, 5 + i % 14, wire::S0_F3)],
        )
    }

    fn sample() -> Trace {
        let mut t = Trace::new(Family::Xcv50);
        let a = t.record(128, None, TraceOp::Route(spec(0)));
        let b = t.record(10, Some(Deadline::Steps(100)), TraceOp::Route(spec(1)));
        t.end_batch();
        t.record(128, None, TraceOp::Unroute(a));
        t.record(
            200,
            None,
            TraceOp::Replace {
                remove: vec![b],
                add: vec![spec(2), spec(3)],
            },
        );
        t
    }

    #[test]
    fn encode_decode_reencode_is_byte_identical() {
        let t = sample();
        let bytes = t.to_bytes();
        let decoded = Trace::from_bytes(&bytes).expect("decodes");
        assert_eq!(decoded.len(), t.len());
        assert_eq!(decoded.batches.len(), 2);
        assert_eq!(decoded.to_bytes(), bytes, "canonical re-encode");
    }

    #[test]
    fn trailing_empty_batch_is_not_encoded() {
        let mut t = sample();
        t.end_batch();
        t.end_batch();
        let decoded = Trace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded.batches.len(), 2);
        // `end_batch` is idempotent: a repeated call between two
        // requests opens exactly one new batch, never an empty interior
        // one.
        let mut t = Trace::new(Family::Xcv50);
        t.record(128, None, TraceOp::Route(spec(0)));
        t.end_batch();
        t.end_batch();
        t.record(128, None, TraceOp::Route(spec(1)));
        let decoded = Trace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded.batches.len(), 2);
        assert_eq!(decoded.to_bytes(), t.to_bytes());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Trace::from_bytes(b"").is_none());
        assert!(
            Trace::from_bytes(b"JRT0\x00\x00\x00\x00\x00").is_none(),
            "bad magic"
        );
        let mut bytes = sample().to_bytes();
        bytes.truncate(bytes.len() - 1);
        assert!(Trace::from_bytes(&bytes).is_none(), "truncated");
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(Trace::from_bytes(&bytes).is_none(), "trailing bytes");
    }

    #[test]
    fn validate_rejects_forward_and_self_references() {
        let mut t = Trace::new(Family::Xcv50);
        t.record(128, None, TraceOp::Unroute(0));
        assert_eq!(t.validate(), Err(TraceError::BadVictim(0)));
        let mut t = Trace::new(Family::Xcv50);
        t.record(128, None, TraceOp::Route(spec(0)));
        t.record(
            128,
            None,
            TraceOp::Replace {
                remove: vec![5],
                add: vec![],
            },
        );
        assert_eq!(t.validate(), Err(TraceError::BadVictim(5)));
        assert!(sample().validate().is_ok());
    }

    fn tenant_sample() -> Trace {
        let mut t = Trace::new(Family::Xcv50);
        let a = t.record_for(0, 128, None, TraceOp::Route(spec(0)));
        let b = t.record_for(1, 100, None, TraceOp::Route(spec(1)));
        t.end_batch();
        t.record_for(0, 128, None, TraceOp::Unroute(a));
        t.record_for(
            1,
            200,
            Some(Deadline::Steps(50)),
            TraceOp::Replace {
                remove: vec![b],
                add: vec![spec(2)],
            },
        );
        t
    }

    #[test]
    fn tenant_tagged_trace_round_trips_as_jrt2() {
        let t = tenant_sample();
        let bytes = t.to_bytes();
        assert_eq!(&bytes[..4], b"JRT2", "nonzero tenants force the tag");
        let decoded = Trace::from_bytes(&bytes).expect("decodes");
        let tenants: Vec<TenantId> = decoded.iter().map(|r| r.tenant).collect();
        assert_eq!(tenants, vec![0, 1, 0, 1]);
        assert_eq!(decoded.to_bytes(), bytes, "canonical re-encode");
        assert_eq!(decoded.tenant_count(), 2);
        assert!(decoded.validate().is_ok());
    }

    #[test]
    fn untagged_traces_stay_jrt1_and_load_as_tenant_zero() {
        let t = sample();
        let bytes = t.to_bytes();
        assert_eq!(&bytes[..4], b"JRT1", "all-tenant-0 stays legacy");
        let decoded = Trace::from_bytes(&bytes).unwrap();
        assert!(decoded.iter().all(|r| r.tenant == 0));
        assert_eq!(decoded.tenant_count(), 1);
        // A JRT2 header on all-zero tenants is non-canonical garbage.
        let mut fake = bytes.clone();
        fake[..4].copy_from_slice(b"JRT2");
        assert!(Trace::from_bytes(&fake).is_none());
    }

    #[test]
    fn validate_rejects_cross_tenant_victims() {
        let mut t = Trace::new(Family::Xcv50);
        let a = t.record_for(0, 128, None, TraceOp::Route(spec(0)));
        t.record_for(1, 128, None, TraceOp::Unroute(a));
        assert_eq!(t.validate(), Err(TraceError::CrossTenantVictim(0)));
    }

    #[test]
    fn subtrace_projects_one_shard_with_renumbered_victims() {
        let t = tenant_sample();
        let s1 = t.subtrace(1);
        assert_eq!(s1.len(), 2);
        assert_eq!(s1.batches.len(), 2);
        assert!(s1.iter().all(|r| r.tenant == 0), "projection re-tags");
        match &s1.batches[1][0].op {
            TraceOp::Replace { remove, .. } => {
                assert_eq!(remove, &vec![0], "victim renumbered to local id")
            }
            other => panic!("expected Replace, got {other:?}"),
        }
        assert!(s1.validate().is_ok());
        // The projection of a single-tenant trace onto tenant 0 is the
        // identity.
        let t0 = sample();
        assert_eq!(t0.subtrace(0).to_bytes(), t0.to_bytes());
    }

    #[test]
    fn single_service_replay_refuses_tagged_traces() {
        let dev = Device::new(Family::Xcv50);
        let mut svc = RoutingService::new(&dev, ServiceConfig::default());
        assert!(matches!(
            tenant_sample().replay(&mut svc),
            Err(TraceError::MultiTenant)
        ));
    }

    #[test]
    fn replay_reproduces_the_recorded_scenario() {
        let dev = Device::new(Family::Xcv50);
        let cfg = ServiceConfig {
            threads: 2,
            audit: true,
            ..Default::default()
        };
        let t = sample();
        let mut svc = RoutingService::new(&dev, cfg.clone());
        let summary = t.replay(&mut svc).expect("replays");
        assert_eq!(summary.submitted, 4);
        assert_eq!(summary.reports.len(), 2);
        // Request `a` was unrouted, `b` replaced by two nets: exactly
        // the replacements remain.
        assert_eq!(svc.db().len(), 2);
        let replaced = summary.ids[3];
        assert!(matches!(
            summary.reports[1]
                .outcome(replaced)
                .expect("replace outcome"),
            RequestOutcome::Replaced { added, .. } if added.len() == 2
        ));
        // A second replay into a fresh service lands on
        // the identical census — the fixture property.
        let mut svc2 = RoutingService::new(&dev, cfg);
        t.replay(&mut svc2).unwrap();
        assert_eq!(svc.db().census(), svc2.db().census());
    }

    #[test]
    fn replay_rejects_a_family_mismatch() {
        let dev = Device::new(Family::Xcv300);
        let mut svc = RoutingService::new(&dev, ServiceConfig::default());
        match sample().replay(&mut svc) {
            Err(TraceError::FamilyMismatch { trace, device }) => {
                assert_eq!(trace, Family::Xcv50);
                assert_eq!(device, Family::Xcv300);
            }
            other => panic!("expected a family mismatch, got {other:?}"),
        }
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let t = sample();
        let path = std::env::temp_dir().join(format!("jrt-test-{}.jrt", std::process::id()));
        t.save(&path).unwrap();
        let loaded = Trace::load(&path).unwrap();
        assert_eq!(loaded.to_bytes(), t.to_bytes());
        std::fs::remove_file(&path).ok();
    }
}
