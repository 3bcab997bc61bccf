//! Multi-tenant server stress tests: the server against the sequential
//! model, across seeds, pool widths, tenant counts and both batch
//! modes.
//!
//! The server (DESIGN.md §3.8) promises that every tenant batch is a
//! serialization in `(priority, admission)` order whatever width its
//! executor leased, so in [`ExecMode::Deterministic`] — where batch
//! boundaries depend only on the admission sequence — a fixed
//! submission trace produces bit-identical per-tenant results at 1, 4
//! or 8 pool threads. These tests drive that promise end-to-end with
//! [`tenant_mix`] workloads:
//!
//! * every tenant's committed census must equal a single-threaded
//!   [`SequentialModel`] replay of its own commit log — same segments,
//!   same `NetId`s — in either mode and at every pool width;
//! * the isolation audit: no admission, outcome or log entry of one
//!   tenant may reference another tenant's shard, and every leak audit
//!   must come back clean;
//! * in deterministic mode the full per-tenant (census, log) pair must
//!   be identical across pool widths {1, 4, 8};
//! * a recorded tenant-tagged trace replayed through the server path
//!   ([`server::replay_trace`]) must agree with per-shard standalone
//!   replays of its [`Trace::subtrace`] projections under the exact
//!   [`tenant_service_config`] policy the server uses.

use detrand::DetRng;
use jroute::maze::MazeConfig;
use jroute_svc::model::SequentialModel;
use jroute_svc::server::{replay_trace, tenant_service_config};
use jroute_svc::{
    serve, Deadline, ExecMode, RequestKind, RoutingService, ServerConfig, TenantId, TenantReport,
    Trace, TraceOp,
};
use jroute_workloads::{tenant_mix, TenantMixParams};
use std::collections::HashMap;
use virtex::{Device, Family};

use jroute::obs::Recorder;

const SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0xC0FFEE];
const POOL_WIDTHS: [usize; 3] = [1, 4, 8];
const TENANT_COUNTS: [u16; 3] = [1, 2, 4];

fn mix_params(tenants: u16) -> TenantMixParams {
    TenantMixParams {
        tenants,
        per_tenant: 10,
        batch_every: 6,
        fanout: 2,
        span: 4,
        unroute_pct: 25,
        replace_pct: 25,
    }
}

fn server_cfg(pool: usize, mode: ExecMode) -> ServerConfig {
    ServerConfig {
        threads: pool,
        tenant_threads: 2,
        mode,
        audit: true,
        // Watermarks off: the test controls batch boundaries via flush,
        // so in deterministic mode every width sees the identical batch
        // structure.
        batch_max: usize::MAX,
        ..Default::default()
    }
}

/// Feed a tenant-tagged trace to a live server, preserving recorded
/// batch boundaries, and return the per-admission kinds (victims named
/// by admission id — the namespace [`SequentialModel`] replays in)
/// alongside the report.
fn drive(
    devices: &[&Device],
    cfg: ServerConfig,
    trace: &Trace,
) -> (
    HashMap<(TenantId, u64), RequestKind>,
    Vec<jroute_svc::TenantReport>,
) {
    let (kinds, report) = serve(devices, cfg, Recorder::disabled(), |client| {
        let handles: Vec<_> = (0..devices.len())
            .map(|t| client.tenant(t as TenantId))
            .collect();
        // Global trace id -> the admission id the server assigned.
        let mut admitted: Vec<u64> = Vec::with_capacity(trace.len());
        let mut kinds = HashMap::new();
        for batch in &trace.batches {
            let mut tickets = Vec::new();
            for req in batch {
                let victim = |tid: &u32| admitted[*tid as usize];
                let kind = match &req.op {
                    TraceOp::Route(spec) => RequestKind::Route(spec.clone()),
                    TraceOp::Unroute(tid) => RequestKind::Unroute(victim(tid)),
                    TraceOp::Replace { remove, add } => RequestKind::Replace {
                        remove: remove.iter().map(victim).collect(),
                        add: add.clone(),
                    },
                };
                let ticket = handles[usize::from(req.tenant)]
                    .submit_with(
                        kind.clone(),
                        req.priority,
                        req.deadline.map(Deadline::Steps),
                    )
                    .expect("gate capacity exceeds the workload");
                admitted.push(ticket.id());
                kinds.insert((req.tenant, ticket.id()), kind);
                tickets.push(ticket);
            }
            for handle in &handles {
                handle.flush();
            }
            for ticket in &tickets {
                ticket.wait();
            }
        }
        kinds
    });
    (kinds, report.tenants)
}

/// Per-tenant checks of one server run: clean leak audit, no poisoning,
/// the isolation audit, and the census of a sequential replay of the
/// tenant's own log.
fn check_against_model(
    devices: &[Device],
    kinds: &HashMap<(TenantId, u64), RequestKind>,
    reports: &[TenantReport],
    label: &str,
) {
    for t in reports {
        assert_eq!(
            t.leaked_segments,
            Some(0),
            "{label} tenant {}: leaked segments",
            t.tenant
        );
        assert!(!t.poisoned);

        // Isolation: every admission this tenant answered was admitted
        // through this tenant's gate (dense ids), and every victim its
        // requests name is its own admission.
        for (i, &(seq, _)) in t.outcomes.iter().enumerate() {
            assert_eq!(seq, i as u64, "tenant admission ids are dense");
        }
        for entry in &t.log {
            let kind = &kinds[&(t.tenant, entry.seq)];
            let victims: Vec<u64> = match kind {
                RequestKind::Route(_) => Vec::new(),
                RequestKind::Unroute(v) => vec![*v],
                RequestKind::Replace { remove, .. } => remove.clone(),
            };
            for v in victims {
                assert!(
                    kinds.contains_key(&(t.tenant, v)),
                    "tenant {} names victim {v} outside its shard",
                    t.tenant
                );
            }
        }

        // Model diff: replay the successful log entries sequentially;
        // the shard census must match exactly.
        let dev = &devices[usize::from(t.tenant)];
        let mut model = SequentialModel::new(dev, MazeConfig::default());
        for entry in &t.log {
            if t.outcome(entry.seq)
                .expect("logged => answered")
                .is_success()
            {
                model.apply(entry.seq, &kinds[&(t.tenant, entry.seq)]);
            }
        }
        assert_eq!(
            model.db().census(),
            t.census,
            "{label} tenant {}: census drifted from model",
            t.tenant
        );
    }
}

/// The deterministic server agrees with a per-tenant sequential replay
/// of its own logs, for every seed × pool width × tenant count, and the
/// isolation audit holds.
#[test]
fn deterministic_server_matches_sequential_model_across_widths() {
    for seed in SEEDS {
        for tenants in TENANT_COUNTS {
            let devices: Vec<Device> = (0..tenants).map(|_| Device::new(Family::Xcv50)).collect();
            let refs: Vec<&Device> = devices.iter().collect();
            let mut rng = DetRng::seed_from_u64(seed);
            let trace = tenant_mix(&devices[0], &mix_params(tenants), &mut rng);

            let mut baseline: Option<Vec<_>> = None;
            for pool in POOL_WIDTHS {
                let cfg = server_cfg(pool, ExecMode::Deterministic);
                let (kinds, reports) = drive(&refs, cfg, &trace);
                assert_eq!(reports.len(), usize::from(tenants));
                check_against_model(
                    &devices,
                    &kinds,
                    &reports,
                    &format!("seed {seed:#x} pool {pool}"),
                );

                // Pool width must be invisible: identical census and log
                // at 1, 4 and 8 shared threads.
                let key: Vec<_> = reports
                    .iter()
                    .map(|t| (t.census.clone(), t.log.clone(), t.outcomes.clone()))
                    .collect();
                match &baseline {
                    None => baseline = Some(key),
                    Some(b) => assert_eq!(
                        b, &key,
                        "seed {seed:#x} tenants {tenants}: pool width {pool} changed results"
                    ),
                }
            }
        }
    }
}

/// With threaded executors, batch boundaries follow arrival timing, but
/// every tenant still matches the sequential replay of its
/// own log at pool widths 1, 2 and 4 — on a device large enough that
/// disjoint search regions run in parallel waves.
#[test]
fn threaded_server_matches_sequential_model_at_every_width() {
    for seed in SEEDS {
        let tenants: u16 = 2;
        let devices: Vec<Device> = (0..tenants).map(|_| Device::new(Family::Xcv300)).collect();
        let refs: Vec<&Device> = devices.iter().collect();
        let mut rng = DetRng::seed_from_u64(seed);
        let trace = tenant_mix(&devices[0], &mix_params(tenants), &mut rng);
        for pool in [1, 2, 4] {
            let cfg = server_cfg(pool, ExecMode::Threaded);
            let (kinds, reports) = drive(&refs, cfg, &trace);
            assert_eq!(reports.len(), usize::from(tenants));
            check_against_model(
                &devices,
                &kinds,
                &reports,
                &format!("threaded seed {seed:#x} pool {pool}"),
            );
        }
    }
}

/// Server-path trace replay agrees with standalone per-shard replays:
/// `replay_trace` over the whole tagged trace produces, per tenant, the
/// census a fresh `RoutingService` reaches replaying that tenant's
/// `subtrace` under the same per-tenant policy — whichever mode the
/// caller's config names, because replay pins recorded batch boundaries.
#[test]
fn server_trace_replay_matches_per_shard_standalone_replay() {
    let seed = 0x7E4A;
    let tenants: u16 = 3;
    let devices: Vec<Device> = (0..tenants).map(|_| Device::new(Family::Xcv50)).collect();
    let refs: Vec<&Device> = devices.iter().collect();
    let mut rng = DetRng::seed_from_u64(seed);
    let trace = tenant_mix(&devices[0], &mix_params(tenants), &mut rng);
    trace.validate().unwrap();

    for mode in [ExecMode::Deterministic, ExecMode::Threaded] {
        let cfg = server_cfg(4, mode);
        let report =
            replay_trace(&refs, &cfg, Recorder::disabled(), &trace).expect("valid trace replays");

        for t in 0..tenants {
            let shard = trace.subtrace(t);
            let mut svc =
                RoutingService::new(&devices[usize::from(t)], tenant_service_config(&cfg));
            shard.replay(&mut svc).expect("subtrace replays standalone");
            assert_eq!(
                svc.db().census(),
                report.tenants[usize::from(t)].census,
                "{mode:?} tenant {t}: server path and standalone shard replay disagree"
            );
            let recorded = trace
                .batches
                .iter()
                .filter(|batch| batch.iter().any(|r| r.tenant == t))
                .count();
            assert_eq!(
                report.tenants[usize::from(t)].batches,
                recorded as u64,
                "{mode:?} tenant {t}: recorded batch boundaries moved"
            );
        }
    }
}
