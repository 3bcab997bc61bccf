//! E19: multi-tenant server throughput and latency.
//!
//! The async server front-end (DESIGN.md §3.8) multiplexes many tenant
//! shards over one shared routing pool: producer handles feed each
//! tenant's executor directly, and an idle executor takes whatever its
//! tenant has queued, up to 16 requests, while the other tenants'
//! batches route. This bench measures what the multiplexing costs and
//! buys: end-to-end admission→completion throughput and p50/p99 request
//! latency at 1, 2 and 4 tenants over a worker sweep (`JROUTE_THREADS`
//! override honoured).
//!
//! Each tenant's producer runs on its own thread, submitting a seeded
//! route/unroute mix against the tenant's private device shard and
//! waiting all tickets; latencies come from the server's own
//! `svc.server.request_ns{tenant}` histograms (submission to terminal
//! outcome, queueing included — the client-observable number). The
//! deterministic-equivalence story is *not* re-proven here (the server
//! stress suite owns it); the table asserts only sanity: every
//! admission reaches a terminal outcome, no tenant poisons, and the
//! success count is the same at every worker count.

use harness::{bench_group, bench_main, BatchSize, Bench};
use jroute_bench::thread_counts;
use jroute_obs::{labeled, Recorder};
use jroute_svc::{serve, ExecMode, RequestKind, ServerConfig, TenantId};
use jroute_workloads::fanout_spec;
use std::time::Instant;
use virtex::{Device, Family, RowCol};

/// Requests each tenant's producer submits per run.
const PER_TENANT: usize = 48;

fn server_cfg(workers: usize) -> ServerConfig {
    ServerConfig {
        threads: workers,
        tenant_threads: 2,
        mode: ExecMode::Threaded,
        audit: false,
        batch_max: 16,
        ..Default::default()
    }
}

/// One tenant's producer: a seeded mix of routes and unroutes of its own
/// earlier routes, flushed at the end, every ticket waited. Returns the
/// number of successful requests.
///
/// An unroute names a route only once that route's ticket reads
/// success (waiting for it if need be). Naming an unconfirmed route
/// would make the unroute's fate depend on whether both landed in one
/// batch, so the success count would measure where batches were cut.
fn produce(handle: &jroute_svc::TenantHandle, tenant: TenantId, n: usize, dev: &Device) -> usize {
    let mut rng = detrand::DetRng::seed_from_u64(jroute_bench::SEED ^ u64::from(tenant));
    let mut tickets: Vec<jroute_svc::Ticket> = Vec::with_capacity(n);
    // Indices into `tickets` of routes not yet named as a victim.
    let mut routes: Vec<usize> = Vec::new();
    for i in 0..n {
        let mut victim = None;
        while i % 4 == 3 && victim.is_none() && !routes.is_empty() {
            let route = &tickets[routes.swap_remove(rng.gen_range(0..routes.len()))];
            victim = route.wait().is_success().then(|| route.id());
        }
        let kind = match victim {
            Some(id) => RequestKind::Unroute(id),
            None => {
                let source = RowCol::new(rng.gen_range(1u16..14), rng.gen_range(1u16..22));
                RequestKind::Route(fanout_spec(dev, source, 2, 4, &mut rng))
            }
        };
        if matches!(kind, RequestKind::Route(_)) {
            routes.push(tickets.len());
        }
        tickets.push(handle.submit(kind).expect("gate sized for the workload"));
    }
    handle.flush();
    tickets.iter().filter(|t| t.wait().is_success()).count()
}

/// Run one configuration and return (wall seconds, successes, worst
/// per-tenant p50 ns, worst per-tenant p99 ns).
fn run(tenants: usize, workers: usize) -> (f64, usize, u64, u64) {
    let devices: Vec<Device> = (0..tenants).map(|_| Device::new(Family::Xcv50)).collect();
    let refs: Vec<&Device> = devices.iter().collect();
    let obs = Recorder::enabled();
    let t0 = Instant::now();
    let (ok, report) = serve(&refs, server_cfg(workers), obs.clone(), |client| {
        std::thread::scope(|s| {
            let joins: Vec<_> = (0..tenants)
                .map(|t| {
                    let handle = client.tenant(t as TenantId);
                    let dev = &devices[t];
                    s.spawn(move || produce(&handle, t as TenantId, PER_TENANT, dev))
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).sum::<usize>()
        })
    });
    let dt = t0.elapsed().as_secs_f64();
    assert!(report.tenants.iter().all(|t| !t.poisoned));
    for t in &report.tenants {
        assert_eq!(t.outcomes.len(), PER_TENANT, "every admission answered");
    }
    let snapshot = obs.report();
    let (mut p50, mut p99) = (0u64, 0u64);
    for t in 0..tenants {
        if let Some(h) = snapshot.hist(&labeled("svc.server.request_ns", "tenant", t)) {
            p50 = p50.max(h.p50());
            p99 = p99.max(h.p99());
        }
    }
    (dt, ok, p50, p99)
}

fn table() {
    eprintln!("\n=== E19: multi-tenant server throughput/latency (XCV50 shards) ===");
    eprintln!("{PER_TENANT} requests per tenant, an idle executor takes up to 16 queued reqs");
    eprintln!(
        "{:<8} {:>8} {:>6} {:>10} {:>10} {:>12} {:>12}",
        "tenants", "workers", "ok", "time", "req/s", "p50", "p99"
    );
    for tenants in [1usize, 2, 4] {
        let mut first_ok = None;
        for workers in thread_counts(&[1, 2, 4, 8]) {
            let (dt, ok, p50, p99) = run(tenants, workers);
            let want = *first_ok.get_or_insert(ok);
            let total = tenants * PER_TENANT;
            eprintln!(
                "{:<8} {:>8} {:>6} {:>8.0}ms {:>10.0} {:>10.2}ms {:>10.2}ms",
                tenants,
                workers,
                ok,
                dt * 1e3,
                total as f64 / dt,
                p50 as f64 / 1e6,
                p99 as f64 / 1e6,
            );
            assert!(ok > 0, "the mix must commit something");
            assert_eq!(
                ok, want,
                "{tenants} tenants: success count moved with {workers} workers"
            );
        }
    }
}

fn bench(c: &mut Bench) {
    table();
    let mut g = c.benchmark_group("e19");
    for tenants in [1usize, 2, 4] {
        g.bench_function(format!("serve_{tenants}ten_4t"), |b| {
            b.iter_batched(|| (), |_| run(tenants, 4), BatchSize::PerIteration)
        });
    }
    g.finish();
}

bench_group! {
    name = benches;
    config = Bench::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
bench_main!(benches);
