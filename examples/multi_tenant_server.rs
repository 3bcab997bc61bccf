//! Multi-tenant routing server demo (DESIGN.md §3.8): three tenants,
//! each owning a private XCV50 shard, submitting concurrently from their
//! own producer threads into one shared server. Shows the full surface:
//! batches cut by size and flush, per-tenant backpressure (`QueueFull`),
//! cancellation of a queued request, and the tenant-labelled telemetry —
//! the rolling window plus a Prometheus snapshot. The server runs in
//! `ExecMode::Deterministic`, so a request stays unbatched until its
//! batch fills or is flushed, and the cancellation demo is race-free.
//!
//! Run with: `cargo run --release --example multi_tenant_server`

use detrand::DetRng;
use jroute::obs::{labeled, prometheus_text, Recorder};
use jroute_svc::{serve, ExecMode, RequestKind, ServerConfig, ServerOutcome, TenantId};
use jroute_workloads::fanout_spec;
use virtex::{Device, Family, RowCol};

const TENANTS: usize = 3;
const PER_TENANT: usize = 24;

fn main() {
    let devices: Vec<Device> = (0..TENANTS).map(|_| Device::new(Family::Xcv50)).collect();
    let refs: Vec<&Device> = devices.iter().collect();
    let obs = Recorder::enabled();
    let cfg = ServerConfig {
        threads: 4,
        tenant_threads: 2,
        mode: ExecMode::Deterministic,
        batch_max: 8,
        // Small admission gates so the backpressure demo below can
        // outrun the executor and observe QueueFull.
        queue_capacity: 64,
        ..Default::default()
    };
    println!(
        "server: {TENANTS} tenants on private {} shards, 4 shared workers, \
         batches cut at 8 requests or a flush\n",
        devices[0].family()
    );

    let (stats, report) = serve(&refs, cfg, obs.clone(), |client| {
        std::thread::scope(|s| {
            let producers: Vec<_> = (0..TENANTS)
                .map(|t| {
                    let handle = client.tenant(t as TenantId);
                    let dev = &devices[t];
                    s.spawn(move || {
                        let mut rng = DetRng::seed_from_u64(0x5EED ^ t as u64);
                        let tickets: Vec<_> = (0..PER_TENANT)
                            .map(|_| {
                                let src =
                                    RowCol::new(rng.gen_range(1u16..14), rng.gen_range(1u16..22));
                                let spec = fanout_spec(dev, src, 2, 4, &mut rng);
                                handle
                                    .submit(RequestKind::Route(spec))
                                    .expect("gate sized for the demo")
                            })
                            .collect();
                        handle.flush();
                        tickets.iter().filter(|t| t.wait().is_success()).count()
                    })
                })
                .collect();
            let routed: Vec<usize> = producers.into_iter().map(|j| j.join().unwrap()).collect();

            // Cancellation: a lone request waits in its tenant's forming
            // batch until the flush; cancel it before the cut and watch
            // it resolve as Cancelled.
            let h = client.tenant(0);
            let mut rng = DetRng::seed_from_u64(0xCA7);
            let doomed = h
                .submit(RequestKind::Route(fanout_spec(
                    &devices[0],
                    RowCol::new(7, 11),
                    2,
                    4,
                    &mut rng,
                )))
                .unwrap();
            doomed.cancel_token().cancel();
            h.flush();
            let cancelled = matches!(
                doomed.wait(),
                ServerOutcome::Done(jroute_svc::RequestOutcome::Cancelled)
            );

            // Backpressure: storm the small gate faster than routing can
            // drain it; submission fails synchronously with QueueFull.
            let mut refused = 0usize;
            let mut storm = Vec::new();
            for _ in 0..10_000 {
                let src = RowCol::new(rng.gen_range(1u16..14), rng.gen_range(1u16..22));
                match h.submit(RequestKind::Route(fanout_spec(
                    &devices[0],
                    src,
                    2,
                    4,
                    &mut rng,
                ))) {
                    Ok(t) => storm.push(t),
                    Err(_) => {
                        refused += 1;
                        break;
                    }
                }
            }
            h.flush();
            for t in &storm {
                t.wait();
            }
            (routed, cancelled, refused)
        })
    });

    let (routed, cancelled, refused) = stats;
    for (t, ok) in routed.iter().enumerate() {
        println!(
            "tenant {t}: {ok}/{PER_TENANT} routed over {} batches, census {} segments",
            report.tenants[t].batches,
            report.tenants[t].census.len()
        );
    }
    println!("cancelled-before-batch resolved as Cancelled: {cancelled}");
    println!("backpressure: {refused} submission(s) refused with QueueFull");

    let window = report.window.as_ref().expect("recorder enabled");
    let last = window.latest().expect("server ticked");
    println!(
        "\nwindow: {} samples; final queue depths: {:?}",
        window.len(),
        (0..TENANTS)
            .map(|t| last
                .value(&labeled("svc.server.queue_depth", "tenant", t))
                .unwrap_or(0.0))
            .collect::<Vec<_>>()
    );

    let text = prometheus_text(&obs.report());
    println!("\nPrometheus snapshot (tenant-labelled families):");
    for line in text
        .lines()
        .filter(|l| l.contains("jroute_svc_server_submitted") && !l.starts_with('#'))
    {
        println!("  {line}");
    }

    assert!(routed.iter().all(|&ok| ok > 0));
    assert!(cancelled);
    assert!(refused >= 1, "the storm must hit the admission gate");
    println!("\nmulti_tenant_server: OK");
}
