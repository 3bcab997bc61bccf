//! Property-based tests over the whole stack: invariants that must hold
//! for *any* routing request, not just the handworked examples.
//!
//! Each property runs under the in-repo `harness` driver: a configurable
//! number of seeded cases (`HARNESS_CASES`, default 24), with the failing
//! case's seed printed on panic so it can be replayed with
//! `HARNESS_SEED=<seed> HARNESS_CASES=1`.

use detrand::DetRng;
use jroute::{EndPoint, Pin, Router, RouterOptions};
use jroute_workloads::{fanout_spec, random_pairs};
use virtex::{wire, Device, Family, RowCol, Wire};

fn dev() -> Device {
    Device::new(Family::Xcv50)
}

/// canonicalize is idempotent and stable: the canonical segment of any
/// existing local name canonicalizes to itself.
#[test]
fn canonicalize_is_idempotent() {
    harness::check("canonicalize_is_idempotent", |rng| {
        let dev = dev();
        let rc = RowCol::new(rng.gen_range(0u16..16), rng.gen_range(0u16..24));
        let w = Wire(rng.gen_range(0u16..430));
        if let Some(seg) = dev.canonicalize(rc, w) {
            assert_eq!(dev.canonicalize(seg.rc, seg.wire), Some(seg));
            // And the segment surfaces at the queried tap.
            let mut taps = Vec::new();
            virtex::segment::taps(dev.dims(), seg, &mut taps);
            assert!(taps.iter().any(|t| t.rc == rc && t.wire == w));
        }
    });
}

/// Every PIP the architecture advertises connects two wires that
/// exist at the tile (no dangling connectivity).
#[test]
fn pips_connect_existing_wires() {
    harness::check("pips_connect_existing_wires", |rng| {
        let dev = dev();
        let rc = RowCol::new(rng.gen_range(0u16..16), rng.gen_range(0u16..24));
        let w = Wire(rng.gen_range(0u16..430));
        let mut fan = Vec::new();
        dev.arch().pips_from(rc, w, &mut fan);
        for to in fan {
            assert!(
                dev.wire_exists(rc, to),
                "{} -> {} at {rc}",
                w.name(),
                to.name()
            );
        }
    });
}

/// Auto-route then trace: the traced net reaches exactly the sink,
/// and reverse-trace returns to the source.
#[test]
fn route_trace_round_trip() {
    harness::check("route_trace_round_trip", |rng| {
        let dev = dev();
        let mut pair_rng = DetRng::seed_from_u64(rng.gen_range(0u64..1000));
        let pairs = random_pairs(&dev, 1, &mut pair_rng);
        let (src, sink) = pairs[0];
        let mut router = Router::new(&dev);
        router.route(&src.into(), &sink.into()).unwrap();
        let net = router.trace(&src.into()).unwrap();
        assert_eq!(&net.sinks, &vec![sink]);
        let (hops, found) = router.reverse_trace(&sink.into()).unwrap();
        assert!(!hops.is_empty());
        assert_eq!(found, dev.canonicalize(src.rc, src.wire).unwrap());
    });
}

/// Route then unroute returns the configuration to its prior state,
/// bit for bit.
#[test]
fn route_unroute_restores_state() {
    harness::check("route_unroute_restores_state", |rng| {
        let dev = dev();
        let mut pair_rng = DetRng::seed_from_u64(rng.gen_range(0u64..1000));
        let pairs = random_pairs(&dev, 3, &mut pair_rng);
        let mut router = Router::new(&dev);
        // Pre-route one net to make the baseline non-trivial.
        router
            .route(&pairs[0].0.into(), &pairs[0].1.into())
            .unwrap();
        let baseline = jbits::snapshot(router.bits());
        if router.route(&pairs[1].0.into(), &pairs[1].1.into()).is_ok() {
            router.unroute(&pairs[1].0.into()).unwrap();
            assert_eq!(jbits::snapshot(router.bits()), baseline);
        }
    });
}

/// No routing sequence creates contention: after routing several
/// random nets, every segment has at most one driver.
#[test]
fn auto_router_never_creates_contention() {
    harness::check("auto_router_never_creates_contention", |rng| {
        let dev = dev();
        let mut pair_rng = DetRng::seed_from_u64(rng.gen_range(0u64..1000));
        let pairs = random_pairs(&dev, 6, &mut pair_rng);
        let mut router = Router::new(&dev);
        for (s, k) in &pairs {
            let _ = router.route(&(*s).into(), &(*k).into());
        }
        for rc in dev.dims().iter_tiles() {
            for pip in router.bits().pips_at(rc) {
                if let Some(seg) = dev.canonicalize(rc, pip.to) {
                    assert!(
                        router.bits().segment_drivers(seg).count() <= 1,
                        "contention on {seg}"
                    );
                }
            }
        }
    });
}

/// Reverse-unrouting one sink of a fan-out net never disturbs the
/// remaining branches.
#[test]
fn reverse_unroute_preserves_other_branches() {
    harness::check("reverse_unroute_preserves_other_branches", |rng| {
        let dev = dev();
        let victim = rng.gen_range(0usize..4);
        let mut spec_rng = DetRng::seed_from_u64(rng.gen_range(0u64..1000));
        let spec = fanout_spec(&dev, RowCol::new(8, 12), 4, 4, &mut spec_rng);
        let mut router = Router::new(&dev);
        let sinks: Vec<EndPoint> = spec.sinks.iter().map(|&p| p.into()).collect();
        router.route_fanout(&spec.source.into(), &sinks).unwrap();
        router.reverse_unroute(&sinks[victim]).unwrap();
        let net = router.trace(&spec.source.into()).unwrap();
        let mut survivors: Vec<Pin> = spec.sinks.clone();
        survivors.remove(victim);
        let mut got = net.sinks.clone();
        got.sort();
        survivors.sort();
        assert_eq!(got, survivors);
    });
}

/// The template router only ever uses wires matching the template
/// classes it was given.
#[test]
fn template_router_respects_classes() {
    harness::check("template_router_respects_classes", |rng| {
        // dr + dc must be positive; redraw dc when both come up zero so
        // every case still tests something (the old prop_assume!).
        let dr = rng.gen_range(0u16..3);
        let dc = if dr == 0 {
            rng.gen_range(1u16..3)
        } else {
            rng.gen_range(0u16..3)
        };
        let dev = dev();
        let mut router = Router::new(&dev);
        let mut values = Vec::new();
        values.push(virtex::TemplateValue::OutMux);
        for _ in 0..dr {
            values.push(virtex::TemplateValue::North1);
        }
        for _ in 0..dc {
            values.push(virtex::TemplateValue::East1);
        }
        values.push(virtex::TemplateValue::ClbIn);
        let t = jroute::Template::new(values.clone());
        let start = Pin::new(4, 4, wire::S0_YQ);
        if router.route_template(start, wire::S0_F3, &t).is_ok() {
            let net = router.trace(&start.into()).unwrap();
            assert_eq!(net.pips.len(), values.len());
            // Each configured wire classifies under the template step.
            for ((_, pip), want) in net.pips.iter().zip(values.iter()) {
                assert_eq!(virtex::template_value(pip.to), *want);
            }
        }
    });
}

/// The dense `NetDb` occupancy (SegVec over the segment space) behaves
/// exactly like a sparse `HashMap<Segment, NetId>` reference model under
/// random create / add_pip / remove_pip / remove_net sequences: same
/// accept/reject decisions, same owners, same used-segment count. A net
/// owns its source for its whole life (removing a hand-set PIP into it
/// keeps it), so `net_at_source` finds every live net at its source and
/// nothing at any other owned segment.
#[test]
fn netdb_matches_sparse_reference_model() {
    harness::check("netdb_matches_sparse_reference_model", |rng| {
        use std::collections::HashMap;
        use virtex::Segment;

        let dev = dev();
        let mut db = jroute::NetDb::new(dev.seg_space());
        let mut model: HashMap<Segment, jroute::NetId> = HashMap::new();
        // Live nets mirrored outside the db: (id, source, recorded pips).
        type PipRec = (RowCol, jbits::Pip, Segment);
        let mut nets: Vec<(jroute::NetId, Segment, Vec<PipRec>)> = Vec::new();

        for _ in 0..60 {
            match rng.gen_range(0u32..10) {
                0..=2 => {
                    // create — sources drawn from a small pool so rooting
                    // collisions actually happen.
                    let r = rng.gen_range(0u16..4);
                    let c = rng.gen_range(0u16..4);
                    let w = wire::slice_out(rng.gen_range(0usize..2), rng.gen_range(0u8..2));
                    let seg = dev.canonicalize(RowCol::new(r, c), w).expect("local wire");
                    match db.create(Pin::new(r, c, w), seg) {
                        Ok(id) => {
                            assert!(!model.contains_key(&seg), "create accepted a taken source");
                            model.insert(seg, id);
                            nets.push((id, seg, Vec::new()));
                        }
                        Err(_) => {
                            assert!(model.contains_key(&seg), "create rejected a free source")
                        }
                    }
                }
                3..=6 => {
                    // add_pip — mostly a real PIP of the architecture, so
                    // the canonical target is well defined; sometimes a
                    // hand-set PIP looping back into the net's own source.
                    if nets.is_empty() {
                        continue;
                    }
                    let n = rng.gen_range(0usize..nets.len());
                    let id = nets[n].0;
                    let (rc, from, to) = if rng.gen_range(0u32..4) == 0 {
                        let src = nets[n].1;
                        (src.rc, wire::out(0), src.wire)
                    } else {
                        let rc = RowCol::new(rng.gen_range(0u16..16), rng.gen_range(0u16..24));
                        let from = Wire(rng.gen_range(0u16..430));
                        let mut fan = Vec::new();
                        dev.arch().pips_from(rc, from, &mut fan);
                        if fan.is_empty() {
                            continue;
                        }
                        (rc, from, fan[rng.gen_range(0usize..fan.len())])
                    };
                    let target = dev
                        .canonicalize(rc, to)
                        .expect("pips connect existing wires");
                    let pip = jbits::Pip::new(from, to);
                    match db.add_pip(id, rc, pip, target) {
                        Ok(()) => {
                            let prev = model.insert(target, id);
                            assert!(
                                prev.is_none() || prev == Some(id),
                                "add_pip stole {target} from {prev:?}"
                            );
                            let pips = &mut nets[n].2;
                            if !pips.iter().any(|&(r, p, _)| r == rc && p == pip) {
                                pips.push((rc, pip, target));
                            }
                        }
                        Err(_) => assert!(
                            model.get(&target).is_some_and(|&o| o != id),
                            "add_pip rejected free/own target {target}"
                        ),
                    }
                }
                7 => {
                    // remove_pip — releases the target if the net still
                    // owns it, unless it is the net's own source.
                    let candidates: Vec<usize> =
                        (0..nets.len()).filter(|&i| !nets[i].2.is_empty()).collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    let n = candidates[rng.gen_range(0usize..candidates.len())];
                    let (id, source, ref mut pips) = nets[n];
                    let (rc, pip, target) = pips.remove(rng.gen_range(0usize..pips.len()));
                    assert!(
                        db.remove_pip(id, rc, pip, target),
                        "recorded pip must remove"
                    );
                    if target != source && model.get(&target) == Some(&id) {
                        model.remove(&target);
                    }
                }
                _ => {
                    // remove_net — releases only segments the net owns.
                    if nets.is_empty() {
                        continue;
                    }
                    let (id, source, pips) = nets.swap_remove(rng.gen_range(0usize..nets.len()));
                    assert!(db.remove_net(id).is_some());
                    assert_eq!(model.remove(&source), Some(id), "a net owns its source");
                    for (_, _, target) in pips {
                        if model.get(&target) == Some(&id) {
                            model.remove(&target);
                        }
                    }
                }
            }
            assert_eq!(db.used_segments(), model.len());
            for &(id, source, _) in &nets {
                assert_eq!(db.net_at_source(source), Some(id), "net lost its source");
            }
            for &seg in model.keys() {
                if !nets.iter().any(|&(_, source, _)| source == seg) {
                    assert_eq!(db.net_at_source(seg), None, "{seg} is not a source");
                }
            }
        }

        // Full occupancy equivalence at the end of the sequence.
        for (&seg, &id) in &model {
            assert_eq!(db.owner(seg), Some(id), "owner mismatch at {seg}");
            assert!(db.is_used(seg));
        }
        let census: Vec<(Segment, jroute::NetId)> = db.iter_used().collect();
        assert_eq!(census.len(), model.len());
        for (seg, id) in census {
            assert_eq!(model.get(&seg), Some(&id));
        }
        // And a segment the model never touched is free.
        let probe = dev.canonicalize(RowCol::new(14, 20), wire::S0_YQ).unwrap();
        if !model.contains_key(&probe) {
            assert_eq!(db.owner(probe), None);
        }
    });
}

/// Long lines appear in routes only when the option is enabled.
#[test]
fn long_lines_obey_the_option() {
    harness::check("long_lines_obey_the_option", |rng| {
        let use_longs = rng.gen_bool(0.5);
        let dev = Device::new(Family::Xcv300);
        let mut spec_rng = DetRng::seed_from_u64(rng.gen_range(0u64..200));
        let spec = fanout_spec(&dev, RowCol::new(16, 24), 2, 12, &mut spec_rng);
        let mut router = Router::with_options(
            &dev,
            RouterOptions {
                use_long_lines: use_longs,
                ..Default::default()
            },
        );
        let sinks: Vec<EndPoint> = spec.sinks.iter().map(|&p| p.into()).collect();
        router.route_fanout(&spec.source.into(), &sinks).unwrap();
        if !use_longs {
            assert_eq!(router.resource_usage().longs, 0);
        }
    });
}

/// Wave dispatch liveness and exactness: under any thread count and
/// task count, with a few tasks slowed so workers finish out of order,
/// `WaveExec::run_wave` runs every task exactly once, returns the
/// results in task order, and builds at most one worker state per
/// worker (exactly one when the wave runs inline).
#[test]
fn wave_dispatch_runs_every_task_once_in_order() {
    use jroute::WaveExec;
    use std::sync::atomic::{AtomicU32, Ordering};
    harness::check("wave_dispatch_runs_every_task_once_in_order", |rng| {
        let n = rng.gen_range(0usize..200);
        let threads = rng.gen_range(1usize..9);
        let tasks: Vec<usize> = (0..n).collect();
        let slow: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.05)).collect();
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let inits = AtomicU32::new(0);
        let got = WaveExec { threads }.run_wave(
            &tasks,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, t| {
                if slow[t] {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                hits[t].fetch_add(1, Ordering::Relaxed);
                t * 2
            },
        );
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} execution count");
        }
        let want: Vec<usize> = tasks.iter().map(|t| t * 2).collect();
        assert_eq!(got, want, "one result per task, in task order");
        let inits = inits.load(Ordering::Relaxed) as usize;
        if threads <= 1 || n <= 1 {
            assert_eq!(inits, 1, "an inline wave builds one state");
        } else {
            assert!(
                (1..=threads.min(n)).contains(&inits),
                "{inits} worker states for {threads} threads and {n} tasks"
            );
        }
    });
}

/// The incremental PathFinder schedule (dirty-net rip-up, bounding-box
/// pruning, adaptive `pres_fac`) is an optimization, not a semantic
/// change: against the classic full-ripup reference configuration it
/// must agree on legality and final overuse, never exceed the iteration
/// budget, and — when converged — produce a per-net segment census with
/// the same integrity guarantees (every sink reached, no segment shared
/// between nets).
#[test]
fn incremental_pathfinder_matches_full_ripup_reference() {
    use jroute::pathfinder::{self, PathFinderConfig, PathFinderResult};
    use jroute_workloads::{random_netlist, window_netlist, NetlistParams};
    use std::collections::HashMap;
    use virtex::Segment;

    // Contention-free, sink-complete census: every canonical sink is in
    // its own net's segment set and no segment belongs to two nets.
    fn check_census(dev: &Device, r: &PathFinderResult, tag: &str) {
        let mut owner: HashMap<Segment, usize> = HashMap::new();
        for (i, net) in r.nets.iter().enumerate() {
            for &seg in &net.segments {
                let prev = owner.insert(seg, i);
                assert!(
                    prev.is_none_or(|p| p == i),
                    "{tag}: segment {seg} shared by nets {prev:?} and {i}"
                );
            }
            for sink in &net.spec.sinks {
                let goal = dev.canonicalize(sink.rc, sink.wire).unwrap();
                assert!(
                    net.segments.contains(&goal),
                    "{tag}: net {i} census is missing its sink {goal}"
                );
            }
        }
    }

    harness::check_with(
        "incremental_pathfinder_matches_full_ripup_reference",
        6,
        |rng| {
            let dev = dev();
            let mut net_rng = DetRng::seed_from_u64(rng.next_u64());
            // Scattered short nets plus a contended window, scaled to stay
            // routable on the XCV50 so both schedules genuinely converge.
            let mut specs = random_netlist(
                &dev,
                &NetlistParams {
                    nets: rng.gen_range(3usize..7),
                    max_fanout: 2,
                    max_span: Some(4),
                },
                &mut net_rng,
            );
            let hot = rng.gen_range(4usize..9);
            specs.extend(window_netlist(
                &dev,
                hot,
                3,
                RowCol::new(8, 12),
                &mut net_rng,
            ));

            let incremental = PathFinderConfig::default();
            let full_ripup = PathFinderConfig {
                full_ripup: true,
                ..PathFinderConfig::default()
            };
            let incr = pathfinder::route_all(&dev, &specs, &incremental).unwrap();
            let full = pathfinder::route_all(&dev, &specs, &full_ripup).unwrap();

            assert!(incr.iterations <= incremental.max_iterations);
            assert!(full.iterations <= full_ripup.max_iterations);
            assert_eq!(incr.legal, full.legal, "schedules disagree on legality");
            assert_eq!(
                incr.overused, full.overused,
                "schedules disagree on final overuse"
            );
            if incr.legal {
                assert_eq!(incr.overused, 0);
                assert_eq!(incr.nets.len(), specs.len());
                assert_eq!(full.nets.len(), specs.len());
                check_census(&dev, &incr, "incremental");
                check_census(&dev, &full, "full-ripup");
            }
        },
    );
}

/// Service-level liveness: every submitted request gets exactly one
/// terminal outcome, whatever the seed, priorities and worker count —
/// and a cancelled request never commits.
#[test]
fn service_batches_terminate_with_one_outcome_each() {
    use jroute_svc::{RequestKind, RoutingService, ServiceConfig};
    use jroute_workloads::NetlistParams;
    harness::check_with(
        "service_batches_terminate_with_one_outcome_each",
        8,
        |rng| {
            let dev = Device::new(Family::Xcv50);
            let threads = rng.gen_range(1usize..5);
            let seed = rng.next_u64();
            let mut svc = RoutingService::new(
                &dev,
                ServiceConfig {
                    threads,
                    audit: true,
                    ..Default::default()
                },
            );
            let mut net_rng = DetRng::seed_from_u64(seed ^ 0x5EED);
            let specs = jroute_workloads::random_netlist(
                &dev,
                &NetlistParams {
                    nets: 6,
                    max_fanout: 1,
                    max_span: Some(4),
                },
                &mut net_rng,
            );
            let mut ids = Vec::new();
            for s in &specs {
                let priority = rng.gen_range(0u32..=255) as u8;
                ids.push(
                    svc.submit_with(RequestKind::Route(s.clone()), priority, None)
                        .unwrap()
                        .0,
                );
            }
            let (victim, token) = svc
                .submit_with(RequestKind::Route(specs[0].clone()), 0, None)
                .unwrap();
            token.cancel();
            let report = svc.run_batch();
            assert_eq!(report.outcomes.len(), ids.len() + 1);
            assert_eq!(report.leaked_segments, Some(0));
            for id in &ids {
                assert!(report.outcome(*id).is_some(), "request {id} has no outcome");
            }
            assert_eq!(
                report.outcome(victim),
                Some(&jroute_svc::RequestOutcome::Cancelled)
            );
            assert!(svc.nets_of(victim).is_none());
        },
    );
}

/// The `.jrt` trace encoding is canonical: any recorded request stream
/// decodes back to an equivalent trace whose re-encoding is
/// byte-identical, and the decoded trace still validates (every replace
/// victim references an earlier request).
#[test]
fn trace_encoding_round_trips_byte_identically() {
    use jroute::pathfinder::NetSpec;
    use jroute_svc::{Deadline, Trace, TraceOp};
    use virtex::Codec;
    harness::check_with("trace_encoding_round_trips_byte_identically", 6, |rng| {
        let dev = dev();
        let mut pair_rng = DetRng::seed_from_u64(rng.next_u64());
        let spec = |pair_rng: &mut DetRng| {
            let (src, sink) = random_pairs(&dev, 1, pair_rng)[0];
            NetSpec::new(src, vec![sink])
        };
        let mut trace = Trace::new(dev.family());
        let reqs = rng.gen_range(1u32..40);
        for submitted in 0..reqs {
            let priority = rng.gen_range(0u32..=255) as u8;
            let deadline = if rng.gen_bool(0.3) {
                Some(Deadline::Steps(rng.next_u64()))
            } else {
                None
            };
            let op = match rng.gen_range(0u32..4) {
                0 | 1 => TraceOp::Route(spec(&mut pair_rng)),
                2 if submitted > 0 => TraceOp::Unroute(rng.gen_range(0..submitted)),
                _ => {
                    let victims = if submitted == 0 {
                        vec![]
                    } else {
                        (0..rng.gen_range(0u32..3.min(submitted) + 1))
                            .map(|_| rng.gen_range(0..submitted))
                            .collect()
                    };
                    let adds = (0..rng.gen_range(1usize..3))
                        .map(|_| spec(&mut pair_rng))
                        .collect();
                    TraceOp::Replace {
                        remove: victims,
                        add: adds,
                    }
                }
            };
            let id = trace.record(priority, deadline, op);
            assert_eq!(id, submitted, "trace ids are the submission order");
            if rng.gen_bool(0.25) {
                trace.end_batch();
            }
        }
        trace.validate().expect("recorded traces always validate");
        let bytes = trace.to_bytes();
        let decoded = Trace::from_bytes(&bytes).expect("trace decodes");
        assert_eq!(decoded.len(), trace.len());
        decoded.validate().expect("decoded trace validates");
        assert_eq!(
            decoded.to_bytes(),
            bytes,
            "re-encoding a decoded trace must be byte-identical"
        );
    });
}

/// Every adversarial generator upholds the netlist validity contract:
/// all pins on-device and canonicalizable, sources globally distinct,
/// sinks globally distinct — whatever the seed and shape parameters.
#[test]
fn adversarial_generators_uphold_the_netlist_contract() {
    use jroute_workloads::{congestion_cliques, hotspot_storm, long_line_starvation};
    use std::collections::HashSet;
    harness::check(
        "adversarial_generators_uphold_the_netlist_contract",
        |rng| {
            let dev = dev();
            let d = dev.dims();
            let mut gen_rng = DetRng::seed_from_u64(rng.next_u64());
            let specs = match rng.gen_range(0u32..3) {
                0 => congestion_cliques(
                    &dev,
                    rng.gen_range(1usize..4),
                    rng.gen_range(2usize..6),
                    rng.gen_range(3u16..8),
                    &mut gen_rng,
                ),
                1 => long_line_starvation(
                    &dev,
                    rng.gen_range(1usize..8),
                    rng.gen_range(1u16..4),
                    &mut gen_rng,
                ),
                _ => {
                    let w = rng.gen_range(2u16..5);
                    let origin =
                        RowCol::new(rng.gen_range(0..=d.rows - w), rng.gen_range(0..=d.cols - w));
                    hotspot_storm(&dev, origin, w, rng.gen_range(1usize..12), &mut gen_rng)
                }
            };
            assert!(!specs.is_empty());
            let mut sources = HashSet::new();
            let mut sinks = HashSet::new();
            for s in &specs {
                assert!(s.source.rc.row < d.rows && s.source.rc.col < d.cols);
                assert!(
                    dev.canonicalize(s.source.rc, s.source.wire).is_some(),
                    "source {:?} does not canonicalize",
                    s.source
                );
                assert!(sources.insert(s.source), "duplicate source {:?}", s.source);
                for k in &s.sinks {
                    assert!(k.rc.row < d.rows && k.rc.col < d.cols);
                    assert!(
                        dev.canonicalize(k.rc, k.wire).is_some(),
                        "sink {k:?} does not canonicalize"
                    );
                    assert!(sinks.insert(*k), "duplicate sink {k:?}");
                }
            }
        },
    );
}

/// Partitioner invariants: for any set of boxes, the wave plan covers
/// every input exactly once, boxes within a wave are pairwise disjoint,
/// and bisection terminates even when every box overlaps every other
/// (the all-overlapping clique degrades to singleton waves).
#[test]
fn wave_partition_covers_and_separates() {
    use jroute::partition::{disjoint, partition_waves};
    use virtex::BBox;

    harness::check("wave_partition_covers_and_separates", |rng| {
        let n = rng.gen_range(0usize..40);
        let clique = rng.gen_range(0u32..4) == 0;
        let boxes: Vec<BBox> = (0..n)
            .map(|_| {
                if clique {
                    // Force the pathological case: every box contains the
                    // tile (50, 50), so no cut can separate anything.
                    let r0 = rng.gen_range(0u16..=50);
                    let c0 = rng.gen_range(0u16..=50);
                    BBox {
                        min: RowCol::new(r0, c0),
                        max: RowCol::new(rng.gen_range(50u16..100), rng.gen_range(50u16..100)),
                    }
                } else {
                    let r0 = rng.gen_range(0u16..90);
                    let c0 = rng.gen_range(0u16..140);
                    BBox {
                        min: RowCol::new(r0, c0),
                        max: RowCol::new(
                            r0 + rng.gen_range(0u16..12),
                            c0 + rng.gen_range(0u16..12),
                        ),
                    }
                }
            })
            .collect();
        let plan = partition_waves(&boxes);
        // Coverage: every index in exactly one wave.
        let mut seen = vec![0usize; n];
        for wave in &plan.waves {
            for (a, &i) in wave.iter().enumerate() {
                seen[i] += 1;
                // Disjointness within the wave.
                for &j in &wave[a + 1..] {
                    assert!(
                        disjoint(boxes[i], boxes[j]),
                        "wave holds overlapping boxes {i}={:?} and {j}={:?}",
                        boxes[i],
                        boxes[j]
                    );
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage broken: {seen:?}");
        if clique && n > 1 {
            assert_eq!(
                plan.waves.len(),
                n,
                "an all-overlapping clique must fully serialize"
            );
        }
    });
}

/// The partition-parallel engine is determinism-by-construction: for any
/// workload, routing with 1, 4 and 8 workers produces identical results
/// — same legality, same iteration count, same final overuse, and the
/// same net-by-net segment census (which is itself contention-free).
#[test]
fn partition_parallel_matches_sequential_incremental() {
    use jroute::pathfinder::{self, PathFinderConfig, PathFinderResult};
    use jroute_workloads::{random_netlist, window_netlist, NetlistParams};

    fn census_key(r: &PathFinderResult) -> Vec<Vec<virtex::Segment>> {
        r.nets.iter().map(|n| n.segments.clone()).collect()
    }

    harness::check_with(
        "partition_parallel_matches_sequential_incremental",
        6,
        |rng| {
            let dev = dev();
            let mut net_rng = DetRng::seed_from_u64(rng.next_u64());
            let mut specs = random_netlist(
                &dev,
                &NetlistParams {
                    nets: rng.gen_range(4usize..8),
                    max_fanout: 2,
                    max_span: Some(5),
                },
                &mut net_rng,
            );
            let hot = rng.gen_range(4usize..9);
            specs.extend(window_netlist(
                &dev,
                hot,
                3,
                RowCol::new(8, 12),
                &mut net_rng,
            ));

            let seq = pathfinder::route_all(&dev, &specs, &PathFinderConfig::default()).unwrap();
            for workers in [4usize, 8] {
                let par = pathfinder::route_all(
                    &dev,
                    &specs,
                    &PathFinderConfig {
                        threads: workers,
                        ..PathFinderConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(seq.legal, par.legal, "{workers} workers: legality differs");
                assert_eq!(
                    seq.iterations, par.iterations,
                    "{workers} workers: iteration count differs"
                );
                assert_eq!(
                    seq.overused, par.overused,
                    "{workers} workers: final overuse differs"
                );
                assert_eq!(
                    census_key(&seq),
                    census_key(&par),
                    "{workers} workers: segment census differs"
                );
            }
            // The shared census is contention-free when legal.
            if seq.legal {
                let mut owner = std::collections::HashMap::new();
                for (i, net) in seq.nets.iter().enumerate() {
                    for &seg in &net.segments {
                        let prev = owner.insert(seg, i);
                        assert!(
                            prev.is_none_or(|p| p == i),
                            "segment {seg} shared by nets {prev:?} and {i}"
                        );
                    }
                }
            }
        },
    );
}

// ----------------------------------------------------------------------
// Criticality-driven negotiation and Steiner fan-out (DESIGN.md §3.9)
// ----------------------------------------------------------------------

/// Criticality-weighted PathFinder is a cost reshaping, not a semantic
/// change: on any workload it must agree with the pure-congestion
/// baseline on routability, and its converged census must satisfy the
/// same integrity contract — every sink reached, no segment shared
/// between nets.
#[test]
fn criticality_weighted_pathfinder_keeps_routability() {
    use jroute::pathfinder::{self, PathFinderConfig, PathFinderResult};
    use jroute_workloads::window_netlist;
    use std::collections::HashMap;
    use virtex::Segment;

    fn check_census(dev: &Device, r: &PathFinderResult, tag: &str) {
        let mut owner: HashMap<Segment, usize> = HashMap::new();
        for (i, net) in r.nets.iter().enumerate() {
            for &seg in &net.segments {
                let prev = owner.insert(seg, i);
                assert!(
                    prev.is_none_or(|p| p == i),
                    "{tag}: segment {seg} shared by nets {prev:?} and {i}"
                );
            }
            for sink in &net.spec.sinks {
                let goal = dev.canonicalize(sink.rc, sink.wire).unwrap();
                assert!(
                    net.segments.contains(&goal),
                    "{tag}: net {i} census is missing its sink {goal}"
                );
            }
        }
    }

    harness::check_with(
        "criticality_weighted_pathfinder_keeps_routability",
        6,
        |rng| {
            let dev = dev();
            let mut net_rng = DetRng::seed_from_u64(rng.next_u64());
            // A contended window plus one high-fanout net that crosses the
            // Steiner threshold, so both new code paths run.
            let hot = rng.gen_range(4usize..8);
            let mut specs = window_netlist(&dev, hot, 3, RowCol::new(8, 12), &mut net_rng);
            specs.push(fanout_spec(&dev, RowCol::new(3, 4), 7, 4, &mut net_rng));

            let baseline =
                pathfinder::route_all(&dev, &specs, &PathFinderConfig::default()).unwrap();
            let timed =
                pathfinder::route_all(&dev, &specs, &PathFinderConfig::timing_driven()).unwrap();

            assert_eq!(
                baseline.legal, timed.legal,
                "criticality weighting changed routability"
            );
            if timed.legal {
                assert_eq!(timed.overused, 0);
                assert_eq!(timed.nets.len(), specs.len());
                check_census(&dev, &timed, "criticality-driven");
                check_census(&dev, &baseline, "pure-congestion");
                // Timing mode must actually produce the per-sink delays the
                // criticality pass feeds on.
                for net in &timed.nets {
                    assert_eq!(net.sink_delays.len(), net.spec.sinks.len());
                    assert!(net.sink_delays.iter().all(|&d| d > 0));
                }
            }
        },
    );
}

/// `route_fanout` upholds the tree contract on any seed: every sink
/// reached, and single-driver (acyclic) wiring.
#[test]
fn fanout_trees_are_sound() {
    harness::check_with("fanout_trees_are_sound", 8, |rng| {
        let dev = Device::new(Family::Xcv300);
        let fanout = rng.gen_range(4usize..10);
        let span = rng.gen_range(5u16..10);
        let mut spec_rng = DetRng::seed_from_u64(rng.next_u64());
        let spec = fanout_spec(&dev, RowCol::new(16, 24), fanout, span, &mut spec_rng);
        let mut r = Router::new(&dev);
        let sinks: Vec<EndPoint> = spec.sinks.iter().map(|&p| p.into()).collect();
        r.route_fanout(&spec.source.into(), &sinks).unwrap();
        let net = r.trace(&spec.source.into()).unwrap();
        // Every sink reached, exactly once.
        let mut got = net.sinks.clone();
        let mut want = spec.sinks.clone();
        got.sort();
        want.sort();
        assert_eq!(got, want, "tree must reach every sink");
        // Single-driver == acyclic: each configured target is driven by
        // exactly one PIP.
        for rc in dev.dims().iter_tiles() {
            for pip in r.bits().pips_at(rc) {
                if let Some(seg) = dev.canonicalize(rc, pip.to) {
                    assert!(
                        r.bits().segment_drivers(seg).count() <= 1,
                        "contention on {seg}"
                    );
                }
            }
        }
    });
}

/// Criticality-driven negotiation stays deterministic by construction:
/// the per-iteration criticality table is frozen before waves dispatch,
/// so 1, 4 and 8 workers must produce the identical census, delays and
/// iteration count.
#[test]
fn criticality_driven_routing_is_bit_identical_across_workers() {
    use jroute::pathfinder::{self, PathFinderConfig, PathFinderResult};
    use jroute_workloads::window_netlist;

    fn key(r: &PathFinderResult) -> Vec<(Vec<virtex::Segment>, Vec<u64>)> {
        r.nets
            .iter()
            .map(|n| (n.segments.clone(), n.sink_delays.clone()))
            .collect()
    }

    harness::check_with(
        "criticality_driven_routing_is_bit_identical_across_workers",
        6,
        |rng| {
            let dev = dev();
            let mut net_rng = DetRng::seed_from_u64(rng.next_u64());
            let hot = rng.gen_range(4usize..8);
            let mut specs = window_netlist(&dev, hot, 3, RowCol::new(8, 12), &mut net_rng);
            specs.push(fanout_spec(&dev, RowCol::new(3, 4), 7, 4, &mut net_rng));

            let seq =
                pathfinder::route_all(&dev, &specs, &PathFinderConfig::timing_driven()).unwrap();
            for workers in [4usize, 8] {
                let par = pathfinder::route_all(
                    &dev,
                    &specs,
                    &PathFinderConfig {
                        threads: workers,
                        ..PathFinderConfig::timing_driven()
                    },
                )
                .unwrap();
                assert_eq!(seq.legal, par.legal, "{workers} workers: legality differs");
                assert_eq!(
                    seq.iterations, par.iterations,
                    "{workers} workers: iteration count differs"
                );
                assert_eq!(
                    key(&seq),
                    key(&par),
                    "{workers} workers: census or delays differ"
                );
            }
        },
    );
}

// ----------------------------------------------------------------------
// Multi-tenant server front-end (DESIGN.md §3.8)
// ----------------------------------------------------------------------

/// Deterministic batch cuts are a pure function of one tenant's
/// admission and flush sequence: the executor's batches equal a model
/// that cuts at `batch_max` requests or at a flush with something
/// pending, and runs the rest at shutdown. Every admission lands in
/// exactly one batch, in admission order.
#[test]
fn deterministic_server_cuts_batches_at_size_and_flush_only() {
    use jroute::obs::Recorder;
    use jroute_svc::{serve, ExecMode, RequestKind, ServerConfig};

    harness::check(
        "deterministic_server_cuts_batches_at_size_and_flush_only",
        |rng| {
            let dev = dev();
            let batch_max = rng.gen_range(1usize..6);
            let n = rng.gen_range(1usize..20);
            let leading_flushes = rng.gen_range(0usize..2);
            // Flushes sent after each admission.
            let flushes: Vec<usize> = (0..n)
                .map(|_| [0, 0, 0, 1, 2][rng.gen_range(0usize..5)])
                .collect();
            let specs: Vec<_> = (0..n)
                .map(|_| {
                    let src = RowCol::new(rng.gen_range(1u16..14), rng.gen_range(1u16..22));
                    fanout_spec(&dev, src, 2, 4, rng)
                })
                .collect();

            let mut expect: Vec<Vec<u64>> = Vec::new();
            let mut forming = Vec::new();
            for (seq, &f) in flushes.iter().enumerate() {
                forming.push(seq as u64);
                if forming.len() == batch_max || f > 0 {
                    expect.push(std::mem::take(&mut forming));
                }
            }
            if !forming.is_empty() {
                expect.push(forming);
            }

            let cfg = ServerConfig {
                threads: 2,
                tenant_threads: 1,
                mode: ExecMode::Deterministic,
                audit: true,
                batch_max,
                ..Default::default()
            };
            let ((), report) = serve(&[&dev], cfg, Recorder::disabled(), |client| {
                let h = client.tenant(0);
                for _ in 0..leading_flushes {
                    h.flush();
                }
                for (spec, &f) in specs.into_iter().zip(&flushes) {
                    h.submit(RequestKind::Route(spec)).unwrap();
                    for _ in 0..f {
                        h.flush();
                    }
                }
            });
            let tenant = &report.tenants[0];
            let mut got: Vec<Vec<u64>> = vec![Vec::new(); tenant.batches as usize];
            for e in &tenant.log {
                got[e.batch as usize].push(e.seq);
            }
            assert_eq!(got, expect, "batch_max {batch_max}, flushes {flushes:?}");
            assert_eq!(tenant.leaked_segments, Some(0));
        },
    );
}

/// A threaded executor takes whatever is queued when it goes idle, so
/// its cuts follow timing; whatever the timing, with two producers
/// racing and random flushes, every admission lands in exactly one
/// batch and no batch holds more than `batch_max` requests.
#[test]
fn threaded_server_batches_every_admission_once_within_batch_max() {
    use jroute::obs::Recorder;
    use jroute_svc::{serve, ExecMode, RequestKind, ServerConfig};

    harness::check(
        "threaded_server_batches_every_admission_once_within_batch_max",
        |rng| {
            let dev = dev();
            let batch_max = rng.gen_range(1usize..6);
            // Per producer: (spec, flush after it).
            let work: Vec<Vec<_>> = (0..2)
                .map(|_| {
                    (0..rng.gen_range(1usize..12))
                        .map(|_| {
                            let src = RowCol::new(rng.gen_range(1u16..14), rng.gen_range(1u16..22));
                            let spec = fanout_spec(&dev, src, 2, 4, rng);
                            (spec, rng.gen_range(0u32..4) == 0)
                        })
                        .collect()
                })
                .collect();
            let n: usize = work.iter().map(Vec::len).sum();
            let cfg = ServerConfig {
                threads: 2,
                tenant_threads: 1,
                mode: ExecMode::Threaded,
                audit: true,
                batch_max,
                ..Default::default()
            };
            let ((), report) = serve(&[&dev], cfg, Recorder::disabled(), |client| {
                std::thread::scope(|s| {
                    for jobs in work {
                        let h = client.tenant(0);
                        s.spawn(move || {
                            for (spec, flush) in jobs {
                                h.submit(RequestKind::Route(spec)).unwrap();
                                if flush {
                                    h.flush();
                                }
                            }
                        });
                    }
                });
            });
            let tenant = &report.tenants[0];
            let mut seqs: Vec<u64> = tenant.log.iter().map(|e| e.seq).collect();
            seqs.sort_unstable();
            assert_eq!(seqs, (0..n as u64).collect::<Vec<_>>(), "exactly once");
            let mut sizes = vec![0usize; tenant.batches as usize];
            for e in &tenant.log {
                sizes[e.batch as usize] += 1;
            }
            assert!(
                sizes.iter().all(|&k| (1..=batch_max).contains(&k)),
                "batch sizes {sizes:?} vs batch_max {batch_max}"
            );
            assert_eq!(tenant.leaked_segments, Some(0));
        },
    );
}

/// Within one tenant and one batch, the server completes requests in
/// strict priority order (lower first, ties by admission) at any width.
#[test]
fn server_completes_one_tenant_batch_in_priority_order() {
    use jroute::obs::Recorder;
    use jroute_svc::{serve, ExecMode, RequestKind, ServerConfig};

    harness::check(
        "server_completes_one_tenant_batch_in_priority_order",
        |rng| {
            let dev = dev();
            let n = rng.gen_range(3usize..8);
            let priorities: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..4)).collect();
            let cfg = ServerConfig {
                threads: 2,
                tenant_threads: rng.gen_range(1usize..4),
                mode: ExecMode::Deterministic,
                audit: true,
                batch_max: usize::MAX,
                ..Default::default()
            };
            let mut net_rng = DetRng::seed_from_u64(rng.gen_range(0u64..u64::MAX));
            let (ids, report) = serve(&[&dev], cfg, Recorder::disabled(), |client| {
                let h = client.tenant(0);
                let ids: Vec<u64> = priorities
                    .iter()
                    .map(|&p| {
                        let spec = fanout_spec(&dev, RowCol::new(8, 12), 2, 5, &mut net_rng);
                        h.submit_with(RequestKind::Route(spec), p, None)
                            .unwrap()
                            .id()
                    })
                    .collect();
                h.flush();
                ids
            });
            let log = &report.tenants[0].log;
            assert_eq!(log.len(), n, "every admission completes");
            let mut expect: Vec<u64> = ids.clone();
            expect.sort_by_key(|&seq| (priorities[seq as usize], seq));
            let got: Vec<u64> = log.iter().map(|e| e.seq).collect();
            assert_eq!(got, expect, "priorities {priorities:?}");
        },
    );
}

/// Tenant-tagged trace codec: encode/decode round-trips byte-identically
/// for any generated mix; single-tenant mixes stay on the legacy `JRT1`
/// wire format and load with every request on tenant 0.
#[test]
fn tenant_tagged_traces_round_trip_and_legacy_stays_jrt1() {
    use jroute_svc::Trace;
    use jroute_workloads::{tenant_mix, TenantMixParams};
    use virtex::codec::Codec;

    harness::check(
        "tenant_tagged_traces_round_trip_and_legacy_stays_jrt1",
        |rng| {
            let dev = dev();
            let params = TenantMixParams {
                tenants: rng.gen_range(1u16..5),
                per_tenant: rng.gen_range(1usize..10),
                batch_every: rng.gen_range(0usize..7),
                fanout: 2,
                span: 4,
                unroute_pct: rng.gen_range(0u32..40),
                replace_pct: rng.gen_range(0u32..40),
            };
            let mut mix_rng = DetRng::seed_from_u64(rng.gen_range(0u64..u64::MAX));
            let trace = tenant_mix(&dev, &params, &mut mix_rng);
            let bytes = trace.to_bytes();
            let back = Trace::from_bytes(&bytes).expect("decodes");
            assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");
            assert_eq!(back.tenant_count(), trace.tenant_count());
            let tagged = trace.iter().any(|r| r.tenant != 0);
            let magic = &bytes[..4];
            assert_eq!(
                magic,
                if tagged { b"JRT2" } else { b"JRT1" },
                "wire format is canonical"
            );
            if !tagged {
                assert!(back.iter().all(|r| r.tenant == 0));
            }
        },
    );
}
