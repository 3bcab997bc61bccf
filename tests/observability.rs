//! Observability integration tests: §3.5 trace edge cases with the
//! recorder attached, and the shape of the exported `OBS_*.json`.
//!
//! The trace tools work purely from the configuration bitstream
//! (readback), so these tests exercise them against state the router's
//! net database never saw — raw JBits writes, blank devices, and a
//! hand-configured PIP cycle — while asserting the spans they emit.

use jroute::obs::json::{self, Value};
use jroute::obs::Recorder;
use jroute::{EndPoint, Pin, Router};
use virtex::{wire, Device, Dir, Family, RowCol, Segment};

fn observed_router(device: &Device) -> Router {
    let mut r = Router::new(device);
    r.set_recorder(Recorder::enabled());
    r
}

/// The recorded note of the most recent span named `name`.
fn span_note(r: &Router, name: &str) -> Option<u64> {
    r.obs_report()
        .spans
        .iter()
        .rev()
        .find(|s| s.name == name)
        .map(|s| s.note)
}

#[test]
fn trace_reads_nets_configured_by_raw_bitstream_writes() {
    let device = Device::new(Family::Xcv50);
    let mut r = observed_router(&device);

    // Configure the paper's §3.1 worked example purely at the JBits
    // level: the router's NetDb knows nothing about this net.
    let bits = r.bits_mut();
    bits.set_pip(RowCol::new(5, 7), wire::S1_YQ, wire::out(1))
        .unwrap();
    bits.set_pip(RowCol::new(5, 7), wire::out(1), wire::single(Dir::East, 5))
        .unwrap();
    bits.set_pip(
        RowCol::new(5, 8),
        wire::single_end(Dir::East, 5),
        wire::single(Dir::North, 0),
    )
    .unwrap();
    bits.set_pip(
        RowCol::new(6, 8),
        wire::single_end(Dir::North, 0),
        wire::S0_F3,
    )
    .unwrap();
    assert_eq!(
        r.nets().iter().count(),
        0,
        "nothing was routed through the API"
    );

    let src: EndPoint = Pin::new(5, 7, wire::S1_YQ).into();
    let net = r.trace(&src).unwrap();
    assert_eq!(net.sinks, vec![Pin::new(6, 8, wire::S0_F3)]);
    assert_eq!(net.segments.len(), 5);

    // The span records the visited-segment count, and the raw writes
    // were themselves observed through the jbits hook.
    assert_eq!(span_note(&r, "router.trace"), Some(5));
    assert_eq!(r.obs_report().counter("jbits.pips_set"), Some(4));

    // reverse_trace from the sink agrees, and its span counts hops.
    let sink: EndPoint = Pin::new(6, 8, wire::S0_F3).into();
    let (hops, found) = r.reverse_trace(&sink).unwrap();
    assert_eq!(hops.len(), 4);
    assert_eq!(
        found,
        device.canonicalize(RowCol::new(5, 7), wire::S1_YQ).unwrap()
    );
    assert_eq!(span_note(&r, "router.reverse_trace"), Some(4));

    // Clearing a PIP behind the router's back is tapped too.
    assert!(r
        .bits_mut()
        .clear_pip(
            RowCol::new(6, 8),
            wire::single_end(Dir::North, 0),
            wire::S0_F3
        )
        .unwrap());
    let first = r.recorder().clone();
    assert_eq!(first.report().counter("jbits.pips_cleared"), Some(1));

    // Swapping recorders re-points the tap: later writes count only on
    // the new recorder, and the old one keeps what it saw.
    r.set_recorder(Recorder::enabled());
    r.bits_mut()
        .set_pip(
            RowCol::new(6, 8),
            wire::single_end(Dir::North, 0),
            wire::S0_F3,
        )
        .unwrap();
    r.bits_mut()
        .clear_pip(RowCol::new(5, 7), wire::S1_YQ, wire::out(1))
        .unwrap();
    let fresh = r.recorder().report();
    assert_eq!(fresh.counter("jbits.pips_set"), Some(1));
    assert_eq!(fresh.counter("jbits.pips_cleared"), Some(1));
    let old = first.report();
    assert_eq!(old.counter("jbits.pips_set"), Some(4));
    assert_eq!(old.counter("jbits.pips_cleared"), Some(1));
}

#[test]
fn trace_of_unrouted_source_is_just_the_source() {
    let device = Device::new(Family::Xcv50);
    let r = {
        let mut r = Router::new(&device);
        r.set_recorder(Recorder::enabled());
        r
    };
    let src: EndPoint = Pin::new(5, 7, wire::S1_YQ).into();
    let net = r.trace(&src).unwrap();
    assert_eq!(net.segments.len(), 1);
    assert!(net.pips.is_empty());
    assert!(net.sinks.is_empty());
    assert_eq!(span_note(&r, "router.trace"), Some(1));
}

/// Hand-configure a PIP loop by walking the architecture graph from
/// `start` until a candidate PIP leads back to a segment already on the
/// path, then turning every PIP along that loop on. Returns the segments
/// on the configured path.
fn configure_cycle(r: &mut Router, start: Segment) -> Vec<Segment> {
    let device = *r.device();
    let arch = device.arch();
    let mut path = vec![start];
    let mut cur = start;
    let mut fanout = Vec::new();
    let mut taps = Vec::new();
    for _ in 0..64 {
        taps.clear();
        virtex::segment::taps(device.dims(), cur, &mut taps);
        // Prefer a back edge (closing the cycle); otherwise extend.
        let mut step = None;
        'tap: for tap in &taps {
            fanout.clear();
            arch.pips_from(tap.rc, tap.wire, &mut fanout);
            for &to in &fanout {
                let Some(next) = device.canonicalize(tap.rc, to) else {
                    continue;
                };
                if path.contains(&next) {
                    step = Some((tap.rc, tap.wire, to, next, true));
                    break 'tap;
                }
                if step.is_none() && !to.is_clb_input() {
                    step = Some((tap.rc, tap.wire, to, next, false));
                }
            }
        }
        let (rc, from, to, next, closes) = step.expect("walk dead-ended before closing a cycle");
        r.bits_mut().set_pip(rc, from, to).unwrap();
        if closes {
            return path;
        }
        path.push(next);
        cur = next;
    }
    panic!("no cycle found within 64 steps of {start}");
}

#[test]
fn forward_trace_terminates_on_hand_set_pip_cycles() {
    let device = Device::new(Family::Xcv50);
    let mut r = observed_router(&device);
    let start = device
        .canonicalize(RowCol::new(10, 10), wire::out(2))
        .unwrap();
    let path = configure_cycle(&mut r, start);
    assert!(path.len() >= 2, "a cycle needs at least two segments");

    // The BFS must terminate (its seen-set breaks the loop) and visit
    // every segment on the cycle exactly once.
    let src: EndPoint = Pin::new(start.rc.row, start.rc.col, start.wire).into();
    let net = r.trace(&src).unwrap();
    assert_eq!(net.segments.len(), path.len());
    assert_eq!(span_note(&r, "router.trace"), Some(path.len() as u64));
}

#[test]
fn obs_report_json_export_has_the_documented_shape() {
    let device = Device::new(Family::Xcv50);
    let mut r = observed_router(&device);
    let src: EndPoint = Pin::new(8, 8, wire::S0_YQ).into();
    let sinks: Vec<EndPoint> = vec![
        Pin::new(8, 12, wire::S0_F3).into(),
        Pin::new(11, 9, wire::S1_F1).into(),
    ];
    r.route_fanout(&src, &sinks).unwrap();

    let dir = std::env::temp_dir().join("jroute-obs-shape-test");
    let path = json::export_to(&r.obs_report(), "shape_test", &dir).unwrap();
    let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(doc.get("run").and_then(Value::as_str), Some("shape_test"));
    assert_eq!(doc.get("enabled"), Some(&Value::Bool(true)));
    let counters = doc.get("counters").expect("counters object");
    assert!(
        counters
            .get("router.pips_set")
            .and_then(Value::as_f64)
            .unwrap()
            >= 1.0
    );
    assert!(
        counters.get("jbits.pips_set").is_some(),
        "bitstream tap publishes"
    );
    assert!(
        counters.get("resources.total").is_some(),
        "census gauges publish"
    );
    let hists = doc.get("histograms").expect("histograms object");
    let expanded = hists.get("maze.nodes_expanded").expect("maze histogram");
    assert!(expanded.get("count").and_then(Value::as_f64).unwrap() >= 1.0);
    let spans = doc.get("spans").expect("spans object");
    assert!(spans.get("router.route_fanout").is_some());
    assert!(spans.get("maze.search").is_some());
    assert!(doc.get("events").and_then(Value::as_arr).is_some());
}

/// Shape-check an `OBS_*.json` file produced by a real example run.
/// `scripts/verify.sh` runs the quickstart example with `JROUTE_OBS=1`
/// and then points this test at the export via `OBS_SHAPE_CHECK`; without
/// the variable the test passes vacuously (the in-process export shape
/// is covered above).
#[test]
fn exported_quickstart_json_is_valid_when_pointed_at() {
    let Ok(path) = std::env::var("OBS_SHAPE_CHECK") else {
        return;
    };
    let body =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("OBS_SHAPE_CHECK={path}: {e}"));
    let doc = json::parse(&body).expect("exported file must be valid JSON");
    assert_eq!(doc.get("enabled"), Some(&Value::Bool(true)));
    assert!(doc.get("run").and_then(Value::as_str).is_some());
    let spans = doc
        .get("spans")
        .and_then(Value::as_obj)
        .expect("spans object");
    assert!(
        !spans.is_empty(),
        "a routed example must have recorded spans"
    );
    assert!(doc.get("counters").and_then(Value::as_obj).is_some());
}

#[test]
fn rotating_sink_has_no_torn_lines_under_concurrent_writers() {
    use jroute::obs::RotatingFileSink;
    let dir =
        std::env::temp_dir().join(format!("jroute-obs-concurrent-sink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rec = Recorder::enabled();
    // Small byte cap: the flushed chunks must rotate across several
    // files while four threads are spanning and flushing concurrently.
    // The retention window is sized so no file is evicted — the test
    // accounts for every span at the end.
    rec.set_span_sink(RotatingFileSink::new(&dir, "spans", 16 * 1024, 4096).unwrap());
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let rec = rec.clone();
            scope.spawn(move || {
                for i in 0..2000u64 {
                    let mut s = rec.span("concurrent.tick");
                    s.note(i);
                    drop(s);
                    if i % 100 == 0 {
                        rec.flush_spans();
                    }
                }
            });
        }
    });
    assert!(rec.flush_spans());
    let files = RotatingFileSink::files_written(&dir, "spans", usize::MAX);
    assert!(files.len() > 1, "the byte cap must have forced rotation");
    let mut spans = 0usize;
    for f in &files {
        let body = std::fs::read_to_string(f).unwrap();
        assert!(body.ends_with('\n'), "file ends on a complete line");
        for line in body.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "torn JSONL line in {}: {line:.60}",
                f.display()
            );
            let v = json::parse(line).expect("every chunk line parses");
            spans += v.get("spans").and_then(Value::as_arr).unwrap().len();
            assert!(
                v.get("epoch_unix_nanos").and_then(Value::as_f64).unwrap() > 0.0,
                "chunk header carries the wall-clock epoch"
            );
        }
    }
    let rep = rec.report();
    assert_eq!(
        spans as u64 + rep.spans.len() as u64,
        8000,
        "flushed + retained spans account for every span recorded"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Drive a real threaded service batch and assert two things: the Chrome
/// export is shape-valid, and every routing span is causally linked to
/// the `svc.request` root that triggered it — across the hand-off to
/// wave worker threads. The nets sit on a grid wide enough
/// apart that their search regions are disjoint, so the batch runs as
/// one wave on worker threads.
#[test]
fn chrome_export_of_a_threaded_batch_links_every_routing_span() {
    use jroute::obs::chrome_trace_json;
    use jroute::pathfinder::NetSpec;
    use jroute_svc::{RequestKind, RoutingService, ServiceConfig};

    let device = Device::new(Family::Xcv1000);
    let rec = Recorder::enabled();
    let cfg = ServiceConfig {
        threads: 4,
        audit: true,
        ..Default::default()
    };
    let mut svc = RoutingService::with_recorder(&device, cfg, rec.clone());
    for i in 0..12usize {
        let r = (2 + (i / 4) * 22) as u16;
        let c = (2 + (i % 4) * 24) as u16;
        svc.submit(RequestKind::Route(NetSpec::new(
            Pin::new(r, c, wire::S0_YQ),
            vec![Pin::new(r + 2, c + 4, wire::S0_F3)],
        )))
        .unwrap();
    }
    let batch = svc.run_batch();
    assert!(batch.outcomes.iter().all(|(_, o)| o.is_success()));

    let rep = rec.report();
    let roots: std::collections::HashSet<u64> = rep
        .spans
        .iter()
        .filter(|s| s.name == "svc.request")
        .map(|s| s.trace)
        .collect();
    assert_eq!(roots.len(), 12, "one distinct trace per submission");
    let mut routing_spans = 0usize;
    for s in rep
        .spans
        .iter()
        .filter(|s| matches!(s.name, "svc.exec" | "parallel.net" | "maze.search"))
    {
        assert!(
            roots.contains(&s.trace),
            "{} span not linked to a request root",
            s.name
        );
        assert_ne!(s.span_id, 0, "every span gets a nonzero id");
        routing_spans += 1;
    }
    assert!(routing_spans >= 12, "each request routed at least once");

    // Export shape: valid JSON, required trace_event fields, resolvable
    // parents, and flow arrows only for cross-thread links.
    let doc = json::parse(&chrome_trace_json(&rep)).expect("chrome trace parses");
    assert!(
        doc.get("otherData")
            .and_then(|o| o.get("epoch_unix_nanos"))
            .and_then(Value::as_f64)
            .unwrap()
            > 0.0
    );
    let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
    let ids: std::collections::HashSet<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| {
            e.get("args")
                .unwrap()
                .get("span_id")
                .unwrap()
                .as_f64()
                .unwrap() as u64
        })
        .collect();
    let mut flows = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).expect("phase");
        assert!(e.get("pid").is_some());
        match ph {
            "X" => {
                assert!(e.get("ts").is_some() && e.get("dur").is_some());
                assert!(e.get("tid").is_some());
                let parent = e
                    .get("args")
                    .unwrap()
                    .get("parent")
                    .unwrap()
                    .as_f64()
                    .unwrap() as u64;
                assert!(
                    parent == 0 || ids.contains(&parent),
                    "dangling parent {parent}"
                );
            }
            "s" | "f" => flows += 1,
            _ => {}
        }
    }
    assert!(
        flows >= 2,
        "threaded execution must produce cross-thread flow arrows"
    );
}

/// Shape-check a Chrome trace file produced by a real example run.
/// `scripts/verify.sh` runs the flight-recorder example and points this
/// test at the export via `CHROME_SHAPE_CHECK`; without the variable the
/// test passes vacuously (the in-process shape is covered above).
#[test]
fn exported_chrome_trace_is_valid_when_pointed_at() {
    let Ok(path) = std::env::var("CHROME_SHAPE_CHECK") else {
        return;
    };
    let body =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("CHROME_SHAPE_CHECK={path}: {e}"));
    let doc = json::parse(&body).expect("exported Chrome trace must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "a replayed trace must have events");
    for e in events {
        assert!(e.get("ph").is_some() && e.get("pid").is_some());
    }
    assert!(
        doc.get("otherData")
            .and_then(|o| o.get("epoch_unix_nanos"))
            .is_some(),
        "wall-clock anchor present"
    );
}

#[test]
fn disabled_recorder_reports_nothing() {
    let device = Device::new(Family::Xcv50);
    let mut r = Router::new(&device);
    r.set_recorder(Recorder::disabled());
    let src: EndPoint = Pin::new(5, 7, wire::S1_YQ).into();
    let sink: EndPoint = Pin::new(6, 8, wire::S0_F3).into();
    r.route(&src, &sink).unwrap();
    let rep = r.obs_report();
    assert!(!rep.enabled);
    assert!(rep.spans.is_empty());
    assert_eq!(rep.counter("router.pips_set"), None);
    assert!(
        !r.bits().has_observer(),
        "disabled recorder detaches the jbits tap"
    );
}
