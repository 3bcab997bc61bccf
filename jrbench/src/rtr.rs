//! `rtr_cores`: the paper's run-time reconfiguration loop (§3.3), single
//! threaded and closed loop. Six `StimulusBank → ConstMultiplier →
//! ConstAdder` pipelines are composed on an XCV1000 with `route_bus`;
//! the measured phase is a seeded stream of `replace_with` (new
//! constant) and `relocate` (to a free region) calls through the
//! `jroute-cores` API. PathFinder and the service layer are never
//! called.
//!
//! A run is a series of sessions, each a fresh setup and 144 ops from its
//! own stream of the seed. One stream is run twice, and the work
//! counters of the two runs must match exactly.

use crate::ledger::{
    median, ms, peak_rss_mb, quantile, timed, CheckResult, Ledger, Metrics, RunOutput,
};
use crate::Args;
use detrand::DetRng;
use jroute::{EndPoint, PortId, Recorder, Router, RouterStats};
use jroute_cores::{
    relocate, replace_with, ConstAdder, ConstMultiplier, Floorplan, Region, RtpCore, StimulusBank,
};
use jroute_timing::analyze_net;
use std::time::{Duration, Instant};
use virtex::{Device, Family, Lookahead, RowCol};
use vsim::{LogicSource, Simulator};

const PIPES: usize = 6;
/// RTR operations per session.
const OPS: usize = 144;
/// Relocation targets are drawn within this many CLBs of the core's
/// initial origin, so positions stay stationary over a session.
const MOVE_RADIUS: i32 = 8;

struct Pipe {
    /// Initial origins of the multiplier and the adder.
    home: [RowCol; 2],
    stim: StimulusBank,
    mul: ConstMultiplier,
    add: ConstAdder,
}

#[derive(Clone, Copy)]
enum Stage {
    Mul,
    Add,
}

#[derive(Clone, Copy)]
enum OpKind {
    Replace(u64),
    /// Relocate, drawing candidate origins from this sub-seed.
    Relocate(u64),
}

#[derive(Clone, Copy)]
struct Op {
    pipe: usize,
    stage: Stage,
    kind: OpKind,
}

struct Session {
    router: Router,
    floor: Floorplan,
    pipes: Vec<Pipe>,
    ops: Vec<Op>,
}

/// Work done by one session's measured phase; must repeat exactly.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    stats: RouterStats,
    frames: usize,
}

struct SessionResult {
    setup: Duration,
    wall: Duration,
    op_ms: Vec<f64>,
    work: Work,
    failed: u64,
    crit_ps: u64,
    segments: usize,
    check: CheckResult,
}

fn ports(ids: &[PortId]) -> Vec<EndPoint> {
    ids.iter().map(|&p| p.into()).collect()
}

fn region_id(pipe: usize, stage: usize) -> u32 {
    (pipe * 3 + stage) as u32
}

/// A core's footprint plus a one-CLB routing margin on every side.
fn halo(origin: RowCol, (rows, cols): (u16, u16)) -> Region {
    Region {
        origin: RowCol::new(origin.row.saturating_sub(1), origin.col.saturating_sub(1)),
        rows: rows + 2,
        cols: cols + 2,
    }
}

/// A fixed cadence with seeded parameters, so the op mix does not vary
/// between seeds: pipelines in turn; multiplier, multiplier, adder; a
/// block of replaces, then a block of relocates (36 ops per period).
/// Multiplier ops cost about twice adder ops; two in three keep the
/// median op inside one cluster instead of in the gap between two.
fn gen_ops(rng: &mut DetRng) -> Vec<Op> {
    (0..OPS)
        .map(|i| {
            let pipe = i % PIPES;
            let stage = if (i / PIPES) % 3 == 2 {
                Stage::Add
            } else {
                Stage::Mul
            };
            let kind = if (i / (3 * PIPES)).is_multiple_of(2) {
                OpKind::Replace(match stage {
                    Stage::Mul => rng.gen_range(1..16u64),
                    Stage::Add => rng.gen_range(0..256u64),
                })
            } else {
                OpKind::Relocate(rng.next_u64())
            };
            Op { pipe, stage, kind }
        })
        .collect()
}

fn setup(seed: u64, rec: &Recorder) -> Session {
    let (dev, _) = timed(rec, "virtex.device_new", || Device::new(Family::Xcv1000));
    timed(rec, "virtex.lookahead", || Lookahead::get(dev.dims()));
    let (ops, _) = timed(rec, "workloads.gen", || {
        gen_ops(&mut DetRng::seed_from_u64(seed))
    });
    let _span = rec.span("cores.compose");
    let mut router = Router::new(&dev);
    router.set_recorder(rec.clone());
    let mut floor = Floorplan::new(dev.dims());
    let mut pipes = Vec::with_capacity(PIPES);
    for i in 0..PIPES {
        let row = 4 + (i % 3) as u16 * 20;
        let col = 6 + (i / 3) as u16 * 44;
        let mut p = Pipe {
            home: [RowCol::new(row, col + 8), RowCol::new(row, col + 18)],
            stim: StimulusBank::new(4, RowCol::new(row, col)),
            mul: ConstMultiplier::new(1 + i as u8, 8, RowCol::new(row, col + 8)),
            add: ConstAdder::new(8, 17 * i as u64, RowCol::new(row, col + 18)),
        };
        let cores: [&mut dyn RtpCore; 3] = [&mut p.stim, &mut p.mul, &mut p.add];
        for (s, core) in cores.into_iter().enumerate() {
            assert!(
                floor.claim(region_id(i, s), halo(core.origin(), core.footprint())),
                "initial placement overlaps"
            );
            core.implement(&mut router)
                .expect("initial core implements");
        }
        router
            .route_bus(&ports(p.stim.out_ports()), &ports(p.mul.a_ports()))
            .expect("stimulus → multiplier bus routes");
        router
            .route_bus(&ports(p.mul.p_ports()), &ports(p.add.a_ports()))
            .expect("multiplier → adder bus routes");
        pipes.push(p);
    }
    router.bits_mut().frames_mut().take(); // end the build transaction
    Session {
        router,
        floor,
        pipes,
        ops,
    }
}

/// Pick a free halo near `home`, claim it for `core`, and return the new
/// origin; `None` (nothing claimed) if no candidate is free.
fn claim_near(
    floor: &mut Floorplan,
    id: u32,
    core: &dyn RtpCore,
    home: RowCol,
    rng: &mut DetRng,
) -> Option<RowCol> {
    let cur = core.origin();
    let old = halo(cur, core.footprint());
    floor.release(id);
    for _ in 0..400 {
        let row = home.row as i32 + rng.gen_range(-MOVE_RADIUS..=MOVE_RADIUS);
        let col = home.col as i32 + rng.gen_range(-MOVE_RADIUS..=MOVE_RADIUS);
        if row < 1 || col < 1 || (row as u16, col as u16) == (cur.row, cur.col) {
            continue;
        }
        let origin = RowCol::new(row as u16, col as u16);
        if floor.claim(id, halo(origin, core.footprint())) {
            return Some(origin);
        }
    }
    assert!(floor.claim(id, old), "old region is still free");
    None
}

fn run_op(s: &mut Session, op: Op) -> jroute::Result<()> {
    let rec = s.router.recorder().clone();
    let p = &mut s.pipes[op.pipe];
    match (op.kind, op.stage) {
        (OpKind::Replace(v), Stage::Mul) => {
            let _span = rec.span("cores.replace");
            replace_with(&mut p.mul, &mut s.router, |m| m.set_constant(v as u8))
        }
        (OpKind::Replace(v), Stage::Add) => {
            let _span = rec.span("cores.replace");
            replace_with(&mut p.add, &mut s.router, |a| a.set_constant(v))
        }
        (OpKind::Relocate(sub), stage) => {
            let _span = rec.span("cores.relocate");
            let mut rng = DetRng::seed_from_u64(sub);
            let (core, s_idx): (&mut dyn RtpCore, usize) = match stage {
                Stage::Mul => (&mut p.mul, 1),
                Stage::Add => (&mut p.add, 2),
            };
            let home = p.home[s_idx - 1];
            match claim_near(
                &mut s.floor,
                region_id(op.pipe, s_idx),
                core,
                home,
                &mut rng,
            ) {
                Some(origin) => relocate(core, &mut s.router, origin),
                // Nowhere to go: the op degenerates to a same-place re-implement.
                None => {
                    let here = core.origin();
                    relocate(core, &mut s.router, here)
                }
            }
        }
    }
}

/// Every pipeline computes `a·k + c` for all 4-bit `a`, every bus sink
/// is reached by readback `trace`, and nothing is left remembered.
fn check(s: &Session) -> CheckResult {
    let r = &s.router;
    if !r.remembered().is_empty() {
        return Err(format!(
            "{} connections left unrouted",
            r.remembered().len()
        ));
    }
    let mut sim = Simulator::new(r.bits());
    for a in 0..16u64 {
        for p in &s.pipes {
            for bit in 0..p.stim.width() {
                let pin = p.stim.driver_pin(bit);
                sim.force(
                    LogicSource::Yq {
                        rc: pin.rc,
                        slice: 1,
                    },
                    (a >> bit) & 1 == 1,
                );
            }
        }
        for (i, p) in s.pipes.iter().enumerate() {
            let mut got = 0u64;
            for j in 0..p.add.width() {
                let v = sim
                    .read(LogicSource::X {
                        rc: p.add.sum_site(j),
                        slice: 0,
                    })
                    .map_err(|e| format!("pipeline {i}: sum bit {j}: {e:?}"))?;
                got |= (v as u64) << j;
            }
            let want = (a * u64::from(p.mul.constant()) + p.add.constant()) & 0xFF;
            if got != want {
                return Err(format!("pipeline {i}: f({a}) = {got}, want {want}"));
            }
        }
    }
    for (i, p) in s.pipes.iter().enumerate() {
        for (srcs, sinks) in [
            (p.stim.out_ports(), p.mul.a_ports()),
            (p.mul.p_ports(), p.add.a_ports()),
        ] {
            for (src, sink) in srcs.iter().zip(sinks) {
                let traced = r
                    .trace(&(*src).into())
                    .map_err(|e| format!("pipeline {i}: trace: {e}"))?;
                for pin in r.resolve(&(*sink).into()).map_err(|e| e.to_string())? {
                    if !traced.sinks.contains(&pin) {
                        return Err(format!("pipeline {i}: sink {pin:?} not reached"));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Readback critical path over every bus net of every pipeline. The
/// session reports its median over the design states after each op.
fn crit_path_ps(s: &Session) -> u64 {
    let r = &s.router;
    let mut worst = 0;
    for p in &s.pipes {
        for src in p.stim.out_ports().iter().chain(p.mul.p_ports()) {
            let pin = r.resolve(&(*src).into()).expect("bound port")[0];
            let seg = r
                .device()
                .canonicalize(pin.rc, pin.wire)
                .expect("port pin exists");
            worst = worst.max(analyze_net(r.bits(), seg).max_delay());
        }
    }
    worst
}

fn session(seed: u64, rec: &Recorder) -> SessionResult {
    let t0 = Instant::now();
    let mut s = {
        let _span = rec.span("bench.setup");
        setup(seed, rec)
    };
    let setup = t0.elapsed();
    let before = s.router.stats().clone();
    let mut op_ms = Vec::with_capacity(OPS);
    let mut frames = 0;
    let mut failed = 0;
    let mut crit = Vec::with_capacity(OPS);
    // The measured phase is the ops back to back; the readback between
    // them is not part of it.
    let mut wall = Duration::ZERO;
    for op in s.ops.clone() {
        let (ok, dt) = timed(rec, "bench.op", || run_op(&mut s, op).is_ok());
        wall += dt;
        op_ms.push(ms(dt));
        failed += u64::from(!ok);
        frames += s.router.bits_mut().frames_mut().take().len();
        crit.push(crit_path_ps(&s));
    }
    let after = s.router.stats();
    let stats = RouterStats {
        pips_set: after.pips_set - before.pips_set,
        pips_cleared: after.pips_cleared - before.pips_cleared,
        nets_created: after.nets_created - before.nets_created,
        maze_searches: after.maze_searches - before.maze_searches,
        maze_nodes_expanded: after.maze_nodes_expanded - before.maze_nodes_expanded,
        template_attempts: after.template_attempts - before.template_attempts,
        template_successes: after.template_successes - before.template_successes,
        maze_fallbacks: after.maze_fallbacks - before.maze_fallbacks,
        contention_rejections: after.contention_rejections - before.contention_rejections,
    };
    let check = {
        let _span = rec.span("bench.check");
        check(&s)
    };
    SessionResult {
        setup,
        wall,
        op_ms,
        work: Work { stats, frames },
        failed,
        crit_ps: median(&crit.iter().map(|&c| c as f64).collect::<Vec<_>>()) as u64,
        segments: s.router.nets().used_segments(),
        check,
    }
}

/// The seed of op stream `k`.
fn stream_seed(seed: u64, k: usize) -> u64 {
    DetRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

struct Ran {
    stream: usize,
    traced: bool,
    /// A repeat of an earlier stream, run for the determinism check.
    repeat: bool,
    result: SessionResult,
}

pub fn run(args: &Args) -> RunOutput {
    let budget = Duration::from_secs(args.seconds);
    let ledger = args.trace.then(Ledger::new);
    let quiet = Recorder::disabled();
    let traced_rec = ledger.as_ref().map_or(&quiet, |l| l.recorder());
    let start = Instant::now();
    // Untraced: streams 0, 1, 2, … until the budget is spent, then
    // stream 0 again. Traced: each stream untraced, then traced, so the
    // pair gives both the determinism check and the tracing overhead.
    let mut sessions: Vec<Ran> = Vec::new();
    loop {
        let k = sessions.len();
        let next = if args.trace {
            (k < 4 || start.elapsed() < budget).then_some((k / 2, k % 2 == 1, k % 2 == 1))
        } else if k < 2 || start.elapsed() < budget {
            Some((k, false, false))
        } else if sessions.iter().all(|r| !r.repeat) {
            Some((0, false, true))
        } else {
            None
        };
        let Some((stream, traced, repeat)) = next else {
            break;
        };
        let result = session(
            stream_seed(args.seed, stream),
            if traced { traced_rec } else { &quiet },
        );
        eprintln!(
            "rtr_cores session {k} (stream {stream}{}): setup {:.3}s wall {:.3}s failed {}",
            if traced { ", traced" } else { "" },
            result.setup.as_secs_f64(),
            result.wall.as_secs_f64(),
            result.failed
        );
        sessions.push(Ran {
            stream,
            traced,
            repeat,
            result,
        });
    }

    let mut correct = true;
    for (i, r) in sessions.iter().enumerate() {
        if let Err(e) = &r.result.check {
            eprintln!("CHECK FAILED rtr_cores session {i}: {e}");
            correct = false;
        }
        let twin = &sessions
            .iter()
            .find(|t| t.stream == r.stream)
            .expect("itself")
            .result;
        if r.result.work != twin.work || r.result.crit_ps != twin.crit_ps {
            eprintln!(
                "CHECK FAILED rtr_cores session {i}: work differs from the first run of stream {}: {:?} vs {:?}",
                r.stream, r.result.work, twin.work
            );
            correct = false;
        }
    }

    let measured: Vec<&SessionResult> = sessions
        .iter()
        .filter(|r| !r.traced && !r.repeat)
        .map(|r| &r.result)
        .collect();
    let op_ms: Vec<f64> = measured
        .iter()
        .flat_map(|s| s.op_ms.iter().copied())
        .collect();
    let walls: Vec<f64> = measured.iter().map(|s| s.wall.as_secs_f64()).collect();
    let attempted: u64 = sessions.iter().map(|r| r.result.op_ms.len() as u64).sum();
    let failed: u64 = sessions.iter().map(|r| r.result.failed).sum();

    let mut e2e = Metrics::default();
    e2e.set(
        "setup_s",
        median(
            &sessions
                .iter()
                .map(|r| r.result.setup.as_secs_f64())
                .collect::<Vec<_>>(),
        ),
        "s",
    );
    e2e.set("wall_s", median(&walls), "s");
    e2e.set("op_p50_ms", quantile(&op_ms, 0.5), "ms");
    e2e.set("op_p95_ms", quantile(&op_ms, 0.95), "ms");
    // Work counts come from stream 0, which every run at a seed runs
    // first: they repeat exactly however many streams fit in the run.
    let stream0 = &sessions[0].result;
    e2e.set(
        "frames_per_op",
        stream0.work.frames as f64 / OPS as f64,
        "frames",
    );
    let crits: Vec<f64> = measured.iter().map(|s| s.crit_ps as f64).collect();
    e2e.set("crit_path_ps", median(&crits), "ps");
    e2e.set("wirelength_segs", stream0.segments as f64, "segs");
    e2e.set("fail_frac", failed as f64 / attempted as f64, "frac");
    e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "rtr_cores: {} op samples from {} streams; p95 has {} beyond",
        op_ms.len(),
        measured.len(),
        op_ms.len() / 20
    );

    let mut layers = Metrics::default();
    if let Some(ledger) = ledger {
        let traced: Vec<&SessionResult> = sessions
            .iter()
            .filter(|r| r.traced)
            .map(|r| &r.result)
            .collect();
        let n = traced.len() as f64;
        // Each traced session against the untraced run of its stream.
        let overhead: Vec<f64> = sessions
            .iter()
            .filter(|r| r.traced)
            .map(|r| {
                let twin = &sessions
                    .iter()
                    .find(|t| t.stream == r.stream)
                    .expect("untraced twin")
                    .result;
                r.result.wall.as_secs_f64() / twin.wall.as_secs_f64()
            })
            .collect();
        let t = ledger.finish();
        t.print(Duration::from_secs_f64(
            traced.iter().map(|s| s.wall.as_secs_f64()).sum(),
        ));
        let work = |f: &dyn Fn(&RouterStats) -> usize| f(&stream0.work.stats) as f64;
        let per = |ms: f64| ms / n;
        let measured = t.busy_ms("bench.op");
        layers.set(
            "virtex.device_new_ms",
            per(t.busy_ms("virtex.device_new")),
            "ms",
        );
        layers.set(
            "virtex.lookahead_ms",
            per(t.busy_ms("virtex.lookahead")),
            "ms",
        );
        layers.set("workloads.gen_ms", per(t.busy_ms("workloads.gen")), "ms");
        layers.set("cores.compose_ms", per(t.busy_ms("cores.compose")), "ms");
        layers.set(
            "cores.replace_ms",
            t.busy_ms("cores.replace") / t.count("cores.replace").max(1) as f64,
            "ms",
        );
        layers.set(
            "cores.relocate_ms",
            t.busy_ms("cores.relocate") / t.count("cores.relocate").max(1) as f64,
            "ms",
        );
        layers.set("router.route_ms", per(t.busy_ms("router.route")), "ms");
        layers.set(
            "router.unroute_ms",
            per(t.busy_ms("router.unroute") + t.busy_ms("router.reverse_unroute")),
            "ms",
        );
        layers.set("template.self_ms", per(t.self_ms("router.route")), "ms");
        layers.set(
            "template.share",
            t.self_ms("router.route") / measured.max(1e-9),
            "frac",
        );
        layers.set("template.attempts", work(&|w| w.template_attempts), "count");
        layers.set(
            "template.success_ratio",
            work(&|w| w.template_successes) / work(&|w| w.template_attempts).max(1.0),
            "frac",
        );
        layers.set(
            "router.maze_fallbacks",
            work(&|w| w.maze_fallbacks),
            "count",
        );
        layers.set("maze.searches", work(&|w| w.maze_searches), "count");
        layers.set(
            "maze.nodes_expanded",
            work(&|w| w.maze_nodes_expanded),
            "count",
        );
        layers.set("maze.search_ms", per(t.busy_ms("maze.search")), "ms");
        layers.set(
            "maze.share",
            t.busy_ms("maze.search") / measured.max(1e-9),
            "frac",
        );
        layers.set(
            "maze.ns_per_node",
            t.busy_ms("maze.search") * 1e6
                / traced
                    .iter()
                    .map(|s| s.work.stats.maze_nodes_expanded)
                    .sum::<usize>()
                    .max(1) as f64,
            "ns",
        );
        layers.set(
            "maze.open_pushes",
            per(t.counter("maze.open_pushes") as f64),
            "count",
        );
        layers.set("jbits.pips_set", work(&|w| w.pips_set), "count");
        layers.set("jbits.pips_cleared", work(&|w| w.pips_cleared), "count");
        layers.set("jbits.frames_dirty", stream0.work.frames as f64, "count");
        layers.set("vsim.check_ms", per(t.busy_ms("bench.check")), "ms");
        layers.set("obs.overhead_frac", median(&overhead) - 1.0, "frac");
    }
    RunOutput {
        correct,
        attempted,
        failed,
        e2e,
        layers,
    }
}
