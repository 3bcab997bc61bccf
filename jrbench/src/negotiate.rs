//! `negotiate`: batch timing-driven PathFinder negotiation
//! (`PathFinderConfig::timing_driven()`, 2 worker threads) of a ~460-net
//! netlist on an XCV1000, then `pathfinder::apply` into a blank
//! bitstream. A run negotiates three such netlists, one operation each.
//! 300 nets come from `random_netlist` (fan-out ≤ 6, span ≤ 10) and 160
//! from four contended 3×3 `window_netlist` windows, so partitioning,
//! the criticality walk and Steiner construction all run. Templates and
//! the service layer are never called.
//!
//! The round of three is repeated; each netlist's result is bit-identical
//! by construction, which the run checks.

use crate::ledger::{
    median, ms, peak_rss_mb, quantile, timed, CheckResult, Ledger, Metrics, RunOutput,
};
use crate::Args;
use detrand::DetRng;
use jbits::Bitstream;
use jroute::partition::{partition_waves, SearchBox, DEFAULT_MARGIN};
use jroute::pathfinder::{self, NetSpec, PathFinderConfig, PathFinderResult};
use jroute::Recorder;
use jroute_timing::analyze_net;
use jroute_workloads::{random_netlist, window_netlist, NetlistParams};
use std::collections::HashSet;
use std::time::{Duration, Instant};
use virtex::{Device, Family, Lookahead, RowCol, Segment};

const THREADS: usize = 2;
/// Netlists negotiated per run, each from its own stream of the seed.
const NETLISTS: usize = 3;
/// Input sets rebuilt after each round; `setup_s` is the median of all
/// builds, which so sample the machine across the whole run.
const SETUPS_PER_ROUND: usize = 10;

fn netlist(dev: &Device, seed: u64) -> Vec<NetSpec> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut specs = random_netlist(
        dev,
        &NetlistParams {
            nets: 300,
            max_fanout: 6,
            max_span: Some(10),
        },
        &mut rng,
    );
    let mut pins: HashSet<_> = specs
        .iter()
        .flat_map(|s| std::iter::once(s.source).chain(s.sinks.iter().copied()))
        .collect();
    for origin in [(14, 20), (14, 70), (46, 20), (46, 70)] {
        for spec in window_netlist(dev, 40, 3, RowCol::new(origin.0, origin.1), &mut rng) {
            // A window net may not share a pin with an earlier net: a
            // shared source or sink pin would make it unroutable.
            let spec_pins: Vec<_> = std::iter::once(spec.source)
                .chain(spec.sinks.iter().copied())
                .collect();
            if spec_pins.iter().all(|p| !pins.contains(p)) {
                pins.extend(spec_pins);
                specs.push(spec);
            }
        }
    }
    specs
}

fn config() -> PathFinderConfig {
    PathFinderConfig {
        threads: THREADS,
        ..PathFinderConfig::timing_driven()
    }
}

/// What must repeat exactly between two negotiations of one netlist.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    iterations: usize,
    nodes_expanded: usize,
    segments: Vec<Vec<Segment>>,
    pips_set: usize,
    frames_dirty: usize,
}

/// Counters of the traced recorder that must repeat per negotiation.
const WORK_COUNTERS: &[&str] = &[
    "pathfinder.iterations",
    "pathfinder.nets_rerouted",
    "steiner.builds",
];

struct Rep {
    wall: Duration,
    result: PathFinderResult,
    bits: Bitstream,
    fingerprint: Fingerprint,
    /// The traced recorder's `WORK_COUNTERS` deltas (zero untraced).
    counters: Vec<(String, u64)>,
}

fn negotiate(dev: &Device, specs: &[NetSpec], rec: &Recorder) -> jroute::Result<Rep> {
    let before = rec.report();
    let t0 = Instant::now();
    let _span = rec.span("bench.measured");
    let result = pathfinder::route_all_obs(dev, specs, &config(), rec)?;
    let mut bits = Bitstream::new(dev);
    timed(rec, "jbits.apply", || pathfinder::apply(&result, &mut bits)).0?;
    let wall = t0.elapsed();
    let after = rec.report();
    let counters = WORK_COUNTERS
        .iter()
        .map(|&c| {
            let d = after.counter(c).unwrap_or(0) - before.counter(c).unwrap_or(0);
            (c.to_string(), d)
        })
        .collect();
    let fingerprint = Fingerprint {
        iterations: result.iterations,
        nodes_expanded: result.nodes_expanded,
        segments: result.nets.iter().map(|n| n.segments.clone()).collect(),
        pips_set: bits.on_pip_count(),
        frames_dirty: bits.frames().dirty_count(),
    };
    Ok(Rep {
        wall,
        result,
        bits,
        fingerprint,
        counters,
    })
}

/// Legal, every net routed, and readback reaches every sink. Returns the
/// readback critical path.
fn check(dev: &Device, specs: &[NetSpec], rep: &Rep, rec: &Recorder) -> Result<u64, String> {
    let r = &rep.result;
    if !r.legal {
        return Err(format!("not legal: {} segments overused", r.overused));
    }
    if r.nets.len() != specs.len() {
        return Err(format!("{} of {} nets routed", r.nets.len(), specs.len()));
    }
    let _span = rec.span("timing.analyze");
    let mut crit = 0;
    for (i, spec) in specs.iter().enumerate() {
        let src = dev
            .canonicalize(spec.source.rc, spec.source.wire)
            .ok_or(format!("net {i}: source wire missing"))?;
        let timing = analyze_net(&rep.bits, src);
        let reached: HashSet<_> = timing.sink_delays.iter().map(|&(p, _)| p).collect();
        if let Some(miss) = spec.sinks.iter().find(|p| !reached.contains(p)) {
            return Err(format!("net {i}: readback does not reach sink {miss:?}"));
        }
        crit = crit.max(timing.max_delay());
    }
    Ok(crit)
}

/// The netlists of one seed, each from its own sub-seed.
fn netlists(dev: &Device, seed: u64) -> Vec<Vec<NetSpec>> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..NETLISTS)
        .map(|_| netlist(dev, rng.next_u64()))
        .collect()
}

struct Round {
    traced: bool,
    /// One negotiation per netlist.
    reps: Vec<Rep>,
}

impl Round {
    fn wall(&self) -> f64 {
        self.reps.iter().map(|r| r.wall.as_secs_f64()).sum()
    }
}

pub fn run(args: &Args) -> RunOutput {
    let budget = Duration::from_secs(args.seconds);
    let ledger = args.trace.then(Ledger::new);
    let quiet = Recorder::disabled();
    let traced_rec = ledger.as_ref().map_or(&quiet, |l| l.recorder());
    let start = Instant::now();

    let setup = |rec: &Recorder| {
        let t0 = Instant::now();
        let (dev, _) = timed(rec, "virtex.device_new", || Device::new(Family::Xcv1000));
        timed(rec, "virtex.lookahead", || Lookahead::get(dev.dims()));
        let (lists, _) = timed(rec, "workloads.gen", || netlists(&dev, args.seed));
        (dev, lists, t0.elapsed().as_secs_f64())
    };
    let (dev, lists, first_setup) = setup(&quiet);
    let nets: usize = lists.iter().map(Vec::len).sum();

    // At least two rounds (the determinism check needs a pair); a traced
    // run alternates untraced and traced rounds so their walls give the
    // tracing overhead.
    let mut rounds: Vec<Round> = Vec::new();
    let mut check_result: CheckResult = Ok(());
    let mut setups = vec![first_setup];
    'rounds: while rounds.len() < if args.trace { 4 } else { 2 } || start.elapsed() < budget {
        let traced = args.trace && rounds.len() % 2 == 1;
        let rec = if traced { traced_rec } else { &quiet };
        let mut reps = Vec::with_capacity(NETLISTS);
        for specs in &lists {
            match negotiate(&dev, specs, rec) {
                Ok(rep) => reps.push(rep),
                Err(e) => {
                    check_result = Err(format!("route_all/apply failed: {e}"));
                    break 'rounds;
                }
            }
        }
        let round = Round { traced, reps };
        eprintln!(
            "negotiate round {}{}: wall {:.3}s iterations {:?}",
            rounds.len(),
            if traced { " (traced)" } else { "" },
            round.wall(),
            round
                .reps
                .iter()
                .map(|r| r.result.iterations)
                .collect::<Vec<_>>()
        );
        rounds.push(round);
        // Rebuilding the inputs must give the same netlists.
        for _ in 0..SETUPS_PER_ROUND {
            let (_, again, t) = setup(traced_rec);
            setups.push(t);
            let key = |l: &[Vec<NetSpec>]| -> Vec<_> {
                l.iter()
                    .flatten()
                    .map(|s| (s.source, s.sinks.clone()))
                    .collect()
            };
            if key(&again) != key(&lists) {
                check_result = Err("the same seed generated different netlists".into());
            }
        }
    }

    eprintln!(
        "negotiate set-up: min {:.3} ms, median {:.3} ms, max {:.3} ms over {}",
        quantile(&setups, 0.0) * 1e3,
        median(&setups) * 1e3,
        quantile(&setups, 1.0) * 1e3,
        setups.len()
    );

    let mut crits = Vec::with_capacity(NETLISTS);
    if check_result.is_ok() {
        let first = &rounds[0];
        for (specs, rep) in lists.iter().zip(&first.reps) {
            match check(&dev, specs, rep, traced_rec) {
                Ok(c) => crits.push(c as f64),
                Err(e) => check_result = Err(e),
            }
        }
        // Every round must redo exactly the first round's work; traced
        // rounds also repeat the recorder's work counters.
        let first_traced = rounds.iter().find(|r| r.traced);
        for (i, round) in rounds.iter().enumerate() {
            for (j, rep) in round.reps.iter().enumerate() {
                let counters_differ = round.traced
                    && first_traced.is_some_and(|t| t.reps[j].counters != rep.counters);
                if rep.fingerprint != first.reps[j].fingerprint || counters_differ {
                    check_result = Err(format!(
                        "round {i}, netlist {j}: work differs from the first round at the same seed"
                    ));
                }
            }
        }
    }
    if let Err(e) = &check_result {
        eprintln!("CHECK FAILED negotiate: {e}");
    }
    let correct = check_result.is_ok();
    let attempted = (rounds.len().max(1) * nets) as u64;
    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();
    if !correct {
        return RunOutput {
            correct,
            attempted,
            failed: attempted,
            e2e,
            layers,
        };
    }

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall()).collect();
    // One op is one netlist's negotiation: its time is the median over
    // rounds, and the percentiles run over the netlists.
    let op_ms: Vec<f64> = (0..NETLISTS)
        .map(|j| {
            median(
                &untraced
                    .iter()
                    .map(|r| ms(r.reps[j].wall))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let first = untraced[0];
    let wirelength: usize = first
        .reps
        .iter()
        .flat_map(|r| &r.result.nets)
        .map(|n| n.segments.len())
        .sum();
    let frames: usize = first
        .reps
        .iter()
        .map(|r| r.bits.frames().dirty_count())
        .sum();
    e2e.set("setup_s", median(&setups), "s");
    e2e.set("wall_s", median(&walls), "s");
    e2e.set("op_p50_ms", quantile(&op_ms, 0.5), "ms");
    e2e.set("op_p95_ms", quantile(&op_ms, 0.95), "ms");
    e2e.set(
        "crit_path_ps",
        crits.iter().sum::<f64>() / crits.len() as f64,
        "ps",
    );
    e2e.set("wirelength_segs", wirelength as f64, "segs");
    e2e.set("frames_per_op", frames as f64 / nets as f64, "frames");
    e2e.set("fail_frac", 0.0, "frac");
    e2e.set("peak_rss_mb", peak_rss_mb(), "MiB");

    if let Some(ledger) = ledger {
        let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
        let n = traced.len() as f64;
        let traced_wall = median(&traced.iter().map(|r| r.wall()).collect::<Vec<_>>());
        // Partition planning as the engine's first iteration sees it:
        // the nets' canonical search regions, planned into waves.
        let boxes: Vec<Vec<_>> = lists
            .iter()
            .map(|specs| {
                specs
                    .iter()
                    .map(|s| SearchBox::of_spec(s).region(DEFAULT_MARGIN, dev.dims()))
                    .collect()
            })
            .collect();
        let plan_rounds = 20;
        let (_, plan) = timed(&quiet, "partition.plan", || {
            for _ in 0..plan_rounds {
                for b in &boxes {
                    std::hint::black_box(partition_waves(std::hint::black_box(b)));
                }
            }
        });
        let t = ledger.finish();
        t.print(Duration::from_secs_f64(
            traced.iter().map(|r| r.wall()).sum(),
        ));
        // Work counters of one traced round (identical in every round).
        let counter = |name: &str| -> f64 {
            traced[0]
                .reps
                .iter()
                .flat_map(|r| &r.counters)
                .filter(|(c, _)| c == name)
                .map(|&(_, v)| v as f64)
                .sum()
        };
        let per = |name: &str| t.counter(name) as f64 / n;
        let builds = t.count("workloads.gen").max(1) as f64;
        layers.set(
            "virtex.device_new_ms",
            t.busy_ms("virtex.device_new") / builds,
            "ms",
        );
        layers.set(
            "virtex.lookahead_ms",
            t.busy_ms("virtex.lookahead") / builds,
            "ms",
        );
        layers.set(
            "workloads.gen_ms",
            t.busy_ms("workloads.gen") / builds,
            "ms",
        );
        layers.set("maze.searches", per("maze.searches"), "count");
        let nodes: usize = traced[0]
            .reps
            .iter()
            .map(|r| r.fingerprint.nodes_expanded)
            .sum();
        layers.set("maze.nodes_expanded", nodes as f64, "count");
        layers.set("maze.open_pushes", per("maze.open_pushes"), "count");
        layers.set("maze.search_ms", t.busy_ms("maze.search") / n, "ms");
        layers.set(
            "maze.ns_per_node",
            t.busy_ms("maze.search") * 1e6 / (nodes.max(1) as f64 * n),
            "ns",
        );
        // Searches run on both engine threads, so their busy time is a
        // share of the engine's thread capacity, not of its wall time.
        layers.set(
            "maze.share",
            t.busy_ms("maze.search")
                / (THREADS as f64 * t.busy_ms("pathfinder.route_all")).max(1e-9),
            "frac",
        );
        layers.set(
            "pathfinder.iterations",
            counter("pathfinder.iterations"),
            "count",
        );
        layers.set(
            "pathfinder.nets_rerouted",
            counter("pathfinder.nets_rerouted"),
            "count",
        );
        layers.set("pathfinder.ripups", per("pathfinder.ripups"), "count");
        layers.set(
            "pathfinder.route_all_ms",
            t.busy_ms("pathfinder.route_all") / n,
            "ms",
        );
        layers.set(
            "pathfinder.self_ms",
            t.self_ms("pathfinder.route_all") / n,
            "ms",
        );
        layers.set("pathfinder.waves", per("pathfinder.waves"), "count");
        layers.set(
            "pathfinder.partition_conflicts",
            per("pathfinder.partition_conflicts"),
            "count",
        );
        layers.set(
            "pathfinder.crit_p99",
            t.counter("pathfinder.crit_p99") as f64,
            "crit/256",
        );
        layers.set("partition.plan_ms", ms(plan) / plan_rounds as f64, "ms");
        layers.set("steiner.builds", counter("steiner.builds"), "count");
        layers.set(
            "steiner.win_ratio",
            t.counter("steiner.wins") as f64 / t.counter("steiner.builds").max(1) as f64,
            "frac",
        );
        layers.set("timing.analyze_ms", t.busy_ms("timing.analyze"), "ms");
        layers.set("jbits.apply_ms", t.busy_ms("jbits.apply") / n, "ms");
        layers.set(
            "jbits.pips_set",
            first
                .reps
                .iter()
                .map(|r| r.bits.on_pip_count())
                .sum::<usize>() as f64,
            "count",
        );
        layers.set("jbits.frames_dirty", frames as f64, "count");
        layers.set(
            "obs.overhead_frac",
            traced_wall / median(&walls) - 1.0,
            "frac",
        );
    }
    RunOutput {
        correct,
        attempted,
        failed: 0,
        e2e,
        layers,
    }
}
