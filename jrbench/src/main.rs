//! Outside-in JRoute benchmark.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path jrbench/Cargo.toml -- \
//!     --workload <rtr_cores|negotiate|server_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the public APIs of the repository's crates,
//! checks every output outside the timed region, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed check
//! still prints the object (with `"correct": false`) and exits 1. The
//! per-layer span table goes to stderr. See `jrbench/README.md` for the
//! workloads and the layer → metric → workload map.

mod ledger;
mod negotiate;
mod rtr;
mod server;

use ledger::{Metrics, RunOutput};
use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Every run prints all of these, with their units, with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("crit_path_ps", "ps"),
    ("peak_rss_mb", "MiB"),
];

/// Every run prints all of these with `--trace 1`; a layer the workload
/// never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("virtex.device_new_ms", "ms"),
    ("virtex.lookahead_ms", "ms"),
    ("workloads.gen_ms", "ms"),
    ("cores.compose_ms", "ms"),
    ("cores.replace_ms", "ms"),
    ("cores.relocate_ms", "ms"),
    ("router.route_ms", "ms"),
    ("router.unroute_ms", "ms"),
    ("router.maze_fallbacks", "count"),
    ("template.self_ms", "ms"),
    ("template.share", "frac"),
    ("template.attempts", "count"),
    ("template.success_ratio", "frac"),
    ("maze.searches", "count"),
    ("maze.nodes_expanded", "count"),
    ("maze.open_pushes", "count"),
    ("maze.search_ms", "ms"),
    ("maze.ns_per_node", "ns"),
    ("maze.share", "frac"),
    ("pathfinder.iterations", "count"),
    ("pathfinder.nets_rerouted", "count"),
    ("pathfinder.ripups", "count"),
    ("pathfinder.route_all_ms", "ms"),
    ("pathfinder.self_ms", "ms"),
    ("pathfinder.waves", "count"),
    ("pathfinder.partition_conflicts", "count"),
    ("pathfinder.crit_p99", "crit/256"),
    ("partition.plan_ms", "ms"),
    ("steiner.builds", "count"),
    ("steiner.win_ratio", "frac"),
    ("timing.analyze_ms", "ms"),
    ("jbits.pips_set", "count"),
    ("jbits.pips_cleared", "count"),
    ("jbits.frames_dirty", "count"),
    ("jbits.apply_ms", "ms"),
    ("frames_per_op", "frames"),
    ("vsim.check_ms", "ms"),
    ("svc.submit_p99_us", "us"),
    ("svc.batches", "count"),
    ("svc.mean_batch", "req"),
    ("svc.executed", "count"),
    ("svc.retries", "count"),
    ("svc.retry_ratio", "frac"),
    ("svc.congested", "count"),
    ("svc.queue_full", "count"),
    ("svc.batch_ms", "ms"),
    ("svc.exec_ms", "ms"),
    ("req_p50_ms.r500", "ms"),
    ("req_p99_ms.r500", "ms"),
    ("req_p50_ms.r2000", "ms"),
    ("req_p99_ms.r2000", "ms"),
    ("max_rate_rps", "1/s"),
    ("wirelength_segs", "segs"),
    ("fail_frac", "frac"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.gen_late_max_ms", "ms"),
    ("bench.backlog_end", "count"),
    ("obs.overhead_frac", "frac"),
];

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The result line: `names` with their values from `metrics` (0 when
/// the workload did not set one).
fn json_line(out: &RunOutput, metrics: &Metrics, names: &[(&str, &str)]) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            // A figure a too-short run could not measure (a ladder step
            // with no completions) is null rather than an invalid number.
            let value = metrics.get(name).unwrap_or(0.0);
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("jrbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match args.workload.as_str() {
        "rtr_cores" => rtr::run(&args),
        "negotiate" => negotiate::run(&args),
        "server_open" => server::run(&args),
        other => {
            eprintln!("jrbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    eprintln!("--- {} seed {} (all metrics) ---", args.workload, args.seed);
    for (name, value, unit) in out.e2e.iter().chain(out.layers.iter()) {
        eprintln!("{name:<28} {value:>14.4} {unit}");
    }
    // Every metric a workload sets is declared, with the same unit.
    for (name, _, unit) in out.e2e.iter().chain(out.layers.iter()) {
        let declared = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
        assert_eq!(
            declared.map(|d| d.1),
            Some(unit),
            "metric {name} is not declared as {unit}"
        );
    }
    let line = if args.trace {
        // Result-level metrics the untraced phase measured ride along in
        // the per-layer table.
        let mut layers = Metrics::default();
        for (name, value, unit) in out.e2e.iter().chain(out.layers.iter()) {
            layers.set(name, value, unit);
        }
        json_line(&out, &layers, PER_LAYER)
    } else {
        for (name, _) in END_TO_END {
            assert!(
                !out.correct || out.e2e.get(name).is_some(),
                "workload did not measure {name}"
            );
        }
        json_line(&out, &out.e2e, END_TO_END)
    };
    println!("{line}");
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
