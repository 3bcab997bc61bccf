#!/usr/bin/env bash
# Tier-1 verification entry point (see ROADMAP.md).
#
# The workspace is hermetic: every dependency is an in-repo path crate,
# so everything here must succeed with networking disabled. The script
# builds release, runs the full test suite (unit + the workspace-level
# integration/property/RTR suites hosted by crates/tests), then
# smoke-runs the microbenches (emitting machine-readable JSON under
# target/bench-json/), the examples and the outside-in jrbench
# workloads.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc --workspace --no-deps (deny warnings: broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --keep-going

echo "==> cargo build --release --offline"
cargo build --release --offline

echo "==> cargo test -q --offline"
cargo test -q --offline

echo "==> census (informational: non-test lines and library panic sites)"
scripts/census.sh

echo "==> bench smoke: e1_census (tiny budgets via BENCH_* env)"
BENCH_SAMPLE_SIZE=3 BENCH_MEASURE_MS=200 BENCH_WARMUP_MS=50 \
    cargo bench --offline --bench e1_census
test -s target/bench-json/BENCH_e1_census.json
grep -q '"id": "e1/adjacency_table_full_tile"' target/bench-json/BENCH_e1_census.json
echo "    wrote target/bench-json/BENCH_e1_census.json"

echo "==> bench smoke: e4_template_vs_maze (template matcher vs maze under occupancy)"
BENCH_SAMPLE_SIZE=3 BENCH_MEASURE_MS=200 BENCH_WARMUP_MS=50 \
    cargo bench --offline --bench e4_template_vs_maze
test -s target/bench-json/BENCH_e4_template_vs_maze.json
grep -q '"id": "e4/templates_prefill_0"' target/bench-json/BENCH_e4_template_vs_maze.json
echo "    wrote target/bench-json/BENCH_e4_template_vs_maze.json"
echo "==> bench smoke: e5_rtr_replace (constant replace vs full build; asserts the replace dirties LUT frames only)"
BENCH_SAMPLE_SIZE=3 BENCH_MEASURE_MS=200 BENCH_WARMUP_MS=50 \
    cargo bench --offline --bench e5_rtr_replace
test -s target/bench-json/BENCH_e5_rtr_replace.json
grep -q '"id": "e5/replace_multiplier_constant"' target/bench-json/BENCH_e5_rtr_replace.json
echo "    wrote target/bench-json/BENCH_e5_rtr_replace.json"
echo "==> bench smoke: e15_convergence (incremental vs full-ripup PathFinder)"
BENCH_SAMPLE_SIZE=3 BENCH_MEASURE_MS=200 BENCH_WARMUP_MS=50 \
    cargo bench --offline --bench e15_convergence
test -s target/bench-json/BENCH_e15_convergence.json
grep -q '"id": "e15/incremental_' target/bench-json/BENCH_e15_convergence.json
grep -q '"id": "e15/full_ripup_' target/bench-json/BENCH_e15_convergence.json
echo "    wrote target/bench-json/BENCH_e15_convergence.json"

echo "==> bench smoke: e12_parallel (route_parallel through the threaded wave dispatcher)"
BENCH_SAMPLE_SIZE=3 BENCH_MEASURE_MS=200 BENCH_WARMUP_MS=50 JROUTE_THREADS=1,2 \
    cargo bench --offline --bench e12_parallel
test -s target/bench-json/BENCH_e12_parallel.json
grep -q '"id": "e12/route_parallel_1t"' target/bench-json/BENCH_e12_parallel.json
grep -q '"id": "e12/route_parallel_2t"' target/bench-json/BENCH_e12_parallel.json
echo "    wrote target/bench-json/BENCH_e12_parallel.json"

echo "==> bench smoke: e18_partition (partition-parallel negotiation on SUPER4)"
BENCH_SAMPLE_SIZE=3 BENCH_MEASURE_MS=200 BENCH_WARMUP_MS=50 JROUTE_THREADS=1,2 \
    cargo bench --offline --bench e18_partition
test -s target/bench-json/BENCH_e18_partition.json
grep -q '"id": "e18/negotiate_super4_' target/bench-json/BENCH_e18_partition.json
echo "    wrote target/bench-json/BENCH_e18_partition.json"

echo "==> bench smoke: e16_scenarios (trace replay + static adversarial rows)"
BENCH_SAMPLE_SIZE=3 BENCH_MEASURE_MS=200 BENCH_WARMUP_MS=50 \
    cargo bench --offline --bench e16_scenarios
test -s target/bench-json/BENCH_e16_scenarios.json
grep -q '"id": "e16/static_' target/bench-json/BENCH_e16_scenarios.json
grep -q '"id": "e16/replay_churn_' target/bench-json/BENCH_e16_scenarios.json
echo "    wrote target/bench-json/BENCH_e16_scenarios.json"

echo "==> bench smoke: e19_server (multi-tenant server throughput/latency)"
BENCH_SAMPLE_SIZE=3 BENCH_MEASURE_MS=200 BENCH_WARMUP_MS=50 JROUTE_THREADS=1,2 \
    cargo bench --offline --bench e19_server
test -s target/bench-json/BENCH_e19_server.json
grep -q '"id": "e19/serve_1ten_' target/bench-json/BENCH_e19_server.json
grep -q '"id": "e19/serve_4ten_' target/bench-json/BENCH_e19_server.json
echo "    wrote target/bench-json/BENCH_e19_server.json"

echo "==> bench smoke: e13_timing (greedy vs timing-driven fan-out; asserts t-max <= g-max)"
BENCH_SAMPLE_SIZE=3 BENCH_MEASURE_MS=200 BENCH_WARMUP_MS=50 \
    cargo bench --offline --bench e13_timing
test -s target/bench-json/BENCH_e13_timing.json
grep -q '"id": "e13/timing_driven_fanout_' target/bench-json/BENCH_e13_timing.json
echo "    wrote target/bench-json/BENCH_e13_timing.json"

echo "==> bench smoke: e20_timing_driven (criticality-driven vs pure-congestion negotiation)"
BENCH_SAMPLE_SIZE=3 BENCH_MEASURE_MS=200 BENCH_WARMUP_MS=50 JROUTE_THREADS=1,2 \
    cargo bench --offline --bench e20_timing_driven
test -s target/bench-json/BENCH_e20_timing_driven.json
grep -q '"id": "e20/pure_congestion' target/bench-json/BENCH_e20_timing_driven.json
grep -q '"id": "e20/criticality_driven' target/bench-json/BENCH_e20_timing_driven.json
echo "    wrote target/bench-json/BENCH_e20_timing_driven.json"

echo "==> example smoke: churn_soak (100-step audited churn + .jrt replay)"
rm -rf target/obs-json/churn_soak target/traces/churn_soak.jrt
cargo run --release --offline --example churn_soak 100 | tee /tmp/churn_soak.out
grep -q "churn soak: 100 steps clean" /tmp/churn_soak.out
grep -q "census identical" /tmp/churn_soak.out
grep -q "churn_soak: OK" /tmp/churn_soak.out
test -s target/traces/churn_soak.jrt
echo "    wrote target/traces/churn_soak.jrt"

echo "==> example smoke: flight_recorder (.jrt replay -> Perfetto trace + Prometheus snapshot)"
rm -rf target/obs-json/flight_recorder target/traces/flight_recorder.jrt
cargo run --release --offline --example flight_recorder 30 | tee /tmp/flight_recorder.out
grep -q "causal audit:" /tmp/flight_recorder.out
grep -q "flight_recorder: OK" /tmp/flight_recorder.out
test -s target/traces/flight_recorder.jrt
test -s target/obs-json/flight_recorder/trace.0.jsonl
grep -q '"traceEvents"' target/obs-json/flight_recorder/trace.0.jsonl
grep -q '"ph"' target/obs-json/flight_recorder/trace.0.jsonl
test -s target/obs-json/flight_recorder/metrics.0.jsonl
grep -q '# TYPE' target/obs-json/flight_recorder/metrics.0.jsonl
grep -q 'jroute_epoch_unix_nanos' target/obs-json/flight_recorder/metrics.0.jsonl
test -s target/obs-json/flight_recorder/window.0.jsonl
grep -q '"samples"' target/obs-json/flight_recorder/window.0.jsonl
echo "    wrote target/obs-json/flight_recorder/{trace,metrics,window}.0.jsonl"
CHROME_SHAPE_CHECK="$PWD/target/obs-json/flight_recorder/trace.0.jsonl" \
    cargo test -q --offline -p jroute-tests --test observability \
    exported_chrome_trace_is_valid_when_pointed_at

echo "==> example smoke: multi_tenant_server (3 tenants, cancel + QueueFull + labelled telemetry)"
cargo run --release --offline --example multi_tenant_server | tee /tmp/multi_tenant_server.out
grep -q "cancelled-before-batch resolved as Cancelled: true" /tmp/multi_tenant_server.out
grep -q "refused with QueueFull" /tmp/multi_tenant_server.out
grep -q 'jroute_svc_server_submitted{tenant="2"}' /tmp/multi_tenant_server.out
grep -q "multi_tenant_server: OK" /tmp/multi_tenant_server.out

echo "==> example smoke: route_service (batch service through the engine; replay across widths)"
cargo run --release --offline --example route_service | tee /tmp/route_service.out
grep -q "deterministic replay: commit logs and states identical" /tmp/route_service.out

echo "==> example smoke: parallel_routing (route_parallel at 1, 2, 4 and 8 threads)"
cargo run --release --offline --example parallel_routing | tee /tmp/parallel_routing.out
grep -q "all thread counts produced contention-free configurations" /tmp/parallel_routing.out

echo "==> example smoke: quickstart (with observability enabled)"
rm -f target/obs-json/OBS_quickstart.json
JROUTE_OBS=1 cargo run --release --offline --example quickstart
test -s target/obs-json/OBS_quickstart.json
echo "    wrote target/obs-json/OBS_quickstart.json"
OBS_SHAPE_CHECK="$PWD/target/obs-json/OBS_quickstart.json" \
    cargo test -q --offline -p jroute-tests --test observability \
    exported_quickstart_json_is_valid_when_pointed_at

echo "==> jrbench: build the outside-in benchmark and smoke-run every workload"
# The benchmark links the repository's crates by path through their
# public APIs, so a public-API change that breaks it fails here. Each
# workload checks its own results (the server workload replays every
# tenant's log through the sequential model) and exits 1 when a
# correctness check fails.
cargo build --release --offline --manifest-path jrbench/Cargo.toml
for workload in rtr_cores negotiate server_open; do
    cargo run --quiet --release --offline --manifest-path jrbench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 3 --trace 0 2>/dev/null | tail -1
done
# Threaded executors cut server batches by arrival timing, so the server
# workload also runs at the held-out seed.
cargo run --quiet --release --offline --manifest-path jrbench/Cargo.toml -- \
    --workload server_open --seed 7919 --seconds 3 --trace 0 2>/dev/null | tail -1

# Opt-in bench regression gate: regenerate every experiment the
# checked-in baseline covers (e1–e20), then diff medians against
# bench-baseline/, failing on regressions past --max-regress
# (BENCH_MAX_REGRESS, default 10%).
if [[ "${BENCH_BASELINE:-0}" == "1" ]]; then
    echo "==> bench regression gate: e1..e20 vs bench-baseline/"
    for bench in e1_census e2_api_levels e3_fanout e4_template_vs_maze \
        e5_rtr_replace e6_reverse_unroute e7_contention \
        e8_greedy_vs_pathfinder e9_longline_ablation e10_scaling \
        e11_core_compose e12_parallel e13_timing e14_service \
        e15_convergence e16_scenarios e17_obs_overhead e18_partition \
        e19_server e20_timing_driven; do
        BENCH_SAMPLE_SIZE=10 BENCH_MEASURE_MS=1500 BENCH_WARMUP_MS=300 \
            cargo bench --offline --bench "$bench"
    done
    cargo run --release --offline -p jroute-bench --bin compare -- \
        --max-regress "${BENCH_MAX_REGRESS:-10}"
fi

echo "verify: OK"
