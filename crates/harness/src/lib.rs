//! # harness — in-repo test and benchmark infrastructure
//!
//! Two small drivers that keep the workspace hermetic (no registry
//! crates):
//!
//! * [`prop`] — a seeded property-test loop replacing `proptest`: each
//!   case gets a fresh [`detrand::DetRng`]; on failure the case's seed is
//!   printed so it can be replayed with `HARNESS_SEED=<seed>
//!   HARNESS_CASES=1`.
//! * [`bench`](mod@bench) — a warmup + median-of-N microbench timer replacing
//!   `criterion`, with the same call shape (`bench_group!`,
//!   `bench_main!`, `Bench`, `Bencher`, `BatchSize`) and machine-readable
//!   `BENCH_<name>.json` output under `target/bench-json/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod prop;

pub use bench::{BatchSize, Bench, BenchGroup, Bencher};
pub use prop::{check, check_with};
