//! The evaluation harness: regenerates every table and figure of the paper.
//!
//! The `figures` binary (`cargo run --release -p sleds-bench --bin figures`)
//! drives the experiment runners in [`figures`], which follow the paper's
//! protocol: warm file cache, runs repeated in the same mode with the first
//! discarded, twelve measured runs, means with 90% confidence intervals.
//! Results are written as CSV plus ASCII plots under `results/`.
//!
//! The figures run at full size only: no environment variable changes a
//! byte they write (`SLEDS_RESULTS` only says where the files go), and
//! `scripts/check.sh` diffs a full `figures all` against `results/`.
//!
//! Self-timed micro-benchmarks (under `benches/`, driven by
//! [`microbench`]) measure this *implementation's* real-time costs; the
//! paper reproduction numbers are virtual-time outputs of the simulator and
//! come only from the `figures` binary.

pub mod ablations;
pub mod env;
pub mod figures;
pub mod microbench;
pub mod output;
pub mod workload;

pub use env::{Env, FsKind};
pub use output::{ascii_plot, write_csv, Series};

/// Runs-per-point, matching the paper ("All runs were done twelve times").
pub const RUNS: usize = 12;
