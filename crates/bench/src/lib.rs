//! # unintt-bench — the evaluation harness
//!
//! Regenerates every table and figure of the reconstructed UniNTT
//! evaluation (experiments E1–E9, E11–E17, E19–E21) as typed [`Table`]s
//! that the harness prints and [`artifacts`] writes as `BENCH_*.json`,
//! held byte-exact by [`perf_gate`]; [`experiments::EXPERIMENTS`] lists
//! them. Host wall-clock time is measured by `benchmark/`.
//!
//! Run the full suite:
//!
//! ```bash
//! cargo run -p unintt-bench --release --bin harness -- all
//! cargo run -p unintt-bench --release --bin harness -- e1 e4   # print only
//! cargo run -p unintt-bench --release --bin harness -- paper   # E1-E13 + BENCH_paper.json
//! cargo run -p unintt-bench --release --bin harness -- all --quick
//! ```

#![warn(missing_docs)]

pub mod artifacts;
pub mod docs;
pub mod experiments;
pub mod perf_gate;
pub mod report;

pub use report::{fmt_bytes, fmt_ns, Table};
