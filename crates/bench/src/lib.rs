//! # unintt-bench — the evaluation harness
//!
//! Regenerates every table and figure of the reconstructed UniNTT
//! evaluation (experiments E1–E9, E11–E17, E19–E21). Host wall-clock
//! time is measured by the repository benchmark (`benchmark/`).
//!
//! Run the full suite:
//!
//! ```bash
//! cargo run -p unintt-bench --release --bin harness -- all
//! cargo run -p unintt-bench --release --bin harness -- e1 e4   # a subset
//! cargo run -p unintt-bench --release --bin harness -- all --quick
//! ```

#![warn(missing_docs)]

pub mod artifacts;
pub mod experiments;
pub mod perf_gate;
pub mod report;

pub use report::{fmt_bytes, fmt_ns, Table};
