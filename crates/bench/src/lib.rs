//! Benchmark harness: the recorded perf trajectory and the paper's tables.
//!
//! | module / bin | role |
//! |---|---|
//! | [`report`] | the `BENCH_*.json` schema: writer, parser, `--check` regression gate |
//! | [`runner`] | [`VariantRunner`]: one timed sort per (variant, input), with its counter delta |
//! | [`tables`] | [`TableSpec`] / [`run_table`] / [`render_table`]: the paper's Tables 1–10 layout |
//! | `perf` bin | the sweep families (sort, kernels, scheduler and service scenarios) written to `BENCH_*.json` |
//! | `tables` bin | regenerates Tables 1–10 and the steal-policy ablation (printed, not recorded) |
//!
//! The paper compares, for four input distributions and six input sizes on
//! four machines, the running time of
//!
//! | paper column | this crate |
//! |---|---|
//! | Seq/STL | [`Variant::SeqStd`] — `slice::sort_unstable` |
//! | SeqQS | [`Variant::SeqQs`] — handwritten sequential Quicksort |
//! | Fork | [`Variant::Fork`] — Algorithm 10 on the deterministic work-stealer |
//! | Randfork | [`Variant::RandFork`] — Algorithm 10 with uniformly random stealing |
//! | Cilk, Cilk sample | not reproduced (no Cilk++ runtime; DESIGN.md §3) |
//! | MMPar | [`Variant::MmPar`] — Algorithm 11 on the team-building work-stealer |
//!
//! [`TableSpec`] encodes which table uses which thread count, aggregation
//! (average vs. best of N) and input sizes; [`run_table`] regenerates one
//! table and [`render_table`] prints it in the paper's row/column layout.

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod tables;

pub use report::{check_regressions, CheckOutcome, Environment, JsonValue, Report, RunRecord, TimingSummary};
pub use runner::{Measurement, Variant, VariantRunner};
pub use tables::{render_table, run_table, Aggregation, TableResult, TableSpec};
