//! Experiment harness shared by the per-table/per-figure binaries.
//!
//! Each binary in `src/bin` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index). This library provides the common
//! plumbing: a tiny `--flag value` CLI parser, benchmark construction,
//! method runners (the eight baselines + OOD-GNN) and markdown table
//! formatting with `mean±std` cells.

pub mod args;
pub mod harness;
pub mod perf;
pub mod runner;
pub mod telemetry;

pub use args::Args;
pub use perf::MetricFile;
pub use runner::{fmt_cell, run_method, MethodSpec, SuiteConfig};
