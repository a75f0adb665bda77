//! # harness
//!
//! Experiment harness regenerating every table and figure in the paper's
//! evaluation (the `union-exp` binary). See DESIGN.md §4 for the
//! experiment index and EXPERIMENTS.md for recorded paper-vs-measured
//! results.

pub mod lint;
pub mod live;
mod profiler;
pub mod report;
pub mod run;
pub mod shard;
pub mod sweep;
pub mod trace_analysis;

pub use run::{run, RunError, RunReport, RunSpec, UsageError};
pub use sweep::{Net, RunKey, RunRecord, SweepConfig, Workload};
pub use trace_analysis::{analyze, causality_fingerprint, parse_chrome, RunAnalysis, TraceRun};
