//! # semtm-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation (§7), plus the
//! ablations, telemetry report and flight-recorder trace, is one row of
//! the experiment table [`cli::EXPERIMENTS`]: its name, the files it
//! writes and its runner. A figure's runner returns [`FigureRow`]s,
//! each built by [`FigureRow::measured`] from one run and carrying both
//! the paper's left-column metric (throughput or execution time) and the
//! right-column metric (abort rate), so a single sweep regenerates both
//! sub-figures.
//!
//! The `figures` binary (`cargo run --release -p semtm-bench --bin
//! figures -- all`) prints every experiment as a markdown table and
//! writes its files under `results/`; `figures -- --smoke all` runs
//! reduced-scale versions of the same sweeps, and `benchmark/run.sh`
//! (its own workspace) measures per-barrier latencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod dashboard;
pub mod experiments;
pub mod fig2;
pub mod jsonin;
pub mod report;
pub mod table3;
pub mod trace;

pub use experiments::{Scale, Sweep};
pub use report::{AlgorithmTelemetry, FigureRow, Json, Metric, OverheadRow, TelemetryReport};
pub use trace::{record_bank_trace, validate_chrome_trace, TraceSummary};
