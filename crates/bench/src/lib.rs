//! # semtm-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§7). Each
//! returns [`FigureRow`]s carrying both the paper's left-column metric
//! (throughput or execution time) and the right-column metric (abort
//! rate), so a single sweep regenerates both sub-figures.
//!
//! The `figures` binary (`cargo run --release -p semtm-bench --bin
//! figures -- all`) prints every experiment as a markdown table and
//! writes CSVs under `results/`; `figures -- --smoke all` runs
//! reduced-scale versions of the same sweeps, and `benchmark/run.sh`
//! (its own workspace) measures per-barrier latencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dashboard;
pub mod experiments;
pub mod fig2;
pub mod jsonin;
pub mod report;
pub mod table3;
pub mod trace;

pub use experiments::{Scale, Sweep};
pub use report::{AlgorithmTelemetry, FigureRow, Json, OverheadRow, TelemetryReport};
pub use trace::{record_bank_trace, validate_chrome_trace, TraceSummary};
