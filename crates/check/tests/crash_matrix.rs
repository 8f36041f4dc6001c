//! Kill-at-any-schedule-point crash-recovery matrix: every engine ×
//! every crash kernel, swept over random schedules where each execution
//! contributes the crash image of *all* of its schedule points (see
//! `semtm_check::crash`). Asserts the two durability properties — no
//! acked commit is ever lost, no recovered state is ever inconsistent —
//! and writes a summary CSV under `results/check/` for CI upload.
//!
//! Bounded for tier-1 wall clock; raise `SEMTM_CRASH_SEEDS=<n>` for
//! soak runs.

use semtm_check::crash::{sweep, CrashConfig, CrashKernel};
use semtm_core::Algorithm;
use std::fmt::Write as _;

/// Schedule executions per (engine, kernel) cell.
fn executions() -> usize {
    std::env::var("SEMTM_CRASH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

#[test]
fn crash_matrix_no_lost_acked_no_partial_tx() {
    // The four algorithms at a single clock shard, plus S-NOrec on the
    // sharded commit clock — the one cell whose commit path differs
    // structurally from its single-shard form.
    let engines: [(Algorithm, usize); 5] = [
        (Algorithm::NOrec, 1),
        (Algorithm::SNOrec, 1),
        (Algorithm::Tl2, 1),
        (Algorithm::STl2, 1),
        (Algorithm::SNOrec, 4),
    ];
    let kernels = [CrashKernel::Bank, CrashKernel::Slots];

    let mut csv = String::from(
        "engine,clock_shards,kernel,executions,kill_points,recoveries,\
         acked_commits,logged_commits,lost_acked,inconsistent\n",
    );
    let mut failures = Vec::new();
    for (alg, shards) in engines {
        for kernel in kernels {
            let mut cfg = CrashConfig::new(alg, kernel);
            cfg.clock_shards = shards;
            cfg.executions = executions();
            // Decorrelate the schedule walks across matrix cells.
            cfg.base_seed ^= (shards as u64) << 32 | (kernel as u64) << 8 | alg as u64;
            let report = sweep(&cfg)
                .unwrap_or_else(|e| panic!("{alg}/{shards} {} sweep failed: {e}", kernel.name()));
            writeln!(
                csv,
                "{alg},{shards},{},{},{},{},{},{},{},{}",
                kernel.name(),
                report.executions,
                report.kill_points,
                report.recoveries,
                report.acked_commits,
                report.logged_commits,
                report.lost_acked,
                report.inconsistent,
            )
            .unwrap();
            // Every cell must actually exercise the machinery...
            if report.kill_points == 0 || report.acked_commits == 0 {
                failures.push(format!(
                    "{alg}/{shards} {}: vacuous sweep {report:?}",
                    kernel.name()
                ));
            }
            // ...and both crash properties must hold at every kill point.
            if report.lost_acked != 0 || report.inconsistent != 0 {
                failures.push(format!(
                    "{alg}/{shards} {}: {} lost acked commit(s), {} inconsistent \
                     recovered state(s) — {report:?}",
                    kernel.name(),
                    report.lost_acked,
                    report.inconsistent
                ));
            }
        }
    }

    // Summary artifact for CI (results/check/ is gitignored).
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let dir = std::path::Path::new(root).join("results/check");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join("crash_matrix.csv"), &csv);
    }

    assert!(
        failures.is_empty(),
        "crash matrix violations:\n{}\nfull matrix:\n{csv}",
        failures.join("\n")
    );
}
