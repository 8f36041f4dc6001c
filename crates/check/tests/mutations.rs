//! The mutation table: every engine guard that has a [`Fault`] is shown
//! to matter. Each row explores its scenario clean, where every bounded
//! schedule must pass (and the executions explored are pinned), and then
//! with the fault named in the run's [`ExploreOptions`], where some
//! schedule must fail with the row's message. A removed validation guard
//! lets an attempt commit that a progressive TM (Kuznetsov and Ravi)
//! must abort, on a conflict it no longer sees: the outcome is one no
//! serial order explains.
//!
//! The rows come from an exhaustive `match` over [`Fault`], so a fault
//! with no row does not compile. A fault fires only on the threads of
//! the run that names it, so every row shares this binary, as does the
//! commit log's I/O failure test, whose faults belong to its storage.

use semtm_check::scenario;
use semtm_check::schedule::{explore_exhaustive, Driver, ExploreOptions};
use semtm_core::sched::Fault;
use semtm_core::wal::{CommitLog, DurabilityMode, SimHandle, SimStorage, WalError};
use semtm_core::{AbortReason, Algorithm, Stm, StmConfig};
use semtm_ir::{forms, programs};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `(algorithm, commit-clock shards)` of the runtime a scenario builds.
type Config = (Algorithm, usize);

/// One fault's scenario, budget, configurations and expected failure.
struct Row {
    /// Runs the scenario the fault is caught in, on one configuration.
    scenario: fn(&mut dyn Driver, Config) -> Result<(), String>,
    /// Preemption bound and execution cap (0 = none) of every
    /// exploration of the row.
    budget: (u32, usize),
    /// Configurations explored clean, each with the executions its
    /// bounded tree holds.
    clean: &'static [(Config, usize)],
    /// Configurations explored with the fault: each must fail.
    faulted: &'static [Config],
    /// What the failure reports.
    message: &'static str,
}

/// The checker's verdict on a history no serial order explains.
const NOT_SERIALIZABLE: &str = "no real-time-consistent serial order";

fn row(fault: Fault) -> Row {
    use Algorithm::{NOrec, SNOrec, STl2, Tl2};
    match fault {
        // NOrec at 4 shards runs clean too: its validation must re-check
        // `x`'s shard when the read of `y` touches another.
        Fault::SnorecSkipRevalidation => Row {
            scenario: |d, (alg, shards)| scenario::snorec_revalidation(d, alg, shards),
            budget: (3, 0),
            clean: &[((SNOrec, 1), 135), ((SNOrec, 4), 168), ((NOrec, 4), 168)],
            faulted: &[(SNOrec, 1), (SNOrec, 4)],
            message: NOT_SERIALIZABLE,
        },
        // One shard, and the padded layout of four, where both cells
        // share an orec.
        Fault::Tl2SkipReadValidation => Row {
            scenario: |d, (_, shards)| scenario::tl2_read_validation(d, shards),
            budget: (3, 0),
            clean: &[((Tl2, 1), 292), ((Tl2, 4), 275)],
            faulted: &[(Tl2, 1), (Tl2, 4)],
            message: NOT_SERIALIZABLE,
        },
        // The shipped kernel in the form every workload runs, whose guard
        // is the promoted compare. The clean side is `tests/ir_kernels.rs`,
        // in every form, on every algorithm, at 1 and 4 shards.
        Fault::Stl2SkipCompareSet => Row {
            scenario: |d, (alg, shards)| {
                let kernel = programs::kernel("cross_block_guard").expect("a shipped kernel");
                let (_, [.., passed_lowered]) = forms(&kernel.function()).expect("it verifies");
                scenario::cross_block_guard(d, alg, shards, &passed_lowered)
            },
            budget: (2, 2_000),
            clean: &[],
            faulted: &[(STl2, 1), (STl2, 4)],
            message: "mutual exclusion broken",
        },
        // The clean side is `tests/adaptive.rs`: spin switches branch
        // freely in a drain, so the tree is too large to exhaust and it
        // runs capped DFS prefixes there. The violating schedule is a
        // global-clock interleaving, at execution 649 of this DFS order;
        // the cap fails the row at once if the fault stops firing.
        Fault::AdaptSkipDrain => Row {
            scenario: |d, (_, shards)| scenario::adaptive_switch_drain(d, shards),
            budget: (3, 1_000),
            clean: &[],
            faulted: &[(SNOrec, 1)],
            message: NOT_SERIALIZABLE,
        },
        // Clean on every algorithm (on the TL2 family a plain two-read
        // snapshot check), faulted where the explorer sees the first
        // touch: the row shows the step is explored, not only that it
        // passes.
        Fault::ScnorecForgetTouch => Row {
            scenario: |d, (alg, _)| scenario::first_touch_straddle(d, alg),
            budget: (2, 0),
            clean: &[
                ((NOrec, 4), 37),
                ((SNOrec, 4), 37),
                ((Tl2, 4), 80),
                ((STl2, 4), 80),
            ],
            faulted: &[(SNOrec, 4)],
            message: NOT_SERIALIZABLE,
        },
    }
}

#[test]
fn every_fault_is_caught_and_its_scenario_is_clean_without_it() {
    // A fault lives on the threads of its run, so the rows run at once.
    std::thread::scope(|s| {
        for fault in Fault::ALL {
            s.spawn(move || check(fault));
        }
    });
}

/// Explore `fault`'s row clean, then faulted.
fn check(fault: Fault) {
    let row = row(fault);
    let (max_preemptions, max_executions) = row.budget;
    let opts = |fault| ExploreOptions {
        max_preemptions,
        max_executions,
        fault,
    };
    for &(config, executions) in row.clean {
        let explored = explore_exhaustive(opts(None), |d| (row.scenario)(d, config));
        assert_eq!(explored, executions, "{fault:?}, clean {config:?}");
    }
    for &config in row.faulted {
        let explored = catch_unwind(AssertUnwindSafe(|| {
            explore_exhaustive(opts(Some(fault)), |d| (row.scenario)(d, config))
        }));
        let msg = match explored {
            Ok(n) => panic!("{fault:?}, {config:?}: none of {n} schedules failed"),
            Err(payload) => *payload.downcast::<String>().expect("panic payload"),
        };
        assert!(msg.contains(row.message), "{fault:?}, {config:?}: {msg}");
    }
}

/// A runtime that makes every commit durable on simulated storage, and
/// the storage's handle.
fn durable_stm(alg: Algorithm) -> (Stm, SimHandle) {
    let (sim, handle) = SimStorage::new();
    let cfg = StmConfig::new(alg)
        .heap_words(64)
        .orec_count(16)
        .durability(DurabilityMode::Sync);
    (Stm::with_wal(cfg, Box::new(sim)), handle)
}

/// The commit log's I/O failure policy (DESIGN.md §9): an append or
/// fsync error poisons the log, the *first* committer that already
/// applied its writes fail-stops (panic — its heap state is visible but
/// not durable, and retrying would double-apply), and every *later*
/// transaction aborts cleanly with [`AbortReason::Durability`] before
/// touching the heap. The expected panics are caught here.
#[test]
fn wal_io_errors_poison_the_log_and_fail_stop() {
    // --- Append I/O error: first committer fail-stops, log poisons. ---
    let (stm, handle) = durable_stm(Algorithm::SNOrec);
    handle.fail_appends(true);
    let cell = stm.alloc_cell(0i64);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        stm.atomic(|tx| tx.write(cell, 42));
    }));
    let msg = *outcome
        .expect_err("a commit that cannot be made durable must fail-stop")
        .downcast::<String>()
        .expect("panic payload");
    assert!(
        msg.contains("cannot be made durable"),
        "unexpected panic: {msg}"
    );
    // The write-back had already happened (the failure is post-apply)...
    assert_eq!(stm.read_now(cell), 42);
    // ...and the log is now poisoned for good.
    assert!(stm.wal().unwrap().is_poisoned());

    // Later transactions abort *cleanly*: the durability abort fires
    // before any heap write, even with the storage healed.
    handle.fail_appends(false);
    let res = stm.try_atomic(|tx| tx.write(cell, 99));
    let abort = res.expect_err("poisoned log must refuse new commits");
    assert_eq!(abort.reason, AbortReason::Durability);
    assert_eq!(stm.read_now(cell), 42, "aborted tx must not touch the heap");
    // Read-only transactions never reach the log and still succeed.
    let v = stm
        .try_atomic(|tx| tx.read(cell))
        .expect("read-only tx needs no durability");
    assert_eq!(v, 42);

    // --- Fsync I/O error: same fail-stop policy, bytes written but not
    // durable. ---
    let (stm2, handle) = durable_stm(Algorithm::Tl2);
    handle.fail_syncs(true);
    let cell2 = stm2.alloc_cell(0i64);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        stm2.atomic(|tx| tx.write(cell2, 7));
    }));
    assert!(outcome.is_err(), "unsynced commit must fail-stop");
    assert!(stm2.wal().unwrap().is_poisoned());
    let (written, durable) = handle.watermarks();
    assert!(written > 0, "append itself succeeded");
    assert_eq!(durable, 0, "fsync failed, nothing is durable");

    // --- Direct CommitLog surface: flush_step reports the error, then
    // every later call fails fast with the original root cause. ---
    let (sim, handle) = SimStorage::new();
    handle.fail_appends(true);
    let log = CommitLog::new(Box::new(sim), DurabilityMode::Manual);
    let t = log.append(&[]).expect("buffering an append cannot fail");
    assert_eq!(t.seq(), 1);
    match log.flush_step() {
        Err(WalError::Append(_)) => {}
        other => panic!("expected an append I/O error, got {other:?}"),
    }
    handle.fail_appends(false);
    assert!(matches!(log.flush_step(), Err(WalError::Append(_))));
    assert!(matches!(log.append(&[]), Err(WalError::Append(_))));
}
