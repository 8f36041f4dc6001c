//! Shared exploration scenarios used both by the clean-run tests and the
//! mutation table (`tests/mutations.rs`).
//!
//! Each history scenario runs its threads under the given schedule
//! driver through [`run_checked`], which records the full history and
//! checks it. With the algorithms unmodified every bounded schedule
//! passes; with the corresponding [`Fault`](semtm_core::sched::Fault)
//! named in the run's [`ExploreOptions`](crate::schedule::ExploreOptions)
//! some schedule commits a non-serializable history and the checker
//! reports it.

use crate::fuzz::{check_stm, check_stm_traced};
use crate::history::{run_checked, RecThread};
use crate::schedule::Driver;
use crate::vthread::{run_threads, STEP_CAP};
use semtm_core::ops::CmpOp;
use semtm_core::wal::{DurabilityMode, SimStorage};
use semtm_core::{Addr, Algorithm, Mode, Stm, StmConfig};
use semtm_ir::{programs, Form, Interp};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};

/// One cell per value, allocated in order: packed on a one-shard
/// runtime, a cache line (and clock shard) each on a sharded one.
fn cells<const N: usize>(stm: &Stm, init: [i64; N]) -> [Addr; N] {
    init.map(|v| stm.alloc_cell(v))
}

/// S-NOrec revalidation scenario (the bug: skipping the per-entry
/// semantic re-check during `Validate`).
///
/// `T0: if x > 0 { out = 1 }; read y` vs `T1: x = -5; y = 1` (one tx).
/// If T1 commits between T0's `cmp` and its read of `y`, a correct
/// S-NOrec revalidates `x > 0` (now false) and aborts T0's attempt.
/// Skipping revalidation lets T0 commit having observed both
/// `x > 0 == true` and `y == 1` — no serial order explains that
/// (`[T0,T1]` gives `y = 0`; `[T1,T0]` gives `x > 0` false). Runs `alg`
/// on `shards` commit-clock shards: at more than one, the `cmp` on `x`
/// and the read of `y` cover different shards, so T0's validation must
/// re-check `x` whenever `x`'s shard moved.
pub fn snorec_revalidation(
    driver: &mut dyn Driver,
    alg: Algorithm,
    shards: usize,
) -> Result<(), String> {
    let stm = check_stm_traced(alg, shards);
    let [x, y, out] = cells(&stm, [5, 0, 0]);
    let t0 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            if tx.cmp(x, CmpOp::Gt, 0)? {
                tx.write(out, 1)?;
            }
            tx.read(y).map(|_| ())
        })
    };
    let t1 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            tx.write(x, -5)?;
            tx.write(y, 1)
        })
    };
    let name = "scenario_snorec_revalidation";
    run_checked(name, &stm, &[x, y, out], &[&t0, &t1], driver, STEP_CAP).map(drop)
}

/// Sharded-clock first-touch scenario (the bug: a first read under a
/// shard that leaves the shard out of the view, so no later validation
/// looks at it).
///
/// `T0: read x; read y` vs `T1: x = 10; y = 20` (one tx), `x` and `y`
/// under different shards of a four-shard clock. T0 samples `y`'s shard
/// only when it first reads under it, possibly after T1's commit: the
/// epoch it sampled before reading `x` has moved by then, so a correct
/// engine revalidates `x` (its shard moved too) and aborts the attempt.
/// If `x`'s shard was forgotten, the validation finds nothing to
/// re-check and T0 observes the old `x` with the new `y` — which no
/// serial order explains, committed or not. On the TL2 family the shard
/// count is inert and the scenario is a plain two-read snapshot check.
pub fn first_touch_straddle(driver: &mut dyn Driver, alg: Algorithm) -> Result<(), String> {
    let stm = check_stm_traced(alg, 4);
    let [x, y] = cells(&stm, [1, 2]);
    let t0 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            tx.read(x)?;
            tx.read(y).map(|_| ())
        })
    };
    let t1 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            tx.write(x, 10)?;
            tx.write(y, 20)
        })
    };
    let name = "scenario_first_touch_straddle";
    run_checked(name, &stm, &[x, y], &[&t0, &t1], driver, STEP_CAP).map(drop)
}

/// TL2 commit-time read-validation scenario (the bug: skipping
/// `ValidateReadSet` when the commit timestamp moved).
///
/// `T0: read x; y = 2` vs `T1: x = -5; y = 1` (one tx). If T1 commits
/// inside T0's execution window, a correct TL2 sees x's orec newer than
/// T0's start version at commit and aborts. Skipping read validation
/// publishes `y = 2` while T0 observed the pre-T1 `x = 5` — with final
/// memory `x = -5, y = 2`, neither serial order fits (`[T0,T1]` ends
/// with `y = 1`; `[T1,T0]` means T0 read `x = -5`). Runs on a runtime
/// built for `shards` commit-clock shards: TL2 ignores the clock, but a
/// sharded runtime's padded layout puts `x` and `y` under one orec.
pub fn tl2_read_validation(driver: &mut dyn Driver, shards: usize) -> Result<(), String> {
    let stm = check_stm_traced(Algorithm::Tl2, shards);
    let [x, y] = cells(&stm, [5, 0]);
    let t0 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            tx.read(x)?;
            tx.write(y, 2)
        })
    };
    let t1 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            tx.write(x, -5)?;
            tx.write(y, 1)
        })
    };
    let name = "scenario_tl2_read_validation";
    run_checked(name, &stm, &[x, y], &[&t0, &t1], driver, STEP_CAP).map(drop)
}

/// Engine hot-swap drain scenario (the bug: skipping the drain barrier,
/// so an in-flight S-NOrec attempt keeps running after the runtime has
/// reseeded and later commits run S-TL2 — whose commits never move the
/// NOrec sequence lock, so the straggler stops revalidating).
///
/// `T0: if x > 0 { out = 1 }; read z; read y` vs `T1: x = -5; y = 1`
/// (one tx) with `T2: switch_to(S-TL2)`. Correctly drained, T0 retires
/// before the mode changes and every interleaving serializes. With
/// `Fault::AdaptSkipDrain` there is a schedule where (1) T0 passes its
/// cmp under S-NOrec, (2) the switch reseeds (NOrec clock bump) and
/// publishes S-TL2 without waiting, (3) T0's read of `z` revalidates
/// against the bumped clock — `x` is still 5, so the snapshot extends —
/// then (4) T1 commits `x = -5, y = 1` *under S-TL2*, leaving the NOrec
/// clock untouched, and (5) T0 reads `y = 1` with no revalidation and
/// commits: it observed both `x > 0` and `y = 1`, which no serial order
/// explains (`[T0,T1]` gives `y = 0` at T0's read; `[T1,T0]` makes the
/// cmp false).
///
/// Runs on `shards` commit-clock shards. The faulted row of
/// `tests/mutations.rs` runs it at one: the violating schedule above
/// is a *global-clock* interleaving (step 3 relies on whole-read-set
/// revalidation against the single NOrec sequence word).
pub fn adaptive_switch_drain(driver: &mut dyn Driver, shards: usize) -> Result<(), String> {
    let stm = check_stm_traced(Algorithm::SNOrec, shards);
    let [x, y, z, out] = cells(&stm, [5, 0, 0, 0]);
    let t0 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            if tx.cmp(x, CmpOp::Gt, 0)? {
                tx.write(out, 1)?;
            }
            tx.read(z)?;
            tx.read(y).map(|_| ())
        })
    };
    let t1 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            tx.write(x, -5)?;
            tx.write(y, 1)
        })
    };
    let t2 = |_: &RecThread<'_>| {
        stm.switch_to(Mode::new(Algorithm::STl2))
            .expect("unsharded S-TL2 is always available");
    };
    let name = "scenario_adaptive_switch_drain";
    run_checked(
        name,
        &stm,
        &[x, y, z, out],
        &[&t0, &t1, &t2],
        driver,
        STEP_CAP,
    )
    .map(drop)
}

/// Engine hot-swap racing a WAL group-commit flush: the switch must not
/// complete while a committed transaction's batch fsync is still
/// pending (an "acked but not fsynced" commit crossing the epoch).
///
/// `T0` commits one durable increment under `DurabilityMode::Manual`,
/// so its `wait_durable` blocks until the scheduled flusher `T1` runs a
/// flush step. `T2` waits until T0's write-back is heap-visible — i.e.
/// T0 is at worst inside `wait_durable`, its commit applied but not yet
/// acked — then switches engine families. The drain barrier must wait
/// out T0's attempt (which retires only once its record is durable),
/// so at the instant the switch publishes, durability covers the
/// commit; and the drain must not deadlock against the flusher it
/// depends on. Both properties are asserted on every explored schedule.
pub fn adaptive_switch_wal_flush(driver: &mut dyn Driver) -> Result<(), String> {
    let (sim, handle) = SimStorage::new();
    let cfg = StmConfig::new(Algorithm::SNOrec)
        .heap_words(64)
        .orec_count(16)
        .durability(DurabilityMode::Manual)
        .lock_wait_spins(8);
    let stm = Stm::with_wal(cfg, Box::new(sim));
    stm.wal().unwrap().track_acks(true);
    let x = stm.alloc_cell(0i64);
    let done = AtomicUsize::new(0);
    let t0 = |_tid: usize| {
        stm.atomic(|tx| tx.inc(x, 1));
        done.fetch_add(1, Ordering::SeqCst);
    };
    let t1 = |_tid: usize| {
        let log = stm.wal().unwrap();
        while done.load(Ordering::SeqCst) < 1 {
            log.flush_step().expect("no I/O faults armed");
            semtm_core::sched::spin();
        }
        log.flush_step().expect("final flush");
    };
    let t2 = |_tid: usize| {
        // Wait for T0's write-back to become heap-visible: from here on
        // T0 is at worst blocked in `wait_durable` on the flusher.
        while stm.read_now(x) == 0 {
            semtm_core::sched::spin();
        }
        let report = stm
            .switch_to(Mode::new(Algorithm::STl2))
            .expect("unsharded S-TL2 is always available");
        assert!(report.changed());
        // Drained ⇒ T0 retired ⇒ its commit record was fsynced before
        // the new mode published: nothing acked is ever non-durable
        // across a switch.
        let log = stm.wal().unwrap();
        assert!(
            log.durable_seq() >= 1,
            "switch published with T0's group-commit flush still pending"
        );
        assert_eq!(log.acked_seqs(), vec![1]);
    };
    run_threads(&[&t0, &t1, &t2], driver, STEP_CAP)?;
    if stm.read_now(x) != 1 {
        return Err(format!("lost durable increment: x = {}", stm.read_now(x)));
    }
    let (written, durable) = handle.watermarks();
    if written != durable {
        return Err(format!(
            "final flush left {written} written vs {durable} durable bytes"
        ));
    }
    Ok(())
}

/// Two racing calls of the shipped IR kernel
/// `cross_block_guard(lock, count)` in `form` (labelled `name`), from
/// its row's image (the lock free, the counter at 0): exactly one caller
/// acquires and the counter is bumped once, whether the guard is the
/// original load+cmp pair or the promoted `_ITM_S1R` value-compare,
/// which S-TL2 revalidates at commit (the compare-set check).
pub fn cross_block_guard(
    driver: &mut dyn Driver,
    alg: Algorithm,
    shards: usize,
    (name, form): &(&str, Form),
) -> Result<(), String> {
    let kernel = programs::kernel("cross_block_guard").expect("a shipped kernel");
    let stm = check_stm(alg, shards);
    let cells = kernel.scenario.place(&stm);
    let (lock, count) = (cells[0], cells[1]);
    let args = kernel.scenario.calls[0].args(&cells);
    let rets = [AtomicI64::new(-1), AtomicI64::new(-1)];
    let body = |tid: usize| {
        let r = form
            .execute(&Interp::new(&stm), &args)
            .expect("kernel executes")
            .expect("kernel returns a value");
        rets[tid].store(r, Ordering::Relaxed);
    };
    run_threads(&[&body, &body], driver, STEP_CAP)?;
    let (l, c) = (stm.read_now(lock), stm.read_now(count));
    let acquired = rets[0].load(Ordering::Relaxed) + rets[1].load(Ordering::Relaxed);
    if l == 1 && c == 1 && acquired == 1 {
        Ok(())
    } else {
        Err(format!(
            "{alg}/{name}/{shards}: mutual exclusion broken: lock={l} \
             count={c} acquisitions={acquired}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::tests::assert_cells_spread;

    #[test]
    fn scenario_cells_spread_over_lines_and_shards() {
        for shards in [1, 4, 16] {
            for alg in Algorithm::ALL {
                let stm = check_stm_traced(alg, shards);
                let addrs = cells(&stm, [0; 4]);
                assert_cells_spread(&addrs, shards, &format!("{alg} scenario cells"));
            }
        }
    }
}
