//! Two TL2-family commits with crossed write-sets (DESIGN.md §5c).
//!
//! A TL2 commit locks its write-set orecs in write-set order and never
//! waits; the first orec another committer holds sends it back to lock
//! them again in ascending order, waiting on each. Two writers of the
//! same cells in opposite orders meet each other's locks whenever their
//! commits overlap, so this scenario drives the ordered path through
//! every bounded schedule that reaches it: each
//! run must finish (no wait cycle, no step cap), both transactions must
//! commit, no commit may give up on a lock and the history must be
//! serializable.

use semtm_check::history::{run_checked, RecThread};
use semtm_check::schedule::{explore_exhaustive, Driver, ExploreOptions};
use semtm_check::vthread::STEP_CAP;
use semtm_core::{AbortReason, Algorithm, Stm, StmConfig};

/// `T0: x = 1; y = 1` vs `T1: y = 2; x = 2`. With `aliased` each also
/// writes its value to `z` last, and `z` shares `x`'s orec (the table
/// has two orecs, so the words two apart share one): both lock passes
/// must take that orec once. Short lock patience, as in the scenario
/// module's TL2 scenarios.
fn crossed_writers(driver: &mut dyn Driver, alg: Algorithm, aliased: bool) -> Result<(), String> {
    let stm = Stm::new(
        StmConfig::new(alg)
            .heap_words(64)
            .orec_count(2)
            .lock_wait_spins(8),
    );
    let x = stm.alloc_cell(0i64);
    let y = stm.alloc_cell(0i64);
    let z = stm.alloc_cell(0i64);
    let writer = |order: [_; 2]| {
        move |t: &RecThread<'_>| {
            let v = t.index() as i64 + 1;
            t.atomic(|tx| {
                for cell in order {
                    tx.write(cell, v)?;
                }
                if aliased {
                    tx.write(z, v)?;
                }
                Ok(())
            })
        }
    };
    let (t0, t1) = (writer([x, y]), writer([y, x]));
    let name = if aliased {
        "crossed_writers_aliased"
    } else {
        "crossed_writers"
    };
    let attempts = run_checked(name, &stm, &[x, y, z], &[&t0, &t1], driver, STEP_CAP)?;
    let commits = attempts.iter().filter(|a| a.committed).count();
    if commits != 2 {
        return Err(format!("{name} on {alg}: {commits} commits, not 2"));
    }
    let stats = stm.stats();
    let gave_up = stats.aborts(AbortReason::LockAcquire) + stats.aborts(AbortReason::Timeout);
    if gave_up != 0 {
        return Err(format!(
            "{name} on {alg}: {gave_up} commit(s) gave up on a lock"
        ));
    }
    Ok(())
}

#[test]
fn crossed_write_sets_finish_commit_and_serialize() {
    use Algorithm::{STl2, Tl2};
    // Executions of each exhaustive tree at preemption bound 2.
    let rows = [
        (Tl2, false, 84),
        (STl2, false, 84),
        (Tl2, true, 105),
        (STl2, true, 105),
    ];
    for (alg, aliased, executions) in rows {
        let opts = ExploreOptions {
            max_preemptions: 2,
            ..ExploreOptions::default()
        };
        let explored = explore_exhaustive(opts, |d| crossed_writers(d, alg, aliased));
        assert_eq!(explored, executions, "{alg}, aliased: {aliased}");
    }
}
