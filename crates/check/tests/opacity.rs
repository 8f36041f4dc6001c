//! The paper's opacity histories (Algorithms 1, 8 and 9, §5) under the
//! deterministic scheduler. `tests/opacity.rs` at the repository root
//! hand-weaves one interleaving of each with a nested commit; here every
//! bounded-preemption schedule of two virtual threads is explored and
//! each execution's recorded history goes through the opacity checker
//! (DESIGN.md §5b). They live in this package because it is the one that
//! builds `semtm-core` with the schedule hooks.

use semtm_check::fuzz::check_stm;
use semtm_check::history::{run_checked, Attempt, OpRec, RecThread};
use semtm_check::schedule::{explore_exhaustive, ExploreOptions};
use semtm_check::vthread::STEP_CAP;
use semtm_core::{Algorithm, CmpOp};

fn opts(max_preemptions: u32) -> ExploreOptions {
    ExploreOptions {
        max_preemptions,
        ..ExploreOptions::default()
    }
}

/// T0's one attempt, if T0 committed first-try and some committed
/// T1 attempt ended inside that attempt's window.
fn t0_committed_first_try_across_t1(attempts: &[Attempt]) -> Option<&Attempt> {
    let t0: Vec<_> = attempts.iter().filter(|a| a.thread == 0).collect();
    let first = *t0.first()?;
    let across = attempts.iter().any(|a| {
        a.thread == 1 && a.committed && first.begin_seq < a.end_seq && a.end_seq < first.end_seq
    });
    (t0.len() == 1 && first.committed && across).then_some(first)
}

/// Paper Algorithm 1 under the scheduler: T0 checks `x > 0 || y > 0`
/// and writes `out`, T1 commits `x++; y--`. Semantic algorithms must
/// exhibit a schedule where T1 commits *inside* T0's window and T0
/// still commits first-try; baselines must exhibit aborted attempts.
/// Every execution's history must pass the opacity checker.
#[test]
fn algorithm1_false_conflict_all_schedules() {
    for alg in Algorithm::ALL {
        let mut committed_across_first_try = false;
        let mut saw_abort = false;
        let explored = explore_exhaustive(opts(3), |driver| {
            let stm = check_stm(alg, 1);
            let x = stm.alloc_cell(5);
            let y = stm.alloc_cell(5);
            let out = stm.alloc_cell(0);
            let t0 = |t: &RecThread<'_>| {
                t.atomic(|tx| {
                    let cond = tx.cmp(x, CmpOp::Gt, 0)? || tx.cmp(y, CmpOp::Gt, 0)?;
                    assert!(cond, "x stays > 0 in every schedule");
                    tx.write(out, 1)
                })
            };
            let t1 = |t: &RecThread<'_>| {
                t.atomic(|tx| {
                    tx.inc(x, 1)?;
                    tx.inc(y, -1)
                })
            };
            let threads = [&t0 as _, &t1 as _];
            let attempts =
                run_checked("algorithm1", &stm, &[x, y, out], &threads, driver, STEP_CAP)?;
            saw_abort |= attempts.iter().any(|a| a.thread == 0 && !a.committed);
            committed_across_first_try |= t0_committed_first_try_across_t1(&attempts).is_some();
            Ok(())
        });
        assert!(
            explored > 10,
            "{alg}: expected real branching, got {explored}"
        );
        if alg.is_semantic() {
            assert!(
                committed_across_first_try,
                "{alg}: some schedule must commit T0 first-try across T1's commit"
            );
        } else {
            assert!(
                saw_abort,
                "{alg}: value validation must abort T0 in some schedule"
            );
        }
    }
}

/// Paper Algorithm 8 under the scheduler: T0 runs
/// `if x >= 0 { z = y }`, T1 commits `x = 1; y = 1`. S-NOrec must
/// exhibit the T1 -> T0 serialisation live (T0 commits first-try
/// with z = 1 while T1's commit lands inside T0's window); every
/// execution on every semantic algorithm must be opaque.
#[test]
fn algorithm8_opaque_all_schedules() {
    for alg in [Algorithm::SNOrec, Algorithm::STl2] {
        let mut serialised_after_interferer = false;
        explore_exhaustive(opts(3), |driver| {
            let stm = check_stm(alg, 1);
            let x = stm.alloc_cell(0);
            let y = stm.alloc_cell(0);
            let z = stm.alloc_cell(-1);
            let t0 = |t: &RecThread<'_>| {
                t.atomic(|tx| {
                    assert!(tx.cmp(x, CmpOp::Gte, 0)?, "x only ever grows");
                    let vy = tx.read(y)?;
                    tx.write(z, vy)
                })
            };
            let t1 = |t: &RecThread<'_>| {
                t.atomic(|tx| {
                    tx.write(x, 1)?;
                    tx.write(y, 1)
                })
            };
            let threads = [&t0 as _, &t1 as _];
            let attempts = run_checked("algorithm8", &stm, &[x, y, z], &threads, driver, STEP_CAP)?;
            serialised_after_interferer |=
                t0_committed_first_try_across_t1(&attempts).is_some_and(|first| {
                    first
                        .ops
                        .iter()
                        .any(|op| matches!(op, OpRec::Read { addr, val: 1, .. } if *addr == y))
                });
            Ok(())
        });
        if alg == Algorithm::SNOrec {
            // Plain reads extend the S-NOrec snapshot, so the
            // T1 -> T0 serialisation happens with no abort at all.
            // S-TL2 is more conservative (only phase-1 compares can
            // extend) and may abort first, which is equally opaque.
            assert!(
                serialised_after_interferer,
                "S-NOrec: some schedule must serialise T0 after T1 first-try"
            );
        }
    }
}

/// Paper Algorithm 9 under the scheduler: T0 reads y and *then*
/// compares `x >= 1`; T1 commits `x = 1; y = 1`. Pairing old-y with
/// new-x is not opaque, so no committed T0 attempt may ever observe
/// `y == 0` together with `x >= 1` being true — on any algorithm,
/// in any schedule.
#[test]
fn algorithm9_never_pairs_old_y_with_new_x() {
    for alg in Algorithm::ALL {
        explore_exhaustive(opts(3), |driver| {
            let stm = check_stm(alg, 1);
            let x = stm.alloc_cell(0);
            let y = stm.alloc_cell(0);
            let z = stm.alloc_cell(-1);
            let t0 = |t: &RecThread<'_>| {
                t.atomic(|tx| {
                    let vy = tx.read(y)?;
                    tx.write(z, vy)?;
                    if tx.cmp(x, CmpOp::Gte, 1)? {
                        tx.write(z, 1)?;
                    }
                    Ok(())
                })
            };
            let t1 = |t: &RecThread<'_>| {
                t.atomic(|tx| {
                    tx.write(x, 1)?;
                    tx.write(y, 1)
                })
            };
            let threads = [&t0 as _, &t1 as _];
            let attempts = run_checked("algorithm9", &stm, &[x, y, z], &threads, driver, STEP_CAP)?;
            for at in attempts.iter().filter(|a| a.thread == 0 && a.committed) {
                let old_y = at
                    .ops
                    .iter()
                    .any(|op| matches!(op, OpRec::Read { addr, val: 0, .. } if *addr == y));
                let new_x = at
                    .ops
                    .iter()
                    .any(|op| matches!(op, OpRec::Cmp { a, out: true, .. } if *a == x));
                if old_y && new_x {
                    return Err(format!("{alg}: committed attempt paired old y with new x"));
                }
            }
            Ok(())
        });
    }
}
