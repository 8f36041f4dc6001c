//! Scheduler smoke tests: the exhaustive and random explorers drive
//! real STM transactions through every bounded schedule, histories
//! check out on every execution, and — crucially for the fault-
//! injection regression tests — the exact scenarios those tests arm
//! faults for are clean when the algorithms are unmodified.
//!
//! Every test runs once per row of [`SHARDS`]: the global commit clock
//! and the sharded clock at 4 shards, where padded allocation gives each
//! cell a shard of its own.

use semtm_check::checker::check_history;
use semtm_check::fuzz::check_stm;
use semtm_check::history::{atomic_recorded, Recorder};
use semtm_check::schedule::{explore_exhaustive, explore_random, ExploreOptions};
use semtm_check::vthread::run_threads;
use semtm_core::ops::CmpOp;
use semtm_core::{Algorithm, Stm};

const STEP_CAP: usize = 20_000;

/// Commit-clock shard counts every test runs at.
const SHARDS: [usize; 2] = [1, 4];

fn opts(max_preemptions: u32) -> ExploreOptions {
    ExploreOptions {
        max_preemptions,
        max_executions: 0,
        step_cap: STEP_CAP,
    }
}

#[test]
fn exhaustive_two_increments_never_lose_updates() {
    for shards in SHARDS {
        for alg in Algorithm::ALL {
            let explored = explore_exhaustive(opts(2), |driver| {
                let stm = check_stm(alg, shards);
                let x = stm.alloc_cell(0i64);
                let body = |_tid: usize, stm: &Stm| {
                    stm.atomic(|tx| tx.inc(x, 1));
                };
                let out = run_threads(&stm, &[&body, &body], driver, STEP_CAP);
                if out.capped {
                    return Err("step cap exceeded".into());
                }
                let v = stm.read_now(x);
                if v == 2 {
                    Ok(())
                } else {
                    Err(format!("{alg}/{shards}: lost update, x = {v}"))
                }
            });
            assert!(explored > 1, "{alg}/{shards}: expected multiple schedules");
        }
    }
}

#[test]
fn exhaustive_histories_are_opaque_for_racing_writers() {
    // T0: read x, write y = x + 1; T1: write x = 7. Every schedule's
    // full history (including aborted attempts) must pass the checker.
    for shards in SHARDS {
        for alg in Algorithm::ALL {
            explore_exhaustive(opts(2), |driver| {
                let stm = check_stm(alg, shards);
                let x = stm.alloc_cell(1i64);
                let y = stm.alloc_cell(0i64);
                let rec = Recorder::new();
                let shared = (&stm, &rec);
                type Shared<'a> = (&'a Stm, &'a Recorder);
                let t0 = |tid: usize, (stm, rec): &Shared<'_>| {
                    atomic_recorded(stm, rec, tid, |tx| {
                        let v = tx.read(x)?;
                        tx.write(y, v + 1)
                    });
                };
                let t1 = |tid: usize, (stm, rec): &Shared<'_>| {
                    atomic_recorded(stm, rec, tid, |tx| tx.write(x, 7));
                };
                let out = run_threads(&shared, &[&t0, &t1], driver, STEP_CAP);
                if out.capped {
                    return Err("step cap exceeded".into());
                }
                check_history(
                    &rec.attempts(),
                    &[(x, 1), (y, 0)],
                    &[(x, stm.read_now(x)), (y, stm.read_now(y))],
                )
                .map_err(|e| format!("{alg}/{shards}: {e}"))
            });
        }
    }
}

#[test]
fn random_walks_are_deterministic_per_seed() {
    let run = |seed: u64, shards: usize| {
        let mut driver = semtm_check::schedule::RandomDriver::new(seed, 40);
        let stm = check_stm(Algorithm::SNOrec, shards);
        let x = stm.alloc_cell(0i64);
        let y = stm.alloc_cell(0i64);
        let rec = Recorder::new();
        let shared = (&stm, &rec);
        type Shared<'a> = (&'a Stm, &'a Recorder);
        let t0 = |tid: usize, (stm, rec): &Shared<'_>| {
            atomic_recorded(stm, rec, tid, |tx| {
                if tx.cmp(x, CmpOp::Gte, 0)? {
                    tx.inc(y, 1)?;
                }
                tx.write(x, 3)
            });
        };
        let t1 = |tid: usize, (stm, rec): &Shared<'_>| {
            atomic_recorded(stm, rec, tid, |tx| {
                tx.inc(x, -2)?;
                tx.write(y, 5)
            });
        };
        run_threads(&shared, &[&t0, &t1], &mut driver, STEP_CAP);
        format!("{:?}", rec.attempts())
    };
    for shards in SHARDS {
        assert_eq!(
            run(1234, shards),
            run(1234, shards),
            "{shards} shard(s): same seed must replay identically"
        );
    }
}

#[test]
fn random_exploration_checks_many_seeds() {
    for shards in SHARDS {
        for alg in Algorithm::ALL {
            explore_random(99, 25, 40, |driver| {
                let stm = check_stm(alg, shards);
                let x = stm.alloc_cell(5i64);
                let y = stm.alloc_cell(0i64);
                let rec = Recorder::new();
                let shared = (&stm, &rec);
                type Shared<'a> = (&'a Stm, &'a Recorder);
                let t0 = |tid: usize, (stm, rec): &Shared<'_>| {
                    atomic_recorded(stm, rec, tid, |tx| {
                        if tx.cmp(x, CmpOp::Gt, 0)? {
                            tx.write(y, 1)?;
                        }
                        tx.read(y).map(|_| ())
                    });
                };
                let t1 = |tid: usize, (stm, rec): &Shared<'_>| {
                    atomic_recorded(stm, rec, tid, |tx| {
                        tx.write(x, -5)?;
                        tx.write(y, 2)
                    });
                };
                let out = run_threads(&shared, &[&t0, &t1], driver, STEP_CAP);
                if out.capped {
                    return Err("step cap exceeded".into());
                }
                check_history(
                    &rec.attempts(),
                    &[(x, 5), (y, 0)],
                    &[(x, stm.read_now(x)), (y, stm.read_now(y))],
                )
                .map_err(|e| format!("{alg}/{shards}: {e}"))
            });
        }
    }
}

// The two scenarios below are byte-for-byte the ones the fault-injection
// regression tests (tests/fault_snorec.rs, tests/fault_tl2.rs) arm
// faults against. Unfaulted they must survive *every* bounded schedule —
// so a fault-test panic can only come from the armed fault.

#[test]
fn snorec_fault_scenario_is_clean_without_the_fault() {
    for shards in SHARDS {
        let explored = explore_exhaustive(opts(3), |driver| {
            semtm_check::scenario::snorec_revalidation(driver, shards)
        });
        assert!(
            explored > 10,
            "{shards}: scenario must branch: {explored} schedules"
        );
    }
}

#[test]
fn tl2_fault_scenario_is_clean_without_the_fault() {
    for shards in SHARDS {
        let explored = explore_exhaustive(opts(3), |driver| {
            semtm_check::scenario::tl2_read_validation(driver, shards)
        });
        assert!(
            explored > 10,
            "{shards}: scenario must branch: {explored} schedules"
        );
    }
}
