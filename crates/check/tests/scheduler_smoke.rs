//! Scheduler smoke tests: the exhaustive and random explorers drive
//! real STM transactions through every bounded schedule, and histories
//! check out on every execution. The scenarios the mutation table
//! (`tests/mutations.rs`) faults run clean there too.
//!
//! Every test runs once per row of [`SHARDS`]: the global commit clock
//! and the sharded clock at 4 shards, where padded allocation gives each
//! cell a shard of its own.

use semtm_check::fuzz::check_stm;
use semtm_check::history::{run_checked, RecThread};
use semtm_check::schedule::{explore_exhaustive, explore_random, ExploreOptions, RandomDriver};
use semtm_check::vthread::{run_threads, STEP_CAP};
use semtm_core::ops::CmpOp;
use semtm_core::Algorithm;

/// Commit-clock shard counts every test runs at.
const SHARDS: [usize; 2] = [1, 4];

fn opts(max_preemptions: u32) -> ExploreOptions {
    ExploreOptions {
        max_preemptions,
        ..ExploreOptions::default()
    }
}

#[test]
fn exhaustive_two_increments_never_lose_updates() {
    for shards in SHARDS {
        for alg in Algorithm::ALL {
            let explored = explore_exhaustive(opts(2), |driver| {
                let stm = check_stm(alg, shards);
                let x = stm.alloc_cell(0i64);
                let body = |_tid: usize| {
                    stm.atomic(|tx| tx.inc(x, 1));
                };
                run_threads(&[&body, &body], driver, STEP_CAP)?;
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
    // At 4 shards, x and y sit under different shards: a reader whose
    // snapshot straddles them must never commit an inconsistent pair.
    for shards in SHARDS {
        for alg in Algorithm::ALL {
            explore_exhaustive(opts(2), |driver| {
                let stm = check_stm(alg, shards);
                let x = stm.alloc_cell(1i64);
                let y = stm.alloc_cell(0i64);
                let t0 = |t: &RecThread<'_>| {
                    t.atomic(|tx| {
                        let v = tx.read(x)?;
                        tx.write(y, v + 1)
                    })
                };
                let t1 = |t: &RecThread<'_>| t.atomic(|tx| tx.write(x, 7));
                let name = format!("racing_writers_{shards}_shards");
                run_checked(&name, &stm, &[x, y], &[&t0, &t1], driver, STEP_CAP).map(drop)
            });
        }
    }
}

#[test]
fn random_walks_are_deterministic_per_seed() {
    let run = |seed: u64, shards: usize| {
        let mut driver = RandomDriver::new(seed, 40);
        let stm = check_stm(Algorithm::SNOrec, shards);
        let x = stm.alloc_cell(0i64);
        let y = stm.alloc_cell(0i64);
        let t0 = |t: &RecThread<'_>| {
            t.atomic(|tx| {
                if tx.cmp(x, CmpOp::Gte, 0)? {
                    tx.inc(y, 1)?;
                }
                tx.write(x, 3)
            })
        };
        let t1 = |t: &RecThread<'_>| {
            t.atomic(|tx| {
                tx.inc(x, -2)?;
                tx.write(y, 5)
            })
        };
        let threads = [&t0 as _, &t1 as _];
        let attempts = run_checked(
            "random_walk",
            &stm,
            &[x, y],
            &threads,
            &mut driver,
            STEP_CAP,
        );
        format!("{:?}", attempts.unwrap())
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
                let t0 = |t: &RecThread<'_>| {
                    t.atomic(|tx| {
                        if tx.cmp(x, CmpOp::Gt, 0)? {
                            tx.write(y, 1)?;
                        }
                        tx.read(y).map(|_| ())
                    })
                };
                let t1 = |t: &RecThread<'_>| {
                    t.atomic(|tx| {
                        tx.write(x, -5)?;
                        tx.write(y, 2)
                    })
                };
                let name = format!("guarded_writers_{shards}_shards");
                run_checked(&name, &stm, &[x, y], &[&t0, &t1], driver, STEP_CAP).map(drop)
            });
        }
    }
}
