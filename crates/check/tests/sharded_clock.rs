//! Gate for the sharded commit clock (`StmConfig::clock_shards > 1`).
//!
//! Every scenario here forces 4 clock shards with padded allocation, so
//! separately allocated cells live on distinct cache lines and therefore
//! distinct shards — first-touch shard sampling, per-shard read-set
//! revalidation, and multi-shard commit acquisition (by CAS from the
//! snapshot and blind) all run for real. Exhaustive bounded-preemption
//! DFS covers the targeted scenarios. The other check files run their
//! own scenarios at 4 shards (and the multi-cell ones at 16) as rows of
//! their own: the racing-writers history in `scheduler_smoke.rs`, the
//! S-NOrec revalidation scenario (NOrec and S-NOrec) and the first
//! touch straddling a commit (every algorithm) in `mutations.rs`, and
//! the differential fuzzer's 4-shard rows, with and without the hot-swap
//! switcher, in `fuzz_differential.rs`.

use semtm_check::fuzz::check_stm;
use semtm_check::history::{run_checked, RecBody, RecThread};
use semtm_check::schedule::{explore_exhaustive, Driver, ExploreOptions};
use semtm_check::vthread::{run_threads, STEP_CAP};
use semtm_core::{AbortReason, Algorithm};

const SHARDS: usize = 4;

fn opts(max_preemptions: u32) -> ExploreOptions {
    ExploreOptions {
        max_preemptions,
        ..ExploreOptions::default()
    }
}

#[test]
fn exhaustive_cross_shard_increments_never_lose_updates() {
    // Both transactions write two cells on different shards, so every
    // commit exercises sorted multi-shard acquisition and release.
    for alg in Algorithm::ALL {
        let explored = explore_exhaustive(opts(2), |driver| {
            let stm = check_stm(alg, SHARDS);
            let x = stm.alloc_cell(0i64);
            let y = stm.alloc_cell(0i64);
            let body = |_tid: usize| {
                stm.atomic(|tx| {
                    tx.inc(x, 1)?;
                    tx.inc(y, 1)
                });
            };
            run_threads(&[&body, &body], driver, STEP_CAP)?;
            let (vx, vy) = (stm.read_now(x), stm.read_now(y));
            if vx == 2 && vy == 2 {
                Ok(())
            } else {
                Err(format!("{alg}: lost update, x = {vx}, y = {vy}"))
            }
        });
        assert!(explored > 1, "{alg}: expected multiple schedules");
    }
}

#[test]
fn exhaustive_opposed_writers_do_not_deadlock_or_corrupt() {
    // T0 transfers x → y while T1 transfers y → x: the write sets cover
    // the same two shards, so commit-time acquisition contention (and
    // the CAS-failure give-back path) gets explored. Total is conserved
    // in every schedule.
    for alg in [Algorithm::NOrec, Algorithm::SNOrec] {
        explore_exhaustive(opts(2), |driver| {
            let stm = check_stm(alg, SHARDS);
            let x = stm.alloc_cell(10i64);
            let y = stm.alloc_cell(10i64);
            let t0 = |_tid: usize| {
                stm.atomic(|tx| {
                    tx.inc(x, -3)?;
                    tx.inc(y, 3)
                });
            };
            let t1 = |_tid: usize| {
                stm.atomic(|tx| {
                    tx.inc(y, -7)?;
                    tx.inc(x, 7)
                });
            };
            run_threads(&[&t0, &t1], driver, STEP_CAP)?;
            let total = stm.read_now(x) + stm.read_now(y);
            if total == 20 {
                Ok(())
            } else {
                Err(format!("{alg}: total {total} != 20"))
            }
        });
    }
}

#[test]
fn exhaustive_disjoint_writers_never_abort() {
    // Each writer reads and writes its own cell; the cells live on
    // different shards and nothing is shared. A commit looks only at the
    // shards its read-set lives in, so the other's held shard is never
    // loaded, let alone waited on: no schedule aborts anyone.
    for alg in [Algorithm::NOrec, Algorithm::SNOrec] {
        for bound in [2, 3] {
            explore_exhaustive(opts(bound), |driver| {
                let stm = check_stm(alg, SHARDS);
                let x = stm.alloc_cell(0i64);
                let y = stm.alloc_cell(0i64);
                let bump = |c| {
                    let stm = &stm;
                    move |_tid: usize| {
                        stm.atomic(|tx| {
                            let v = tx.read(c)?;
                            tx.write(c, v + 1)
                        });
                    }
                };
                let (t0, t1) = (bump(x), bump(y));
                run_threads(&[&t0, &t1], driver, STEP_CAP)?;
                let aborts = stm.stats().total_aborts();
                if (stm.read_now(x), stm.read_now(y), aborts) == (1, 1, 0) {
                    Ok(())
                } else {
                    Err(format!("{alg}: {aborts} abort(s) between disjoint writers"))
                }
            });
        }
    }
}

#[test]
fn exhaustive_crossed_readers_writers_terminate_without_timeout() {
    // T0 reads y and writes x, T1 reads x and writes y, on distinct
    // shards: each commit's foreign read shard is the other's write
    // shard — the hold-and-wait cycle. The one that finds the other's
    // shard odd gives its own back and waits with nothing held, so every
    // schedule terminates, no attempt times out and every history is
    // opaque.
    for alg in [Algorithm::NOrec, Algorithm::SNOrec] {
        for bound in [2, 3] {
            explore_exhaustive(opts(bound), |driver| {
                let stm = check_stm(alg, SHARDS);
                let x = stm.alloc_cell(1i64);
                let y = stm.alloc_cell(2i64);
                let copy = |from, to| {
                    move |t: &RecThread<'_>| {
                        t.atomic(|tx| {
                            let v = tx.read(from)?;
                            tx.write(to, v + 10)
                        })
                    }
                };
                let (t0, t1) = (copy(y, x), copy(x, y));
                run_checked(
                    "crossed_copies",
                    &stm,
                    &[x, y],
                    &[&t0, &t1],
                    driver,
                    STEP_CAP,
                )?;
                if stm.stats().aborts(AbortReason::Timeout) != 0 {
                    return Err(format!("{alg}: a commit timed out"));
                }
                Ok(())
            });
        }
    }
}

/// `T0: x += 1; y += 1` having read neither, so it takes both shards
/// blind; `T1: read x; y += 10` — one shard by CAS from its snapshot,
/// one blind; `T2: read x; read y`. Runs the bodies `cast` names, checks
/// the final heap and the history.
fn blind_mix(driver: &mut dyn Driver, alg: Algorithm, cast: &[usize]) -> Result<(), String> {
    let stm = check_stm(alg, SHARDS);
    let x = stm.alloc_cell(0i64);
    let y = stm.alloc_cell(0i64);
    let t0 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            tx.inc(x, 1)?;
            tx.inc(y, 1)
        })
    };
    let t1 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            tx.read(x)?;
            tx.inc(y, 10)
        })
    };
    let t2 = |t: &RecThread<'_>| {
        t.atomic(|tx| {
            tx.read(x)?;
            tx.read(y).map(|_| ())
        })
    };
    let all: [RecBody<'_>; 3] = [&t0, &t1, &t2];
    let threads: Vec<_> = cast.iter().map(|&t| all[t]).collect();
    run_checked("blind_mix", &stm, &[x, y], &threads, driver, STEP_CAP)?;
    let has = |t: usize| i64::from(cast.contains(&t));
    let expected = (has(0), has(0) + 10 * has(1));
    let (vx, vy) = (stm.read_now(x), stm.read_now(y));
    if (vx, vy) != expected {
        return Err(format!("{alg}: lost update, x = {vx}, y = {vy}"));
    }
    Ok(())
}

#[test]
fn exhaustive_blind_writers_and_a_reader_stay_serializable() {
    // Commits that mix sampled and never-sampled shards must serialize
    // with each other and with a reader. Every pair of the three bodies
    // is explored exhaustively at two preemptions. The three together are
    // not: three threads that can each wait on another branch at every
    // spin, and the bound-1 tree alone is past 35 000 schedules — so, as
    // `tests/adaptive.rs` does, the trio runs a deterministic DFS prefix.
    for alg in Algorithm::ALL {
        for cast in [[0, 1], [0, 2], [1, 2]] {
            let explored = explore_exhaustive(opts(2), |driver| blind_mix(driver, alg, &cast));
            assert!(explored > 1, "{alg} {cast:?}: expected multiple schedules");
        }
        let prefix = ExploreOptions {
            max_executions: 500,
            ..opts(2)
        };
        let explored = explore_exhaustive(prefix, |driver| blind_mix(driver, alg, &[0, 1, 2]));
        assert_eq!(
            explored, 500,
            "{alg}: the trio's tree is larger than the prefix"
        );
    }
}
