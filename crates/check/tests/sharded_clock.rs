//! Gate for the sharded commit clock (`StmConfig::clock_shards > 1`).
//!
//! Every scenario here forces 4 clock shards with padded allocation, so
//! separately allocated cells live on distinct cache lines and therefore
//! distinct shards — first-touch shard sampling, per-shard read-set
//! revalidation, and multi-shard commit acquisition (by CAS from the
//! snapshot and blind) all run for real.
//! Exhaustive bounded-preemption DFS covers the targeted scenarios; the
//! cross-backend differential fuzzer covers random programs on all four
//! algorithms (the TL2 family ignores the knob — the runs double as
//! proof that it stays inert there). Tier-1 additionally re-runs the
//! whole check suite with `SEMTM_CLOCK_SHARDS=4`, which routes every
//! *other* scenario in this crate through the sharded clock too.

use semtm_check::checker::check_history;
use semtm_check::fuzz::{check_stm_sharded, iterations, run_differential_sharded};
use semtm_check::history::{atomic_recorded, Recorder};
use semtm_check::scenario;
use semtm_check::schedule::{explore_exhaustive, Driver, ExploreOptions};
use semtm_check::vthread::{run_threads, Body};
use semtm_core::ops::CmpOp;
use semtm_core::{AbortReason, Algorithm, Stm};

const STEP_CAP: usize = 20_000;
const SHARDS: usize = 4;

fn opts(max_preemptions: u32) -> ExploreOptions {
    ExploreOptions {
        max_preemptions,
        max_executions: 0,
        step_cap: STEP_CAP,
    }
}

type Shared<'a> = (&'a Stm, &'a Recorder);

#[test]
fn exhaustive_cross_shard_increments_never_lose_updates() {
    // Both transactions write two cells on different shards, so every
    // commit exercises sorted multi-shard acquisition and release.
    for alg in Algorithm::ALL {
        let explored = explore_exhaustive(opts(2), |driver| {
            let stm = check_stm_sharded(alg, SHARDS);
            let x = stm.alloc_cell(0i64);
            let y = stm.alloc_cell(0i64);
            let body = |_tid: usize, stm: &Stm| {
                stm.atomic(|tx| {
                    tx.inc(x, 1)?;
                    tx.inc(y, 1)
                });
            };
            let out = run_threads(&stm, &[&body, &body], driver, STEP_CAP);
            if out.capped {
                return Err("step cap exceeded".into());
            }
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
fn exhaustive_cross_shard_histories_are_opaque() {
    // T0 reads x (shard A) and publishes to y (shard B); T1 overwrites
    // x. A reader whose snapshot straddles shards must never commit an
    // inconsistent pair — the history checker verifies every schedule,
    // aborted attempts included.
    for alg in Algorithm::ALL {
        explore_exhaustive(opts(2), |driver| {
            let stm = check_stm_sharded(alg, SHARDS);
            let x = stm.alloc_cell(1i64);
            let y = stm.alloc_cell(0i64);
            let rec = Recorder::new();
            let shared = (&stm, &rec);
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
            .map_err(|e| format!("{alg}: {e}"))
        });
    }
}

#[test]
fn exhaustive_cross_shard_semantic_revalidation_is_sound() {
    // The sharded twin of the S-NOrec revalidation scenario: the `cmp`
    // on x and the read of y cover *different* shards, so T0's
    // validation must re-check x whenever x's shard moved — a bug that
    // only rechecks the shard the current read touches would let T0
    // observe `x > 0` and `y == 1` together, which no serial order
    // explains.
    for alg in [Algorithm::NOrec, Algorithm::SNOrec] {
        explore_exhaustive(opts(3), |driver| {
            let stm = check_stm_sharded(alg, SHARDS);
            let x = stm.alloc_cell(5i64);
            let y = stm.alloc_cell(0i64);
            let out_c = stm.alloc_cell(0i64);
            let rec = Recorder::new();
            let shared = (&stm, &rec);
            let t0 = |tid: usize, (stm, rec): &Shared<'_>| {
                atomic_recorded(stm, rec, tid, |tx| {
                    if tx.cmp(x, CmpOp::Gt, 0)? {
                        tx.write(out_c, 1)?;
                    }
                    tx.read(y).map(|_| ())
                });
            };
            let t1 = |tid: usize, (stm, rec): &Shared<'_>| {
                atomic_recorded(stm, rec, tid, |tx| {
                    tx.write(x, -5)?;
                    tx.write(y, 1)
                });
            };
            let o = run_threads(&shared, &[&t0, &t1], driver, STEP_CAP);
            if o.capped {
                return Err("step cap exceeded".into());
            }
            check_history(
                &rec.attempts(),
                &[(x, 5), (y, 0), (out_c, 0)],
                &[
                    (x, stm.read_now(x)),
                    (y, stm.read_now(y)),
                    (out_c, stm.read_now(out_c)),
                ],
            )
            .map_err(|e| format!("{alg}: {e}"))
        });
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
            let stm = check_stm_sharded(alg, SHARDS);
            let x = stm.alloc_cell(10i64);
            let y = stm.alloc_cell(10i64);
            let t0 = |_tid: usize, stm: &&Stm| {
                stm.atomic(|tx| {
                    tx.inc(x, -3)?;
                    tx.inc(y, 3)
                });
            };
            let t1 = |_tid: usize, stm: &&Stm| {
                stm.atomic(|tx| {
                    tx.inc(y, -7)?;
                    tx.inc(x, 7)
                });
            };
            let out = run_threads(&&stm, &[&t0, &t1], driver, STEP_CAP);
            if out.capped {
                return Err("step cap exceeded".into());
            }
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
                let stm = check_stm_sharded(alg, SHARDS);
                let x = stm.alloc_cell(0i64);
                let y = stm.alloc_cell(0i64);
                let bump = |c| {
                    move |_tid: usize, stm: &&Stm| {
                        stm.atomic(|tx| {
                            let v = tx.read(c)?;
                            tx.write(c, v + 1)
                        });
                    }
                };
                let (t0, t1) = (bump(x), bump(y));
                let out = run_threads(&&stm, &[&t0, &t1], driver, STEP_CAP);
                if out.capped {
                    return Err("step cap exceeded".into());
                }
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
                let stm = check_stm_sharded(alg, SHARDS);
                let x = stm.alloc_cell(1i64);
                let y = stm.alloc_cell(2i64);
                let rec = Recorder::new();
                let shared = (&stm, &rec);
                let copy = |from, to| {
                    move |tid: usize, (stm, rec): &Shared<'_>| {
                        atomic_recorded(stm, rec, tid, |tx| {
                            let v = tx.read(from)?;
                            tx.write(to, v + 10)
                        });
                    }
                };
                let (t0, t1) = (copy(y, x), copy(x, y));
                let out = run_threads(&shared, &[&t0, &t1], driver, STEP_CAP);
                if out.capped {
                    return Err("step cap exceeded".into());
                }
                if stm.stats().aborts(AbortReason::Timeout) != 0 {
                    return Err(format!("{alg}: a commit timed out"));
                }
                check_history(
                    &rec.attempts(),
                    &[(x, 1), (y, 2)],
                    &[(x, stm.read_now(x)), (y, stm.read_now(y))],
                )
                .map_err(|e| format!("{alg}: {e}"))
            });
        }
    }
}

#[test]
fn exhaustive_first_touch_straddling_a_commit_is_opaque() {
    // T0 reads x under shard A, then y under shard B — sampled only at
    // that first touch; T1 writes both in one transaction. No attempt of
    // T0, committed or aborted, may observe the old x with the new y.
    // `tests/fault_sclock.rs` runs the same scenario with the first
    // touch broken and expects the checker to object.
    for alg in Algorithm::ALL {
        let explored = explore_exhaustive(opts(2), |driver| {
            scenario::first_touch_straddle(driver, alg)
        });
        assert!(explored > 1, "{alg}: expected multiple schedules");
    }
}

/// `T0: x += 1; y += 1` having read neither, so it takes both shards
/// blind; `T1: read x; y += 10` — one shard by CAS from its snapshot,
/// one blind; `T2: read x; read y`. Runs the bodies `cast` names, checks
/// the final heap and the history.
fn blind_mix(driver: &mut dyn Driver, alg: Algorithm, cast: &[usize]) -> Result<(), String> {
    let stm = check_stm_sharded(alg, SHARDS);
    let x = stm.alloc_cell(0i64);
    let y = stm.alloc_cell(0i64);
    let rec = Recorder::new();
    let shared = (&stm, &rec);
    let t0 = |tid: usize, (stm, rec): &Shared<'_>| {
        atomic_recorded(stm, rec, tid, |tx| {
            tx.inc(x, 1)?;
            tx.inc(y, 1)
        });
    };
    let t1 = |tid: usize, (stm, rec): &Shared<'_>| {
        atomic_recorded(stm, rec, tid, |tx| {
            tx.read(x)?;
            tx.inc(y, 10)
        });
    };
    let t2 = |tid: usize, (stm, rec): &Shared<'_>| {
        atomic_recorded(stm, rec, tid, |tx| {
            tx.read(x)?;
            tx.read(y).map(|_| ())
        });
    };
    let all: [Body<'_, Shared<'_>>; 3] = [&t0, &t1, &t2];
    let bodies: Vec<_> = cast.iter().map(|&t| all[t]).collect();
    let out = run_threads(&shared, &bodies, driver, STEP_CAP);
    if out.capped {
        return Err("step cap exceeded".into());
    }
    let has = |t: usize| i64::from(cast.contains(&t));
    let expected = (has(0), has(0) + 10 * has(1));
    let (vx, vy) = (stm.read_now(x), stm.read_now(y));
    if (vx, vy) != expected {
        return Err(format!("{alg}: lost update, x = {vx}, y = {vy}"));
    }
    check_history(&rec.attempts(), &[(x, 0), (y, 0)], &[(x, vx), (y, vy)])
        .map_err(|e| format!("{alg}: {e}"))
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

#[test]
fn differential_fuzz_all_backends_at_four_shards() {
    // Same harness as tests/fuzz_differential.rs, but pinned to 4 clock
    // shards with line-strided slots: random programs on all four
    // algorithms must match the serial oracle and pass the history
    // checker. The budget is smaller than the global-clock run since
    // tier-1 also re-runs that whole file under SEMTM_CLOCK_SHARDS=4.
    run_differential_sharded(iterations(300), 0x5eed_cafe_f00d_0002, SHARDS);
}
