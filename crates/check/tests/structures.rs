//! Data-structure invariants under the exhaustive scheduler: `TQueue`
//! and `stamp::tmap::TMap` at 2–3 virtual threads, every bounded
//! schedule (previously these were only wall-clock stressed).
//!
//! Bodies use fixed attempt counts — never retry-until-success loops —
//! so the schedule tree stays finite under the default-continue DFS.
//!
//! Every test runs once per row of [`SHARDS`]: the global commit clock,
//! and the sharded clock at 4 and at 16 shards (the benchmark's count),
//! where padded allocation spreads the queue's and the map's nodes over
//! lines and so over shards.

use semtm_check::fuzz::check_stm;
use semtm_check::schedule::{explore_exhaustive, ExploreOptions};
use semtm_check::vthread::{run_threads, STEP_CAP};
use semtm_core::Algorithm;
use semtm_workloads::queue::TQueue;
use semtm_workloads::stamp::tmap::TMap;
use std::sync::atomic::{AtomicI64, Ordering};

/// Commit-clock shard counts every test runs at.
const SHARDS: [usize; 3] = [1, 4, 16];

fn opts(max_preemptions: u32, max_executions: usize) -> ExploreOptions {
    ExploreOptions {
        max_preemptions,
        max_executions,
        fault: None,
    }
}

#[test]
fn queue_producer_consumer_all_schedules_two_threads() {
    for shards in SHARDS {
        for alg in Algorithm::ALL {
            let explored = explore_exhaustive(opts(2, 0), |driver| {
                let stm = check_stm(alg, shards);
                let q = TQueue::new(&stm, 4);
                let consumed = AtomicI64::new(0);
                let got_none = AtomicI64::new(0);
                // Producer: enqueue 1 then 2 (capacity 4: never full).
                let producer = |_tid: usize| {
                    for item in 1..=2i64 {
                        let ok = stm.atomic(|tx| q.enqueue(tx, item));
                        assert!(ok, "queue of capacity 4 can never be full here");
                    }
                };
                // Consumer: exactly 3 dequeue attempts, counting outcomes.
                let consumer = |_tid: usize| {
                    for _ in 0..3 {
                        match stm.atomic(|tx| q.dequeue(tx)) {
                            Some(v) => {
                                consumed.fetch_add(v, Ordering::SeqCst);
                            }
                            None => {
                                got_none.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                };
                run_threads(&[&producer, &consumer], driver, STEP_CAP)?;
                // Conservation: everything produced is either consumed or
                // still queued, in FIFO order.
                let mut remaining = Vec::new();
                while let Some(v) = stm.atomic(|tx| q.dequeue(tx)) {
                    remaining.push(v);
                }
                let consumed_sum = consumed.load(Ordering::SeqCst);
                let total: i64 = consumed_sum + remaining.iter().sum::<i64>();
                if total != 3 {
                    return Err(format!(
                        "{alg}/{shards}: items lost or duplicated: consumed {consumed_sum}, \
                     left {remaining:?}"
                    ));
                }
                // FIFO: whatever remains must be a suffix of [1, 2].
                if !([[].as_slice(), &[2], &[1, 2]].contains(&remaining.as_slice())) {
                    return Err(format!(
                        "{alg}/{shards}: FIFO order violated: left {remaining:?}"
                    ));
                }
                q.verify(&stm).map_err(|e| format!("{alg}/{shards}: {e}"))
            });
            assert!(
                explored > 5,
                "{alg}/{shards}: expected real branching, got {explored}"
            );
        }
    }
}

#[test]
fn queue_three_threads_bounded_exploration() {
    // 2 producers + 1 consumer at 3 threads: the tree is much larger, so
    // bound executions; the preemption-0/1 prefix still covers every
    // thread ordering.
    for shards in SHARDS {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            explore_exhaustive(opts(1, 400), |driver| {
                let stm = check_stm(alg, shards);
                let q = TQueue::new(&stm, 4);
                let consumed = AtomicI64::new(0);
                let p0 = |_tid: usize| {
                    assert!(stm.atomic(|tx| q.enqueue(tx, 10)));
                };
                let p1 = |_tid: usize| {
                    assert!(stm.atomic(|tx| q.enqueue(tx, 20)));
                };
                let consumer = |_tid: usize| {
                    for _ in 0..2 {
                        if let Some(v) = stm.atomic(|tx| q.dequeue(tx)) {
                            consumed.fetch_add(v, Ordering::SeqCst);
                        }
                    }
                };
                run_threads(&[&p0, &p1, &consumer], driver, STEP_CAP)?;
                let mut left = 0i64;
                while let Some(v) = stm.atomic(|tx| q.dequeue(tx)) {
                    left += v;
                }
                if consumed.load(Ordering::SeqCst) + left != 30 {
                    return Err(format!(
                        "{alg}/{shards}: conservation broken: consumed {}, left {left}",
                        consumed.load(Ordering::SeqCst)
                    ));
                }
                q.verify(&stm).map_err(|e| format!("{alg}/{shards}: {e}"))
            });
        }
    }
}

#[test]
fn tmap_overlapping_inserts_all_schedules() {
    // Two threads race on the same key plus a private key each; the
    // final map must equal one of the serial outcomes and the tree
    // structure must verify.
    for shards in SHARDS {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let explored = explore_exhaustive(opts(2, 0), |driver| {
                let stm = check_stm(alg, shards);
                let m = TMap::new(&stm);
                let t0 = |_tid: usize| {
                    stm.atomic(|tx| m.insert(&stm, tx, 1, 10));
                    stm.atomic(|tx| m.insert(&stm, tx, 2, 20));
                };
                let t1 = |_tid: usize| {
                    stm.atomic(|tx| m.insert(&stm, tx, 1, 11));
                };
                run_threads(&[&t0, &t1], driver, STEP_CAP)?;
                m.verify(&stm).map_err(|e| format!("{alg}/{shards}: {e}"))?;
                let mut entries = Vec::new();
                m.for_each_now(&stm, |k, v| entries.push((k, v)));
                entries.sort_unstable();
                // Serial outcomes: key 1 holds whichever insert ran last
                // (insert overwrites), key 2 always holds 20.
                let ok = entries == [(1, 10), (2, 20)] || entries == [(1, 11), (2, 20)];
                if !ok {
                    return Err(format!(
                        "{alg}/{shards}: map {entries:?} matches no serial order"
                    ));
                }
                Ok(())
            });
            assert!(
                explored > 5,
                "{alg}/{shards}: expected real branching, got {explored}"
            );
        }
    }
}

#[test]
fn tmap_insert_vs_remove_all_schedules() {
    for shards in SHARDS {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            explore_exhaustive(opts(2, 0), |driver| {
                let stm = check_stm(alg, shards);
                let m = TMap::new(&stm);
                // Pre-populate outside the explored window.
                stm.atomic(|tx| m.insert(&stm, tx, 5, 50));
                let t0 = |_tid: usize| {
                    stm.atomic(|tx| m.insert(&stm, tx, 3, 30));
                };
                let t1 = |_tid: usize| {
                    let removed = stm.atomic(|tx| m.remove(tx, 5));
                    assert_eq!(removed, Some(50), "pre-inserted key must be removable");
                };
                run_threads(&[&t0, &t1], driver, STEP_CAP)?;
                m.verify(&stm).map_err(|e| format!("{alg}/{shards}: {e}"))?;
                let mut entries = Vec::new();
                m.for_each_now(&stm, |k, v| entries.push((k, v)));
                entries.sort_unstable();
                if entries != [(3, 30)] {
                    return Err(format!(
                        "{alg}/{shards}: map {entries:?}, expected [(3, 30)]"
                    ));
                }
                Ok(())
            });
        }
    }
}
