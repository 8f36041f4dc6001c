//! Cross-crate concurrency invariants: every workload's safety property
//! stress-tested on every algorithm through the public facade.
//!
//! Runs are *fixed work* (an exact operation count split across
//! threads), so every assertion is deterministic: no "did at least one
//! op land in the time window" flakiness, and the commit accounting is
//! checked as an exact identity instead of an inequality. Set
//! `SEMTM_STRESS_SECS=<n>` to additionally soak each workload in
//! wall-clock duration mode for `n` seconds (opt-in; never in tier-1).

use semtm::core::util::SplitMix64;
use semtm::workloads::driver::run_fixed_work;
use semtm::workloads::queue::TQueue;
use semtm::workloads::stamp::tmap::TMap;
use semtm::workloads::{bank, hashtable, lru};
use semtm::{AbortReason, Algorithm, Stm, StmConfig, TelemetryLevel};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;

fn stm(alg: Algorithm) -> Stm {
    Stm::new(StmConfig::new(alg).heap_words(1 << 18).orec_count(1 << 10))
}

/// Opt-in wall-clock soak duration (`SEMTM_STRESS_SECS`), if any.
fn stress_duration() -> Option<Duration> {
    std::env::var("SEMTM_STRESS_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&secs| secs > 0)
        .map(Duration::from_secs)
}

/// The exact accounting identity every fixed run must satisfy: each
/// workload operation is one top-level transaction, so the interval
/// commits equal `total_ops` and the runtime-wide commits additionally
/// include the setup transactions the workload reported.
fn assert_exact_accounting(
    alg: Algorithm,
    s: &Stm,
    r: &semtm::workloads::driver::RunResult,
    expected_ops: u64,
) {
    assert_eq!(r.total_ops, expected_ops, "{alg}");
    assert_eq!(
        r.stats.commits, r.total_ops,
        "{alg}: one commit per workload op"
    );
    assert_eq!(
        s.stats().commits,
        r.total_ops + r.setup_commits,
        "{alg}: runtime commits must equal workload ops + setup commits"
    );
}

#[test]
fn bank_conserves_money_under_contention() {
    for alg in Algorithm::ALL {
        let s = stm(alg);
        let cfg = bank::BankConfig {
            accounts: 8, // few accounts = heavy conflicts
            ..bank::BankConfig::default()
        };
        // bank::run_fixed verifies conservation internally.
        let r = bank::run_fixed(&s, cfg, 4, 600, 1);
        assert_exact_accounting(alg, &s, &r, 600);
        assert_eq!(r.setup_commits, 0, "{alg}: bank seeds non-transactionally");
        if let Some(d) = stress_duration() {
            let soak = stm(alg);
            let r = bank::run(&soak, cfg, 4, d, 1);
            assert!(r.total_ops > 0, "{alg}: soak");
        }
    }
}

#[test]
fn hashtable_supports_heavy_mixed_traffic() {
    for alg in Algorithm::ALL {
        let s = stm(alg);
        let cfg = hashtable::HashtableConfig {
            capacity: 256,
            get_pct: 50, // insert/remove heavy
            ..hashtable::HashtableConfig::default()
        };
        let r = hashtable::run_fixed(&s, cfg, 4, 600, 2);
        assert_exact_accounting(alg, &s, &r, 600);
        if let Some(d) = stress_duration() {
            let soak = stm(alg);
            let r = hashtable::run(&soak, cfg, 4, d, 2);
            assert!(r.total_ops > 0, "{alg}: soak");
        }
    }
}

#[test]
fn lru_integrity_under_contention() {
    for alg in Algorithm::ALL {
        let s = stm(alg);
        let cfg = lru::LruConfig {
            lines: 4,
            ways: 4,
            key_space: 64, // tiny: constant eviction fights
            lookup_pct: 50,
            ..lru::LruConfig::default()
        };
        let r = lru::run_fixed(&s, cfg, 4, 600, 3);
        assert_exact_accounting(alg, &s, &r, 600);
        assert_eq!(
            r.setup_commits, 16,
            "{alg}: warm-up commits one tx per bucket (4 lines x 4 ways)"
        );
        if let Some(d) = stress_duration() {
            let soak = stm(alg);
            let r = lru::run(&soak, cfg, 4, d, 3);
            assert!(r.total_ops > 0, "{alg}: soak");
        }
    }
}

#[test]
fn queue_multi_producer_multi_consumer() {
    for alg in Algorithm::ALL {
        let s = stm(alg);
        let q = TQueue::new(&s, 8);
        let per_producer = 300i64;
        let producers = 2;
        let consumed_sum = AtomicI64::new(0);
        let consumed_count = AtomicI64::new(0);
        let total = producers * per_producer;
        std::thread::scope(|scope| {
            for p in 0..producers {
                let s = &s;
                let q = &q;
                scope.spawn(move || {
                    for i in 0..per_producer {
                        let item = p * per_producer + i + 1;
                        loop {
                            if s.atomic(|tx| q.enqueue(tx, item)) {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let s = &s;
                let q = &q;
                let consumed_sum = &consumed_sum;
                let consumed_count = &consumed_count;
                scope.spawn(move || loop {
                    if consumed_count.load(Ordering::Relaxed) >= total {
                        break;
                    }
                    if let Some(v) = s.atomic(|tx| q.dequeue(tx)) {
                        consumed_sum.fetch_add(v, Ordering::Relaxed);
                        consumed_count.fetch_add(1, Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                });
            }
        });
        // Consumers may overshoot the check-then-dequeue race by design;
        // drain anything left and verify totals.
        while let Some(v) = s.atomic(|tx| q.dequeue(tx)) {
            consumed_sum.fetch_add(v, Ordering::Relaxed);
            consumed_count.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(consumed_count.load(Ordering::Relaxed), total, "{alg}");
        let expected_sum: i64 = (1..=total).sum();
        assert_eq!(consumed_sum.load(Ordering::Relaxed), expected_sum, "{alg}");
        q.verify(&s).unwrap();
    }
}

#[test]
fn tmap_concurrent_mixed_against_sharded_model() {
    // Threads own disjoint key ranges, so a per-thread model stays
    // exact even under concurrency.
    for alg in [Algorithm::SNOrec, Algorithm::STl2] {
        let s = stm(alg);
        let m = TMap::new(&s);
        std::thread::scope(|scope| {
            for t in 0..3i64 {
                let s = &s;
                let m = &m;
                scope.spawn(move || {
                    let mut model = std::collections::BTreeMap::new();
                    let mut rng = SplitMix64::new(t as u64 + 99);
                    for _ in 0..250 {
                        let key = t * 1000 + rng.below(48) as i64;
                        match rng.below(3) {
                            0 => {
                                let fresh = s.atomic(|tx| m.insert(s, tx, key, key * 2));
                                assert_eq!(fresh, model.insert(key, key * 2).is_none(), "{alg}");
                            }
                            1 => {
                                let got = s.atomic(|tx| m.get(tx, key));
                                assert_eq!(got, model.get(&key).copied(), "{alg}");
                            }
                            _ => {
                                let got = s.atomic(|tx| m.remove(tx, key));
                                assert_eq!(got, model.remove(&key), "{alg}");
                            }
                        }
                    }
                    model
                });
            }
        });
        m.verify(&s).unwrap();
    }
}

#[test]
fn telemetry_invariants_hold_under_full_tracing() {
    // Heaviest-instrumentation configuration (Trace) under real Bank
    // contention: the telemetry's own accounting identities must hold
    // exactly, for every algorithm.
    for alg in Algorithm::ALL {
        let s = Stm::new(
            StmConfig::new(alg)
                .heap_words(1 << 12)
                .orec_count(1 << 10)
                .telemetry(TelemetryLevel::Trace)
                .trace_capacity(128),
        );
        let cfg = bank::BankConfig {
            accounts: 8, // few accounts = heavy conflicts
            ..bank::BankConfig::default()
        };
        let r = bank::run_fixed(&s, cfg, 4, 600, 17);
        let st = s.stats();
        assert_exact_accounting(alg, &s, &r, 600);
        assert_eq!(
            st.attempts(),
            st.commits + st.total_aborts(),
            "{alg}: commits + aborts == attempts"
        );
        let t = s.telemetry();
        assert_eq!(
            t.commit_latency_ns().count(),
            st.commits,
            "{alg}: one latency sample per commit"
        );
        assert_eq!(
            t.attempts_per_commit().count(),
            st.commits,
            "{alg}: one attempts sample per commit"
        );
        assert_eq!(
            t.attempts_per_commit().sum(),
            st.attempts(),
            "{alg}: attempts histogram covers every attempt"
        );
        assert_eq!(
            t.trace_events().len() as u64 + t.trace_evicted(),
            st.total_aborts(),
            "{alg}: every abort is traced or counted as evicted"
        );
        // Quantiles are drawn from recorded buckets, so they stay within
        // the observed maximum.
        let lat = t.commit_latency_ns();
        assert!(lat.p50() <= lat.p90() && lat.p90() <= lat.p99(), "{alg}");
        assert!(lat.p99() <= lat.max(), "{alg}");
    }
}

#[test]
fn counter_semantic_guard_never_goes_negative() {
    // A bounded semaphore built from cmp+inc: `if v > 0 { v-- }` /
    // `v++` — the canonical pattern the semantic API accelerates.
    for alg in Algorithm::ALL {
        let s = stm(alg);
        let sem = s.alloc_cell(4i64);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..200 {
                        let acquired = s.atomic(|tx| {
                            if tx.gt(sem, 0)? {
                                tx.dec(sem, 1)?;
                                Ok(true)
                            } else {
                                Ok(false)
                            }
                        });
                        if acquired {
                            std::hint::spin_loop();
                            s.atomic(|tx| tx.inc(sem, 1));
                        }
                        let v = s.atomic(|tx| tx.read(sem));
                        assert!((0..=4).contains(&v), "{alg}: semaphore {v} out of range");
                    }
                });
            }
        });
        assert_eq!(s.read_now(sem), 4, "{alg}: all permits returned");
    }
}

#[test]
fn sharded_clock_disjoint_commits_never_time_out() {
    // Two threads, each incrementing its own padded cell (distinct lines,
    // distinct shards): the commits share nothing, so neither may ever
    // wait on — let alone time out behind — the other's held shard.
    for alg in [Algorithm::NOrec, Algorithm::SNOrec] {
        let s = Stm::new(StmConfig::new(alg).heap_words(1 << 10).clock_shards(16));
        let cells = [s.alloc_padded(1), s.alloc_padded(1)];
        run_fixed_work(&s, 2, 100_000, 1, |tid, _i, _rng| {
            s.atomic(|tx| tx.inc(cells[tid], 1));
        });
        let sum: i64 = cells.iter().map(|&c| s.read_now(c)).sum();
        assert_eq!(sum, 100_000, "{alg}");
        assert_eq!(s.stats().aborts(AbortReason::Timeout), 0, "{alg}");
    }
}

#[test]
fn published_block_is_whole_to_every_reader() {
    // Write-back and lock release are `Release` stores (DESIGN.md §8.5):
    // a writer fills a padded 16-word block with round `r`, then commits
    // `flag = r` in a second transaction. A reader that sees the flag at
    // `f` must see every block word at `f` or later — inside a transaction
    // (where the block is also uniform: one transaction wrote it) and
    // through `read_now` after its transaction committed.
    const WORDS: usize = 16;
    const ROUNDS: i64 = 20_000;
    let cells = [
        (Algorithm::NOrec, 1),
        (Algorithm::SNOrec, 1),
        (Algorithm::SNOrec, 16),
        (Algorithm::Tl2, 1),
        (Algorithm::STl2, 1),
    ];
    for (alg, shards) in cells {
        let s = Stm::new(
            StmConfig::new(alg)
                .heap_words(1 << 12)
                .orec_count(1 << 10)
                .clock_shards(shards),
        );
        let block = s.alloc_padded(WORDS);
        let flag = s.alloc_padded(1);
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        std::thread::scope(|scope| {
            let s = &s;
            scope.spawn(move || {
                for r in 1..=ROUNDS {
                    s.atomic(|tx| {
                        for i in 0..WORDS {
                            tx.write(block.offset(i), r)?;
                        }
                        Ok(())
                    });
                    s.atomic(|tx| tx.write(flag, r));
                }
            });
            for _ in 0..2 {
                scope.spawn(move || loop {
                    let (f, words) = s.atomic(|tx| {
                        let f = tx.read(flag)?;
                        let mut words = [0i64; WORDS];
                        for (i, w) in words.iter_mut().enumerate() {
                            *w = tx.read(block.offset(i))?;
                        }
                        Ok((f, words))
                    });
                    assert!(
                        words.iter().all(|&w| w == words[0] && w >= f),
                        "{alg}/{shards}: flag {f}, block {words:?}"
                    );
                    for i in 0..WORDS {
                        let w = s.read_now(block.offset(i));
                        assert!(w >= f, "{alg}/{shards}: flag {f}, word {i} = {w}");
                    }
                    if f == ROUNDS {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "{alg}/{shards}: flag stuck at {f}"
                    );
                });
            }
        });
    }
}
