//! Every count lands, however many threads a runtime has seen.
//!
//! A thread writes its counts and its presence in the epoch into the
//! attempt record its lease selects, with plain stores, because no other
//! live thread holds that lease; threads beyond the lease capacity share
//! one overflow record written with locked adds, and an exited thread's
//! lease passes to the next thread that starts. These tests drive all
//! three situations on every engine cell and demand exact totals: more
//! threads alive at once than there are leases, many short-lived threads
//! one after another, and engine switches that must drain every record
//! while 80 threads run transfers.
//!
//! Each worker commits guarded Bank transfers whose guard always passes
//! (every balance is far above what all transfers together can move), so
//! a committed transfer's operation counts depend only on the engine.
//! The worker runs each transfer a second time on a runtime of its own,
//! which no other thread touches; that runtime's counts are the worker's
//! report, and the shared runtime's counts must be the sum of the
//! reports.

use semtm::core::stats::OpCounts;
use semtm::core::util::{SplitMix64, LEASES};
use semtm::workloads::bank::{Bank, BankConfig};
use semtm::{Algorithm, Mode, StatsSnapshot, Stm, StmConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// The five engine cells.
const CELLS: [(Algorithm, usize); 5] = [
    (Algorithm::NOrec, 1),
    (Algorithm::SNOrec, 1),
    (Algorithm::SNOrec, 16),
    (Algorithm::Tl2, 1),
    (Algorithm::STl2, 1),
];

const ACCOUNTS: usize = 1024;

fn config(algorithm: Algorithm, shards: usize) -> StmConfig {
    StmConfig::new(algorithm)
        .clock_shards(shards)
        .heap_words(2 * ACCOUNTS)
        .orec_count(1 << 10)
}

/// A bank on `stm` whose guard no run of these tests can fail.
fn bank(stm: &Stm) -> Bank {
    let config = BankConfig {
        accounts: ACCOUNTS,
        initial_balance: 1 << 40,
        ..BankConfig::default()
    };
    Bank::new(stm, config)
}

/// `n` guarded transfers, drawn from `seed`, each committed on `shared`
/// and then on a runtime of the calling thread's own built from
/// `config`. Returns the own runtime's counts: what the thread did.
fn transfers(
    shared: &Stm,
    shared_bank: &Bank,
    config: &StmConfig,
    seed: u64,
    n: usize,
) -> StatsSnapshot {
    let own = Stm::new(config.clone());
    let own_bank = bank(&own);
    let mut rng = SplitMix64::new(seed);
    for _ in 0..n {
        let src = rng.index(ACCOUNTS);
        let dst = (src + 1 + rng.index(ACCOUNTS - 1)) % ACCOUNTS;
        let amount = 1 + rng.below(100) as i64;
        for (stm, bank) in [(shared, shared_bank), (&own, &own_bank)] {
            let moved = stm.atomic(|tx| bank.transfer(tx, src, dst, amount));
            assert!(moved, "the guard of a transfer failed");
        }
    }
    own.stats()
}

/// The shared runtime counted exactly what the threads report.
fn assert_exact(label: &str, shared: &Stm, reports: &[StatsSnapshot]) {
    let commits: u64 = reports.iter().map(|r| r.commits).sum();
    let committed = reports
        .iter()
        .fold(OpCounts::default(), |sum, r| sum + r.committed);
    let got = shared.stats();
    assert_eq!(got.commits, commits, "{label}: commits");
    assert_eq!(got.committed, committed, "{label}: committed operations");
}

#[test]
fn more_threads_alive_than_leases_lose_no_count() {
    const THREADS: usize = 96;
    const TRANSFERS: usize = 500;
    const {
        assert!(
            THREADS > LEASES,
            "some threads must share the overflow record"
        )
    };
    for (algorithm, shards) in CELLS {
        let config = config(algorithm, shards);
        let shared = Stm::new(config.clone());
        let shared_bank = bank(&shared);
        // Every thread is alive from before the first transaction to
        // after the last one, so at most `LEASES` of them hold a lease.
        let alive = Barrier::new(THREADS);
        let reports: Vec<StatsSnapshot> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS as u64)
                .map(|seed| {
                    let (shared, shared_bank, config, alive) =
                        (&shared, &shared_bank, &config, &alive);
                    s.spawn(move || {
                        alive.wait();
                        let report = transfers(shared, shared_bank, config, seed, TRANSFERS);
                        alive.wait();
                        report
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker"))
                .collect()
        });
        let label = format!("{algorithm}, {shards} shards");
        assert_eq!(
            shared.stats().commits,
            (THREADS * TRANSFERS) as u64,
            "{label}"
        );
        assert_exact(&label, &shared, &reports);
        shared_bank.verify(&shared).expect("bank invariant");
    }
}

#[test]
fn recycled_leases_lose_no_count() {
    const THREADS: usize = 256;
    const TRANSFERS: usize = 40;
    for (algorithm, shards) in CELLS {
        let config = config(algorithm, shards);
        let shared = Stm::new(config.clone());
        let shared_bank = bank(&shared);
        // One thread at a time: each exits, and returns its lease, before
        // the next one starts and takes it.
        let reports: Vec<StatsSnapshot> = (0..THREADS as u64)
            .map(|seed| {
                std::thread::scope(|s| {
                    s.spawn(|| transfers(&shared, &shared_bank, &config, seed, TRANSFERS))
                        .join()
                        .expect("worker")
                })
            })
            .collect();
        let label = format!("{algorithm}, {shards} shards");
        assert_eq!(
            shared.stats().commits,
            (THREADS * TRANSFERS) as u64,
            "{label}"
        );
        assert_exact(&label, &shared, &reports);
        shared_bank.verify(&shared).expect("bank invariant");
    }
}

#[test]
fn switches_drain_every_record_under_load() {
    const THREADS: usize = 80;
    const TRANSFERS: usize = 500;
    for (algorithm, shards) in CELLS {
        let config = config(algorithm, shards);
        let stm = Stm::new(config.clone());
        let bank = bank(&stm);
        let home = Mode::initial(&config);
        let away = Mode::new(match algorithm {
            Algorithm::NOrec => Algorithm::Tl2,
            Algorithm::SNOrec => Algorithm::STl2,
            Algorithm::Tl2 => Algorithm::NOrec,
            Algorithm::STl2 => Algorithm::SNOrec,
        });
        let running = AtomicUsize::new(THREADS);
        let round_trips = std::thread::scope(|s| {
            for seed in 0..THREADS as u64 {
                let (stm, bank, running) = (&stm, &bank, &running);
                s.spawn(move || {
                    let mut rng = SplitMix64::new(seed);
                    for _ in 0..TRANSFERS {
                        bank.transfer_tx(stm, &mut rng);
                    }
                    running.fetch_sub(1, Ordering::Release);
                });
            }
            // Each switch returns only after a drain that every record
            // in flight took part in.
            let mut round_trips = 0u64;
            while running.load(Ordering::Acquire) != 0 {
                for target in [away, home] {
                    assert_eq!(stm.switch_to(target).expect("switch").to, target);
                }
                round_trips += 1;
            }
            round_trips
        });
        let label = format!("{algorithm}, {shards} shards");
        assert!(round_trips > 0, "{label}: no switch ran");
        assert_eq!(stm.switch_count(), 2 * round_trips, "{label}");
        assert_eq!(stm.mode(), home, "{label}");
        assert_eq!(stm.stats().commits, (THREADS * TRANSFERS) as u64, "{label}");
        bank.verify(&stm).expect("bank invariant");
    }
}
