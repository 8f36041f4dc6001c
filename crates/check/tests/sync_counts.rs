//! Exact synchronisation-step counts, pinned.
//!
//! Where wall-clock cannot resolve a difference, count instead: with the
//! `shuttle` feature every synchronisation step of the engines reports to
//! a hook, so a fixed single-thread script yields integers that depend on
//! nothing but the code. This is the script of `benchmark/counts` (1 000
//! Bank transfers over 1 024 accounts, seed `0x5EED`) on the benchmark's
//! three engine cells; an accidental extra fence, CAS or validation pass
//! on any barrier or commit path changes a row below and fails tier-1.

use semtm_core::sched::{clear_hook, install_hook, PointKind, SchedHook};
use semtm_core::util::SplitMix64;
use semtm_core::{Algorithm, Stm, StmConfig};
use semtm_workloads::bank::{Bank, BankConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const TRANSACTIONS: u64 = 1_000;

#[derive(Default)]
struct Counter {
    points: Mutex<BTreeMap<String, u64>>,
    spins: Mutex<u64>,
}

impl SchedHook for Counter {
    fn point(&self, kind: PointKind) {
        // `PointKind` is non-exhaustive; its `Debug` name is the key.
        *self
            .points
            .lock()
            .expect("counter poisoned")
            .entry(format!("{kind:?}"))
            .or_insert(0) += 1;
    }
    fn spin(&self) {
        *self.spins.lock().expect("counter poisoned") += 1;
    }
}

/// Run the script on one cell and compare the whole per-kind table.
fn assert_counts(algorithm: Algorithm, shards: usize, expected: &[(&str, u64)]) {
    let stm = Stm::new(
        StmConfig::new(algorithm)
            .clock_shards(shards)
            .heap_words(1 << 20)
            .orec_count(1 << 14),
    );
    let bank = Bank::new(
        &stm,
        BankConfig {
            accounts: 1024,
            ..BankConfig::default()
        },
    );
    let counter = Arc::new(Counter::default());
    let mut rng = SplitMix64::new(0x5EED);
    install_hook(counter.clone());
    for _ in 0..TRANSACTIONS {
        bank.transfer_tx(&stm, &mut rng);
    }
    clear_hook();
    bank.verify(&stm).expect("bank invariant");
    assert_eq!(stm.stats().commits, TRANSACTIONS);

    let expected: BTreeMap<String, u64> =
        expected.iter().map(|&(k, n)| (k.to_string(), n)).collect();
    let cell = format!("{algorithm} x {shards} shard(s)");
    assert_eq!(*counter.points.lock().unwrap(), expected, "{cell}");
    assert_eq!(*counter.spins.lock().unwrap(), 0, "{cell}: spins");
}

#[test]
fn snorec_global_clock_15_056_points() {
    assert_counts(
        Algorithm::SNOrec,
        1,
        &[
            ("AdaptEnter", 1_000),
            ("AdaptEnterRecheck", 1_000),
            ("NorecBegin", 1_000),
            ("NorecRead", 10_056),
            ("NorecCommitAcquire", 1_000),
            ("NorecWriteback", 1_000),
        ],
    );
}

/// The global clock's table without its begin-time sample, plus one
/// `ScNorecTouch` for each first read under a shard (a transfer
/// transaction reads under 7.6 of the 16 shards; the covered shards it
/// never read under are taken blind, with no sample at all) and one
/// validation round for each of the 15 commits that read a shard they do
/// not write (an audit read, a failed guard): only those have a foreign
/// read shard to re-check under the held locks.
///
/// The total went *up* from 15 086 when `begin` stopped sampling, and
/// the work went down: one old `ScNorecBegin` point stood for 33 loads
/// (the epoch and every shard word twice), one `ScNorecTouch` stands for
/// one shard-word load — 7 586 + 1 000 epoch loads against 33 000.
#[test]
fn snorec_sharded_clock_21_672_points() {
    assert_counts(
        Algorithm::SNOrec,
        16,
        &[
            ("AdaptEnter", 1_000),
            ("AdaptEnterRecheck", 1_000),
            ("ScNorecTouch", 7_586),
            ("ScNorecRead", 10_056),
            ("ScNorecCommitAcquire", 1_000),
            ("ScNorecValidate", 15),
            ("ScNorecValidateRecheck", 15),
            ("ScNorecWriteback", 1_000),
        ],
    );
}

#[test]
fn stl2_44_929_points() {
    assert_counts(
        Algorithm::STl2,
        1,
        &[
            ("AdaptEnter", 1_000),
            ("AdaptEnterRecheck", 1_000),
            ("Tl2Begin", 1_000),
            ("Tl2Read", 10_056),
            ("Tl2ReadWindow", 10_056),
            ("Tl2LockCas", 19_817),
            ("Tl2CommitCas", 1_000),
            ("Tl2Writeback", 1_000),
        ],
    );
}
