//! Exact schedule-point counts per transaction.
//!
//! Where wall-clock cannot resolve a difference, count instead: with the
//! library's `shuttle` feature every synchronisation step of the engines
//! reports to a hook. This program installs a counting hook on its one
//! thread and runs a fixed script of 1 000 `bank-transfer` transactions
//! on each of the benchmark's three engine configurations. The counts
//! depend on nothing but the code, so they repeat exactly.
//!
//! Output, one record per line:
//! `per_tx <cell> <points ÷ transactions>`,
//! `point <cell> <PointKind> <count>`, `spins <cell> <count>`.

use semtm_core::sched::{clear_hook, install_hook, PointKind, SchedHook};
use semtm_core::util::SplitMix64;
use semtm_core::{Algorithm, Stm, StmConfig, TelemetryLevel};
use semtm_workloads::bank::{Bank, BankConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const TRANSACTIONS: u64 = 1_000;
const SCRIPT_SEED: u64 = 0x5EED;

/// The cells of the timed benchmark (`benchmark/src/cells.rs`).
const CELLS: [(&str, Algorithm, usize); 3] = [
    ("snorec", Algorithm::SNOrec, 1),
    ("scnorec", Algorithm::SNOrec, 16),
    ("stl2", Algorithm::STl2, 1),
];

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

fn main() {
    for (cell, algorithm, shards) in CELLS {
        let stm = Stm::new(
            StmConfig::new(algorithm)
                .clock_shards(shards)
                .telemetry(TelemetryLevel::Counters)
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
        let mut rng = SplitMix64::new(SCRIPT_SEED);
        install_hook(counter.clone());
        for _ in 0..TRANSACTIONS {
            bank.transfer_tx(&stm, &mut rng);
        }
        clear_hook();
        bank.verify(&stm).expect("bank invariant");
        assert_eq!(stm.stats().commits, TRANSACTIONS);

        let points = counter.points.lock().expect("counter poisoned");
        let total: u64 = points.values().sum();
        println!("per_tx {cell} {}", total as f64 / TRANSACTIONS as f64);
        for (kind, count) in points.iter() {
            println!("point {cell} {kind} {count}");
        }
        println!(
            "spins {cell} {}",
            counter.spins.lock().expect("counter poisoned")
        );
    }
}
