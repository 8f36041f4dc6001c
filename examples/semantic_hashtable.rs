//! The paper's Algorithm 2: open-addressing hash-table probing with
//! semantic checks — the benchmark with the paper's best speedup (4x).
//!
//! ```text
//! cargo run --release --example semantic_hashtable
//! ```
//!
//! Probing only needs each visited cell to be "not FREE and (a different
//! key or REMOVED)" — relations, not values. The key is tested first, so
//! a passed cell records `keys[i] != key`, which an insert reusing the
//! cell for another key keeps. This example runs the same mixed workload
//! on all four algorithms and prints throughput and abort rate side by
//! side (a miniature of Figures 1a/1b).

use semtm::workloads::hashtable::{Hashtable, HashtableConfig};
use semtm::{Algorithm, Stm, StmConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

fn main() {
    println!("== Algorithm 2: open-addressing probe as semantic compares ==\n");
    let cfg = HashtableConfig {
        capacity: 1 << 10,
        fill_pct: 40,
        tombstone_pct: 40, // long probe chains: big read/compare sets
        ops_per_tx: 10,
        get_pct: 80,
        key_space: 1 << 12,
        padded: false,
    };
    println!(
        "{} cells, {}% live, {}% tombstones, {} ops/tx\n",
        1 << 10,
        cfg.fill_pct,
        cfg.tombstone_pct,
        cfg.ops_per_tx
    );
    let mut baseline = 0.0f64;
    for alg in Algorithm::ALL {
        let stm = Stm::new(StmConfig::new(alg).heap_words(1 << 16));
        let table = Hashtable::new(&stm, cfg);
        let stop = AtomicBool::new(false);
        let ops = AtomicU64::new(0);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let stm = &stm;
                let table = &table;
                let stop = &stop;
                let ops = &ops;
                s.spawn(move || {
                    let mut rng = semtm::core::util::SplitMix64::new(t + 1);
                    while !stop.load(Ordering::Relaxed) {
                        table.workload_tx(stm, &mut rng);
                        ops.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(400));
            stop.store(true, Ordering::Relaxed);
        });
        table.verify(&stm).expect("hashtable integrity");
        let ktps = ops.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64() / 1000.0;
        let st = stm.stats();
        if alg == Algorithm::NOrec {
            baseline = ktps;
        }
        println!(
            "{:8}  {:8.1} kTx/s ({:4.2}x NOrec)  abort {:5.1}%  probe ops/tx: {:6.1} reads, {:6.1} cmps",
            alg.name(),
            ktps,
            if baseline > 0.0 { ktps / baseline } else { 1.0 },
            st.abort_pct(),
            st.reads_per_tx(),
            st.cmps_per_tx(),
        );
    }
    println!(
        "\nEvery probe step turned into a compare under S-NOrec / S-TL2:\n\
         concurrent inserts that do not change a recorded relation's\n\
         outcome no longer abort the probing transactions."
    );
}
