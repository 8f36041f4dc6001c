//! The interpreter's tax: what one atomic region costs compiled (TM
//! passes, lowered, run through [`Interp::execute_lowered`]) next to the
//! same region hand-written over [`Tx`], for the three shipped kernels.
//!
//! The benchmark's `ir.lowered_ns_per_inst` divides a whole call by its
//! instruction count, so it folds the transaction's fixed cost (begin +
//! commit, ≈ 150 ns) into a 9-instruction kernel; this puts the two
//! sides of one region side by side instead — the hand-written column is
//! what the barriers and the transaction cost, the ratio is what the
//! interpreter adds. One thread, S-NOrec, the `ir-kernels` workload's
//! table sizes and argument shapes; each figure is the minimum over the
//! rounds.
//!
//! ```text
//! cargo run --release --example ir_tax            # 9 rounds x 200 000 calls
//! cargo run --release --example ir_tax -- --smoke # 300 calls, checks only
//! ```
//!
//! Both sides consume the same argument stream on heaps laid out alike,
//! and every run ends by checking that they returned the same values,
//! left the same heap and issued the same barrier mix (`Stm::stats()`:
//! reads, writes, cmps, cmp pairs, incs, promotes) — so the lowered
//! form's fused ops call exactly the barriers the hand-written code does.

use semtm::core::util::{hash_u32, SplitMix64};
use semtm::ir::{lower, parse_function, programs, run_tm_passes, Interp, LoweredFunction};
use semtm::{Abort, Addr, Algorithm, Stm, StmConfig, TelemetryLevel, Tx};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

const HT_CAPACITY: usize = 1 << 12;
const HT_KEYS: usize = HT_CAPACITY / 2;
const ACCOUNTS: usize = 1024;
const OFFERS: usize = 64;
const OFFER_WINDOW: usize = 16;
const KERNELS: [(&str, &str); 3] = [
    ("ht_op", programs::HASHTABLE_OP_SRC),
    ("bank_transfer", programs::BANK_TRANSFER_SRC),
    ("vac_reserve", programs::VACATION_RESERVE_SRC),
];

/// One side's heap: the hash table (every key of the universe present),
/// the accounts and the offer table.
struct Tables {
    stm: Stm,
    universe: Vec<i64>,
    states: Addr,
    keys: Addr,
    accounts: Addr,
    offers: Addr,
}

impl Tables {
    fn new() -> Tables {
        let stm = Stm::new(
            StmConfig::new(Algorithm::SNOrec)
                .telemetry(TelemetryLevel::Counters)
                .heap_words(1 << 16),
        );
        // Distinct 20-bit keys: home buckets collide, probes walk chains.
        let mut seen = HashSet::new();
        let universe = (0..)
            .map(|j| 1 + (hash_u32(j) & 0xF_FFFF) as i64)
            .filter(|&key| seen.insert(key))
            .take(HT_KEYS)
            .collect();
        let t = Tables {
            universe,
            states: stm.alloc_array(HT_CAPACITY, 0i64),
            keys: stm.alloc_array(HT_CAPACITY, 0i64),
            accounts: stm.alloc_array(ACCOUNTS, 1_000i64),
            offers: stm.alloc(OFFERS * 5),
            stm,
        };
        for &key in &t.universe {
            let inserted = t.stm.atomic(|tx| ht_op(tx, &t, key, true));
            assert_eq!(inserted, 2, "pre-fill inserts key {key}");
        }
        for i in 0..OFFERS {
            let rec = t.offers.offset(i * 5);
            for (field, v) in [i as i64, 0, 1 << 40, 1 << 40, 100 + (i as i64 * 37) % 400]
                .into_iter()
                .enumerate()
            {
                t.stm.write_now(rec.offset(field), v);
            }
        }
        t
    }

    /// The next call of `kernel`: its arguments, in the kernel's order.
    fn args(&self, kernel: usize, rng: &mut SplitMix64) -> ([i64; 5], usize) {
        match kernel {
            0 => {
                let key = self.universe[rng.index(HT_KEYS)];
                let insert = i64::from(rng.chance(20));
                let (states, keys) = (self.states.index() as i64, self.keys.index() as i64);
                ([states, keys, HT_CAPACITY as i64 - 1, key, insert], 5)
            }
            1 => {
                let src = rng.index(ACCOUNTS);
                let dst = (src + 1 + rng.index(ACCOUNTS - 1)) % ACCOUNTS;
                let account = |i| self.accounts.offset(i).index() as i64;
                let amount = 1 + rng.below(100) as i64;
                ([account(src), account(dst), amount, 0, 0], 3)
            }
            _ => {
                let first = rng.index(OFFERS - OFFER_WINDOW + 1);
                let first = self.offers.offset(first * 5).index() as i64;
                ([first, OFFER_WINDOW as i64, 0, 0, 0], 2)
            }
        }
    }

    /// Every word a kernel can touch.
    fn dump(&self) -> Vec<i64> {
        [
            (self.states, HT_CAPACITY),
            (self.keys, HT_CAPACITY),
            (self.accounts, ACCOUNTS),
            (self.offers, OFFERS * 5),
        ]
        .into_iter()
        .flat_map(|(base, words)| (0..words).map(move |i| self.stm.read_now(base.offset(i))))
        .collect()
    }
}

/// `programs/ht_op.ir` after the passes, by hand.
fn ht_op(tx: &mut Tx<'_>, t: &Tables, key: i64, insert: bool) -> Result<i64, Abort> {
    let mask = HT_CAPACITY - 1;
    let mut i = key as usize & mask;
    while tx.neq(t.states.offset(i), 0)? {
        if !tx.eq(t.states.offset(i), 2)? && !tx.neq(t.keys.offset(i), key)? {
            return Ok(1);
        }
        i = (i + 1) & mask;
    }
    if !insert {
        return Ok(0);
    }
    tx.write(t.states.offset(i), 1)?;
    tx.write(t.keys.offset(i), key)?;
    Ok(2)
}

/// `programs/bank_transfer.ir` after the passes, by hand.
fn bank_transfer(tx: &mut Tx<'_>, src: Addr, dst: Addr, amount: i64) -> Result<i64, Abort> {
    if !tx.gte(src, amount)? {
        return Ok(0);
    }
    tx.dec(src, amount)?;
    tx.inc(dst, amount)?;
    Ok(1)
}

/// `programs/vac_reserve.ir` after the passes, by hand.
fn vac_reserve(tx: &mut Tx<'_>, first: Addr, offers: usize) -> Result<i64, Abort> {
    let (mut best, mut max_price) = (None, -1);
    for i in 0..offers {
        let rec = first.offset(i * 5);
        if tx.gt(rec.offset(2), 0)? && tx.gt(rec.offset(4), max_price)? {
            max_price = tx.read(rec.offset(4))?;
            best = Some(rec);
        }
    }
    let Some(rec) = best else { return Ok(-1) };
    tx.dec(rec.offset(2), 1)?;
    tx.inc(rec.offset(1), 1)?;
    Ok(rec.index() as i64)
}

fn hand(t: &Tables, kernel: usize, a: &[i64]) -> i64 {
    let at = |v: i64| Addr::from_index(v as usize);
    t.stm.atomic(|tx| match kernel {
        0 => ht_op(tx, t, a[3], a[4] != 0),
        1 => bank_transfer(tx, at(a[0]), at(a[1]), a[2]),
        _ => vac_reserve(tx, at(a[0]), a[1] as usize),
    })
}

/// `rounds` × `calls` calls of `kernel` through `call`: the best round's
/// ns per call, and the sum of everything returned.
fn measure(
    t: &Tables,
    kernel: usize,
    (rounds, calls): (usize, usize),
    mut call: impl FnMut(&[i64]) -> i64,
) -> (f64, i64) {
    let mut rng = SplitMix64::new(0x1247A + kernel as u64);
    let (mut best, mut sum) = (f64::INFINITY, 0i64);
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..calls {
            let (args, n) = t.args(kernel, &mut rng);
            sum = sum.wrapping_add(black_box(call(&args[..n])));
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    (best, sum)
}

fn main() {
    let shape = match std::env::args().nth(1).as_deref() {
        None => (9, 200_000),
        Some("--smoke") => (1, 300),
        Some(_) => {
            eprintln!("usage: ir_tax [--smoke]");
            std::process::exit(2);
        }
    };
    let compiled: Vec<LoweredFunction> = KERNELS
        .iter()
        .map(|(_, src)| {
            let mut f = parse_function(src).expect("shipped kernel parses");
            run_tm_passes(&mut f);
            lower(&f).expect("shipped kernel lowers")
        })
        .collect();

    let (lowered_side, hand_side) = (Tables::new(), Tables::new());
    let interp = Interp::new(&lowered_side.stm);
    println!(
        "ir_tax: one thread, S-NOrec, min of {} x {} calls",
        shape.0, shape.1
    );
    println!(
        "{:<14} {:>10} {:>10} {:>7}",
        "region", "lowered ns", "hand ns", "ratio"
    );
    for (k, (name, _)) in KERNELS.iter().enumerate() {
        let (lowered_ns, lowered_sum) = measure(&lowered_side, k, shape, |args| {
            let ret = interp.execute_lowered(&compiled[k], args);
            ret.expect("kernel runs").expect("kernel returns a value")
        });
        let (hand_ns, hand_sum) = measure(&hand_side, k, shape, |args| hand(&hand_side, k, args));
        assert_eq!(lowered_sum, hand_sum, "{name}: the two sides returned");
        println!(
            "{name:<14} {lowered_ns:>10.0} {hand_ns:>10.0} {:>6.2}x",
            lowered_ns / hand_ns
        );
    }
    assert_eq!(lowered_side.dump(), hand_side.dump(), "the two heaps");
    let regions = (shape.0 * shape.1 * KERNELS.len()) as u64;
    assert_eq!(interp.counters.region_attempts(), regions);
    let (lowered_stats, hand_stats) = (lowered_side.stm.stats(), hand_side.stm.stats());
    assert_eq!(lowered_stats.commits, hand_stats.commits);
    assert_eq!(lowered_stats.committed, hand_stats.committed, "barrier mix");
    println!(
        "ir_tax: OK ({regions} regions a side, same returns, same heap, same barriers: {:?})",
        hand_stats.committed
    );
}
