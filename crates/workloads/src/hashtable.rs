//! Hashtable-with-open-addressing micro-benchmark (paper §3.1
//! Algorithm 2 and §7.1).
//!
//! The probing loop checks *semantics*, not values: a probed cell only
//! needs to be "not FREE and (holding a different key or REMOVED)" for
//! the probe to continue. Written with the classical API every probed
//! cell lands in the read-set by value and any concurrent insertion
//! aborts the prober; with the TM-friendly constructs each check is a
//! `cmp` that stays valid as long as its outcome holds. The key is
//! tested before the tombstone (the paper's Algorithm 2 has the other
//! order), so a passed cell records `keys[i] != key`: an insert that
//! reuses the tombstone for another key keeps that relation, where it
//! would flip `states[i] == REMOVED`.
//!
//! Layout: two parallel arrays, `states` (FREE / USED / REMOVED) and
//! `keys`. Linear probing with a fixed stride.

use crate::driver::{run_fixed_work, run_for_duration, RunResult};
use semtm_core::util::SplitMix64;
use semtm_core::{Abort, CmpOp, Stm, TArray, Tx};
use std::time::Duration;

/// Cell state: empty, never used.
pub const FREE: i64 = 0;
/// Cell state: holds a live key.
pub const USED: i64 = 1;
/// Cell state: tombstone.
pub const REMOVED: i64 = 2;

/// Hashtable configuration.
#[derive(Clone, Copy, Debug)]
pub struct HashtableConfig {
    /// Number of cells (rounded up to a power of two).
    pub capacity: usize,
    /// Fraction (percent) of cells pre-filled with live keys.
    pub fill_pct: u32,
    /// Fraction (percent) of cells pre-filled with tombstones — these
    /// lengthen probe chains, which is what gives the benchmark its long
    /// read (resp. compare) sequences in Table 3.
    pub tombstone_pct: u32,
    /// Operations per transaction (the paper uses 10 set/get ops).
    pub ops_per_tx: usize,
    /// Percent of operations that are `get` (the rest alternate
    /// insert/remove to keep occupancy stable).
    pub get_pct: u32,
    /// Key universe size (keys are drawn from `1..=key_space`).
    pub key_space: u64,
    /// Line-stripe both cell arrays ([`TArray::new_striped`]): one cell
    /// per cache line, so probes over neighbouring cells never share a
    /// line and, under a sharded commit clock, spread across shards.
    /// Costs 16× the heap words.
    pub padded: bool,
}

impl Default for HashtableConfig {
    fn default() -> Self {
        HashtableConfig {
            capacity: 1 << 12,
            fill_pct: 40,
            tombstone_pct: 40,
            ops_per_tx: 10,
            get_pct: 80,
            key_space: 1 << 14,
            padded: false,
        }
    }
}

/// Open-addressing hash set over the transactional heap.
pub struct Hashtable {
    states: TArray<i64>,
    keys: TArray<i64>,
    mask: usize,
    config: HashtableConfig,
}

impl Hashtable {
    /// Allocate and pre-populate the table. Pre-population goes through
    /// the same probe discipline as live insertions (so every key stays
    /// reachable from its home bucket), then tombstones a slice of the
    /// inserted keys to lengthen probe chains.
    pub fn new(stm: &Stm, config: HashtableConfig) -> Hashtable {
        let cap = config.capacity.next_power_of_two();
        let alloc = |init: i64| {
            if config.padded {
                TArray::new_striped(stm, cap, init)
            } else {
                TArray::new(stm, cap, init)
            }
        };
        let table = Hashtable {
            states: alloc(FREE),
            keys: alloc(0),
            mask: cap - 1,
            config,
        };
        let mut rng = SplitMix64::new(0xBEEF);
        assert!(
            config.fill_pct + config.tombstone_pct < 95,
            "prepopulation must leave free cells"
        );
        let live = cap * config.fill_pct as usize / 100;
        let tombs = cap * config.tombstone_pct as usize / 100;
        let mut seeded: Vec<i64> = Vec::with_capacity(live + tombs);
        let mut used = std::collections::HashSet::new();
        while seeded.len() < live + tombs {
            let key = 1 + rng.below(config.key_space) as i64;
            if !used.insert(key) {
                continue;
            }
            // Probe-respecting quiescent insert.
            let mut idx = table.bucket(key);
            while table.states.read_now(stm, idx) == USED {
                idx = (idx + 1) & table.mask;
            }
            table.states.write_now(stm, idx, USED);
            table.keys.write_now(stm, idx, key);
            seeded.push(key);
        }
        // Tombstone the first `tombs` seeded keys (probe-respecting
        // remove), leaving long REMOVED runs in the chains.
        for &key in seeded.iter().take(tombs) {
            let mut idx = table.bucket(key);
            loop {
                let st = table.states.read_now(stm, idx);
                if st == FREE {
                    break; // unreachable in practice: key was inserted
                }
                if st == USED && table.keys.read_now(stm, idx) == key {
                    table.states.write_now(stm, idx, REMOVED);
                    break;
                }
                idx = (idx + 1) & table.mask;
            }
        }
        table
    }

    #[inline]
    fn bucket(&self, key: i64) -> usize {
        semtm_core::util::hash_u32(key as u32) as usize & self.mask
    }

    /// Algorithm 2's probe: find the cell holding `key`, or `None` if a
    /// FREE cell terminates the chain first. Every check is a semantic
    /// `cmp` (delegated to reads under the baselines).
    pub fn probe_find(&self, tx: &mut Tx<'_>, key: i64) -> Result<Option<usize>, Abort> {
        let mut index = self.bucket(key);
        let mut steps = 0;
        // while states[i] != FREE && (keys[i] != key || states[i] == REMOVED)
        //
        // Key first, unlike Algorithm 2: a passed cell then records
        // `keys[i] != key`, which a concurrent insert reusing its
        // tombstone for another key keeps (DESIGN.md §7).
        while tx.cmp(self.states.addr(index), CmpOp::Neq, FREE)?
            && (tx.cmp(self.keys.addr(index), CmpOp::Neq, key)?
                || tx.cmp(self.states.addr(index), CmpOp::Eq, REMOVED)?)
        {
            index = (index + 1) & self.mask;
            steps += 1;
            if steps > self.mask {
                return Ok(None); // full cycle: key absent, table saturated
            }
        }
        // return states[index] == FREE ? -1 : index
        if tx.cmp(self.states.addr(index), CmpOp::Eq, FREE)? {
            Ok(None)
        } else {
            Ok(Some(index)) // cell is USED and holds `key`
        }
    }

    /// Membership test.
    pub fn contains(&self, tx: &mut Tx<'_>, key: i64) -> Result<bool, Abort> {
        Ok(self.probe_find(tx, key)?.is_some())
    }

    /// Insert `key`; returns false if it was already present. The probe
    /// for an insertion slot accepts FREE or REMOVED cells.
    pub fn insert(&self, tx: &mut Tx<'_>, key: i64) -> Result<bool, Abort> {
        if self.probe_find(tx, key)?.is_some() {
            return Ok(false);
        }
        let mut index = self.bucket(key);
        let mut steps = 0;
        // First non-USED cell takes the key.
        while tx.cmp(self.states.addr(index), CmpOp::Eq, USED)? {
            index = (index + 1) & self.mask;
            steps += 1;
            if steps > self.mask {
                return Ok(false); // table full
            }
        }
        tx.write(self.states.addr(index), USED)?;
        tx.write(self.keys.addr(index), key)?;
        Ok(true)
    }

    /// Remove `key`; returns whether it was present. Leaves a tombstone.
    pub fn remove(&self, tx: &mut Tx<'_>, key: i64) -> Result<bool, Abort> {
        match self.probe_find(tx, key)? {
            None => Ok(false),
            Some(index) => {
                tx.write(self.states.addr(index), REMOVED)?;
                Ok(true)
            }
        }
    }

    /// One workload transaction: `ops_per_tx` get/insert/remove calls.
    pub fn workload_tx(&self, stm: &Stm, rng: &mut SplitMix64) {
        let mut plan: Vec<(u8, i64)> = Vec::with_capacity(self.config.ops_per_tx);
        for _ in 0..self.config.ops_per_tx {
            let key = 1 + rng.below(self.config.key_space) as i64;
            let kind = if rng.below(100) < self.config.get_pct as u64 {
                0
            } else if rng.chance(50) {
                1
            } else {
                2
            };
            plan.push((kind, key));
        }
        stm.atomic(|tx| {
            for &(kind, key) in &plan {
                match kind {
                    0 => {
                        let _ = self.contains(tx, key)?;
                    }
                    1 => {
                        let _ = self.insert(tx, key)?;
                    }
                    _ => {
                        let _ = self.remove(tx, key)?;
                    }
                }
            }
            Ok(())
        });
    }

    /// Quiescent occupancy census: (used, removed, free).
    pub fn census(&self, stm: &Stm) -> (usize, usize, usize) {
        let mut used = 0;
        let mut removed = 0;
        let mut free = 0;
        for i in 0..=self.mask {
            match self.states.read_now(stm, i) {
                USED => used += 1,
                REMOVED => removed += 1,
                _ => free += 1,
            }
        }
        (used, removed, free)
    }

    /// Quiescent check: every USED cell is reachable from its key's home
    /// bucket without crossing a FREE cell (open-addressing integrity),
    /// and no key is live in two cells (a probe that stopped short of
    /// the key and inserted it again).
    pub fn verify(&self, stm: &Stm) -> Result<(), String> {
        let mut live = std::collections::HashMap::new();
        for i in 0..=self.mask {
            if self.states.read_now(stm, i) != USED {
                continue;
            }
            let key = self.keys.read_now(stm, i);
            if let Some(first) = live.insert(key, i) {
                return Err(format!("key {key} live in cells {first} and {i}"));
            }
            let mut index = self.bucket(key);
            let mut ok = false;
            for _ in 0..=self.mask {
                if index == i {
                    ok = true;
                    break;
                }
                if self.states.read_now(stm, index) == FREE {
                    break;
                }
                index = (index + 1) & self.mask;
            }
            if !ok {
                return Err(format!("key {key} at cell {i} unreachable from its bucket"));
            }
        }
        Ok(())
    }
}

/// Measured run for the figure harness.
pub fn run(
    stm: &Stm,
    config: HashtableConfig,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> RunResult {
    let table = Hashtable::new(stm, config);
    let r = run_for_duration(stm, threads, duration, seed, |_tid, rng| {
        table.workload_tx(stm, rng);
    });
    table.verify(stm).expect("hashtable integrity violated");
    r
}

/// Fixed-work run: exactly `total_ops` workload transactions split
/// across `threads`. Pre-population is non-transactional (`write_now`),
/// so `stats.commits == total_ops` holds exactly.
pub fn run_fixed(
    stm: &Stm,
    config: HashtableConfig,
    threads: usize,
    total_ops: u64,
    seed: u64,
) -> RunResult {
    let table = Hashtable::new(stm, config);
    let r = run_fixed_work(stm, threads, total_ops, seed, |_tid, _i, rng| {
        table.workload_tx(stm, rng);
    });
    table.verify(stm).expect("hashtable integrity violated");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn small_stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 16).orec_count(1 << 10))
    }

    fn empty_table(stm: &Stm) -> Hashtable {
        Hashtable::new(
            stm,
            HashtableConfig {
                capacity: 64,
                fill_pct: 0,
                tombstone_pct: 0,
                ..HashtableConfig::default()
            },
        )
    }

    #[test]
    fn insert_lookup_remove_cycle() {
        for alg in Algorithm::ALL {
            let s = small_stm(alg);
            let t = empty_table(&s);
            assert!(s.atomic(|tx| t.insert(tx, 42)));
            assert!(!s.atomic(|tx| t.insert(tx, 42)), "double insert");
            assert!(s.atomic(|tx| t.contains(tx, 42)));
            assert!(!s.atomic(|tx| t.contains(tx, 43)));
            assert!(s.atomic(|tx| t.remove(tx, 42)));
            assert!(!s.atomic(|tx| t.contains(tx, 42)));
            assert!(!s.atomic(|tx| t.remove(tx, 42)), "{alg}: double remove");
            t.verify(&s).unwrap();
        }
    }

    #[test]
    fn probe_walks_over_tombstones() {
        let s = small_stm(Algorithm::SNOrec);
        let t = empty_table(&s);
        // Force a chain: occupy the key's home bucket with another key.
        let key = 7i64;
        let home = t.bucket(key);
        t.states.write_now(&s, home, REMOVED);
        assert!(s.atomic(|tx| t.insert(tx, key)));
        assert!(s.atomic(|tx| t.contains(tx, key)));
        // The key must not sit in a tombstone-free home if REMOVED was
        // reusable — either reused or next cell; both are valid as long
        // as verify() passes.
        t.verify(&s).unwrap();
    }

    /// `[REMOVED k_old][USED k_other][USED k]` from `k`'s home bucket,
    /// all three keys hashing there; returns `k`.
    fn chain_past_tombstone_and_key(s: &Stm, t: &Hashtable) -> i64 {
        let home = t.bucket(1);
        let mut chain = (1..).filter(|&key| t.bucket(key) == home);
        let [k_old, k_other, k] = [(); 3].map(|()| chain.next().unwrap());
        for (i, (state, key)) in [(REMOVED, k_old), (USED, k_other), (USED, k)]
            .into_iter()
            .enumerate()
        {
            t.states.write_now(s, (home + i) & t.mask, state);
            t.keys.write_now(s, (home + i) & t.mask, key);
        }
        t.verify(s).unwrap();
        k
    }

    #[test]
    fn probe_tests_the_key_before_the_tombstone() {
        // Two compares per passed cell (`!= FREE`, `keys != k`), three on
        // `k`'s own cell, one for the result: 2 + 2 + 3 + 1. Testing
        // REMOVED first costs one more on every passed USED cell (9).
        // The baseline delegates every compare to a read.
        for (alg, cmps_reads) in [(Algorithm::SNOrec, (8, 0)), (Algorithm::NOrec, (0, 8))] {
            let s = small_stm(alg);
            let t = empty_table(&s);
            let k = chain_past_tombstone_and_key(&s, &t);
            let before = s.stats();
            assert!(s.atomic(|tx| t.contains(tx, k)));
            let st = s.stats().since(&before);
            assert_eq!((st.cmps, st.reads), cmps_reads, "{alg}: (cmps, reads)");
        }
    }

    #[test]
    fn verify_rejects_a_key_live_in_two_cells() {
        let s = small_stm(Algorithm::SNOrec);
        let t = empty_table(&s);
        let k = chain_past_tombstone_and_key(&s, &t);
        // The duplicate a probe stopping at the tombstone would insert.
        t.states.write_now(&s, t.bucket(k), USED);
        t.keys.write_now(&s, t.bucket(k), k);
        let err = t.verify(&s).unwrap_err();
        assert!(err.contains(&format!("key {k} live in cells")), "{err}");
    }

    #[test]
    fn prepopulation_respects_percentages_roughly() {
        let s = small_stm(Algorithm::Tl2);
        let t = Hashtable::new(
            &s,
            HashtableConfig {
                capacity: 1 << 10,
                fill_pct: 40,
                tombstone_pct: 40,
                ..HashtableConfig::default()
            },
        );
        let (used, removed, free) = t.census(&s);
        let cap = (t.mask + 1) as f64;
        assert!((used as f64 / cap - 0.4).abs() < 0.1, "used {used}");
        assert!(
            (removed as f64 / cap - 0.4).abs() < 0.1,
            "removed {removed}"
        );
        assert!(free > 0);
    }

    #[test]
    fn semantic_mode_turns_probes_into_compares() {
        let s = small_stm(Algorithm::SNOrec);
        let t = Hashtable::new(
            &s,
            HashtableConfig {
                capacity: 256,
                ..HashtableConfig::default()
            },
        );
        let mut rng = SplitMix64::new(9);
        for _ in 0..20 {
            t.workload_tx(&s, &mut rng);
        }
        let st = s.stats();
        assert_eq!(st.reads, 0, "all probe reads must become compares");
        assert!(st.cmps_per_tx() > 10.0);
    }

    #[test]
    fn padded_table_keeps_integrity_under_sharded_clock() {
        // The ablation's "sharded+padded" cell: striped cell arrays on a
        // 16-shard commit clock. Striping costs 16× heap, so the heap is
        // sized at capacity × stride × 2 arrays plus slack.
        for alg in [Algorithm::NOrec, Algorithm::SNOrec] {
            let s = Stm::new(
                StmConfig::new(alg)
                    .heap_words(512 * 16 * 2 + 256)
                    .orec_count(1 << 10)
                    .clock_shards(16),
            );
            let r = run(
                &s,
                HashtableConfig {
                    capacity: 512,
                    padded: true,
                    ..HashtableConfig::default()
                },
                4,
                Duration::from_millis(80),
                23,
            );
            assert!(r.total_ops > 0, "{alg}");
        }
    }

    #[test]
    fn concurrent_mixed_ops_keep_integrity() {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let s = small_stm(alg);
            let r = run(
                &s,
                HashtableConfig {
                    capacity: 512,
                    ..HashtableConfig::default()
                },
                4,
                Duration::from_millis(80),
                17,
            );
            assert!(r.total_ops > 0, "{alg}");
        }
    }
}
