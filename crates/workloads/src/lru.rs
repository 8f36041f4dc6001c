//! LRU-Cache micro-benchmark (paper §7.1).
//!
//! "This benchmark simulates an m × n cache with least-frequently-used
//! replacement policy. The cache uses m cache lines, and each line
//! contains n buckets. Each bucket stores both the data and the hit
//! frequency. Each transaction either sets or looks up multiple entries
//! in the cache."
//!
//! Tag matching probes a whole line with `TM_EQ` checks and bumps the
//! frequency counter with `TM_INC` — per Table 3, ~93 % of the baseline's
//! reads turn into compares; the remaining plain reads are the
//! frequency scan used to pick a victim on a miss-set.

use crate::driver::{run_fixed_work, run_for_duration, RunResult};
use semtm_core::util::SplitMix64;
use semtm_core::{Abort, CmpOp, Stm, TArray, Tx};
use std::time::Duration;

/// LRU cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct LruConfig {
    /// Number of cache lines (m).
    pub lines: usize,
    /// Buckets per line (n, the set associativity).
    pub ways: usize,
    /// Entries touched per transaction.
    pub ops_per_tx: usize,
    /// Percent of operations that are lookups (the rest are sets).
    pub lookup_pct: u32,
    /// Key universe size.
    pub key_space: u64,
}

impl Default for LruConfig {
    fn default() -> Self {
        LruConfig {
            lines: 256,
            ways: 8,
            ops_per_tx: 8,
            lookup_pct: 90,
            key_space: 1 << 13,
        }
    }
}

/// Set-associative software cache over the transactional heap.
///
/// Per bucket: `tags[line*ways + way]` (0 = empty), `data[..]`,
/// `freq[..]` (hit counter, the replacement heuristic).
pub struct LruCache {
    tags: TArray<i64>,
    data: TArray<i64>,
    freq: TArray<i64>,
    config: LruConfig,
}

impl LruCache {
    /// Allocate an empty cache.
    pub fn new(stm: &Stm, config: LruConfig) -> LruCache {
        let cells = config.lines * config.ways;
        LruCache {
            tags: TArray::new(stm, cells, 0),
            data: TArray::new(stm, cells, 0),
            freq: TArray::new(stm, cells, 0),
            config,
        }
    }

    #[inline]
    fn line_of(&self, key: i64) -> usize {
        semtm_core::util::hash_u32(key as u32) as usize % self.config.lines
    }

    /// Look `key` up; on a hit, bump its frequency and return its data.
    /// The whole tag probe is semantic (`TM_EQ` per way).
    pub fn lookup(&self, tx: &mut Tx<'_>, key: i64) -> Result<Option<i64>, Abort> {
        let base = self.line_of(key) * self.config.ways;
        for way in 0..self.config.ways {
            if tx.cmp(self.tags.addr(base + way), CmpOp::Eq, key)? {
                tx.inc(self.freq.addr(base + way), 1)?;
                let v = tx.read(self.data.addr(base + way))?;
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Install (or refresh) `key -> value`. On a miss the
    /// least-frequently-used way is evicted — the frequency scan needs
    /// actual values, so it stays on plain reads (the ~7 % residue of
    /// Table 3).
    pub fn set(&self, tx: &mut Tx<'_>, key: i64, value: i64) -> Result<(), Abort> {
        let base = self.line_of(key) * self.config.ways;
        // Hit path: probe by tag, all semantic.
        for way in 0..self.config.ways {
            if tx.cmp(self.tags.addr(base + way), CmpOp::Eq, key)? {
                tx.write(self.data.addr(base + way), value)?;
                tx.inc(self.freq.addr(base + way), 1)?;
                return Ok(());
            }
        }
        // Miss: pick the LFU victim (empty ways have freq 0 and win).
        let mut victim = 0usize;
        let mut victim_freq = i64::MAX;
        for way in 0..self.config.ways {
            let f = tx.read(self.freq.addr(base + way))?;
            if f < victim_freq {
                victim_freq = f;
                victim = way;
            }
        }
        tx.write(self.tags.addr(base + victim), key)?;
        tx.write(self.data.addr(base + victim), value)?;
        tx.write(self.freq.addr(base + victim), 1)?;
        Ok(())
    }

    /// One workload transaction: a batch of lookups/sets.
    pub fn workload_tx(&self, stm: &Stm, rng: &mut SplitMix64) {
        let mut plan: Vec<(bool, i64)> = Vec::with_capacity(self.config.ops_per_tx);
        for _ in 0..self.config.ops_per_tx {
            let key = 1 + rng.below(self.config.key_space) as i64;
            plan.push((rng.below(100) < self.config.lookup_pct as u64, key));
        }
        stm.atomic(|tx| {
            for &(is_lookup, key) in &plan {
                if is_lookup {
                    let _ = self.lookup(tx, key)?;
                } else {
                    self.set(tx, key, key * 3)?;
                }
            }
            Ok(())
        });
    }

    /// Quiescent integrity: no line holds the same non-zero tag twice,
    /// every occupied bucket's data matches the `key * 3` convention of
    /// the workload, and frequencies are non-negative.
    pub fn verify(&self, stm: &Stm) -> Result<(), String> {
        for line in 0..self.config.lines {
            let base = line * self.config.ways;
            for w1 in 0..self.config.ways {
                let t1 = self.tags.read_now(stm, base + w1);
                if t1 == 0 {
                    continue;
                }
                if self.data.read_now(stm, base + w1) != t1 * 3 {
                    return Err(format!("line {line} way {w1}: data mismatch for tag {t1}"));
                }
                if self.freq.read_now(stm, base + w1) < 0 {
                    return Err(format!("line {line} way {w1}: negative frequency"));
                }
                for w2 in (w1 + 1)..self.config.ways {
                    if self.tags.read_now(stm, base + w2) == t1 {
                        return Err(format!("line {line}: duplicate tag {t1}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Measured run for the figure harness.
pub fn run(
    stm: &Stm,
    config: LruConfig,
    threads: usize,
    duration: Duration,
    seed: u64,
) -> RunResult {
    let cache = warmed_cache(stm, config, seed);
    let mut r = run_for_duration(stm, threads, duration, seed, |_tid, rng| {
        cache.workload_tx(stm, rng);
    });
    cache.verify(stm).expect("lru cache integrity violated");
    r.setup_commits = (config.lines * config.ways) as u64;
    r
}

/// Fixed-work run: exactly `total_ops` workload transactions split
/// across `threads`. The warm-up phase commits one transaction per
/// cache bucket, reported via [`RunResult::setup_commits`] so the
/// runtime-wide identity `stats.commits == total_ops + setup_commits`
/// stays exact.
pub fn run_fixed(
    stm: &Stm,
    config: LruConfig,
    threads: usize,
    total_ops: u64,
    seed: u64,
) -> RunResult {
    let cache = warmed_cache(stm, config, seed);
    let mut r = run_fixed_work(stm, threads, total_ops, seed, |_tid, _i, rng| {
        cache.workload_tx(stm, rng);
    });
    cache.verify(stm).expect("lru cache integrity violated");
    r.setup_commits = (config.lines * config.ways) as u64;
    r
}

/// Warm the cache so lookups hit (and produce `inc` traffic): one
/// transactional `set` per bucket, i.e. `lines * ways` setup commits.
fn warmed_cache(stm: &Stm, config: LruConfig, seed: u64) -> LruCache {
    let cache = LruCache::new(stm, config);
    let mut rng = SplitMix64::new(seed ^ 0xCAFE);
    for _ in 0..(config.lines * config.ways) {
        let key = 1 + rng.below(config.key_space) as i64;
        stm.atomic(|tx| cache.set(tx, key, key * 3));
    }
    cache
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 16).orec_count(1 << 10))
    }

    fn small_cfg() -> LruConfig {
        LruConfig {
            lines: 8,
            ways: 4,
            ..LruConfig::default()
        }
    }

    #[test]
    fn set_then_lookup_hits() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let c = LruCache::new(&s, small_cfg());
            s.atomic(|tx| c.set(tx, 5, 15));
            let got = s.atomic(|tx| c.lookup(tx, 5));
            assert_eq!(got, Some(15), "{alg}");
            let miss = s.atomic(|tx| c.lookup(tx, 6));
            assert_eq!(miss, None, "{alg}");
        }
    }

    #[test]
    fn hit_bumps_frequency() {
        let s = stm(Algorithm::SNOrec);
        let c = LruCache::new(&s, small_cfg());
        s.atomic(|tx| c.set(tx, 5, 15));
        for _ in 0..3 {
            s.atomic(|tx| c.lookup(tx, 5));
        }
        let base = c.line_of(5) * c.config.ways;
        let mut found = false;
        for w in 0..c.config.ways {
            if c.tags.read_now(&s, base + w) == 5 {
                assert_eq!(c.freq.read_now(&s, base + w), 4, "1 set + 3 hits");
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn eviction_picks_least_frequent() {
        let s = stm(Algorithm::STl2);
        let cfg = LruConfig {
            lines: 1,
            ways: 2,
            ..LruConfig::default()
        };
        let c = LruCache::new(&s, cfg);
        s.atomic(|tx| c.set(tx, 101, 303));
        s.atomic(|tx| c.set(tx, 202, 606));
        // Heat up 101 so 202 becomes the LFU victim.
        for _ in 0..5 {
            s.atomic(|tx| c.lookup(tx, 101));
        }
        s.atomic(|tx| c.set(tx, 303, 909)); // evicts 202
        assert_eq!(s.atomic(|tx| c.lookup(tx, 101)), Some(303));
        assert_eq!(s.atomic(|tx| c.lookup(tx, 202)), None);
        assert_eq!(s.atomic(|tx| c.lookup(tx, 303)), Some(909));
        c.verify(&s).unwrap();
    }

    #[test]
    fn semantic_mode_mostly_compares() {
        let s = stm(Algorithm::SNOrec);
        let c = LruCache::new(&s, LruConfig::default());
        let mut rng = SplitMix64::new(21);
        for _ in 0..50 {
            c.workload_tx(&s, &mut rng);
        }
        let st = s.stats().committed;
        let total = st.reads + st.cmps + st.cmp_pairs;
        assert!(total > 0);
        let cmp_ratio = (st.cmps + st.cmp_pairs) as f64 / total as f64;
        assert!(
            cmp_ratio > 0.75,
            "most probe traffic must be semantic, got {cmp_ratio:.2}"
        );
    }

    #[test]
    fn concurrent_run_keeps_integrity() {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let s = stm(alg);
            let r = run(&s, small_cfg(), 4, Duration::from_millis(60), 33);
            assert!(r.total_ops > 0, "{alg}");
        }
    }
}
