//! Figure-2 experiments: the GCC-based evaluation of §7.2, reproduced
//! through the IR interpreter (see DESIGN.md for the substitution).
//!
//! Three configurations per benchmark, matching the paper's legend:
//!
//! * **NOrec** — unmodified compiler: the kernel keeps its classical
//!   `tmload`/`tmstore` barriers (no passes) and runs on plain NOrec;
//! * **NOrec Modified-GCC** — the passes rewrite the kernel to the
//!   `_ITM_S1R`/`_ITM_SW` builtins (fewer dispatches), but the TM
//!   algorithm delegates them to plain reads/writes;
//! * **S-NOrec** — the passed kernel on the semantic algorithm.
//!
//! Kernels execute through the flat threaded-dispatch lowering
//! ([`semtm_ir::lower()`] + [`Interp::execute_lowered`]) rather than the
//! tree-walking interpreter, so the per-instruction cost these figures
//! measure is dispatch into the TM runtime — the quantity the paper's
//! call-reduction argument is about — not block-structure walking
//! overhead. The differential oracle pins both execution modes to
//! identical observable behaviour.

use crate::report::FigureRow;
use semtm_core::util::SplitMix64;
use semtm_core::{Algorithm, Stm, StmConfig};
use semtm_ir::programs;
use semtm_ir::{lower, run_tm_passes, Function, Interp, LoweredFunction};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The three Figure-2 configurations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GccConfig {
    /// Unmodified GCC, plain NOrec.
    Plain,
    /// Passes on, semantics delegated ("NOrec Modified-GCC").
    ModifiedDelegating,
    /// Passes on, S-NOrec.
    Semantic,
}

impl GccConfig {
    /// All three, in the paper's legend order.
    pub const ALL: [GccConfig; 3] = [
        GccConfig::Plain,
        GccConfig::ModifiedDelegating,
        GccConfig::Semantic,
    ];

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            GccConfig::Plain => "NOrec",
            GccConfig::ModifiedDelegating => "NOrec Modified-GCC",
            GccConfig::Semantic => "S-NOrec",
        }
    }

    /// Whether the passes run on the kernel.
    pub fn passes(self) -> bool {
        !matches!(self, GccConfig::Plain)
    }

    /// The STM algorithm executing the kernel.
    pub fn algorithm(self) -> Algorithm {
        match self {
            GccConfig::Semantic => Algorithm::SNOrec,
            _ => Algorithm::NOrec,
        }
    }

    fn prepare(self, mut f: Function) -> LoweredFunction {
        if self.passes() {
            run_tm_passes(&mut f);
        }
        lower(&f).expect("builtin kernel lowers")
    }
}

/// Throughput of the hashtable kernel (Figures 2a/2b): threads hammer
/// get/insert IR transactions for `duration`.
pub fn fig2_hashtable(
    threads_list: &[usize],
    duration: Duration,
    capacity_pow2: u32,
    seed: u64,
) -> Vec<FigureRow> {
    let mut rows = Vec::new();
    let mask = (1i64 << capacity_pow2) - 1;
    // Distinct keys are capped at half the capacity so the open-addressed
    // table can never saturate (the IR kernel's probe loop has no
    // full-table bailout, matching Algorithm 2).
    let key_universe = (1u64 << capacity_pow2) / 2;
    for cfg in GccConfig::ALL {
        let func = cfg.prepare(programs::hashtable_op());
        for &threads in threads_list {
            let stm = Stm::new(
                StmConfig::new(cfg.algorithm())
                    .heap_words(1 << (capacity_pow2 + 2))
                    .orec_count(1 << 12),
            );
            let states = stm.alloc_array(1 << capacity_pow2, 0i64);
            let keys = stm.alloc_array(1 << capacity_pow2, 0i64);
            // Pre-fill half the table so probes have work to do.
            let mut rng = SplitMix64::new(seed);
            {
                let interp = Interp::new(&stm);
                for _ in 0..(1 << capacity_pow2) / 4 {
                    let key = 1 + rng.below(key_universe) as i64;
                    let _ = interp.execute_lowered(
                        &func,
                        &[states.index() as i64, keys.index() as i64, mask, key, 1],
                    );
                }
            }
            let before = stm.stats();
            let stop = AtomicBool::new(false);
            let ops = AtomicU64::new(0);
            let start = Instant::now();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let stm = &stm;
                    let func = &func;
                    let stop = &stop;
                    let ops = &ops;
                    s.spawn(move || {
                        let interp = Interp::new(stm);
                        let mut rng = SplitMix64::new(seed ^ ((t as u64 + 1) * 77));
                        let mut local = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let key = 1 + rng.below(key_universe) as i64;
                            let op = i64::from(rng.below(100) < 20); // 20% inserts
                            interp
                                .execute_lowered(
                                    func,
                                    &[states.index() as i64, keys.index() as i64, mask, key, op],
                                )
                                .expect("kernel executes");
                            local += 1;
                        }
                        ops.fetch_add(local, Ordering::Relaxed);
                    });
                }
                std::thread::sleep(duration);
                stop.store(true, Ordering::Relaxed);
            });
            let elapsed = start.elapsed();
            let stats = stm.stats().since(&before);
            rows.push(FigureRow {
                figure: "2a/2b",
                benchmark: "hashtable-gcc",
                algorithm: cfg.label().to_string(),
                threads,
                metric: "throughput_ktps",
                value: ops.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64() / 1000.0,
                abort_pct: stats.abort_pct(),
                commits: stats.commits,
                aborts: stats.conflict_aborts(),
            });
        }
    }
    rows
}

/// Execution time of the vacation reservation kernel (Figures 2c/2d):
/// a fixed number of reservation transactions split across threads.
pub fn fig2_vacation(
    threads_list: &[usize],
    offers: usize,
    reservations: u64,
    seed: u64,
) -> Vec<FigureRow> {
    let mut rows = Vec::new();
    for cfg in GccConfig::ALL {
        let func = cfg.prepare(programs::vacation_reserve());
        for &threads in threads_list {
            let stm = Stm::new(
                StmConfig::new(cfg.algorithm())
                    .heap_words(offers * 5 + 64)
                    .orec_count(1 << 10),
            );
            let base = stm.alloc(offers * 5);
            let mut rng = SplitMix64::new(seed);
            for i in 0..offers {
                stm.write_now(base.offset(i * 5), i as i64);
                stm.write_now(base.offset(i * 5 + 1), 0);
                let cap = 4 + rng.below(60) as i64;
                stm.write_now(base.offset(i * 5 + 2), cap);
                stm.write_now(base.offset(i * 5 + 3), cap);
                stm.write_now(base.offset(i * 5 + 4), 100 + rng.below(400) as i64);
            }
            let before = stm.stats();
            let start = Instant::now();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let stm = &stm;
                    let func = &func;
                    s.spawn(move || {
                        let interp = Interp::new(stm);
                        let mut i = t as u64;
                        while i < reservations {
                            interp
                                .execute_lowered(func, &[base.index() as i64, offers as i64])
                                .expect("kernel executes");
                            i += threads as u64;
                        }
                    });
                }
            });
            let elapsed = start.elapsed();
            let stats = stm.stats().since(&before);
            // Invariant: free + used == total on every offer.
            for i in 0..offers {
                let used = stm.read_now(base.offset(i * 5 + 1));
                let free = stm.read_now(base.offset(i * 5 + 2));
                let total = stm.read_now(base.offset(i * 5 + 3));
                assert_eq!(free + used, total, "offer {i} corrupted");
                assert!(free >= 0, "offer {i} oversold");
            }
            rows.push(FigureRow {
                figure: "2c/2d",
                benchmark: "vacation-gcc",
                algorithm: cfg.label().to_string(),
                threads,
                metric: "time_s",
                value: elapsed.as_secs_f64(),
                abort_pct: stats.abort_pct(),
                commits: stats.commits,
                aborts: stats.conflict_aborts(),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_metadata() {
        assert!(!GccConfig::Plain.passes());
        assert!(GccConfig::ModifiedDelegating.passes());
        assert_eq!(GccConfig::Semantic.algorithm(), Algorithm::SNOrec);
        assert_eq!(GccConfig::ModifiedDelegating.algorithm(), Algorithm::NOrec);
    }

    #[test]
    fn fig2_hashtable_runs_all_configs() {
        let rows = fig2_hashtable(&[2], Duration::from_millis(30), 7, 3);
        assert_eq!(rows.len(), 3);
        for cfg in GccConfig::ALL {
            let r = rows.iter().find(|r| r.algorithm == cfg.label()).unwrap();
            assert!(r.commits > 0, "{}", cfg.label());
        }
    }

    #[test]
    fn fig2_vacation_preserves_offer_invariants() {
        let rows = fig2_vacation(&[2], 16, 200, 5);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.value > 0.0));
    }
}
