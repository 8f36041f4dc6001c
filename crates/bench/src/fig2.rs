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

use crate::report::{FigureRow, Metric};
use crate::Sweep;
use semtm_core::util::SplitMix64;
use semtm_core::{Algorithm, Stm, StmConfig};
use semtm_ir::programs;
use semtm_ir::{lower, run_tm_passes, Function, Interp, LoweredFunction};
use semtm_workloads::driver::{run_fixed_work, run_for_duration};

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

    /// Each configuration's legend label, algorithm and `kernel` as it
    /// runs there: lowered, after the passes where they are on.
    fn prepared(kernel: Function) -> [(&'static str, (Algorithm, LoweredFunction)); 3] {
        GccConfig::ALL.map(|cfg| {
            let mut f = kernel.clone();
            if cfg.passes() {
                run_tm_passes(&mut f);
            }
            let lowered = lower(&f).expect("builtin kernel lowers");
            (cfg.label(), (cfg.algorithm(), lowered))
        })
    }
}

/// Throughput of the hashtable kernel (Figures 2a/2b): threads hammer
/// get/insert IR transactions for the sweep's duration.
pub fn fig2_hashtable(sweep: &Sweep) -> Vec<FigureRow> {
    let capacity_pow2: u32 = sweep.pick(7, 10);
    let mask = (1i64 << capacity_pow2) - 1;
    // Distinct keys are capped at half the capacity so the open-addressed
    // table can never saturate (the IR kernel's probe loop has no
    // full-table bailout, matching Algorithm 2).
    let key_universe = (1u64 << capacity_pow2) / 2;
    let configs = GccConfig::prepared(programs::hashtable_op());
    sweep.rows(
        "2a/2b",
        "hashtable-gcc",
        Metric::Throughput,
        configs,
        |(alg, func), threads| {
            let stm = Stm::new(
                StmConfig::new(*alg)
                    .heap_words(1 << (capacity_pow2 + 2))
                    .orec_count(1 << 12),
            );
            let states = stm.alloc_array(1 << capacity_pow2, 0i64);
            let keys = stm.alloc_array(1 << capacity_pow2, 0i64);
            let (states, keys) = (states.index() as i64, keys.index() as i64);
            // Pre-fill half the table so probes have work to do.
            let mut rng = SplitMix64::new(sweep.seed);
            let interp = Interp::new(&stm);
            for _ in 0..(1 << capacity_pow2) / 4 {
                let key = 1 + rng.below(key_universe) as i64;
                let _ = interp.execute_lowered(func, &[states, keys, mask, key, 1]);
            }
            run_for_duration(&stm, threads, sweep.duration, sweep.seed, |_tid, rng| {
                let key = 1 + rng.below(key_universe) as i64;
                let op = i64::from(rng.below(100) < 20); // 20% inserts
                Interp::new(&stm)
                    .execute_lowered(func, &[states, keys, mask, key, op])
                    .expect("kernel executes");
            })
        },
    )
}

/// Execution time of the vacation reservation kernel (Figures 2c/2d):
/// a fixed number of reservation transactions split across threads.
pub fn fig2_vacation(sweep: &Sweep) -> Vec<FigureRow> {
    let offers: usize = sweep.pick(32, 128);
    let reservations = sweep.pick(400, 3000);
    let configs = GccConfig::prepared(programs::vacation_reserve());
    sweep.rows(
        "2c/2d",
        "vacation-gcc",
        Metric::Time,
        configs,
        |(alg, func), threads| {
            let stm = Stm::new(
                StmConfig::new(*alg)
                    .heap_words(offers * 5 + 64)
                    .orec_count(1 << 10),
            );
            let base = stm.alloc(offers * 5);
            let mut rng = SplitMix64::new(sweep.seed);
            for i in 0..offers {
                stm.write_now(base.offset(i * 5), i as i64);
                stm.write_now(base.offset(i * 5 + 1), 0);
                let cap = 4 + rng.below(60) as i64;
                stm.write_now(base.offset(i * 5 + 2), cap);
                stm.write_now(base.offset(i * 5 + 3), cap);
                stm.write_now(base.offset(i * 5 + 4), 100 + rng.below(400) as i64);
            }
            let args = [base.index() as i64, offers as i64];
            let r = run_fixed_work(&stm, threads, reservations, sweep.seed, |_tid, _i, _rng| {
                Interp::new(&stm)
                    .execute_lowered(func, &args)
                    .expect("kernel executes");
            });
            // Invariant: free + used == total on every offer.
            for i in 0..offers {
                let used = stm.read_now(base.offset(i * 5 + 1));
                let free = stm.read_now(base.offset(i * 5 + 2));
                let total = stm.read_now(base.offset(i * 5 + 3));
                assert_eq!(free + used, total, "offer {i} corrupted");
                assert!(free >= 0, "offer {i} oversold");
            }
            r
        },
    )
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
        let rows = fig2_hashtable(&Sweep {
            seed: 3,
            ..Sweep::tiny()
        });
        assert_eq!(rows.len(), 3);
        for cfg in GccConfig::ALL {
            let r = rows.iter().find(|r| r.algorithm == cfg.label()).unwrap();
            assert!(r.commits > 0, "{}", cfg.label());
        }
    }

    #[test]
    fn fig2_vacation_preserves_offer_invariants() {
        let rows = fig2_vacation(&Sweep {
            seed: 5,
            ..Sweep::tiny()
        });
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.value > 0.0));
    }
}
