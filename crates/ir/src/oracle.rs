//! Differential-testing oracle for the pass pipeline.
//!
//! The paper's correctness claim for the compiler integration is that
//! the promoted builtins are *observationally equivalent* to the
//! classical barrier sequences they replace. This module tests exactly
//! that, end to end: every builtin kernel in [`crate::programs`] is run
//! through a scripted scenario sixteen ways — {original, after
//! `tm_widen`+`tm_mark`+`tm_optimize`} × {tree-walking
//! [`Interp::execute`], flat [`Interp::execute_lowered`]} × every
//! [`Algorithm`] (NOrec, S-NOrec, TL2, S-TL2) — and the oracle asserts
//! that all executions return identical results and leave identical
//! heap state. The dispatch dimension makes the oracle also the
//! correctness gate for the threaded-dispatch lowering
//! ([`crate::lower()`]). Alongside the equivalence verdict it reports
//! the barrier-count reduction the passes achieved (the paper's
//! 2-calls→1 argument, aggregated per kernel).
//!
//! The strict verifier runs on both the original and the transformed
//! function ([`crate::passes::run_tm_passes_checked`]), so a pass bug
//! surfaces either as a [`VerifyError`] or as an observation mismatch —
//! never as silent corruption.

use crate::analysis::VerifyError;
use crate::interp::{ExecError, Interp};
use crate::ir::Function;
use crate::passes::{run_tm_passes_checked, PassReport};
use semtm_core::{Algorithm, Stm, StmConfig};

/// Result of differentially testing one kernel.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Kernel (function) name.
    pub name: String,
    /// Barrier calls in the original function.
    pub barriers_before: usize,
    /// Barrier calls after both passes.
    pub barriers_after: usize,
    /// What the passes rewrote/removed.
    pub passes: PassReport,
    /// Number of scripted calls executed per configuration.
    pub calls: usize,
}

impl std::fmt::Display for DiffReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} -> {} barriers (widened {}, s1r {}, s2r {}, sw {}, loads removed {}), \
             {} calls identical on all {} backend/dispatch configs",
            self.name,
            self.barriers_before,
            self.barriers_after,
            self.passes.widened,
            self.passes.s1r,
            self.passes.s2r,
            self.passes.sw,
            self.passes.loads_removed,
            self.calls,
            Algorithm::ALL.len() * 2
        )
    }
}

/// Why the oracle failed.
#[derive(Clone, Debug)]
pub enum OracleError {
    /// The verifier rejected the function before or after the passes.
    Verify(VerifyError),
    /// A scripted call failed at runtime.
    Exec {
        /// Kernel name.
        name: String,
        /// Which configuration was running.
        config: String,
        /// The interpreter error.
        error: ExecError,
    },
    /// Two configurations observed different results or heap state.
    Mismatch {
        /// Kernel name.
        name: String,
        /// Baseline configuration label.
        base: String,
        /// Diverging configuration label.
        other: String,
        /// Index into the observation vector where they diverge.
        at: usize,
    },
    /// The kernel has no scripted scenario (only builtin kernels do).
    NoScenario(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Verify(e) => write!(f, "verifier: {e}"),
            OracleError::Exec {
                name,
                config,
                error,
            } => write!(f, "{name} [{config}]: execution failed: {error:?}"),
            OracleError::Mismatch {
                name,
                base,
                other,
                at,
            } => write!(
                f,
                "{name}: observation {at} differs between {base} and {other}"
            ),
            OracleError::NoScenario(name) => write!(f, "{name}: no oracle scenario"),
        }
    }
}

impl std::error::Error for OracleError {}

impl From<VerifyError> for OracleError {
    fn from(e: VerifyError) -> OracleError {
        OracleError::Verify(e)
    }
}

fn stm(alg: Algorithm) -> Stm {
    Stm::new(StmConfig::new(alg).heap_words(1 << 12).orec_count(1 << 8))
}

/// How the scenario drives the kernel: the tree-walking interpreter or
/// the flat threaded-dispatch array from [`crate::lower`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Dispatch {
    Tree,
    Lowered,
}

/// Run the kernel's scripted scenario on a fresh heap under `alg` and
/// return everything observable: each call's return value followed by a
/// full dump of the touched heap cells. Two equivalent functions must
/// produce byte-identical vectors.
fn observe(
    func: &Function,
    alg: Algorithm,
    dispatch: Dispatch,
) -> Result<(Vec<i64>, usize), OracleError> {
    let s = stm(alg);
    let interp = Interp::new(&s);
    // `check_function` verified the function, so lowering cannot fail.
    let lowered = match dispatch {
        Dispatch::Tree => None,
        Dispatch::Lowered => Some(crate::lower::lower(func).expect("verified function lowers")),
    };
    let mut obs: Vec<i64> = Vec::new();
    let mut calls = 0usize;
    let mut call = |args: &[i64]| -> Result<(), OracleError> {
        calls += 1;
        let out = match &lowered {
            None => interp.execute(func, args),
            Some(l) => interp.execute_lowered(l, args),
        };
        match out {
            Ok(ret) => {
                obs.push(ret.unwrap_or(i64::MIN));
                Ok(())
            }
            Err(error) => Err(OracleError::Exec {
                name: func.name.clone(),
                config: format!("{dispatch:?}/{alg:?}"),
                error,
            }),
        }
    };
    match func.name.as_str() {
        "ht_op" => {
            let states = s.alloc_array(16, 0i64);
            let keys = s.alloc_array(16, 0i64);
            let a =
                |key: i64, op: i64| vec![states.index() as i64, keys.index() as i64, 15, key, op];
            for (key, op) in [
                (7, 0),
                (7, 1),
                (7, 0),
                (23, 1), // collides with 7 (23 & 15 == 7)
                (23, 0),
                (7, 0),
                (3, 1),
                (3, 0),
                (12, 0),
            ] {
                call(&a(key, op))?;
            }
            for i in 0..16 {
                obs.push(s.read_now(states.offset(i)));
                obs.push(s.read_now(keys.offset(i)));
            }
        }
        "vac_reserve" => {
            let base = s.alloc(20); // four 5-word offers
            for (i, (free, price)) in [(2i64, 100i64), (0, 900), (1, 300), (3, 300)]
                .iter()
                .enumerate()
            {
                s.write_now(base.offset(i * 5), i as i64);
                s.write_now(base.offset(i * 5 + 1), 0);
                s.write_now(base.offset(i * 5 + 2), *free);
                s.write_now(base.offset(i * 5 + 3), *free);
                s.write_now(base.offset(i * 5 + 4), *price);
            }
            // Book repeatedly until everything is sold out (-1).
            for _ in 0..8 {
                call(&[base.index() as i64, 4])?;
            }
            for i in 0..20 {
                obs.push(s.read_now(base.offset(i)));
            }
        }
        "bank_transfer" => {
            let a = s.alloc_cell(100i64);
            let b = s.alloc_cell(10i64);
            for (src, dst, amt) in [
                (a, b, 60),
                (a, b, 60), // blocked by the overdraft check
                (b, a, 5),
                (a, b, 45),
                (b, a, 1000), // blocked
            ] {
                call(&[src.index() as i64, dst.index() as i64, amt])?;
            }
            obs.push(s.read_now(a));
            obs.push(s.read_now(b));
        }
        "cross_block_guard" => {
            let lock = s.alloc_cell(0i64);
            let count = s.alloc_cell(0i64);
            let args = [lock.index() as i64, count.index() as i64];
            call(&args)?; // acquires
            call(&args)?; // already held
            call(&args)?;
            obs.push(s.read_now(lock));
            obs.push(s.read_now(count));
        }
        "range_gate" => {
            let tokens = s.alloc_cell(0i64);
            let grants = s.alloc_cell(0i64);
            let args = [tokens.index() as i64, grants.index() as i64];
            // Sweep the threshold (51 admits, 50 does not), the cap
            // boundary (100 in, 101 out), and a negative balance — the
            // widened `tmcmp.gt tokens, 50` must agree everywhere.
            for t in [60, 51, 50, 100, 101, 0, -5, 77, 120] {
                s.write_now(tokens, t);
                call(&args)?;
            }
            obs.push(s.read_now(tokens));
            obs.push(s.read_now(grants));
        }
        other => return Err(OracleError::NoScenario(other.to_string())),
    }
    Ok((obs, calls))
}

/// Differentially test one kernel: verify, transform, and compare all
/// {pipeline} × {dispatch} × {algorithm} observation vectors.
pub fn check_function(func: &Function) -> Result<DiffReport, OracleError> {
    let mut passed = func.clone();
    let passes = run_tm_passes_checked(&mut passed)?;
    let mut baseline: Option<(String, Vec<i64>)> = None;
    let mut calls = 0usize;
    for (label_fn, f) in [("original", func), ("passed", &passed)] {
        for (dispatch, alg) in [Dispatch::Tree, Dispatch::Lowered]
            .into_iter()
            .flat_map(|d| Algorithm::ALL.into_iter().map(move |a| (d, a)))
        {
            let label = format!("{label_fn}/{dispatch:?}/{alg:?}");
            let (obs, c) = observe(f, alg, dispatch)?;
            calls = c;
            match &baseline {
                None => baseline = Some((label, obs)),
                Some((base_label, base_obs)) => {
                    if let Some(at) =
                        (0..base_obs.len().max(obs.len())).find(|&i| base_obs.get(i) != obs.get(i))
                    {
                        return Err(OracleError::Mismatch {
                            name: func.name.clone(),
                            base: base_label.clone(),
                            other: label,
                            at,
                        });
                    }
                }
            }
        }
    }
    Ok(DiffReport {
        name: func.name.clone(),
        barriers_before: func.barrier_count(),
        barriers_after: passed.barrier_count(),
        passes,
        calls,
    })
}

/// Run the oracle over every builtin kernel.
pub fn run_differential_oracle() -> Result<Vec<DiffReport>, OracleError> {
    crate::programs::all()
        .iter()
        .map(|(_, f)| check_function(f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Inst, Operand};

    #[test]
    fn oracle_accepts_all_builtin_kernels() {
        let reports = run_differential_oracle().unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(reports.len(), 5);
        for r in &reports {
            // S1R promotions trade a load barrier for a compare barrier
            // (cheaper, not fewer); only SW promotions fuse two barriers
            // into one. So the count never grows, and drops wherever the
            // kernel has an increment pattern.
            assert!(r.barriers_after <= r.barriers_before, "{r}");
            let promotions = r.passes.s1r + r.passes.s2r + r.passes.sw;
            assert!(promotions > 0, "every kernel has a promotable pattern: {r}");
            // A widened compare turns a *plain* Cmp into a tmcmp
            // barrier (one new barrier, cheaper than the load it
            // replaces), offsetting one SW fusion in the count.
            if r.passes.sw > r.passes.widened {
                assert!(
                    r.barriers_after < r.barriers_before,
                    "SW promotion must shed barriers: {r}"
                );
            }
            assert!(r.calls >= 3, "{r}");
        }
        let bank = reports.iter().find(|r| r.name == "bank_transfer").unwrap();
        assert_eq!((bank.barriers_before, bank.barriers_after), (5, 3));
        let guard = reports
            .iter()
            .find(|r| r.name == "cross_block_guard")
            .unwrap();
        assert_eq!((guard.barriers_before, guard.barriers_after), (4, 3));
        assert_eq!(guard.passes.s1r, 1);
        let ht = reports.iter().find(|r| r.name == "ht_op").unwrap();
        assert_eq!(ht.passes.s1r, 3, "all three probe checks promoted");
        let gate = reports.iter().find(|r| r.name == "range_gate").unwrap();
        assert_eq!(
            gate.passes.widened, 1,
            "range widening fires on the offset compare: {gate}"
        );
        assert_eq!((gate.barriers_before, gate.barriers_after), (3, 3));
    }

    #[test]
    fn oracle_catches_a_miscompilation() {
        // Sabotage the bank kernel the way a buggy pass would: flip the
        // overdraft comparison. The observations diverge from the
        // original and the oracle must say so.
        let good = crate::programs::bank_transfer();
        let mut bad = good.clone();
        for b in &mut bad.blocks {
            for i in &mut b.insts {
                if let Inst::Cmp { op, .. } = i {
                    *op = op.swap();
                }
            }
        }
        // Compare observations directly (check_function transforms its
        // own clone, so feed the two variants through `observe`).
        let (good_obs, _) = observe(&good, Algorithm::SNOrec, Dispatch::Tree).unwrap();
        let (bad_obs, _) = observe(&bad, Algorithm::SNOrec, Dispatch::Tree).unwrap();
        assert_ne!(good_obs, bad_obs, "sabotage must be observable");
    }

    #[test]
    fn unknown_kernel_is_reported() {
        let mut fb = crate::ir::FunctionBuilder::new("mystery", 0);
        fb.push(Inst::Ret {
            val: Some(Operand::Imm(0)),
        });
        let f = fb.build();
        assert!(matches!(
            check_function(&f),
            Err(OracleError::NoScenario(n)) if n == "mystery"
        ));
    }
}
