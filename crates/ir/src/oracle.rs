//! Differential-testing oracle for the pass pipeline.
//!
//! The paper's correctness claim for the compiler integration is that
//! the promoted builtins are *observationally equivalent* to the
//! classical barrier sequences they replace. This module tests exactly
//! that, end to end. Every builtin kernel has a row in
//! [`crate::programs`]: a heap image, scripted calls, the return each
//! call must give and the heap they must leave, and the pass report and
//! barrier counts the pipeline must produce. [`check_function`] runs the
//! scenario sixteen ways — {original, after
//! `tm_widen`+`tm_mark`+`tm_optimize`} × {tree-walking
//! [`Interp::execute`], flat [`Interp::execute_lowered`]} × every
//! [`Algorithm`] (NOrec, S-NOrec, TL2, S-TL2) — and requires that every
//! execution returns the pinned results and leaves the pinned heap (not
//! merely the same as the others, so a fault that moves a result the
//! same way everywhere fails too), and that the tree and lowered forms
//! of one function issue the same barrier calls (`tm_calls`) and region
//! attempts. The dispatch dimension makes the oracle also the
//! correctness gate for the threaded-dispatch lowering
//! ([`crate::lower()`]). Alongside the verdict it reports the
//! barrier-count reduction the passes achieved (the paper's 2-calls→1
//! argument, aggregated per kernel).
//!
//! The strict verifier runs on both the original and the transformed
//! function ([`crate::passes::run_tm_passes_checked`]), so a pass bug
//! surfaces either as a [`VerifyError`] or as an observation mismatch —
//! never as silent corruption.
//!
//! [`Form`], [`forms`], [`observe`] and [`check_scenario`] are the
//! shared parts: the step-budget sweep of the lowering, the schedule
//! exploration of the IR kernels and the generated-program properties
//! run the same forms and the same observation.

use crate::analysis::VerifyError;
use crate::interp::{ExecError, Interp};
use crate::ir::Function;
use crate::lower::{lower, LoweredFunction};
use crate::passes::{run_tm_passes_checked, PassReport};
use crate::programs::Scenario;
use semtm_core::{Addr, Algorithm, Stm, StmConfig};

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
             {} calls match the pinned results in all {} form/algorithm configs",
            self.name,
            self.barriers_before,
            self.barriers_after,
            self.passes.widened,
            self.passes.s1r,
            self.passes.s2r,
            self.passes.sw,
            self.passes.loads_removed,
            self.calls,
            FORM_COUNT * Algorithm::ALL.len()
        )
    }
}

/// Why the oracle failed.
#[derive(Clone, Debug)]
pub enum OracleError {
    /// The verifier rejected the function before or after the passes.
    Verify(VerifyError),
    /// A configuration observed other than its scenario pins, a tree and
    /// a lowered form disagreed on their accounting, or the passes did
    /// other than the kernel's row pins.
    Mismatch {
        /// Kernel name.
        name: String,
        /// Which configuration, or `passes`.
        config: String,
        /// What differs.
        detail: String,
    },
    /// The kernel has no scripted scenario (only builtin kernels do).
    NoScenario(String),
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Verify(e) => write!(f, "verifier: {e}"),
            OracleError::Mismatch {
                name,
                config,
                detail,
            } => write!(f, "{name} [{config}]: {detail}"),
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

/// A function in one of the two forms the interpreter runs.
#[derive(Clone, Debug)]
pub struct Form {
    /// The function; a lowered form was lowered from it.
    pub func: Function,
    lowered: Option<LoweredFunction>,
}

impl Form {
    /// `func`, walked block by block ([`Interp::execute`]).
    pub fn tree(func: Function) -> Form {
        Form {
            func,
            lowered: None,
        }
    }

    /// `func`, lowered to the flat op array ([`Interp::execute_lowered`]).
    ///
    /// # Panics
    /// If `func` does not lower (it fails [`Function::validate`]).
    pub fn lowered(func: Function) -> Form {
        let lowered = lower(&func).unwrap_or_else(|e| panic!("{}: {e}", func.name));
        Form {
            func,
            lowered: Some(lowered),
        }
    }

    /// `func` in both forms, labelled `tree` and `lowered`.
    pub fn both(func: Function) -> [(&'static str, Form); 2] {
        [
            ("tree", Form::tree(func.clone())),
            ("lowered", Form::lowered(func)),
        ]
    }

    /// Run the form with `args`.
    pub fn execute(&self, interp: &Interp<'_>, args: &[i64]) -> Result<Option<i64>, ExecError> {
        match &self.lowered {
            None => interp.execute(&self.func, args),
            Some(l) => interp.execute_lowered(l, args),
        }
    }
}

/// How many forms [`forms`] gives a function.
const FORM_COUNT: usize = 4;

/// A function's four forms, labelled (see [`forms`]).
pub type Forms = [(&'static str, Form); FORM_COUNT];

/// The four forms `func` runs in — as written and after
/// [`run_tm_passes_checked`], each walked and lowered — labelled
/// `original/tree`, `original/lowered`, `passed/tree` and
/// `passed/lowered`, with what the passes did.
pub fn forms(func: &Function) -> Result<(PassReport, Forms), VerifyError> {
    let mut passed = func.clone();
    let report = run_tm_passes_checked(&mut passed)?;
    Ok((
        report,
        [
            ("original/tree", Form::tree(func.clone())),
            ("original/lowered", Form::lowered(func.clone())),
            ("passed/tree", Form::tree(passed.clone())),
            ("passed/lowered", Form::lowered(passed)),
        ],
    ))
}

/// Everything a scenario lets an observer see.
#[derive(Clone, Debug, PartialEq)]
pub struct Observation {
    /// Each call's outcome, in order.
    pub results: Vec<Result<Option<i64>, ExecError>>,
    /// The image cells after the last call.
    pub heap: Vec<i64>,
    /// Barrier calls issued inside atomic regions.
    pub tm_calls: u64,
    /// Atomic-region attempts.
    pub region_attempts: u64,
    /// Where the image was placed.
    pub cells: Vec<Addr>,
}

impl Observation {
    /// How this departs from what `scenario` pins, if it does: the first
    /// call with another outcome, or else the heap.
    pub fn departure(&self, scenario: &Scenario) -> Option<String> {
        let calls = scenario.calls.iter().zip(&self.results).enumerate();
        for (i, (call, got)) in calls {
            let want = Ok(Some(call.ret.resolve(&self.cells)));
            if *got != want {
                return Some(format!("call {i} gave {got:?}, expected {want:?}"));
            }
        }
        (self.heap != scenario.heap)
            .then(|| format!("heap {:?}, expected {:?}", self.heap, scenario.heap))
    }
}

/// Run `scenario` on `form` on a fresh runtime of `alg`: place the image,
/// then make each call after its cell write, each under `step_limit`
/// steps when one is given.
pub fn observe(
    form: &Form,
    scenario: &Scenario,
    alg: Algorithm,
    step_limit: Option<u64>,
) -> Observation {
    let stm = Stm::new(StmConfig::new(alg).heap_words(1 << 12).orec_count(1 << 8));
    let cells = scenario.place(&stm);
    let mut interp = Interp::new(&stm);
    if let Some(limit) = step_limit {
        interp.step_limit = limit;
    }
    let results = scenario
        .calls
        .iter()
        .map(|call| {
            if let Some((cell, v)) = call.set {
                stm.write_now(cells[cell], v);
            }
            form.execute(&interp, &call.args(&cells))
        })
        .collect();
    Observation {
        results,
        heap: cells.iter().map(|&c| stm.read_now(c)).collect(),
        tm_calls: interp.counters.tm_calls(),
        region_attempts: interp.counters.region_attempts(),
        cells,
    }
}

/// Run `scenario` on the four [`forms`] of `func` under every algorithm.
/// Each run must observe what the scenario pins, and the tree and
/// lowered forms of one function the same `tm_calls` and
/// `region_attempts`. Returns what the passes did and the forms.
pub fn check_scenario(
    func: &Function,
    scenario: &Scenario,
) -> Result<(PassReport, Forms), OracleError> {
    let (report, forms) = forms(func)?;
    let mismatch = |label: &str, alg: Algorithm, detail: String| OracleError::Mismatch {
        name: func.name.clone(),
        config: format!("{label}/{alg:?}"),
        detail,
    };
    for alg in Algorithm::ALL {
        let runs: Vec<Observation> = forms
            .iter()
            .map(|(_, form)| observe(form, scenario, alg, None))
            .collect();
        for ((label, _), run) in forms.iter().zip(&runs) {
            if let Some(detail) = run.departure(scenario) {
                return Err(mismatch(label, alg, detail));
            }
        }
        for (pair, runs) in forms.chunks(2).zip(runs.chunks(2)) {
            let count = |o: &Observation| (o.tm_calls, o.region_attempts);
            if count(&runs[0]) != count(&runs[1]) {
                let detail = format!(
                    "(tm_calls, region_attempts) {:?} walked, {:?} lowered",
                    count(&runs[0]),
                    count(&runs[1])
                );
                return Err(mismatch(pair[1].0, alg, detail));
            }
        }
    }
    Ok((report, forms))
}

/// Differentially test one builtin kernel: verify, transform, and check
/// all {pipeline} × {dispatch} × {algorithm} observations, the pass
/// report and the barrier counts against the kernel's row.
pub fn check_function(func: &Function) -> Result<DiffReport, OracleError> {
    let kernel = crate::programs::kernel(&func.name)
        .ok_or_else(|| OracleError::NoScenario(func.name.clone()))?;
    let (passes, forms) = check_scenario(func, &kernel.scenario)?;
    let barriers = (func.barrier_count(), forms[2].1.func.barrier_count());
    if (passes, barriers) != (kernel.passes, kernel.barriers) {
        return Err(OracleError::Mismatch {
            name: func.name.clone(),
            config: "passes".into(),
            detail: format!(
                "{passes:?} with {barriers:?} barriers, the row pins {:?} with {:?}",
                kernel.passes, kernel.barriers
            ),
        });
    }
    Ok(DiffReport {
        name: func.name.clone(),
        barriers_before: barriers.0,
        barriers_after: barriers.1,
        passes,
        calls: kernel.scenario.calls.len(),
    })
}

/// Run the oracle over every builtin kernel.
pub fn run_differential_oracle() -> Result<Vec<DiffReport>, OracleError> {
    crate::programs::kernels()
        .iter()
        .map(|k| check_function(&k.function()))
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
    }

    #[test]
    fn oracle_catches_a_miscompilation() {
        // Sabotage the bank kernel the way a buggy pass would: flip the
        // overdraft comparison. Every form computes the same wrong
        // results, which only the pinned outcome can tell.
        let mut bad = crate::programs::bank_transfer();
        for b in &mut bad.blocks {
            for i in &mut b.insts {
                if let Inst::Cmp { op, .. } = i {
                    *op = op.swap();
                }
            }
        }
        match check_function(&bad) {
            Err(OracleError::Mismatch { config, .. }) => {
                assert_eq!(config, "original/tree/NOrec")
            }
            other => panic!("sabotage must be observable: {other:?}"),
        }
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
