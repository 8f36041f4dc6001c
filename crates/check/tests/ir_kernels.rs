//! Schedule exploration over the checked-in IR kernels: the interpreter
//! runs a kernel inside the vthread harness while a rival transaction
//! races it, and every bounded schedule must land in a serializable
//! outcome — for the original kernel AND for the `tm_mark`/`tm_widen`
//! output, whose promoted `_ITM_S1R`/`_ITM_S2R` barriers defer the check
//! to commit time and must revalidate correctly under preemption. Each
//! runs tree-walking ([`Interp::execute`]) and lowered
//! ([`Interp::execute_lowered`], the form every workload runs, whose
//! fused ops issue the barriers from inside one dispatch). Every test
//! runs on the global commit clock and on 4 clock shards ([`SHARDS`]).

use semtm_check::fuzz::check_stm;
use semtm_check::scenario;
use semtm_check::schedule::{explore_exhaustive, ExploreOptions};
use semtm_check::vthread::{run_threads, STEP_CAP};
use semtm_core::Algorithm;
use semtm_ir::programs::{self, Scenario};
use semtm_ir::{forms, Forms, Interp};
use std::sync::atomic::{AtomicI64, Ordering};

/// Commit-clock shard counts every test runs at.
const SHARDS: [usize; 2] = [1, 4];

fn opts() -> ExploreOptions {
    ExploreOptions {
        max_preemptions: 2,
        max_executions: 2_000,
        fault: None,
    }
}

/// The kernel as checked in, and after the full pass pipeline (which
/// promotes its guard to a semantic builtin — `tm_widen` proves the
/// range-shifted compare in `range_gate`, `tm_mark` the cross-block
/// compare in `cross_block_guard`), each tree-walked and lowered.
/// The shipped kernel `name`'s scenario, whose image and first call
/// each test starts from, and its four forms.
fn kernel(name: &str) -> (Scenario, Forms) {
    let kernel = programs::kernel(name).expect("a shipped kernel");
    let (_, forms) = forms(&kernel.function()).expect("shipped kernel verifies");
    (kernel.scenario, forms)
}

/// `range_gate(tokens, grants)` admits when `*tokens > 50` (written as
/// the widened relation `*tokens <= 100 && *tokens + 27 > 77`) and then
/// bumps `grants`. A rival transaction drains the bucket from 60 to 40
/// across the threshold, so the gate's decision is only consistent if
/// its (possibly TM_CMP-promoted) guard revalidates: every schedule
/// must serialize as gate-then-drain (grant) or drain-then-gate (no
/// grant), never a zombie mix.
#[test]
fn range_gate_serializes_against_a_bucket_drain_on_every_schedule() {
    // The row's image holds 60 tokens and no grants.
    let (scenario, variants) = kernel("range_gate");
    for shards in SHARDS {
        for alg in Algorithm::ALL {
            for (name, f) in &variants {
                let explored = explore_exhaustive(opts(), |driver| {
                    let stm = check_stm(alg, shards);
                    let cells = scenario.place(&stm);
                    let (tokens, grants) = (cells[0], cells[1]);
                    let args = scenario.calls[0].args(&cells);
                    let ret = AtomicI64::new(-1);
                    let gate = |_tid: usize| {
                        let r = f
                            .execute(&Interp::new(&stm), &args)
                            .expect("kernel executes")
                            .expect("kernel returns a value");
                        ret.store(r, Ordering::Relaxed);
                    };
                    let drain = |_tid: usize| {
                        stm.atomic(|tx| tx.inc(tokens, -20));
                    };
                    run_threads(&[&gate, &drain], driver, STEP_CAP)?;
                    let (t, g, r) = (
                        stm.read_now(tokens),
                        stm.read_now(grants),
                        ret.load(Ordering::Relaxed),
                    );
                    if t != 40 {
                        return Err(format!("{alg}/{name}/{shards}: tokens = {t}, drain lost"));
                    }
                    match (r, g) {
                        (1, 1) | (0, 0) => Ok(()),
                        _ => Err(format!(
                            "{alg}/{name}/{shards}: non-serializable outcome ret={r} grants={g}"
                        )),
                    }
                });
                assert!(
                    explored > 10,
                    "{alg}/{name}/{shards}: only {explored} schedules"
                );
            }
        }
    }
}

/// Two racing `cross_block_guard(lock, count)` calls
/// ([`scenario::cross_block_guard`]) keep mutual exclusion on every
/// schedule, in every form.
#[test]
fn cross_block_guard_is_mutually_exclusive_on_every_schedule() {
    let (_, variants) = kernel("cross_block_guard");
    for shards in SHARDS {
        for alg in Algorithm::ALL {
            for form in &variants {
                let explored = explore_exhaustive(opts(), |driver| {
                    scenario::cross_block_guard(driver, alg, shards, form)
                });
                let name = form.0;
                assert!(
                    explored > 10,
                    "{alg}/{name}/{shards}: only {explored} schedules"
                );
            }
        }
    }
}
