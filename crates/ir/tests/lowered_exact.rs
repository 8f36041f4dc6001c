//! The lowered form's accounting is exactly the tree walker's.
//!
//! Lowering resolves operands to slots, fuses a compare with the branch
//! on its result, and builds two superinstructions (an `add` into the
//! compare-and-branch on its sum, a `Bin` into the `br` after it), but a
//! fused op must charge the steps of the ops it replaces, in order, with
//! each barrier between the same two steps. So for every shipped program
//! (passes off and on) and for hand-written functions holding each shape
//! the lowering treats specially — and the near misses it must leave
//! alone — this runs both forms under **every** step budget from 0 up to
//! the steps the call needs and demands the same `Result`, the same heap,
//! the same `tm_calls` and the same `region_attempts` — including the
//! budgets that run out inside a fused op. The shipped programs run the
//! scenarios of their [`programs`] rows, every call under each budget,
//! and must end as the row pins; each hand-written shape is a one-call
//! scenario with its own pinned outcome.

use semtm_core::Algorithm;
use semtm_ir::programs::{self, Call, Scenario, Value::Cell, Value::Int};
use semtm_ir::{check_scenario, lower, observe, parse_function, run_tm_passes};
use semtm_ir::{ExecError, Form, Function, LoweredFunction, Observation, Op};

/// A hand-written shape: `src`, whose one call takes the address of
/// every cell of `image` and must return `ret` and leave `heap`.
fn shape(src: &str, image: &[i64], ret: i64, heap: &[i64]) -> (Function, Scenario) {
    let call = Call::new((0..image.len()).map(Cell).collect(), Int(ret));
    let scenario = Scenario {
        image: image.to_vec(),
        calls: vec![call],
        heap: heap.to_vec(),
    };
    (parse_function(src).expect("shape parses"), scenario)
}

/// Both forms of `func` on `scenario` under every budget up to the one
/// that suffices: the same observation at each, and at that one what
/// the scenario pins. Returns that observation and the budget.
fn sweep(func: &Function, scenario: &Scenario) -> (Observation, u64) {
    let name = &func.name;
    let insts = func.blocks.iter().map(|b| b.insts.len()).sum::<usize>();
    assert_eq!(
        lower(func).unwrap().len(),
        insts,
        "{name}: one op per instruction"
    );
    let [(_, tree), (_, flat)] = Form::both(func.clone());
    for limit in 0..10_000 {
        let seen = observe(&tree, scenario, Algorithm::SNOrec, Some(limit));
        let lowered = observe(&flat, scenario, Algorithm::SNOrec, Some(limit));
        assert_eq!(
            seen, lowered,
            "{name}: tree vs lowered at step_limit {limit}"
        );
        if seen.results.iter().all(Result::is_ok) {
            assert_eq!(seen.departure(scenario), None, "{name}");
            return (seen, limit);
        }
        let ran_out = |r: &Result<_, _>| matches!(r, Ok(_) | Err(ExecError::StepLimit));
        assert!(seen.results.iter().all(ran_out), "{name} at {limit}");
    }
    panic!("{name}: never completes");
}

/// How many ops of each fused form `l` holds: `[compare-and-branch,
/// address fold, jump fold, jump folds landing on a CmpJump]` (the last
/// run that compare-and-branch in their own dispatch).
fn fused(l: &LoweredFunction) -> [usize; 4] {
    let ops = l.ops();
    let count = |form: fn(&Op) -> bool| ops.iter().filter(|op| form(op)).count();
    [
        count(|op| matches!(op, Op::CmpJump { .. } | Op::TmCmpValJump { .. })),
        count(|op| matches!(op, Op::AddTmCmpValJump { .. })),
        count(|op| matches!(op, Op::BinJump { .. })),
        ops.iter()
            .filter(|op| match op {
                Op::BinJump { pc, .. } => matches!(ops[*pc as usize], Op::CmpJump { .. }),
                _ => false,
            })
            .count(),
    ]
}

/// The call stopped at `limit` steps, having issued `tm_calls` barriers.
fn stops_at(func: &Function, scenario: &Scenario, limit: u64, tm_calls: u64) {
    let name = &func.name;
    let seen = observe(
        &Form::lowered(func.clone()),
        scenario,
        Algorithm::SNOrec,
        Some(limit),
    );
    assert_eq!(
        seen.results,
        [Err(ExecError::StepLimit)],
        "{name} at {limit}"
    );
    assert_eq!(seen.tm_calls, tm_calls, "{name} at {limit}");
}

#[test]
fn shipped_programs_account_alike_under_every_step_budget() {
    // The fusions each kernel's lowered form holds after the passes (see
    // `fused`): a lost fusion fails here, not just slows down.
    let pinned = [
        ("ht_op", [3, 2, 2, 0]),
        ("vac_reserve", [4, 2, 1, 1]),
        ("bank_transfer", [1, 0, 0, 0]),
        ("cross_block_guard", [1, 0, 0, 0]),
        ("range_gate", [2, 0, 0, 0]),
    ];
    let kernels = programs::kernels();
    assert_eq!(
        kernels.len(),
        pinned.len(),
        "fusions pinned for every kernel"
    );
    for (kernel, (name, fusions)) in kernels.iter().zip(pinned) {
        assert_eq!(kernel.name, name);
        let mut func = kernel.function();
        for passes in [false, true] {
            if passes {
                run_tm_passes(&mut func);
                assert_eq!(fused(&lower(&func).unwrap()), fusions, "{name}");
            } else {
                assert!(fused(&lower(&func).unwrap())[0] > 0, "{name}");
            }
            let (done, steps) = sweep(&func, &kernel.scenario);
            let calls = kernel.scenario.calls.len() as u64;
            assert_eq!(done.region_attempts, calls, "{name}: one attempt per call");
            assert!(steps >= 5, "{name}: {steps} budgets swept");
        }
    }
}

#[test]
fn every_lowering_shape_accounts_alike_under_every_step_budget() {
    // `Cmp` + `JumpIf`, fused, in a loop whose latch (`add` + `br`) is a
    // jump fold landing on it: the latch runs it in its own dispatch.
    let (cmp_jump, cmp_jump_s) = shape(
        "func cmp_jump(1) {
         entry:
           tmbegin
           r1 = const 0
           br loop
         loop:
           r2 = cmp.lt r1, 3
           condbr r2, body, done
         body:
           r3 = tmload r0
           r4 = add r3, 1
           tmstore r0, r4
           r1 = add r1, 1
           br loop
         done:
           tmend
           ret r1
         }",
        &[5],
        3,
        &[8],
    );
    assert_eq!(fused(&lower(&cmp_jump).unwrap()), [1, 0, 1, 1]);
    let (done, steps) = sweep(&cmp_jump, &cmp_jump_s);
    assert_eq!((done.tm_calls, steps), (6, 3 + 3 * 7 + 2 + 2));

    // `TmCmpVal` + `JumpIf`, fused; the compare's result read again after
    // the branch.
    let (tmcmp_jump, tmcmp_jump_s) = shape(
        "func tmcmp_jump(2) {
         entry:
           tmbegin
           r2 = tmcmp.gt r0, 0
           condbr r2, yes, out
         yes:
           tmdec r0, 1
           br out
         out:
           r3 = add r2, 10
           tmstore r1, r3
           tmend
           ret r2
         }",
        &[5, 0],
        1,
        &[4, 11],
    );
    assert_eq!(fused(&lower(&tmcmp_jump).unwrap()), [1, 0, 0, 0]);
    let (done, _) = sweep(&tmcmp_jump, &tmcmp_jump_s);
    assert_eq!(done.tm_calls, 3);

    // Compares that must not fuse: the branch tests another register
    // than the compare before it defines; `_ITM_S2R`.
    let (unfused, unfused_s) = shape(
        "func unfused(2) {
         entry:
           tmbegin
           r2 = tmload r0
           r3 = cmp.gt r2, 0
           r4 = cmp.gt r2, 9
           condbr r3, yes, no
         yes:
           tminc r1, 1
           br no
         no:
           r5 = tmcmp2.gt r0, r1
           condbr r5, more, out
         more:
           tminc r1, 7
           br out
         out:
           tmend
           ret r4
         }",
        &[5, 0],
        0,
        &[5, 8],
    );
    assert_eq!(fused(&lower(&unfused).unwrap()), [0; 4]);
    let (done, _) = sweep(&unfused, &unfused_s);
    assert_eq!(done.tm_calls, 4);

    // One immediate used twice (one pool slot), a `JumpIf` that opens its
    // block (the compare before it ends the previous one), and a branch
    // on an immediate.
    let (pool, pool_s) = shape(
        "func pool(2) {
         entry:
           tmbegin
           r2 = tmload r0
           r3 = add r2, 7
           r4 = add r3, 7
           r5 = cmp.eq r4, 19
           br test
         test:
           condbr r5, hit, miss
         hit:
           tmstore r1, r4
           condbr 7, miss, entry
         miss:
           tmend
           ret r4
         }",
        &[5, 0],
        19,
        &[5, 19],
    );
    let lowered = lower(&pool).unwrap();
    assert_eq!((fused(&lowered), lowered.consts()), ([0; 4], &[7, 19][..]));
    sweep(&pool, &pool_s);

    // Outside any region: a fused compare whose barrier is a plain heap
    // read, and no dispatch counted.
    let (outside, outside_s) = shape(
        "func outside(1) {
         entry:
           r1 = tmcmp.lt r0, 8
           condbr r1, bump, done
         bump:
           tminc r0, 1
           br entry
         done:
           ret r1
         }",
        &[5],
        0,
        &[8],
    );
    assert_eq!(fused(&lower(&outside).unwrap()), [1, 0, 0, 0]);
    let (done, steps) = sweep(&outside, &outside_s);
    assert_eq!((done.tm_calls, done.region_attempts, steps), (0, 0, 15));

    // Address fold: the `add` whose sum the compare-and-branch after it
    // reads as its address, in a loop over the four cells (`r0` is the
    // first); the sum is read again after it.
    let (addr_fold, addr_fold_s) = shape(
        "func addr_fold(4) {
         entry:
           tmbegin
           r4 = const 0
           br loop
         loop:
           r5 = add r0, r4
           r6 = tmcmp.gt r5, 0
           condbr r6, take, next
         take:
           tmdec r5, 1
           br next
         next:
           r4 = add r4, 1
           r7 = cmp.lt r4, 4
           condbr r7, loop, done
         done:
           r8 = sub r5, r0
           tmend
           ret r8
         }",
        &[3, 0, 5, 0],
        3,
        &[2, 0, 4, 0],
    );
    assert_eq!(fused(&lower(&addr_fold).unwrap()), [2, 1, 0, 0]);
    let (done, steps) = sweep(&addr_fold, &addr_fold_s);
    assert_eq!((done.tm_calls, steps), (6, 3 + 4 * 6 + 2 * 2 + 3));
    // The budget runs out inside the fused op: after its `add` (step 4),
    // and after its barrier (step 5) but before its branch.
    stops_at(&addr_fold, &addr_fold_s, 4, 0);
    stops_at(&addr_fold, &addr_fold_s, 5, 1);

    // Near misses of the address fold: an `add` whose sum is not the
    // address; a `sub`; an `add` before a compare that does not branch.
    let (addr_misses, addr_misses_s) = shape(
        "func addr_misses(2) {
         entry:
           tmbegin
           r2 = add r0, 1
           r3 = tmcmp.gt r0, 0
           condbr r3, a, c
         a:
           r4 = sub r2, 1
           r5 = tmcmp.gt r4, 0
           condbr r5, b, c
         b:
           r6 = add r1, 0
           r7 = tmcmp.eq r6, 0
           r8 = add r7, 1
           condbr r7, c, c
         c:
           tminc r1, 3
           tmend
           ret r8
         }",
        &[5, 0],
        2,
        &[5, 3],
    );
    assert_eq!(fused(&lower(&addr_misses).unwrap()), [2, 0, 0, 0]);
    let (done, _) = sweep(&addr_misses, &addr_misses_s);
    assert_eq!(done.tm_calls, 4);

    // Jump folds that land on something other than a `CmpJump` — a
    // barrier compare-and-branch, a compare that does not branch — so
    // they charge two steps and dispatch their target; and near misses:
    // a `mov` before a `br`, a `Bin` before a `condbr`.
    let (jump_folds, jump_folds_s) = shape(
        "func jump_folds(1) {
         entry:
           tmbegin
           r1 = const 0
           r2 = const 0
           br loop
         loop:
           r3 = tmcmp.lt r0, 3
           condbr r3, body, done
         body:
           tminc r0, 1
           r1 = add r1, 1
           br loop
         done:
           r4 = mul r1, 2
           br tail
         tail:
           r5 = cmp.eq r4, 6
           r6 = add r5, 1
           condbr r5, out, out
         out:
           tmend
           ret r4
         }",
        &[0],
        6,
        &[3],
    );
    assert_eq!(fused(&lower(&jump_folds).unwrap()), [1, 0, 2, 0]);
    let (done, steps) = sweep(&jump_folds, &jump_folds_s);
    assert_eq!((done.tm_calls, steps), (7, 4 + 3 * 5 + 2 + 2 + 3 + 2));

    // A region, then a barrier outside it, with the passes off and on:
    // every form returns the same on every algorithm, and the guard and
    // the bump become `_ITM_S1R` and `_ITM_SW`.
    let (guarded, guarded_s) = shape(
        "func inc_if_positive(1) {
         entry:
           tmbegin
           r1 = tmload r0
           r2 = cmp.gt r1, 0
           condbr r2, bump, join
         bump:
           r3 = tmload r0
           r4 = add r3, 1
           tmstore r0, r4
           br join
         join:
           tmend
           r5 = tmload r0
           ret r5
         }",
        &[5],
        6,
        &[6],
    );
    let (report, [_, _, (_, passed), _]) =
        check_scenario(&guarded, &guarded_s).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!((report.s1r, report.sw), (1, 1));
    let (done, _) = sweep(&guarded, &guarded_s);
    assert_eq!(done.tm_calls, 3);
    let (done, _) = sweep(&passed.func, &guarded_s);
    assert_eq!(done.tm_calls, 2);
}
