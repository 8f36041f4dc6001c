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
//! budgets that run out inside a fused op.

use semtm_core::{Algorithm, Stm, StmConfig};
use semtm_ir::{lower, parse_function, programs, run_tm_passes};
use semtm_ir::{ExecError, Function, Interp, LoweredFunction, Op};

/// An argument of a scripted call: the address of a heap cell, or a value.
#[derive(Clone, Copy)]
enum Arg {
    Cell(usize),
    Val(i64),
}
use Arg::{Cell, Val};

struct Case {
    func: Function,
    /// Initial contents of the heap cells the call may touch.
    heap: Vec<i64>,
    args: Vec<Arg>,
}

/// Everything a call lets an observer see.
#[derive(Debug, PartialEq)]
struct Observed {
    result: Result<Option<i64>, ExecError>,
    heap: Vec<i64>,
    tm_calls: u64,
    region_attempts: u64,
}

fn observe(case: &Case, lowered: Option<&LoweredFunction>, step_limit: u64) -> Observed {
    let stm = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(1 << 8));
    let base = stm.alloc(case.heap.len());
    for (i, &v) in case.heap.iter().enumerate() {
        stm.write_now(base.offset(i), v);
    }
    let args: Vec<i64> = case
        .args
        .iter()
        .map(|&a| match a {
            Cell(i) => base.offset(i).index() as i64,
            Val(v) => v,
        })
        .collect();
    let mut interp = Interp::new(&stm);
    interp.step_limit = step_limit;
    let result = match lowered {
        None => interp.execute(&case.func, &args),
        Some(l) => interp.execute_lowered(l, &args),
    };
    Observed {
        result,
        heap: (0..case.heap.len())
            .map(|i| stm.read_now(base.offset(i)))
            .collect(),
        tm_calls: interp.counters.tm_calls(),
        region_attempts: interp.counters.region_attempts(),
    }
}

/// Both forms under every budget up to the one that suffices; returns
/// what the completed call observed and the steps it took.
fn sweep(case: &Case) -> (Observed, u64) {
    let name = &case.func.name;
    let lowered = lower(&case.func).expect("lowers");
    assert_eq!(
        lowered.len(),
        case.func
            .blocks
            .iter()
            .map(|b| b.insts.len())
            .sum::<usize>(),
        "{name}: one op per instruction"
    );
    for limit in 0..10_000 {
        let tree = observe(case, None, limit);
        let flat = observe(case, Some(&lowered), limit);
        assert_eq!(tree, flat, "{name}: tree vs lowered at step_limit {limit}");
        match tree.result {
            Ok(_) => return (tree, limit),
            Err(ref e) => assert_eq!(*e, ExecError::StepLimit, "{name} at {limit}"),
        }
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
fn stops_at(case: &Case, limit: u64, tm_calls: u64) {
    let name = &case.func.name;
    let lowered = lower(&case.func).expect("lowers");
    let seen = observe(case, Some(&lowered), limit);
    assert_eq!(seen.result, Err(ExecError::StepLimit), "{name} at {limit}");
    assert_eq!(seen.tm_calls, tm_calls, "{name} at {limit}");
}

#[test]
fn shipped_programs_account_alike_under_every_step_budget() {
    let offers: Vec<i64> = [(2, 100), (0, 900), (1, 300), (3, 300)]
        .iter()
        .enumerate()
        .flat_map(|(id, &(free, price))| [id as i64, 0, free, free, price])
        .collect();
    let mut table = vec![0i64; 32];
    (table[7], table[16 + 7]) = (1, 23); // key 7's home bucket holds 23
    table[8] = 2; // and the next one is a tombstone
                  // With the fusions each program's lowered form holds after the
                  // passes (see `fused`): a lost fusion fails here, not just slows down.
    let setups = [
        (
            "ht_op",
            table,
            vec![Cell(0), Cell(16), Val(15), Val(7), Val(1)],
            [3, 2, 2, 0],
        ),
        ("vac_reserve", offers, vec![Cell(0), Val(4)], [4, 2, 1, 1]),
        (
            "bank_transfer",
            vec![10, 10],
            vec![Cell(0), Cell(1), Val(3)],
            [1, 0, 0, 0],
        ),
        (
            "cross_block_guard",
            vec![0, 0],
            vec![Cell(0), Cell(1)],
            [1, 0, 0, 0],
        ),
        (
            "range_gate",
            vec![60, 0],
            vec![Cell(0), Cell(1)],
            [2, 0, 0, 0],
        ),
    ];
    let shipped = programs::all();
    assert_eq!(shipped.len(), setups.len(), "a setup for every program");
    for (_, func) in shipped {
        let (_, heap, args, pinned) = setups
            .iter()
            .find(|(name, ..)| *name == func.name)
            .unwrap_or_else(|| panic!("{}: no setup", func.name));
        let mut before = None;
        for passes in [false, true] {
            let mut func = func.clone();
            if passes {
                run_tm_passes(&mut func);
            }
            let case = Case {
                func,
                heap: heap.clone(),
                args: args.clone(),
            };
            let forms = fused(&lower(&case.func).unwrap());
            if passes {
                assert_eq!(forms, *pinned, "{}", case.func.name);
            } else {
                assert!(forms[0] > 0, "{}", case.func.name);
            }
            let (done, steps) = sweep(&case);
            assert_ne!(done.heap, case.heap, "{}: the call writes", case.func.name);
            assert_eq!(done.region_attempts, 1);
            // The passes change how the region is executed, not what it does.
            let after = (done.result, done.heap);
            assert_eq!(*before.get_or_insert(after.clone()), after);
            assert!(steps >= 5, "{}: {steps} budgets swept", case.func.name);
        }
    }
}

#[test]
fn every_lowering_shape_accounts_alike_under_every_step_budget() {
    let shape = |src: &str, heap: &[i64]| Case {
        func: parse_function(src).expect("shape parses"),
        heap: heap.to_vec(),
        args: (0..heap.len()).map(Cell).collect(),
    };

    // `Cmp` + `JumpIf`, fused, in a loop whose latch (`add` + `br`) is a
    // jump fold landing on it: the latch runs it in its own dispatch.
    let cmp_jump = shape(
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
    );
    assert_eq!(fused(&lower(&cmp_jump.func).unwrap()), [1, 0, 1, 1]);
    let (done, steps) = sweep(&cmp_jump);
    assert_eq!((done.result, &done.heap[..]), (Ok(Some(3)), &[8][..]));
    assert_eq!((done.tm_calls, steps), (6, 3 + 3 * 7 + 2 + 2));

    // `TmCmpVal` + `JumpIf`, fused; the compare's result read again after
    // the branch.
    let tmcmp_jump = shape(
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
    );
    assert_eq!(fused(&lower(&tmcmp_jump.func).unwrap()), [1, 0, 0, 0]);
    let (done, _) = sweep(&tmcmp_jump);
    assert_eq!((done.result, &done.heap[..]), (Ok(Some(1)), &[4, 11][..]));
    assert_eq!(done.tm_calls, 3);

    // Compares that must not fuse: the branch tests another register
    // than the compare before it defines; `_ITM_S2R`.
    let unfused = shape(
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
    );
    assert_eq!(fused(&lower(&unfused.func).unwrap()), [0; 4]);
    let (done, _) = sweep(&unfused);
    assert_eq!((done.result, &done.heap[..]), (Ok(Some(0)), &[5, 8][..]));
    assert_eq!(done.tm_calls, 4);

    // One immediate used twice (one pool slot), a `JumpIf` that opens its
    // block (the compare before it ends the previous one), and a branch
    // on an immediate.
    let pool = shape(
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
    );
    let lowered = lower(&pool.func).unwrap();
    assert_eq!((fused(&lowered), lowered.consts()), ([0; 4], &[7, 19][..]));
    let (done, _) = sweep(&pool);
    assert_eq!((done.result, &done.heap[..]), (Ok(Some(19)), &[5, 19][..]));

    // Outside any region: a fused compare whose barrier is a plain heap
    // read, and no dispatch counted.
    let outside = shape(
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
    );
    assert_eq!(fused(&lower(&outside.func).unwrap()), [1, 0, 0, 0]);
    let (done, steps) = sweep(&outside);
    assert_eq!((done.result, &done.heap[..]), (Ok(Some(0)), &[8][..]));
    assert_eq!((done.tm_calls, done.region_attempts, steps), (0, 0, 15));

    // Address fold: the `add` whose sum the compare-and-branch after it
    // reads as its address, in a loop over the four cells (`r0` is the
    // first); the sum is read again after it.
    let addr_fold = shape(
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
    );
    assert_eq!(fused(&lower(&addr_fold.func).unwrap()), [2, 1, 0, 0]);
    let (done, steps) = sweep(&addr_fold);
    assert_eq!(
        (done.result, &done.heap[..]),
        (Ok(Some(3)), &[2, 0, 4, 0][..])
    );
    assert_eq!((done.tm_calls, steps), (6, 3 + 4 * 6 + 2 * 2 + 3));
    // The budget runs out inside the fused op: after its `add` (step 4),
    // and after its barrier (step 5) but before its branch.
    stops_at(&addr_fold, 4, 0);
    stops_at(&addr_fold, 5, 1);

    // Near misses of the address fold: an `add` whose sum is not the
    // address; a `sub`; an `add` before a compare that does not branch.
    let addr_misses = shape(
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
    );
    assert_eq!(fused(&lower(&addr_misses.func).unwrap()), [2, 0, 0, 0]);
    let (done, _) = sweep(&addr_misses);
    assert_eq!((done.result, &done.heap[..]), (Ok(Some(2)), &[5, 3][..]));
    assert_eq!(done.tm_calls, 4);

    // Jump folds that land on something other than a `CmpJump` — a
    // barrier compare-and-branch, a compare that does not branch — so
    // they charge two steps and dispatch their target; and near misses:
    // a `mov` before a `br`, a `Bin` before a `condbr`.
    let jump_folds = shape(
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
    );
    assert_eq!(fused(&lower(&jump_folds.func).unwrap()), [1, 0, 2, 0]);
    let (done, steps) = sweep(&jump_folds);
    assert_eq!((done.result, &done.heap[..]), (Ok(Some(6)), &[3][..]));
    assert_eq!((done.tm_calls, steps), (7, 4 + 3 * 5 + 2 + 2 + 3 + 2));
}
