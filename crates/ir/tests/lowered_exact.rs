//! The lowered form's accounting is exactly the tree walker's.
//!
//! Lowering resolves operands to slots and fuses a compare with the
//! branch on its result, but a fused op must charge the steps of the two
//! ops it replaces with the barrier between them. So for every shipped
//! program (passes off and on) and for hand-written functions holding
//! each shape the lowering treats specially, this runs both forms under
//! **every** step budget from 0 up to the steps the call needs and
//! demands the same `Result`, the same heap, the same `tm_calls` and the
//! same `region_attempts` — including the budgets that run out between a
//! fused compare and its branch.

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

fn fused(l: &LoweredFunction) -> usize {
    l.ops()
        .iter()
        .filter(|op| matches!(op, Op::CmpJump { .. } | Op::TmCmpValJump { .. }))
        .count()
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
    let setups: [(&str, Vec<i64>, Vec<Arg>); 5] = [
        (
            "ht_op",
            table,
            vec![Cell(0), Cell(16), Val(15), Val(7), Val(1)],
        ),
        ("vac_reserve", offers, vec![Cell(0), Val(4)]),
        (
            "bank_transfer",
            vec![10, 10],
            vec![Cell(0), Cell(1), Val(3)],
        ),
        ("cross_block_guard", vec![0, 0], vec![Cell(0), Cell(1)]),
        ("range_gate", vec![60, 0], vec![Cell(0), Cell(1)]),
    ];
    let shipped = programs::all();
    assert_eq!(shipped.len(), setups.len(), "a setup for every program");
    for (_, func) in shipped {
        let (_, heap, args) = setups
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
            assert!(fused(&lower(&case.func).unwrap()) > 0, "{}", case.func.name);
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

    // `Cmp` + `JumpIf`, fused, in a loop.
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
    assert_eq!(fused(&lower(&cmp_jump.func).unwrap()), 1);
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
    assert_eq!(fused(&lower(&tmcmp_jump.func).unwrap()), 1);
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
    assert_eq!(fused(&lower(&unfused.func).unwrap()), 0);
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
    assert_eq!((fused(&lowered), lowered.consts()), (0, &[7, 19][..]));
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
    assert_eq!(fused(&lower(&outside.func).unwrap()), 1);
    let (done, steps) = sweep(&outside);
    assert_eq!((done.result, &done.heap[..]), (Ok(Some(0)), &[8][..]));
    assert_eq!((done.tm_calls, done.region_attempts, steps), (0, 0, 15));
}
