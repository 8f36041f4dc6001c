//! End-to-end tests of the compiler substrate: parse → passes →
//! transactional execution, plus property tests that the passes are
//! semantics-preserving on arbitrary straight-line transactional
//! programs. Each program runs through the differential oracle's
//! [`check_scenario`]: as written and passed, tree-walked and lowered,
//! on every algorithm, against its expected outcome. The property tier
//! runs deterministically (seeded `SplitMix64`).

use semtm::core::util::SplitMix64;
use semtm::ir::ir::{BinOp, Block, Function, Inst, Operand};
use semtm::ir::programs::{Call, Scenario, Value::Cell, Value::Int};
use semtm::ir::{check_scenario, parse_function, run_tm_passes};

#[test]
fn parse_pass_execute_roundtrip() {
    // A queue-dequeue-flavoured kernel: the address-address emptiness
    // check and the cursor bump both get discovered by tm_mark.
    let src = r"
; dequeue(head_addr, tail_addr, buf_base, mask) -> item or -1
func dequeue(4) {
entry:
  tmbegin
  r4 = tmload r0
  r5 = tmload r1
  r6 = cmp.eq r4, r5
  condbr r6, empty, take
take:
  r7 = tmload r0
  r8 = and r7, r3
  r9 = add r2, r8
  r10 = tmload r9
  r11 = tmload r0
  r12 = add r11, 1
  tmstore r0, r12
  tmend
  ret r10
empty:
  tmend
  ret -1
}
";
    let f = parse_function(src).unwrap();
    // Head at 0, tail at 2, a four-slot buffer holding 70 and 71.
    let call = |ret| Call::new(vec![Cell(0), Cell(1), Cell(2), Int(3)], Int(ret));
    let scenario = Scenario {
        image: vec![0, 2, 70, 71, 0, 0],
        calls: vec![call(70), call(71), call(-1)],
        heap: vec![2, 2, 70, 71, 0, 0],
    };
    let (report, _) = check_scenario(&f, &scenario).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.s2r, 1, "head/tail emptiness check becomes _ITM_S2R");
    assert_eq!(report.sw, 1, "cursor bump becomes _ITM_SW");
}

/// Build a straight-line transactional function from a random op list:
/// loads into fresh registers, stores/arithmetic over them, comparisons
/// — exactly the pattern soup tm_mark has to be conservative about.
#[derive(Clone, Debug)]
enum SOp {
    Load(usize),
    StoreImm(usize, i64),
    StoreLoadPlus(usize, i64),         // *a = *a + k  (inc pattern)
    StoreLoadMinus(usize, i64),        // *a = *a - k  (dec pattern)
    StoreCrossPlus(usize, usize, i64), // *a = *b + k (NOT an inc)
    CmpImm(usize, i64),
}

const CELLS: usize = 3;

fn random_sop(rng: &mut SplitMix64) -> SOp {
    let c = rng.index(CELLS);
    let k = rng.below(18) as i64 - 9;
    match rng.below(6) {
        0 => SOp::Load(c),
        1 => SOp::StoreImm(c, k),
        2 => SOp::StoreLoadPlus(c, k),
        3 => SOp::StoreLoadMinus(c, k),
        4 => SOp::StoreCrossPlus(c, rng.index(CELLS), k),
        _ => SOp::CmpImm(c, k),
    }
}

fn build_function(ops: &[SOp]) -> Function {
    // args r0..r2 are the three cell addresses; results accumulate into
    // a sum register so nothing is trivially dead unless intended.
    let mut insts = vec![Inst::TmBegin];
    let mut next = CELLS as u32;
    let mut fresh = || {
        let r = next;
        next += 1;
        r
    };
    let acc = fresh();
    insts.push(Inst::Mov {
        dst: acc,
        src: Operand::Imm(0),
    });
    for op in ops {
        match *op {
            SOp::Load(c) => {
                let r = fresh();
                insts.push(Inst::TmLoad {
                    dst: r,
                    addr: Operand::Reg(c as u32),
                });
                insts.push(Inst::Bin {
                    op: BinOp::Add,
                    dst: acc,
                    a: Operand::Reg(acc),
                    b: Operand::Reg(r),
                });
            }
            SOp::StoreImm(c, k) => insts.push(Inst::TmStore {
                addr: Operand::Reg(c as u32),
                val: Operand::Imm(k),
            }),
            SOp::StoreLoadPlus(c, k) | SOp::StoreLoadMinus(c, k) => {
                let r = fresh();
                let sum = fresh();
                insts.push(Inst::TmLoad {
                    dst: r,
                    addr: Operand::Reg(c as u32),
                });
                insts.push(Inst::Bin {
                    op: if matches!(op, SOp::StoreLoadPlus(..)) {
                        BinOp::Add
                    } else {
                        BinOp::Sub
                    },
                    dst: sum,
                    a: Operand::Reg(r),
                    b: Operand::Imm(k),
                });
                insts.push(Inst::TmStore {
                    addr: Operand::Reg(c as u32),
                    val: Operand::Reg(sum),
                });
            }
            SOp::StoreCrossPlus(a, b, k) => {
                let r = fresh();
                let sum = fresh();
                insts.push(Inst::TmLoad {
                    dst: r,
                    addr: Operand::Reg(b as u32),
                });
                insts.push(Inst::Bin {
                    op: BinOp::Add,
                    dst: sum,
                    a: Operand::Reg(r),
                    b: Operand::Imm(k),
                });
                insts.push(Inst::TmStore {
                    addr: Operand::Reg(a as u32),
                    val: Operand::Reg(sum),
                });
            }
            SOp::CmpImm(c, k) => {
                let r = fresh();
                let flag = fresh();
                insts.push(Inst::TmLoad {
                    dst: r,
                    addr: Operand::Reg(c as u32),
                });
                insts.push(Inst::Cmp {
                    op: semtm::CmpOp::Gt,
                    dst: flag,
                    a: Operand::Reg(r),
                    b: Operand::Imm(k),
                });
                insts.push(Inst::Bin {
                    op: BinOp::Add,
                    dst: acc,
                    a: Operand::Reg(acc),
                    b: Operand::Reg(flag),
                });
            }
        }
    }
    insts.push(Inst::TmEnd);
    insts.push(Inst::Ret {
        val: Some(Operand::Reg(acc)),
    });
    let f = Function {
        name: "prop".into(),
        num_args: CELLS as u32,
        num_regs: next,
        blocks: vec![Block {
            label: "entry".into(),
            insts,
        }],
    };
    f.validate().expect("generated IR is valid");
    f
}

/// What `ops` compute from `cells`: the sum `build_function` returns,
/// and the final cells.
fn model(ops: &[SOp], mut cells: [i64; CELLS]) -> (i64, [i64; CELLS]) {
    let mut acc = 0;
    for op in ops {
        match *op {
            SOp::Load(c) => acc += cells[c],
            SOp::StoreImm(c, k) => cells[c] = k,
            SOp::StoreLoadPlus(c, k) => cells[c] += k,
            SOp::StoreLoadMinus(c, k) => cells[c] -= k,
            SOp::StoreCrossPlus(a, b, k) => cells[a] = cells[b] + k,
            SOp::CmpImm(c, k) => acc += i64::from(cells[c] > k),
        }
    }
    (acc, cells)
}

/// tm_mark + tm_optimize never change observable behaviour: the program
/// as written and passed, tree-walked and lowered, returns what the
/// model computes and leaves the cells it computes, on every algorithm,
/// and its tree and lowered forms issue the same barrier calls.
#[test]
fn passes_preserve_semantics_deterministic() {
    let mut rng = SplitMix64::new(0x1AC5);
    for _ in 0..48 {
        let init: [i64; CELLS] = std::array::from_fn(|_| rng.below(40) as i64 - 20);
        let ops: Vec<SOp> = (0..1 + rng.index(24))
            .map(|_| random_sop(&mut rng))
            .collect();
        let (ret, heap) = model(&ops, init);
        let scenario = Scenario {
            image: init.to_vec(),
            calls: vec![Call::new((0..CELLS).map(Cell).collect(), Int(ret))],
            heap: heap.to_vec(),
        };
        check_scenario(&build_function(&ops), &scenario).unwrap_or_else(|e| panic!("{ops:?}: {e}"));
    }
}

/// The passes never *increase* the barrier count.
#[test]
fn passes_never_add_barriers_deterministic() {
    let mut rng = SplitMix64::new(0xBA44);
    for _ in 0..48 {
        let ops: Vec<SOp> = (0..1 + rng.index(24))
            .map(|_| random_sop(&mut rng))
            .collect();
        let plain = build_function(&ops);
        let mut passed = plain.clone();
        run_tm_passes(&mut passed);
        assert!(passed.barrier_count() <= plain.barrier_count());
    }
}
