//! End-to-end tests of the compiler substrate: parse → passes →
//! transactional execution, plus property tests that the passes are
//! semantics-preserving on arbitrary straight-line transactional
//! programs. The property tier runs deterministically (seeded
//! `SplitMix64`).

use semtm::core::util::SplitMix64;
use semtm::ir::ir::{BinOp, Block, Function, Inst, Operand};
use semtm::ir::{parse_function, run_tm_passes, Interp};
use semtm::{Algorithm, Stm, StmConfig};

fn stm(alg: Algorithm) -> Stm {
    Stm::new(StmConfig::new(alg).heap_words(1 << 10).orec_count(256))
}

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
    let mut f = parse_function(src).unwrap();
    let report = run_tm_passes(&mut f);
    assert_eq!(report.s2r, 1, "head/tail emptiness check becomes _ITM_S2R");
    assert_eq!(report.sw, 1, "cursor bump becomes _ITM_SW");

    for alg in Algorithm::ALL {
        let s = stm(alg);
        let head = s.alloc_cell(0i64);
        let tail = s.alloc_cell(2i64);
        let buf = s.alloc_array(4, 0i64);
        s.write_now(buf.offset(0), 70);
        s.write_now(buf.offset(1), 71);
        let interp = Interp::new(&s);
        let args = vec![
            head.index() as i64,
            tail.index() as i64,
            buf.index() as i64,
            3,
        ];
        assert_eq!(interp.execute(&f, &args).unwrap(), Some(70), "{alg}");
        assert_eq!(interp.execute(&f, &args).unwrap(), Some(71), "{alg}");
        assert_eq!(interp.execute(&f, &args).unwrap(), Some(-1), "{alg}: empty");
        assert_eq!(s.read_now(head), 2, "{alg}");
    }
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

fn run_program(f: &Function, init: [i64; CELLS], alg: Algorithm) -> (Option<i64>, Vec<i64>) {
    let s = stm(alg);
    let cells: Vec<_> = init.iter().map(|&v| s.alloc_cell(v)).collect();
    let args: Vec<i64> = cells.iter().map(|a| a.index() as i64).collect();
    let interp = Interp::new(&s);
    let ret = interp.execute(f, &args).expect("program executes");
    let finals = cells.iter().map(|a| s.read_now(*a)).collect();
    (ret, finals)
}

/// tm_mark + tm_optimize never change observable behaviour: same
/// return value, same final memory, on both the delegating and the
/// semantic algorithm.
#[test]
fn passes_preserve_semantics_deterministic() {
    let mut rng = SplitMix64::new(0x1AC5);
    for _ in 0..48 {
        let init: [i64; CELLS] = std::array::from_fn(|_| rng.below(40) as i64 - 20);
        let ops: Vec<SOp> = (0..1 + rng.index(24))
            .map(|_| random_sop(&mut rng))
            .collect();
        let plain = build_function(&ops);
        let mut passed = plain.clone();
        run_tm_passes(&mut passed);
        let baseline = run_program(&plain, init, Algorithm::NOrec);
        for alg in Algorithm::ALL {
            assert_eq!(run_program(&plain, init, alg), baseline, "{alg}: plain");
            assert_eq!(run_program(&passed, init, alg), baseline, "{alg}: passed");
        }
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
