//! Slot-indexed flat lowering of [`Function`]s.
//!
//! The tree-walking interpreter ([`crate::interp::Interp::execute`])
//! pays a structural tax on every instruction: a nested
//! `blocks[block].insts[idx]` lookup (two bounds checks and a pointer
//! chase), an end-of-block test, an `Operand::{Reg,Imm}` decode per
//! operand, and a branch resets both coordinates. GCC-compiled code pays
//! none of that — it is a flat instruction stream with branch targets
//! resolved to absolute addresses and constants materialised where the
//! instruction expects them. This module closes that fidelity gap for
//! the Figure-2 "GCC mode" experiments:
//!
//! * [`lower`] flattens a validated function into a single pc-indexed
//!   [`Op`] array, concatenating the blocks in order and rewriting every
//!   `Br`/`CondBr` block target into an absolute pc;
//! * every operand becomes a *frame slot* ([`Slot`]): register `r` is
//!   slot `r`, and each distinct immediate gets one slot of a
//!   per-function constant pool laid out behind the registers
//!   ([`LoweredFunction::consts`]) — so an op reads its operands with one
//!   indexed load each and carries no [`Operand`];
//! * a `Cmp` / `TmCmpVal` whose result the next instruction branches on
//!   becomes one compare-and-branch op ([`Op::CmpJump`] /
//!   [`Op::TmCmpValJump`]) **at the compare's pc**. Nothing moves: the
//!   `JumpIf` stays behind it (a block never starts there, so only the
//!   fused op would have reached it), and `len()` still equals the
//!   instruction count;
//! * a peephole at the end builds two superinstructions by the same
//!   rule: an `add` whose sum is the address of the `TmCmpValJump`
//!   after it ([`Op::AddTmCmpValJump`], the *address fold*), and a `Bin`
//!   followed by a `Br` ([`Op::BinJump`], the *jump fold* — a loop
//!   latch, which also runs the loop header's `CmpJump` when it lands on
//!   one).
//!
//! **Fusion invariant.** A fused op charges the steps of the ops it
//! replaces, in order, with each barrier between the same two steps: a
//! compare-and-branch charges one step, the compare (and its barrier
//! call), the second step, the branch. Step budgets, `StepLimit`
//! outcomes and barrier counts are therefore exactly the tree walker's,
//! whatever the budget.
//!
//! Lowering is otherwise purely structural: the instruction sequence
//! executed, the TM barriers issued, and therefore the dispatch counters
//! are identical to the tree-walker's, which the differential oracle
//! ([`crate::oracle`]) checks on every backend. Lowering requires a
//! function that passes [`Function::validate`]; in a valid function
//! every block ends in a terminator, so flat execution can never fall
//! off the end of one block into the next, and every register an op
//! writes is below `num_regs`, so the constant pool is never written.

use crate::ir::{BinOp, BlockId, Function, Inst, Operand, Reg};
use semtm_core::CmpOp;
use std::collections::HashMap;

/// An index into a call's frame: a register (`< num_regs`) or a constant
/// of the pool behind the registers.
pub type Slot = u32;

/// An absolute index into the op array.
pub type Pc = u32;

/// One flat op: the [`Inst`] repertoire with operands resolved to frame
/// slots and branch targets to absolute pcs, plus the two fused
/// compare-and-branch forms and the two superinstructions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source slot.
        src: Slot,
    },
    /// `dst = a <op> b`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Slot,
        /// Right operand.
        b: Slot,
    },
    /// [`Op::Bin`] fused with the [`Op::Jump`] that follows it: two
    /// steps. When the target is an [`Op::CmpJump`] — a loop latch landing
    /// on its loop's test — that compare-and-branch runs in the same
    /// dispatch with its own two steps.
    BinJump {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Slot,
        /// Right operand.
        b: Slot,
        /// Target pc.
        pc: Pc,
    },
    /// `dst = (a <relation> b)` as 0/1.
    Cmp {
        /// Relation.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Slot,
        /// Right operand.
        b: Slot,
    },
    /// [`Op::Cmp`] fused with the [`Op::JumpIf`] on its `dst` that
    /// follows it: two steps.
    CmpJump {
        /// Relation.
        op: CmpOp,
        /// Destination register (still written: it may be read later).
        dst: Reg,
        /// Left operand.
        a: Slot,
        /// Right operand.
        b: Slot,
        /// Pc when the relation holds.
        then_pc: Pc,
        /// Pc when it does not.
        else_pc: Pc,
    },
    /// `dst = !src` (logical, 0/1).
    Not {
        /// Destination register.
        dst: Reg,
        /// Source slot.
        src: Slot,
    },
    /// Transactional load `dst = *addr`.
    TmLoad {
        /// Destination register.
        dst: Reg,
        /// Heap word index.
        addr: Slot,
    },
    /// Transactional store `*addr = val`.
    TmStore {
        /// Heap word index.
        addr: Slot,
        /// Stored value.
        val: Slot,
    },
    /// Semantic builtin `_ITM_S1R`: `dst = (*addr <relation> val)`.
    TmCmpVal {
        /// Relation.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Heap word index (left side).
        addr: Slot,
        /// Constant/local right side.
        val: Slot,
    },
    /// [`Op::TmCmpVal`] fused with the [`Op::JumpIf`] on its `dst` that
    /// follows it: two steps, the barrier call between them.
    TmCmpValJump {
        /// Relation.
        op: CmpOp,
        /// Destination register (still written: it may be read later).
        dst: Reg,
        /// Heap word index (left side).
        addr: Slot,
        /// Constant/local right side.
        val: Slot,
        /// Pc when the relation holds.
        then_pc: Pc,
        /// Pc when it does not.
        else_pc: Pc,
    },
    /// `addr = a + b` fused with the [`Op::TmCmpValJump`] on address
    /// `addr` that follows it: three steps, the barrier call between the
    /// second and the third.
    AddTmCmpValJump {
        /// The sum's register (still written), the barrier's address.
        addr: Reg,
        /// Left addend.
        a: Slot,
        /// Right addend.
        b: Slot,
        /// Relation.
        op: CmpOp,
        /// Destination register of the compare (still written).
        dst: Reg,
        /// Constant/local right side.
        val: Slot,
        /// Pc when the relation holds.
        then_pc: Pc,
        /// Pc when it does not.
        else_pc: Pc,
    },
    /// Semantic builtin `_ITM_S2R`: `dst = (*a <relation> *b)`.
    TmCmpAddr {
        /// Relation.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left heap word index.
        a: Slot,
        /// Right heap word index.
        b: Slot,
    },
    /// Semantic builtin `_ITM_SW`: `*addr += delta` (or `-=` when
    /// `negate`).
    TmInc {
        /// Heap word index.
        addr: Slot,
        /// Delta slot.
        delta: Slot,
        /// Subtract instead of add.
        negate: bool,
    },
    /// Unconditional jump to an absolute pc.
    Jump {
        /// Target pc.
        pc: Pc,
    },
    /// Conditional jump on `cond != 0`, both targets absolute pcs.
    JumpIf {
        /// Condition slot.
        cond: Slot,
        /// Pc when nonzero.
        then_pc: Pc,
        /// Pc when zero.
        else_pc: Pc,
    },
    /// Return from the function.
    Ret {
        /// Optional return value.
        val: Option<Slot>,
    },
    /// Open an atomic region.
    TmBegin,
    /// Close the innermost atomic region.
    TmEnd,
}

// An op is fetched on every step: keep it within half a cache line.
const _: () = assert!(std::mem::size_of::<Op>() <= 32);

/// A function lowered to a flat op array; produced by [`lower`], run by
/// [`crate::interp::Interp::execute_lowered`].
#[derive(Clone, Debug)]
pub struct LoweredFunction {
    /// Source function name.
    pub name: String,
    /// Number of arguments (pre-loaded into the low registers).
    pub num_args: u32,
    /// Total registers used.
    pub num_regs: u32,
    /// The flat op stream; entry is pc 0. Private so that every
    /// `LoweredFunction` went through [`lower`]'s validation.
    pub(crate) ops: Vec<Op>,
    /// The constant pool: slot `num_regs + i` reads `consts[i]`.
    pub(crate) consts: Vec<i64>,
}

impl LoweredFunction {
    /// The flat op stream.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// The constant pool, one entry per distinct immediate of the
    /// source; frame slot `num_regs + i` holds `consts()[i]`.
    pub fn consts(&self) -> &[i64] {
        &self.consts
    }

    /// Number of ops (equals the source function's instruction count).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the op stream is empty (never true for a valid source —
    /// validation requires a terminator in the entry block).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The constant pool under construction.
struct Pool {
    /// First pool slot: the function's register count.
    base: Slot,
    consts: Vec<i64>,
    slot_of: HashMap<i64, Slot>,
}

impl Pool {
    /// The frame slot `o` is read from.
    fn slot(&mut self, o: Operand) -> Slot {
        match o {
            Operand::Reg(r) => r,
            Operand::Imm(v) => *self.slot_of.entry(v).or_insert_with(|| {
                self.consts.push(v);
                self.base + (self.consts.len() - 1) as Slot
            }),
        }
    }
}

/// Flatten `func` into a [`LoweredFunction`].
///
/// Runs [`Function::validate`] first and refuses invalid input — the
/// flat representation has no block boundaries left to catch a missing
/// terminator at run time.
pub fn lower(func: &Function) -> Result<LoweredFunction, String> {
    func.validate()?;
    let mut starts = Vec::with_capacity(func.blocks.len());
    let mut len = 0usize;
    for b in &func.blocks {
        starts.push(len);
        len += b.insts.len();
    }
    // Slots and pcs are `u32`: the registers, and at most one pool slot
    // for each of an instruction's two operands.
    if u64::from(func.num_regs) + 2 * len as u64 > u64::from(u32::MAX) {
        return Err(format!("{}: too large to lower", func.name));
    }
    let pc_of = |block: BlockId| starts[block] as Pc;
    let mut pool = Pool {
        base: func.num_regs,
        consts: Vec::new(),
        slot_of: HashMap::new(),
    };
    let mut ops = Vec::with_capacity(len);
    for b in &func.blocks {
        for (i, inst) in b.insts.iter().enumerate() {
            // The branch this compare fuses with: the next instruction,
            // when it branches on the register the compare defines.
            let branch_on = |dst: Reg| match b.insts.get(i + 1) {
                Some(&Inst::CondBr {
                    cond: Operand::Reg(c),
                    then_to,
                    else_to,
                }) if c == dst => Some((pc_of(then_to), pc_of(else_to))),
                _ => None,
            };
            ops.push(match *inst {
                Inst::Mov { dst, src } => Op::Mov {
                    dst,
                    src: pool.slot(src),
                },
                Inst::Bin { op, dst, a, b } => Op::Bin {
                    op,
                    dst,
                    a: pool.slot(a),
                    b: pool.slot(b),
                },
                Inst::Cmp { op, dst, a, b } => {
                    let (a, b) = (pool.slot(a), pool.slot(b));
                    match branch_on(dst) {
                        Some((then_pc, else_pc)) => Op::CmpJump {
                            op,
                            dst,
                            a,
                            b,
                            then_pc,
                            else_pc,
                        },
                        None => Op::Cmp { op, dst, a, b },
                    }
                }
                Inst::Not { dst, src } => Op::Not {
                    dst,
                    src: pool.slot(src),
                },
                Inst::TmLoad { dst, addr } => Op::TmLoad {
                    dst,
                    addr: pool.slot(addr),
                },
                Inst::TmStore { addr, val } => Op::TmStore {
                    addr: pool.slot(addr),
                    val: pool.slot(val),
                },
                Inst::TmCmpVal { op, dst, addr, val } => {
                    let (addr, val) = (pool.slot(addr), pool.slot(val));
                    match branch_on(dst) {
                        Some((then_pc, else_pc)) => Op::TmCmpValJump {
                            op,
                            dst,
                            addr,
                            val,
                            then_pc,
                            else_pc,
                        },
                        None => Op::TmCmpVal { op, dst, addr, val },
                    }
                }
                Inst::TmCmpAddr { op, dst, a, b } => Op::TmCmpAddr {
                    op,
                    dst,
                    a: pool.slot(a),
                    b: pool.slot(b),
                },
                Inst::TmInc {
                    addr,
                    delta,
                    negate,
                } => Op::TmInc {
                    addr: pool.slot(addr),
                    delta: pool.slot(delta),
                    negate,
                },
                Inst::Br { target } => Op::Jump { pc: pc_of(target) },
                Inst::CondBr {
                    cond,
                    then_to,
                    else_to,
                } => Op::JumpIf {
                    cond: pool.slot(cond),
                    then_pc: pc_of(then_to),
                    else_pc: pc_of(else_to),
                },
                Inst::Ret { val } => Op::Ret {
                    val: val.map(|o| pool.slot(o)),
                },
                Inst::TmBegin => Op::TmBegin,
                Inst::TmEnd => Op::TmEnd,
            });
        }
    }
    fuse_superinstructions(&mut ops);
    Ok(LoweredFunction {
        name: func.name.clone(),
        num_args: func.num_args,
        num_regs: func.num_regs,
        ops,
        consts: pool.consts,
    })
}

/// The superinstruction peephole: a `Bin` becomes [`Op::AddTmCmpValJump`]
/// or [`Op::BinJump`] when the op after it completes the shape. The
/// second op stays where it is — a `Bin` never ends a block, so no branch
/// targets it and only the fused op could have reached it.
fn fuse_superinstructions(ops: &mut [Op]) {
    for pc in 1..ops.len() {
        let Op::Bin { op, dst, a, b } = ops[pc - 1] else {
            continue;
        };
        ops[pc - 1] = match ops[pc] {
            Op::TmCmpValJump {
                op: relation,
                dst: holds,
                addr,
                val,
                then_pc,
                else_pc,
            } if op == BinOp::Add && addr == dst => Op::AddTmCmpValJump {
                addr: dst,
                a,
                b,
                op: relation,
                dst: holds,
                val,
                then_pc,
                else_pc,
            },
            Op::Jump { pc: target } => Op::BinJump {
                op,
                dst,
                a,
                b,
                pc: target,
            },
            _ => continue,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Block, FunctionBuilder};

    fn loopy() -> Function {
        // entry: r1 = 0; br body
        // body:  r1 = r1 + 1; condbr (r1 < r0) body, done
        // done:  ret r1
        let mut fb = FunctionBuilder::new("loopy", 1);
        let i = fb.reg();
        let c = fb.reg();
        let body = fb.block("body");
        let done = fb.block("done");
        fb.switch_to(0);
        fb.push(Inst::Mov {
            dst: i,
            src: Operand::Imm(0),
        });
        fb.push(Inst::Br { target: body });
        fb.switch_to(body);
        fb.push(Inst::Bin {
            op: BinOp::Add,
            dst: i,
            a: Operand::Reg(i),
            b: Operand::Imm(1),
        });
        fb.push(Inst::Cmp {
            op: CmpOp::Lt,
            dst: c,
            a: Operand::Reg(i),
            b: Operand::Reg(0),
        });
        fb.push(Inst::CondBr {
            cond: Operand::Reg(c),
            then_to: body,
            else_to: done,
        });
        fb.switch_to(done);
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(i)),
        });
        fb.build()
    }

    #[test]
    fn lowering_concatenates_blocks_and_resolves_targets() {
        let f = loopy();
        let l = lower(&f).unwrap();
        assert_eq!(l.len(), 6);
        assert_eq!(l.num_regs, f.num_regs);
        // Registers r0..r2, then the pool: `0` in slot 3, `1` in slot 4.
        assert_eq!(l.consts(), [0, 1]);
        assert_eq!(l.ops()[0], Op::Mov { dst: 1, src: 3 });
        // entry starts at 0, body at 2, done at 5.
        assert_eq!(l.ops()[1], Op::Jump { pc: 2 });
        // The compare carries its branch's targets and stays at its pc...
        assert_eq!(
            l.ops()[3],
            Op::CmpJump {
                op: CmpOp::Lt,
                dst: 2,
                a: 1,
                b: 0,
                then_pc: 2, // back-edge to body
                else_pc: 5, // exit to done
            }
        );
        // ...with the branch still behind it.
        assert_eq!(
            l.ops()[4],
            Op::JumpIf {
                cond: 2,
                then_pc: 2,
                else_pc: 5,
            }
        );
        assert_eq!(l.ops()[5], Op::Ret { val: Some(1) });
    }

    #[test]
    fn lowering_resolves_barrier_operands_to_slots() {
        let mut fb = FunctionBuilder::new("b", 1);
        let v = fb.reg();
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::TmInc {
            addr: Operand::Reg(0),
            delta: Operand::Imm(3),
            negate: true,
        });
        fb.push(Inst::TmStore {
            addr: Operand::Imm(3),
            val: Operand::Imm(-3),
        });
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(v)),
        });
        let l = lower(&fb.build()).unwrap();
        assert_eq!(l.ops()[1], Op::TmLoad { dst: 1, addr: 0 });
        assert_eq!(
            l.ops()[2],
            Op::TmInc {
                addr: 0,
                delta: 2,
                negate: true,
            }
        );
        // The same immediate again reads the same pool slot.
        assert_eq!(l.ops()[3], Op::TmStore { addr: 2, val: 3 });
        assert_eq!(l.consts(), [3, -3]);
        assert_eq!(l.len(), 6);
    }

    #[test]
    fn only_a_compare_and_the_branch_on_its_result_fuse() {
        let f = crate::parser::parse_function(
            "func shapes(1) {
             entry:
               r1 = tmcmp.gt r0, 0
               condbr r1, a, b
             a:
               r2 = cmp.gt r1, 0
               r3 = cmp.lt r1, 0
               condbr r2, b, c
             b:
               r4 = tmcmp2.eq r0, r0
               condbr r4, c, c
             c:
               r5 = cmp.eq r1, 1
               br d
             d:
               condbr r5, e, e
             e:
               ret r1
             }",
        )
        .unwrap();
        let l = lower(&f).unwrap();
        assert_eq!(l.len(), 11);
        let kinds: Vec<_> = l
            .ops()
            .iter()
            .map(|op| format!("{op:?}"))
            .map(|s| s[..s.find(' ').unwrap_or(s.len())].to_string())
            .collect();
        assert_eq!(
            kinds,
            [
                "TmCmpValJump", // fused
                "JumpIf",
                "Cmp", // not the instruction before the branch
                "Cmp", // before the branch, but it tests another register
                "JumpIf",
                "TmCmpAddr", // `_ITM_S2R` does not fuse
                "JumpIf",
                "Cmp", // its branch opens the next block
                "Jump",
                "JumpIf",
                "Ret",
            ]
        );
    }

    #[test]
    fn lowering_rejects_invalid_functions() {
        let f = Function {
            name: "bad".into(),
            num_args: 0,
            num_regs: 1,
            blocks: vec![Block {
                label: "entry".into(),
                insts: vec![Inst::Mov {
                    dst: 0,
                    src: Operand::Imm(1),
                }],
            }],
        };
        let e = lower(&f).unwrap_err();
        assert!(e.contains("terminator"), "{e}");
    }
}
