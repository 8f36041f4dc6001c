//! The GIMPLE-like intermediate representation.
//!
//! GCC's `tm_mark` pass (paper §6) works on GIMPLE: a language- and
//! target-independent, three-operand, basic-block representation in
//! which transactional statements appear as explicit barrier calls. This
//! module models the slice of GIMPLE the paper's passes touch:
//!
//! * register-based three-operand instructions grouped into labelled
//!   basic blocks;
//! * explicit transactional barriers `TmLoad`/`TmStore` inside
//!   `TmBegin`/`TmEnd` regions (the `_transaction_atomic` lowering);
//! * the three semantic builtins of the paper's Table 2 —
//!   [`Inst::TmCmpVal`] (`_ITM_S1R`), [`Inst::TmCmpAddr`] (`_ITM_S2R`)
//!   and [`Inst::TmInc`] (`_ITM_SW`) — which only the passes introduce.
//!
//! Unlike real GIMPLE we use mutable registers rather than SSA; the
//! pattern matcher compensates by tracking whole-function *reaching
//! definitions* (see [`crate::analysis`]), so the paper's patterns are
//! found even when the load and its use straddle basic blocks.

use semtm_core::CmpOp;

/// A virtual register index.
pub type Reg = u32;

/// A basic-block index within a [`Function`].
pub type BlockId = usize;

/// An instruction operand: register or immediate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// Register value.
    Reg(Reg),
    /// Immediate constant.
    Imm(i64),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }
}

/// Three-operand arithmetic/logic operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (0 divisor yields 0, keeping the interpreter total).
    Div,
    /// Remainder (0 divisor yields 0).
    Mod,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
}

impl BinOp {
    /// Evaluate the operator.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Mod => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
        }
    }
}

/// One IR instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Inst {
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `dst = a <op> b`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = (a <relation> b)` as 0/1.
    Cmp {
        /// Relation.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst = !src` (logical, 0/1).
    Not {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Transactional load: `dst = *addr`. Outside an atomic region this
    /// degrades to a direct heap load.
    TmLoad {
        /// Destination register.
        dst: Reg,
        /// Heap word index.
        addr: Operand,
    },
    /// Transactional store `*addr = val`.
    TmStore {
        /// Heap word index.
        addr: Operand,
        /// Stored value.
        val: Operand,
    },
    /// Semantic builtin `_ITM_S1R`: `dst = (*addr <relation> val)`.
    TmCmpVal {
        /// Relation.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Heap word index (left side).
        addr: Operand,
        /// Constant/local right side.
        val: Operand,
    },
    /// Semantic builtin `_ITM_S2R`: `dst = (*a <relation> *b)`.
    TmCmpAddr {
        /// Relation.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left heap word index.
        a: Operand,
        /// Right heap word index.
        b: Operand,
    },
    /// Semantic builtin `_ITM_SW`: `*addr += delta` (or `-=` when
    /// `negate`).
    TmInc {
        /// Heap word index.
        addr: Operand,
        /// Delta operand.
        delta: Operand,
        /// Subtract instead of add.
        negate: bool,
    },
    /// Unconditional branch.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch on `cond != 0`.
    CondBr {
        /// Condition operand.
        cond: Operand,
        /// Block when nonzero.
        then_to: BlockId,
        /// Block when zero.
        else_to: BlockId,
    },
    /// Return from the function.
    Ret {
        /// Optional return value.
        val: Option<Operand>,
    },
    /// Open an atomic region (`_transaction_atomic {`).
    TmBegin,
    /// Close the innermost atomic region.
    TmEnd,
}

impl Inst {
    /// The register this instruction defines, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Not { dst, .. }
            | Inst::TmLoad { dst, .. }
            | Inst::TmCmpVal { dst, .. }
            | Inst::TmCmpAddr { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Registers this instruction uses.
    pub fn uses(&self, out: &mut Vec<Reg>) {
        let push = |o: Operand, out: &mut Vec<Reg>| {
            if let Operand::Reg(r) = o {
                out.push(r);
            }
        };
        match *self {
            Inst::Mov { src, .. } | Inst::Not { src, .. } => push(src, out),
            Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => {
                push(a, out);
                push(b, out);
            }
            Inst::TmLoad { addr, .. } => push(addr, out),
            Inst::TmStore { addr, val } => {
                push(addr, out);
                push(val, out);
            }
            Inst::TmCmpVal { addr, val, .. } => {
                push(addr, out);
                push(val, out);
            }
            Inst::TmCmpAddr { a, b, .. } => {
                push(a, out);
                push(b, out);
            }
            Inst::TmInc { addr, delta, .. } => {
                push(addr, out);
                push(delta, out);
            }
            Inst::CondBr { cond, .. } => push(cond, out),
            Inst::Ret { val: Some(v) } => push(v, out),
            Inst::Br { .. } | Inst::Ret { val: None } | Inst::TmBegin | Inst::TmEnd => {}
        }
    }

    /// Whether this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::CondBr { .. } | Inst::Ret { .. }
        )
    }
}

/// A labelled basic block.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Human-readable label (used by the parser and printer).
    pub label: String,
    /// Straight-line instructions; the last one should be a terminator.
    pub insts: Vec<Inst>,
}

impl Block {
    /// Successor block ids of this block's terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self.insts.last() {
            Some(Inst::Br { target }) => vec![*target],
            Some(Inst::CondBr {
                then_to, else_to, ..
            }) => vec![*then_to, *else_to],
            _ => vec![],
        }
    }
}

/// A function: arguments land in registers `0..num_args`.
#[derive(Clone, Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Number of arguments (pre-loaded into the low registers).
    pub num_args: u32,
    /// Total registers used.
    pub num_regs: u32,
    /// Basic blocks; entry is block 0.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Structural sanity checks: branch targets exist, every block ends
    /// in a terminator (and terminators appear nowhere else), registers
    /// are within bounds, and the argument count fits the register
    /// count. Path-sensitive properties — definite assignment and
    /// atomic-region balance — are the strict verifier's job
    /// ([`crate::analysis::verify()`]), which also runs these checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.blocks.is_empty() {
            return Err(format!("{}: no blocks", self.name));
        }
        if self.num_args > self.num_regs {
            return Err(format!(
                "{}: {} arguments do not fit in {} registers",
                self.name, self.num_args, self.num_regs
            ));
        }
        for (bi, b) in self.blocks.iter().enumerate() {
            match b.insts.last() {
                Some(t) if t.is_terminator() => {}
                _ => return Err(format!("{}: block {bi} lacks a terminator", self.name)),
            }
            for (ii, inst) in b.insts.iter().enumerate() {
                if inst.is_terminator() && ii + 1 != b.insts.len() {
                    return Err(format!(
                        "{}: block {bi} has a terminator mid-block at {ii}",
                        self.name
                    ));
                }
                if let Some(d) = inst.def() {
                    if d >= self.num_regs {
                        return Err(format!("{}: register r{d} out of bounds", self.name));
                    }
                }
                let mut used = Vec::new();
                inst.uses(&mut used);
                for r in used {
                    if r >= self.num_regs {
                        return Err(format!("{}: register r{r} out of bounds", self.name));
                    }
                }
            }
            for s in b.successors() {
                if s >= self.blocks.len() {
                    return Err(format!("{}: branch to missing block {s}", self.name));
                }
            }
        }
        Ok(())
    }

    /// Count instructions matching `pred` (used by tests and the
    /// pass-effect reports).
    pub fn count_insts(&self, pred: impl Fn(&Inst) -> bool) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| pred(i))
            .count()
    }

    /// Total number of *transactional barrier calls* the function would
    /// issue per straight-line execution of each instruction once: the
    /// metric behind the paper's "reduce the number of TM calls from two
    /// to one" argument.
    pub fn barrier_count(&self) -> usize {
        self.count_insts(|i| {
            matches!(
                i,
                Inst::TmLoad { .. }
                    | Inst::TmStore { .. }
                    | Inst::TmCmpVal { .. }
                    | Inst::TmCmpAddr { .. }
                    | Inst::TmInc { .. }
            )
        })
    }
}

impl std::fmt::Display for Function {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "func {}({}) {{", self.name, self.num_args)?;
        for b in &self.blocks {
            writeln!(f, "{}:", b.label)?;
            for i in &b.insts {
                writeln!(f, "  {}", display_inst(i, self))?;
            }
        }
        writeln!(f, "}}")
    }
}

fn display_operand(o: Operand) -> String {
    match o {
        Operand::Reg(r) => format!("r{r}"),
        Operand::Imm(v) => v.to_string(),
    }
}

fn display_inst(i: &Inst, func: &Function) -> String {
    let lbl = |b: BlockId| func.blocks[b].label.clone();
    match i {
        Inst::Mov { dst, src } => format!("r{dst} = mov {}", display_operand(*src)),
        Inst::Bin { op, dst, a, b } => format!(
            "r{dst} = {} {}, {}",
            format!("{op:?}").to_lowercase(),
            display_operand(*a),
            display_operand(*b)
        ),
        Inst::Cmp { op, dst, a, b } => format!(
            "r{dst} = cmp.{} {}, {}",
            op.mnemonic(),
            display_operand(*a),
            display_operand(*b)
        ),
        Inst::Not { dst, src } => format!("r{dst} = not {}", display_operand(*src)),
        Inst::TmLoad { dst, addr } => format!("r{dst} = tmload {}", display_operand(*addr)),
        Inst::TmStore { addr, val } => format!(
            "tmstore {}, {}",
            display_operand(*addr),
            display_operand(*val)
        ),
        Inst::TmCmpVal { op, dst, addr, val } => format!(
            "r{dst} = tmcmp.{} {}, {}    ; _ITM_S1R",
            op.mnemonic(),
            display_operand(*addr),
            display_operand(*val)
        ),
        Inst::TmCmpAddr { op, dst, a, b } => format!(
            "r{dst} = tmcmp2.{} {}, {}    ; _ITM_S2R",
            op.mnemonic(),
            display_operand(*a),
            display_operand(*b)
        ),
        Inst::TmInc {
            addr,
            delta,
            negate,
        } => format!(
            "{} {}, {}    ; _ITM_SW",
            if *negate { "tmdec" } else { "tminc" },
            display_operand(*addr),
            display_operand(*delta)
        ),
        Inst::Br { target } => format!("br {}", lbl(*target)),
        Inst::CondBr {
            cond,
            then_to,
            else_to,
        } => format!(
            "condbr {}, {}, {}",
            display_operand(*cond),
            lbl(*then_to),
            lbl(*else_to)
        ),
        Inst::Ret { val } => match val {
            Some(v) => format!("ret {}", display_operand(*v)),
            None => "ret".to_string(),
        },
        Inst::TmBegin => "tmbegin".to_string(),
        Inst::TmEnd => "tmend".to_string(),
    }
}

/// Convenience builder for constructing functions in Rust code.
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
}

impl FunctionBuilder {
    /// Start building `name` with `num_args` arguments; creates the
    /// entry block.
    pub fn new(name: &str, num_args: u32) -> FunctionBuilder {
        FunctionBuilder {
            func: Function {
                name: name.to_string(),
                num_args,
                num_regs: num_args,
                blocks: vec![Block {
                    label: "entry".into(),
                    insts: Vec::new(),
                }],
            },
            current: 0,
        }
    }

    /// Allocate a fresh register.
    pub fn reg(&mut self) -> Reg {
        let r = self.func.num_regs;
        self.func.num_regs += 1;
        r
    }

    /// Create a new (empty) block and return its id.
    pub fn block(&mut self, label: &str) -> BlockId {
        self.func.blocks.push(Block {
            label: label.to_string(),
            insts: Vec::new(),
        });
        self.func.blocks.len() - 1
    }

    /// Switch the insertion point.
    pub fn switch_to(&mut self, b: BlockId) {
        self.current = b;
    }

    /// Append an instruction to the current block.
    pub fn push(&mut self, inst: Inst) {
        self.func.blocks[self.current].insts.push(inst);
    }

    /// Finish building. In debug builds the function is validated and an
    /// invalid one panics; release builds skip the check (the strict
    /// verifier still runs around every pass).
    pub fn build(self) -> Function {
        #[cfg(debug_assertions)]
        self.func
            .validate()
            .unwrap_or_else(|e| panic!("invalid IR: {e}"));
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial() -> Function {
        let mut b = FunctionBuilder::new("t", 1);
        let r = b.reg();
        b.push(Inst::Mov {
            dst: r,
            src: Operand::Imm(7),
        });
        b.push(Inst::Ret {
            val: Some(Operand::Reg(r)),
        });
        b.build()
    }

    #[test]
    fn builder_produces_valid_function() {
        let f = trivial();
        assert_eq!(f.num_regs, 2);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn def_use_extraction() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: 3,
            a: Operand::Reg(1),
            b: Operand::Imm(4),
        };
        assert_eq!(i.def(), Some(3));
        let mut u = Vec::new();
        i.uses(&mut u);
        assert_eq!(u, vec![1]);
    }

    #[test]
    fn validation_rejects_missing_terminator() {
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
        assert!(f.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_branch_target() {
        let f = Function {
            name: "bad".into(),
            num_args: 0,
            num_regs: 0,
            blocks: vec![Block {
                label: "entry".into(),
                insts: vec![Inst::Br { target: 9 }],
            }],
        };
        assert!(f.validate().is_err());
    }

    #[test]
    fn validation_rejects_args_exceeding_registers() {
        let f = Function {
            name: "bad".into(),
            num_args: 3,
            num_regs: 1,
            blocks: vec![Block {
                label: "entry".into(),
                insts: vec![Inst::Ret { val: None }],
            }],
        };
        let e = f.validate().unwrap_err();
        assert!(e.contains("do not fit"), "{e}");
    }

    #[test]
    fn binop_eval_total_on_zero_divisor() {
        assert_eq!(BinOp::Div.eval(5, 0), 0);
        assert_eq!(BinOp::Mod.eval(5, 0), 0);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
    }

    #[test]
    fn display_roundtrips_mnemonics() {
        let f = trivial();
        let s = f.to_string();
        assert!(s.contains("func t(1)"));
        assert!(s.contains("ret r1"));
    }
}
