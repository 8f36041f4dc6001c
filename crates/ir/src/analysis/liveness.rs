//! Whole-function backward liveness, built on the worklist solver.
//!
//! This replaces the hand-rolled fixpoint loop the seed's `tm_optimize`
//! carried inline; the pass now consumes this analysis and the solver
//! guarantees the same fixpoint. Lint rule SL005 reads the
//! per-position form ([`Liveness::live_at`]).

use super::bitset::BitSet;
use super::cfg::Cfg;
use super::reaching::Pos;
use super::solver::{solve, DataflowProblem, Direction, Solution};
use crate::ir::{BlockId, Function, Inst};

/// The registers live at a position.
pub type LiveSet = BitSet;

struct LiveProblem {
    num_regs: usize,
}

impl DataflowProblem for LiveProblem {
    type Fact = LiveSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary_fact(&self) -> LiveSet {
        BitSet::empty(self.num_regs)
    }

    fn init_fact(&self) -> LiveSet {
        BitSet::empty(self.num_regs)
    }

    fn join(&self, into: &mut LiveSet, from: &LiveSet) -> bool {
        into.union_with(from)
    }

    fn transfer(&self, inst: &Inst, _pos: Pos, fact: &mut LiveSet) {
        if let Some(d) = inst.def() {
            fact.remove(d as usize);
        }
        for r in inst.uses() {
            fact.insert(r as usize);
        }
    }
}

/// The solved liveness analysis.
pub struct Liveness {
    facts: Solution<LiveSet>,
}

impl Liveness {
    /// Solve liveness for `func`.
    pub fn compute(func: &Function, cfg: &Cfg) -> Liveness {
        let problem = LiveProblem {
            num_regs: func.num_regs as usize,
        };
        Liveness {
            facts: solve(func, cfg, &problem),
        }
    }

    /// Registers live on entry to block `b`.
    pub fn live_in(&self, b: BlockId) -> &LiveSet {
        self.facts.entry(b)
    }

    /// Registers live on exit from block `b`.
    pub fn live_out(&self, b: BlockId) -> &LiveSet {
        self.facts.exit(b)
    }

    /// Registers live just before the instruction at `pos`; the
    /// registers live after instruction `i` are those at `(b, i + 1)`.
    pub fn live_at(&self, pos: Pos) -> &LiveSet {
        self.facts.at(pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FunctionBuilder, Inst, Operand};

    #[test]
    fn cross_block_use_keeps_register_live() {
        let mut fb = FunctionBuilder::new("x", 1);
        let v = fb.reg();
        let next = fb.block("next");
        fb.switch_to(0);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Br { target: next });
        fb.switch_to(next);
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(v)),
        });
        let f = fb.build();
        let cfg = Cfg::new(&f);
        let live = Liveness::compute(&f, &cfg);
        assert!(live.live_out(0).contains(v as usize));
        assert!(live.live_in(1).contains(v as usize));
        assert!(
            live.live_in(0).contains(0),
            "the address argument is live on entry"
        );
        assert!(
            !live.live_in(0).contains(v as usize),
            "v is dead before its def"
        );
    }

    #[test]
    fn loop_carried_liveness_converges() {
        // head: cond on r1; body adds to r1 and loops back.
        let mut fb = FunctionBuilder::new("l", 1);
        let acc = fb.reg();
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.switch_to(0);
        fb.push(Inst::Mov {
            dst: acc,
            src: Operand::Imm(0),
        });
        fb.push(Inst::Br { target: head });
        fb.switch_to(head);
        fb.push(Inst::CondBr {
            cond: Operand::Reg(0),
            then_to: body,
            else_to: exit,
        });
        fb.switch_to(body);
        fb.push(Inst::Bin {
            op: crate::ir::BinOp::Add,
            dst: acc,
            a: Operand::Reg(acc),
            b: Operand::Imm(1),
        });
        fb.push(Inst::Br { target: head });
        fb.switch_to(exit);
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(acc)),
        });
        let f = fb.build();
        let cfg = Cfg::new(&f);
        let live = Liveness::compute(&f, &cfg);
        assert!(
            live.live_in(head).contains(acc as usize),
            "loop-carried accumulator"
        );
        assert!(live.live_out(body).contains(acc as usize));
    }
}
