//! Whole-function reaching definitions, built on the worklist solver.
//!
//! Every register is given a pseudo-definition at the function entry
//! (arguments arrive there; all other registers start at zero in the
//! interpreter), so the reaching set of a register at a reachable
//! position is never empty. A position's operand is *load-originated*
//! exactly when its single reaching definition is a `TmLoad` — the
//! cross-block generalisation of the paper's in-block origin tracking.

use super::bitset::BitSet;
use super::cfg::Cfg;
use super::solver::{solve, DataflowProblem, Direction, Solution};
use crate::ir::{BlockId, Function, Inst, Operand, Reg};

/// Index into [`ReachingDefs::defs`].
pub type DefId = u32;

/// A (block, instruction index) program position.
pub type Pos = (BlockId, usize);

/// Where a definition comes from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DefSite {
    /// The register's value at function entry (argument or implicit
    /// zero).
    Entry(Reg),
    /// The instruction at this position defines the register.
    Inst(BlockId, usize),
}

/// Where an operand's value ultimately comes from, after resolving
/// `mov` copy chains through unique reaching definitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ValueOrigin {
    /// A manifest immediate.
    Imm(i64),
    /// The value an argument (or implicitly-zero) register held at
    /// function entry, untouched by any real definition.
    Entry(Reg),
    /// The non-copy instruction at this position produced the value.
    Def(Pos),
    /// More than one definition reaches, or the chain left the
    /// function (no usable identity).
    Unknown,
}

/// The reaching definitions: a set over [`DefId`]s.
type Fact = BitSet;

struct RdProblem<'a> {
    num_defs: usize,
    num_regs: usize,
    /// `def_at[first_pos[b] + i]` = the `DefId` of the definition made
    /// by instruction `(b, i)`, if any.
    def_at: &'a [Option<DefId>],
    first_pos: &'a [usize],
    /// `defs_of[r]` = every definition of register `r`: what a new
    /// definition of `r` kills.
    defs_of: &'a [BitSet],
}

impl DataflowProblem for RdProblem<'_> {
    type Fact = Fact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    /// The entry pseudo-definitions, `DefId`s `0..num_regs`.
    fn boundary_fact(&self) -> Fact {
        let mut f = BitSet::empty(self.num_defs);
        f.insert_range(self.num_regs);
        f
    }

    fn init_fact(&self) -> Fact {
        BitSet::empty(self.num_defs)
    }

    fn join(&self, into: &mut Fact, from: &Fact) -> bool {
        into.union_with(from)
    }

    fn transfer(&self, inst: &Inst, (b, i): Pos, fact: &mut Fact) {
        if let Some(d) = inst.def() {
            let id = self.def_at[self.first_pos[b] + i].expect("defining instruction has a DefId");
            fact.subtract(&self.defs_of[d as usize]);
            fact.insert(id as usize);
        }
    }
}

/// The solved reaching-definitions analysis, with position-level
/// queries.
pub struct ReachingDefs {
    /// All definition sites; index with a [`DefId`]. The entry
    /// pseudo-definition of register `r` is `DefId` `r`.
    pub defs: Vec<DefSite>,
    /// `defs_of[r]` = every definition of register `r`.
    defs_of: Vec<BitSet>,
    /// The reaching set at every position.
    facts: Solution<Fact>,
}

impl ReachingDefs {
    /// Solve reaching definitions for `func`.
    pub fn compute(func: &Function, cfg: &Cfg) -> ReachingDefs {
        let num_regs = func.num_regs as usize;
        let insts = || func.blocks.iter().flat_map(|block| &block.insts);
        let num_defs = num_regs + insts().filter(|inst| inst.def().is_some()).count();
        let mut defs: Vec<DefSite> = Vec::with_capacity(num_defs);
        defs.extend((0..func.num_regs).map(DefSite::Entry));
        let mut defs_of = vec![BitSet::empty(num_defs); num_regs];
        for (r, kill) in defs_of.iter_mut().enumerate() {
            kill.insert(r);
        }
        let mut first_pos = Vec::with_capacity(func.blocks.len());
        let mut def_at = Vec::with_capacity(insts().count());
        for (b, block) in func.blocks.iter().enumerate() {
            first_pos.push(def_at.len());
            for (i, inst) in block.insts.iter().enumerate() {
                def_at.push(inst.def().map(|r| {
                    let id = defs.len();
                    defs.push(DefSite::Inst(b, i));
                    defs_of[r as usize].insert(id);
                    id as DefId
                }));
            }
        }

        let problem = RdProblem {
            num_defs,
            num_regs,
            def_at: &def_at,
            first_pos: &first_pos,
            defs_of: &defs_of,
        };
        let facts = solve(func, cfg, &problem);
        ReachingDefs {
            defs,
            defs_of,
            facts,
        }
    }

    /// The definitions of `reg` reaching the point just before
    /// position `pos`, ascending.
    pub fn reaching(&self, pos: Pos, reg: Reg) -> impl Iterator<Item = DefId> + '_ {
        self.facts
            .at(pos)
            .iter_and(&self.defs_of[reg as usize])
            .map(|id| id as DefId)
    }

    /// The single definition of `reg` reaching `pos`, if there is
    /// exactly one.
    pub fn unique_def(&self, pos: Pos, reg: Reg) -> Option<DefSite> {
        let mut reaching = self.reaching(pos, reg);
        match (reaching.next(), reaching.next()) {
            (Some(one), None) => Some(self.defs[one as usize]),
            _ => None,
        }
    }

    /// Do `a` at `pa` and `b` at `pb` denote the same value by
    /// reaching-definition identity? Immediates compare by value;
    /// registers must be the same register with identical (non-empty)
    /// reaching sets. This replaces the seed's purely syntactic
    /// `same_address` check — a register redefined between the two
    /// positions yields different reaching sets and is rejected.
    ///
    /// Note: set equality alone is not loop-proof (a definition inside
    /// a loop body can reach both positions); pattern matching pairs
    /// this with a [`super::patterns`] path scan that rejects any
    /// intervening redefinition.
    pub fn operand_identical(&self, a: Operand, pa: Pos, b: Operand, pb: Pos) -> bool {
        match (a, b) {
            (Operand::Imm(x), Operand::Imm(y)) => x == y,
            (Operand::Reg(x), Operand::Reg(y)) => {
                x == y
                    && self.reaching(pa, x).next().is_some()
                    && self.reaching(pa, x).eq(self.reaching(pb, y))
            }
            _ => false,
        }
    }

    /// Resolve `op` at `pos` to its [`ValueOrigin`], following `mov`
    /// copy chains through unique reaching definitions. Two operands
    /// with the same non-[`ValueOrigin::Unknown`] origin denote the
    /// same value even under different register names — the identity
    /// `operand_identical` cannot see (same loop caveat applies: a
    /// `Def` inside a loop body is one *site*, not one dynamic value).
    pub fn operand_origin(&self, func: &Function, mut op: Operand, mut pos: Pos) -> ValueOrigin {
        // The chain strictly follows unique defs backwards; a fuel
        // bound guards against any pathological aliasing of sites.
        for _ in 0..self.defs.len() + 1 {
            let r = match op {
                Operand::Imm(v) => return ValueOrigin::Imm(v),
                Operand::Reg(r) => r,
            };
            match self.unique_def(pos, r) {
                None => return ValueOrigin::Unknown,
                Some(DefSite::Entry(e)) => return ValueOrigin::Entry(e),
                Some(DefSite::Inst(b, i)) => match func.blocks[b].insts[i] {
                    Inst::Mov { src, .. } => {
                        op = src;
                        pos = (b, i);
                    }
                    _ => return ValueOrigin::Def((b, i)),
                },
            }
        }
        ValueOrigin::Unknown
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FunctionBuilder, Inst, Operand};

    #[test]
    fn entry_defs_reach_until_killed() {
        let mut fb = FunctionBuilder::new("f", 1);
        let r = fb.reg();
        fb.push(Inst::Mov {
            dst: r,
            src: Operand::Reg(0),
        });
        fb.push(Inst::Mov {
            dst: 0,
            src: Operand::Imm(9),
        });
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(r)),
        });
        let f = fb.build();
        let cfg = Cfg::new(&f);
        let rd = ReachingDefs::compute(&f, &cfg);
        assert_eq!(rd.unique_def((0, 0), 0), Some(DefSite::Entry(0)));
        assert_eq!(rd.unique_def((0, 2), 0), Some(DefSite::Inst(0, 1)));
        assert_eq!(rd.unique_def((0, 2), r), Some(DefSite::Inst(0, 0)));
    }

    #[test]
    fn joins_merge_definitions() {
        // r1 defined differently on two arms; the join sees both.
        let mut fb = FunctionBuilder::new("j", 1);
        let r = fb.reg();
        let t = fb.block("t");
        let e = fb.block("e");
        let j = fb.block("j");
        fb.switch_to(0);
        fb.push(Inst::CondBr {
            cond: Operand::Reg(0),
            then_to: t,
            else_to: e,
        });
        fb.switch_to(t);
        fb.push(Inst::Mov {
            dst: r,
            src: Operand::Imm(1),
        });
        fb.push(Inst::Br { target: j });
        fb.switch_to(e);
        fb.push(Inst::Mov {
            dst: r,
            src: Operand::Imm(2),
        });
        fb.push(Inst::Br { target: j });
        fb.switch_to(j);
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(r)),
        });
        let f = fb.build();
        let cfg = Cfg::new(&f);
        let rd = ReachingDefs::compute(&f, &cfg);
        assert_eq!(rd.reaching((3, 0), r).count(), 2);
        assert_eq!(rd.unique_def((3, 0), r), None);
        assert_eq!(rd.unique_def((1, 1), r), Some(DefSite::Inst(1, 0)));
    }

    #[test]
    fn operand_identity_rejects_redefinition() {
        let mut fb = FunctionBuilder::new("s", 1);
        let v = fb.reg();
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Bin {
            op: crate::ir::BinOp::Add,
            dst: 0,
            a: Operand::Reg(0),
            b: Operand::Imm(8),
        });
        fb.push(Inst::TmStore {
            addr: Operand::Reg(0),
            val: Operand::Reg(v),
        });
        fb.push(Inst::Ret { val: None });
        let f = fb.build();
        let cfg = Cfg::new(&f);
        let rd = ReachingDefs::compute(&f, &cfg);
        let r0 = Operand::Reg(0);
        assert!(!rd.operand_identical(r0, (0, 0), r0, (0, 2)));
        assert!(rd.operand_identical(r0, (0, 0), r0, (0, 1)));
        assert!(rd.operand_identical(Operand::Imm(3), (0, 0), Operand::Imm(3), (0, 2)));
    }

    #[test]
    fn origin_resolves_copy_chains() {
        // r1 = load, r2 = mov r1, r3 = mov r2: all three share the
        // load's origin; r0 keeps its entry origin through a copy.
        let mut fb = FunctionBuilder::new("c", 1);
        let (r1, r2, r3, r4) = (fb.reg(), fb.reg(), fb.reg(), fb.reg());
        fb.push(Inst::TmLoad {
            dst: r1,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Mov {
            dst: r2,
            src: Operand::Reg(r1),
        });
        fb.push(Inst::Mov {
            dst: r3,
            src: Operand::Reg(r2),
        });
        fb.push(Inst::Mov {
            dst: r4,
            src: Operand::Reg(0),
        });
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(r3)),
        });
        let f = fb.build();
        let cfg = Cfg::new(&f);
        let rd = ReachingDefs::compute(&f, &cfg);
        let end = (0, 4);
        let load = ValueOrigin::Def((0, 0));
        assert_eq!(rd.operand_origin(&f, Operand::Reg(r1), end), load);
        assert_eq!(rd.operand_origin(&f, Operand::Reg(r3), end), load);
        assert_eq!(
            rd.operand_origin(&f, Operand::Reg(r4), end),
            ValueOrigin::Entry(0)
        );
        assert_eq!(
            rd.operand_origin(&f, Operand::Imm(9), end),
            ValueOrigin::Imm(9)
        );
    }
}
