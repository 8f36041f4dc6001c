//! Lattice-based abstract interpretation over the worklist solver.
//!
//! Two domains run in one fixpoint (paper §6 made concrete: knowing
//! *why* a value was read lets the compiler widen reads into semantic
//! relations):
//!
//! * an **interval / value-range domain** over registers
//!   ([`Interval`]), with branch refinement on `condbr` edges (the
//!   guarding comparison is known true on the then-edge and false on
//!   the else-edge) and delayed widening at join points so loop
//!   back-edges converge;
//! * a **symbolic domain** ([`Sym`]) tracking two identities through
//!   copies and arithmetic: `Arg(r) ⊞ offsets` — the function-entry
//!   value of an argument register plus a bounded offset interval
//!   (heap *addresses* are arguments plus offsets in every kernel) —
//!   and `LoadPlus(pos, c)` — the value produced by the transactional
//!   load at `pos` plus an exact constant, kept only while the
//!   arithmetic provably cannot wrap.
//!
//! Three consumers drive off the result:
//!
//! * [`widen`] — range-widened `TM_CMP` promotion: a compare of
//!   `load + c` against an immediate `k` becomes the semantic
//!   `tmcmp` of the load's address against `k - c` (used by
//!   `passes::tm_widen`, reported by lint rule `SL008` when it is
//!   provable but not rewritable);
//! * [`conflict`] — per-region abstract read/write/compare sets and
//!   the region×region conflict matrix (`semlint --conflicts`, rules
//!   `SL006`/`SL009`);
//! * interval queries for `SL007` (compares decided by ranges alone).
//!
//! The solver's [`DataflowProblem::transfer_edge`]/
//! [`DataflowProblem::join_at`] hooks were added for this module:
//! refinement happens on edges, widening inside the join once a block
//! has been joined more than [`WIDEN_DELAY`] times.

pub mod conflict;
pub mod interval;
pub mod regions;
pub mod widen;

pub use conflict::{AbsAddr, AccessKind, ConflictAnalysis, Overlap, RegionSummary};
pub use interval::Interval;
pub use regions::Regions;
pub use widen::{widen_candidates, WidenCandidate};

use super::cfg::Cfg;
use super::reaching::Pos;
use super::solver::{solve, DataflowProblem, Direction, Solution};
use crate::ir::{BinOp, BlockId, Function, Inst, Operand, Reg};
use semtm_core::CmpOp;
use std::cell::RefCell;

/// Joins into one block before widening kicks in. Small enough that
/// pathological loop nests converge fast, large enough that short
/// chains of guards keep full precision.
pub const WIDEN_DELAY: u32 = 16;

/// Symbolic identity of a register value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sym {
    /// No symbolic identity.
    Top,
    /// `entry(r) +wrap o` for some `o` in the interval: the value the
    /// argument register `r` held at function entry, plus a wrapped
    /// offset. Wrapping addition is injective in the offset, so two
    /// `Arg` addresses with the same base and disjoint offset
    /// intervals are provably distinct even if the add wrapped.
    Arg(Reg, Interval),
    /// The value loaded by the `TmLoad` at this position plus an exact
    /// constant, with the addition *proven not to wrap* — the
    /// mathematical identity the range-widening rewrite relies on.
    LoadPlus(Pos, i64),
}

impl Sym {
    fn join(self, other: Sym) -> Sym {
        match (self, other) {
            (Sym::Arg(r1, i1), Sym::Arg(r2, i2)) if r1 == r2 => Sym::Arg(r1, i1.join(i2)),
            (Sym::LoadPlus(p1, c1), Sym::LoadPlus(p2, c2)) if p1 == p2 && c1 == c2 => self,
            _ if self == other => self,
            _ => Sym::Top,
        }
    }

    fn widen(self, next: Sym) -> Sym {
        match (self, next) {
            (Sym::Arg(r1, i1), Sym::Arg(r2, i2)) if r1 == r2 => Sym::Arg(r1, i1.widen(i2)),
            _ => self.join(next),
        }
    }
}

/// The abstract value of one register: a value range plus a symbolic
/// identity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbsVal {
    /// Possible runtime values.
    pub range: Interval,
    /// Symbolic identity, when one survives the dataflow.
    pub sym: Sym,
}

impl AbsVal {
    /// No information at all.
    pub const TOP: AbsVal = AbsVal {
        range: Interval::TOP,
        sym: Sym::Top,
    };

    fn constant(v: i64) -> AbsVal {
        AbsVal {
            range: Interval::constant(v),
            sym: Sym::Top,
        }
    }

    fn join(self, other: AbsVal) -> AbsVal {
        AbsVal {
            range: self.range.join(other.range),
            sym: self.sym.join(other.sym),
        }
    }

    fn widen(self, next: AbsVal) -> AbsVal {
        AbsVal {
            range: self.range.widen(next.range),
            sym: self.sym.widen(next.sym),
        }
    }
}

/// Per-block fact: one [`AbsVal`] per register. The empty vector is
/// the lattice bottom ("this point not yet proven reachable") — it is
/// the solver's init fact, and an infeasible refined edge collapses
/// back to it.
type Fact = Vec<AbsVal>;

/// The compare feeding a block's `condbr`, precomputed per block:
/// `(operand a, op, operand b, then_to, else_to)`.
type EdgeGuard = (Operand, CmpOp, Operand, BlockId, BlockId);

struct AbsIntProblem<'a> {
    func: &'a Function,
    /// `guards[b]` = the refinable comparison controlling block `b`'s
    /// terminator, when one exists.
    guards: Vec<Option<EdgeGuard>>,
    /// Blocks targeted by a retreating edge (loop heads). Widening
    /// *only* there is what makes it terminate without eating the
    /// branch refinement: a refined fact flowing into a non-head block
    /// must never be widened past its refinement.
    widen_at: Vec<bool>,
    join_counts: RefCell<Vec<u32>>,
}

fn operand_value(fact: &Fact, op: Operand) -> AbsVal {
    match op {
        Operand::Imm(v) => AbsVal::constant(v),
        Operand::Reg(r) => fact[r as usize],
    }
}

fn bin_value(op: BinOp, va: AbsVal, vb: AbsVal) -> AbsVal {
    // Singleton operands evaluate exactly, with the machine's wrapping
    // semantics — no interval approximation needed.
    if let (Some(x), Some(y)) = (va.range.singleton(), vb.range.singleton()) {
        return AbsVal::constant(op.eval(x, y));
    }
    let range = match op {
        BinOp::Add => va.range.add(vb.range),
        BinOp::Sub => va.range.sub(vb.range),
        BinOp::Mul => va.range.mul(vb.range),
        // `x & mask` with both sides non-negative stays within the
        // smaller operand (this is what bounds hash-probe indices).
        BinOp::And if va.range.lo >= 0 && vb.range.lo >= 0 => Interval {
            lo: 0,
            hi: va.range.hi.min(vb.range.hi),
        },
        // Non-negative `|`/`^` are bounded by the sum (a|b ≤ a+b,
        // a^b ≤ a+b for a,b ≥ 0).
        BinOp::Or | BinOp::Xor if va.range.lo >= 0 && vb.range.lo >= 0 => Interval {
            lo: 0,
            hi: va.range.hi.saturating_add(vb.range.hi),
        },
        _ => Interval::TOP,
    };
    let sym = match op {
        BinOp::Add => match (va.sym, vb.sym) {
            // Address arithmetic: base + offset, wrapping-safe.
            (Sym::Arg(r, off), Sym::Top) => Sym::Arg(r, offset_add(off, vb.range)),
            (Sym::Top, Sym::Arg(r, off)) => Sym::Arg(r, offset_add(off, va.range)),
            // Value arithmetic: only with a no-wrap proof.
            (Sym::LoadPlus(p, c), _) => load_plus(p, c, va.range, vb.range, false),
            (_, Sym::LoadPlus(p, c)) => load_plus(p, c, vb.range, va.range, false),
            _ => Sym::Top,
        },
        BinOp::Sub => match (va.sym, vb.sym) {
            (Sym::Arg(r, off), Sym::Top) => Sym::Arg(r, offset_sub(off, vb.range)),
            (Sym::LoadPlus(p, c), _) => load_plus(p, c, va.range, vb.range, true),
            _ => Sym::Top,
        },
        _ => Sym::Top,
    };
    AbsVal { range, sym }
}

/// Wrapped offset accumulation for `Arg` bases: the base identity
/// survives wrapping, but an offset interval that overflows `i64`
/// loses its bounds.
fn offset_add(off: Interval, delta: Interval) -> Interval {
    let sum = off.add(delta);
    if sum == Interval::TOP && !(off == Interval::TOP || delta == Interval::TOP) {
        Interval::TOP
    } else {
        sum
    }
}

fn offset_sub(off: Interval, delta: Interval) -> Interval {
    off.sub(delta)
}

/// `LoadPlus` accumulation: `(v + c) ± delta` stays `LoadPlus(p, c ±
/// k)` only when delta is the single constant `k`, the machine op
/// provably cannot wrap at this site, and the folded constant is
/// representable. Anything weaker destroys the mathematical identity
/// the widening rewrite needs.
fn load_plus(p: Pos, c: i64, cur: Interval, delta: Interval, negate: bool) -> Sym {
    let Some(k) = delta.singleton() else {
        return Sym::Top;
    };
    let no_wrap = if negate {
        cur.sub_cannot_wrap(delta)
    } else {
        cur.add_cannot_wrap(delta)
    };
    let folded = if negate {
        c.checked_sub(k)
    } else {
        c.checked_add(k)
    };
    match (no_wrap, folded) {
        (true, Some(total)) => Sym::LoadPlus(p, total),
        _ => Sym::Top,
    }
}

impl AbsIntProblem<'_> {
    /// Apply the relation `a OP b` (known true) to `fact`, when one
    /// side is a register and the other a compile-time constant.
    /// Refining only against *constants* keeps the meet bounds drawn
    /// from a finite set, which keeps widening + refinement
    /// terminating.
    fn assume(fact: &mut Fact, a: Operand, op: CmpOp, b: Operand) {
        let (reg, op, k) = match (a, b) {
            (Operand::Reg(r), Operand::Imm(k)) => (r, op, k),
            (Operand::Imm(k), Operand::Reg(r)) => (r, op.swap(), k),
            _ => return,
        };
        let refined = fact[reg as usize].range.refine(op, k);
        if refined.is_empty() {
            // The guard is unsatisfiable on this edge: the edge target
            // is unreachable along it. Bottom out the whole fact.
            fact.clear();
        } else {
            fact[reg as usize].range = refined;
        }
    }
}

impl DataflowProblem for AbsIntProblem<'_> {
    type Fact = Fact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary_fact(&self) -> Fact {
        let mut f = vec![AbsVal::TOP; self.func.num_regs as usize];
        for (r, v) in f.iter_mut().enumerate() {
            if (r as u32) < self.func.num_args {
                // Arguments: unknown value, but a usable base identity.
                v.sym = Sym::Arg(r as Reg, Interval::constant(0));
            } else {
                // The interpreter zero-initialises every non-argument
                // register, so [0,0] is exact (and the verifier's
                // definite-assignment check means it is never *read*
                // before a real definition anyway).
                *v = AbsVal::constant(0);
            }
        }
        f
    }

    fn init_fact(&self) -> Fact {
        Vec::new() // bottom
    }

    fn join(&self, into: &mut Fact, from: &Fact) -> bool {
        join_facts(into, from, false)
    }

    fn join_at(&self, block: BlockId, into: &mut Fact, from: &Fact) -> bool {
        if !self.widen_at[block] {
            return join_facts(into, from, false);
        }
        let mut counts = self.join_counts.borrow_mut();
        counts[block] += 1;
        join_facts(into, from, counts[block] > WIDEN_DELAY)
    }

    fn has_edge_transfer(&self) -> bool {
        true
    }

    fn transfer_edge(&self, _func: &Function, from: BlockId, to: BlockId, fact: &mut Fact) {
        if fact.is_empty() {
            return; // bottom stays bottom
        }
        let Some((a, op, b, then_to, else_to)) = self.guards[from] else {
            return;
        };
        if then_to == else_to {
            return; // both outcomes reach `to`; nothing is known
        }
        if to == then_to {
            Self::assume(fact, a, op, b);
        } else if to == else_to {
            Self::assume(fact, a, op.inverse(), b);
        }
    }

    fn transfer(&self, inst: &Inst, pos: Pos, fact: &mut Fact) {
        if fact.is_empty() {
            return; // bottom: position not (yet) reachable
        }
        let new = match *inst {
            Inst::Mov { src, .. } => operand_value(fact, src),
            Inst::Bin { op, a, b, .. } => {
                let va = operand_value(fact, a);
                let vb = operand_value(fact, b);
                bin_value(op, va, vb)
            }
            Inst::Cmp { .. }
            | Inst::Not { .. }
            | Inst::TmCmpVal { .. }
            | Inst::TmCmpAddr { .. } => AbsVal {
                range: Interval { lo: 0, hi: 1 },
                sym: Sym::Top,
            },
            Inst::TmLoad { .. } => AbsVal {
                range: Interval::TOP,
                sym: Sym::LoadPlus(pos, 0),
            },
            _ => return,
        };
        if let Some(d) = inst.def() {
            fact[d as usize] = new;
        }
    }
}

fn join_facts(into: &mut Fact, from: &Fact, widen: bool) -> bool {
    if from.is_empty() {
        return false;
    }
    if into.is_empty() {
        *into = from.clone();
        return true;
    }
    let mut changed = false;
    for (i, f) in into.iter_mut().zip(from) {
        let new = if widen { i.widen(*f) } else { i.join(*f) };
        if new != *i {
            *i = new;
            changed = true;
        }
    }
    changed
}

/// Find the comparison that controls block `b`'s `condbr`, if the
/// condition register's last in-block definition is a `Cmp` and no
/// instruction after it redefines an operand register.
fn block_guard(func: &Function, b: BlockId) -> Option<EdgeGuard> {
    let insts = &func.blocks[b].insts;
    let Inst::CondBr {
        cond: Operand::Reg(c),
        then_to,
        else_to,
    } = *insts.last()?
    else {
        return None;
    };
    let def_idx = insts[..insts.len() - 1]
        .iter()
        .rposition(|i| i.def() == Some(c))?;
    let Inst::Cmp { op, a, b: rb, .. } = insts[def_idx] else {
        return None;
    };
    let operand_intact = |o: Operand| match o.reg() {
        Some(r) => insts[def_idx + 1..].iter().all(|i| i.def() != Some(r)),
        None => true,
    };
    (operand_intact(a) && operand_intact(rb)).then_some((a, op, rb, then_to, else_to))
}

/// The solved abstract interpretation of one function, with
/// position-level queries.
pub struct AbsInt {
    /// Per-register abstract state at every position. An empty state
    /// means the position was never proven reachable (bottom).
    facts: Solution<Fact>,
}

impl AbsInt {
    /// Run the abstract interpreter to fixpoint.
    pub fn compute(func: &Function, cfg: &Cfg) -> AbsInt {
        let guards = (0..func.blocks.len())
            .map(|b| block_guard(func, b))
            .collect();
        // Retreating edges under the RPO numbering mark the loop heads.
        let mut rpo_pos = vec![usize::MAX; func.blocks.len()];
        for (i, &b) in cfg.rpo.iter().enumerate() {
            rpo_pos[b] = i;
        }
        let mut widen_at = vec![false; func.blocks.len()];
        for (p, succs) in cfg.succs.iter().enumerate() {
            for &s in succs {
                if rpo_pos[s] <= rpo_pos[p] {
                    widen_at[s] = true;
                }
            }
        }
        let problem = AbsIntProblem {
            func,
            guards,
            widen_at,
            join_counts: RefCell::new(vec![0; func.blocks.len()]),
        };
        AbsInt {
            facts: solve(func, cfg, &problem),
        }
    }

    /// The abstract value of `reg` just before `pos`. Returns
    /// [`AbsVal::TOP`] at positions never proven reachable — callers
    /// that care use [`AbsInt::state_reachable`] first.
    pub fn value(&self, pos: Pos, reg: Reg) -> AbsVal {
        self.facts
            .at(pos)
            .get(reg as usize)
            .copied()
            .unwrap_or(AbsVal::TOP)
    }

    /// The abstract value of an operand just before `pos`.
    pub fn operand(&self, pos: Pos, op: Operand) -> AbsVal {
        match op {
            Operand::Imm(v) => AbsVal::constant(v),
            Operand::Reg(r) => self.value(pos, r),
        }
    }

    /// Was an abstract state ever propagated to `pos`? `false` for
    /// unreachable blocks and for edges the refiner proved infeasible.
    pub fn state_reachable(&self, pos: Pos) -> bool {
        !self.facts.at(pos).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Cfg;
    use crate::parser::parse_function;

    fn absint_for(src: &str) -> (crate::ir::Function, AbsInt) {
        let f = parse_function(src).unwrap();
        let cfg = Cfg::new(&f);
        let ai = AbsInt::compute(&f, &cfg);
        (f, ai)
    }

    #[test]
    fn branch_refinement_bounds_the_then_edge() {
        let (_, ai) = absint_for(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  r2 = cmp.lte r1, 100
  condbr r2, small, big
small:
  r3 = add r1, 27
  tmend
  ret r3
big:
  tmend
  ret 0
}
",
        );
        // On the then-edge r1 <= 100; on the else-edge r1 > 100.
        let small = ai.value((1, 0), 1).range;
        assert_eq!(small.hi, 100);
        assert_eq!(small.lo, i64::MIN);
        let big = ai.value((2, 0), 1).range;
        assert_eq!(big.lo, 101);
        // r3 = r1 + 27 under r1 <= 100 cannot wrap: LoadPlus survives
        // and the range follows.
        let r3 = ai.value((1, 1), 3);
        assert_eq!(r3.range.hi, 127);
        assert_eq!(r3.sym, Sym::LoadPlus((0, 1), 27));
    }

    #[test]
    fn loop_counter_widens_and_exit_edge_refines() {
        // while (i < 1000000) i++  — the back-edge join must converge
        // (widening), and the exit edge knows i >= 1000000.
        let (_, ai) = absint_for(
            r"
func f(0) {
entry:
  r0 = const 0
  br head
head:
  r1 = cmp.lt r0, 1000000
  condbr r1, body, out
body:
  r0 = add r0, 1
  br head
out:
  ret r0
}
",
        );
        let body = ai.value((2, 0), 0).range;
        assert_eq!(body.lo, 0, "counter never negative");
        assert!(body.hi <= 999999, "then-edge bound survives widening");
        let out = ai.value((3, 0), 0).range;
        assert_eq!(out.lo, 1000000, "exit edge refines the else relation");
    }

    #[test]
    fn unreachable_blocks_have_no_state() {
        let (_, ai) = absint_for(
            r"
func f(1) {
entry:
  ret r0
dead:
  r1 = const 7
  ret r1
}
",
        );
        assert!(ai.state_reachable((0, 0)));
        assert!(!ai.state_reachable((1, 0)), "dead block stays bottom");
        assert_eq!(ai.value((1, 0), 1), AbsVal::TOP, "queries stay safe");
    }

    #[test]
    fn single_block_self_loop_converges() {
        // A block that is its own predecessor: the join at `spin` sees
        // the entry edge and its own back-edge. Termination plus a
        // sound (widened) bound is the contract.
        let (_, ai) = absint_for(
            r"
func f(1) {
entry:
  r1 = const 0
  br spin
spin:
  r1 = add r1, 2
  r2 = cmp.lt r1, r0
  condbr r2, spin, out
out:
  ret r1
}
",
        );
        // The reg-vs-reg guard cannot bound the counter, widening sends
        // the upper bound to MAX, and from there the add may wrap — the
        // sound fixpoint is full top.
        let spin = ai.value((1, 0), 1).range;
        assert_eq!(spin, Interval::TOP);
        assert!(ai.state_reachable((2, 0)));
    }

    #[test]
    fn widening_threshold_converges_quickly() {
        // The convergence proof for the widening delay: a counter
        // compared against a huge constant must reach the fixpoint in
        // a bounded number of joins, not one join per increment. If
        // widening were broken, solve() would iterate ~1e15 times and
        // this test would hang rather than fail.
        let src = r"
func f(0) {
entry:
  r0 = const 0
  br head
head:
  r1 = cmp.lt r0, 1000000000000000
  condbr r1, body, out
body:
  r0 = add r0, 7
  br head
out:
  ret r0
}
";
        let f = parse_function(src).unwrap();
        let cfg = Cfg::new(&f);
        let ai = AbsInt::compute(&f, &cfg);
        assert_eq!(ai.value((3, 0), 0).range.lo, 1000000000000000);
    }

    #[test]
    fn arg_offsets_track_address_arithmetic() {
        let (_, ai) = absint_for(
            r"
func f(2) {
entry:
  tmbegin
  r2 = add r0, 2
  r3 = tmload r2
  r4 = mov r3
  tmend
  ret r4
}
",
        );
        let addr = ai.value((0, 2), 2);
        assert_eq!(addr.sym, Sym::Arg(0, Interval::constant(2)));
        // A copy preserves the load identity.
        assert_eq!(ai.value((0, 4), 4).sym, Sym::LoadPlus((0, 2), 0));
    }

    #[test]
    fn infeasible_edge_goes_bottom() {
        let (_, ai) = absint_for(
            r"
func f(0) {
entry:
  r0 = const 5
  r1 = cmp.gt r0, 3
  condbr r1, yes, no
yes:
  ret 1
no:
  ret 0
}
",
        );
        assert!(ai.state_reachable((1, 0)));
        assert!(
            !ai.state_reachable((2, 0)),
            "5 > 3 always holds; else-edge is infeasible"
        );
    }
}
