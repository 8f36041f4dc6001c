//! Cross-block `cmp`/`inc` pattern matching over reaching definitions.
//!
//! The seed's matcher only tracked origins *within* a basic block, so a
//! comparison split across blocks (load in one block, `cmp` in a
//! successor) was never promoted. This module generalises the origin
//! query to whole-function reaching definitions and adds the path
//! conditions that make the cross-block rewrite sound:
//!
//! * the operand has **exactly one** reaching definition and it is a
//!   `TmLoad` (single-reaching-def plus the entry pseudo-defs imply the
//!   load dominates the use);
//! * **no instruction on any def→use path** redefines a register the
//!   re-evaluated address (or increment delta) depends on;
//! * **no memory write** (`TmStore`/`TmInc`) and **no region boundary**
//!   (`TmBegin`/`TmEnd`) lies on any def→use path — a promoted builtin
//!   re-reads memory at the use site, which is only equivalent while
//!   the transaction's own view of the address is unchanged and both
//!   sites share one atomic region.
//!
//! The same conditions, reported instead of silently declined, drive
//! the `semlint` missed-promotion diagnostics (rule `SL003`).

use super::cfg::Cfg;
use super::reaching::{DefSite, Pos, ReachingDefs};
use crate::ir::{BinOp, Function, Inst, Operand, Reg};
use semtm_core::CmpOp;

/// Why an operand failed to qualify as a promotable load origin.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decline {
    /// The operand is an immediate, an argument, or a non-load value —
    /// a "literal or local variable" in the paper's terms. Not a missed
    /// opportunity.
    NotALoad,
    /// Several definitions reach the use and at least one is a
    /// transactional load.
    AmbiguousLoad,
    /// A register feeding the re-evaluated address (or delta) is
    /// redefined on a def→use path.
    AddrRedefined,
    /// A `TmStore`/`TmInc` may execute between the load and the use.
    InterveningWrite,
    /// A `TmBegin`/`TmEnd` lies between the load and the use.
    RegionBoundary,
}

impl Decline {
    /// Human-readable reason, used by the lint diagnostics.
    pub fn reason(self) -> &'static str {
        match self {
            Decline::NotALoad => "operand is a literal or local value",
            Decline::AmbiguousLoad => "several definitions reach the use (one is a tmload)",
            Decline::AddrRedefined => "an address/delta register is redefined between load and use",
            Decline::InterveningWrite => "a transactional write may execute between load and use",
            Decline::RegionBoundary => "load and use are separated by an atomic-region boundary",
        }
    }
}

/// A matched load origin: the load's position and its address operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LoadOrigin {
    /// Position of the originating `TmLoad`.
    pub load_at: Pos,
    /// The load's address operand.
    pub addr: Operand,
}

/// Outcome of matching one `Cmp` instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpMatch {
    /// Both sides originate in loads → `_ITM_S2R`.
    S2R {
        /// Relation.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left address.
        a: Operand,
        /// Right address.
        b: Operand,
    },
    /// One side is a load, the other literal/local → `_ITM_S1R`. `op`
    /// is already swapped when the load was on the right.
    S1R {
        /// Relation (possibly swapped).
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Address side.
        addr: Operand,
        /// Value side.
        val: Operand,
    },
    /// No promotion; the per-side declines explain why (for `SL003`).
    No {
        /// Why the left side failed.
        a: Decline,
        /// Why the right side failed.
        b: Decline,
    },
}

/// A matched `inc` pattern: `*addr = *addr ± delta` → `_ITM_SW`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IncMatch {
    /// Address operand (as written at the store).
    pub addr: Operand,
    /// Delta operand.
    pub delta: Operand,
    /// Subtract instead of add.
    pub negate: bool,
}

/// Shared context for pattern queries over one function.
pub struct PatternCtx<'a> {
    /// The function under analysis.
    pub func: &'a Function,
    /// Its CFG.
    pub cfg: &'a Cfg,
    /// Its reaching definitions.
    pub rd: &'a ReachingDefs,
}

impl<'a> PatternCtx<'a> {
    /// Build the context (computes nothing; analyses are passed in).
    pub fn new(func: &'a Function, cfg: &'a Cfg, rd: &'a ReachingDefs) -> PatternCtx<'a> {
        PatternCtx { func, cfg, rd }
    }

    /// Every position that may execute strictly between an execution of
    /// the definition at `from` and a subsequent execution of the use at
    /// `to` with **no re-execution of the definition in between**
    /// (exclusive of both endpoints). Paths that re-pass `from` are
    /// irrelevant to the matchers: the value at the use then originates
    /// in the *last* execution of the def, so only the def-free suffix
    /// matters. Blocks are straight-line, so revisiting `from.0` always
    /// re-executes the def — reachability is therefore computed in the
    /// CFG with the def block removed as an intermediate node.
    pub fn positions_between(&self, from: Pos, to: Pos) -> Vec<Pos> {
        let n = self.func.blocks.len();
        // Same block, def before use: the straight-line span is the only
        // def-free path (re-entering the block from the top passes the
        // def again before reaching the use).
        if from.0 == to.0 && from.1 < to.1 {
            return (from.1 + 1..to.1).map(|i| (from.0, i)).collect();
        }
        // Blocks reachable from the def block's exits without passing
        // through the def block again.
        let mut fwd = vec![false; n];
        let mut stack: Vec<usize> = self.cfg.succs[from.0].clone();
        while let Some(b) = stack.pop() {
            if b != from.0 && !fwd[b] {
                fwd[b] = true;
                stack.extend(self.cfg.succs[b].iter());
            }
        }
        // Blocks that can reach the use block without passing through
        // the def block.
        let mut bwd = vec![false; n];
        let mut stack: Vec<usize> = self.cfg.preds[to.0].clone();
        while let Some(b) = stack.pop() {
            if b != from.0 && !bwd[b] {
                bwd[b] = true;
                stack.extend(self.cfg.preds[b].iter());
            }
        }
        let reaches_use = |b: usize| b == to.0 || bwd[b];

        let mut out: Vec<Pos> = Vec::new();
        // Tail of the def block, when control can leave it and still
        // reach the use.
        if self.cfg.succs[from.0].iter().any(|&s| reaches_use(s)) {
            let len = self.func.blocks[from.0].insts.len();
            out.extend((from.1 + 1..len).map(|i| (from.0, i)));
        }
        // Head of the use block (the wrap-around same-block case lands
        // here too: `to.0 == from.0` with `to.1 <= from.1`).
        out.extend((0..to.1).map(|i| (to.0, i)));
        // Tail of the use block, when it sits on a cycle avoiding the
        // def block: control may pass the use and come back, so a later
        // use execution sees the tail "between" as well.
        if to.0 != from.0
            && self.cfg.succs[to.0]
                .iter()
                .any(|&s| s != from.0 && (s == to.0 || bwd[s]))
        {
            let len = self.func.blocks[to.0].insts.len();
            out.extend((to.1 + 1..len).map(|i| (to.0, i)));
        }
        // Whole intermediate blocks.
        for b in (0..n).filter(|&b| b != from.0 && b != to.0) {
            if fwd[b] && bwd[b] {
                out.extend((0..self.func.blocks[b].insts.len()).map(|i| (b, i)));
            }
        }
        out.sort_unstable();
        out.dedup();
        out.retain(|&p| p != from && p != to);
        out
    }

    /// Check that no position between `from` and `to` redefines a
    /// register in `protect`, writes memory, or crosses a region
    /// boundary.
    pub fn clean_path(&self, from: Pos, to: Pos, protect: &[Reg]) -> Result<(), Decline> {
        for (b, i) in self.positions_between(from, to) {
            let inst = &self.func.blocks[b].insts[i];
            match inst {
                Inst::TmStore { .. } | Inst::TmInc { .. } => return Err(Decline::InterveningWrite),
                Inst::TmBegin | Inst::TmEnd => return Err(Decline::RegionBoundary),
                _ => {}
            }
            if let Some(d) = inst.def() {
                if protect.contains(&d) {
                    return Err(Decline::AddrRedefined);
                }
            }
        }
        Ok(())
    }

    /// Classify `operand` at `use_pos`: a promotable load origin, or
    /// the reason it is not. The address registers of the originating
    /// load are protected along the whole def→use path, so re-reading
    /// the address at the use site is equivalent.
    pub fn load_origin(&self, operand: Operand, use_pos: Pos) -> Result<LoadOrigin, Decline> {
        let Some(r) = operand.reg() else {
            return Err(Decline::NotALoad);
        };
        let is_load = |id: u32| {
            matches!(
                self.rd.defs[id as usize],
                DefSite::Inst(b, i)
                    if matches!(self.func.blocks[b].insts[i], Inst::TmLoad { .. })
            )
        };
        let Some(single) = self.rd.unique_def(use_pos, r) else {
            return if self.rd.reaching(use_pos, r).any(is_load) {
                Err(Decline::AmbiguousLoad)
            } else {
                Err(Decline::NotALoad)
            };
        };
        let DefSite::Inst(db, di) = single else {
            return Err(Decline::NotALoad);
        };
        let Inst::TmLoad { dst, addr } = self.func.blocks[db].insts[di] else {
            return Err(Decline::NotALoad);
        };
        debug_assert_eq!(dst, r);
        let load_at = (db, di);
        debug_assert!(
            load_at.0 == use_pos.0 || self.cfg.dominates(load_at.0, use_pos.0),
            "a unique non-entry reaching def must dominate its use"
        );
        let mut protect = Vec::new();
        if let Some(ar) = addr.reg() {
            protect.push(ar);
        }
        self.clean_path(load_at, use_pos, &protect)?;
        Ok(LoadOrigin { load_at, addr })
    }

    /// Match one `Cmp` instruction against the paper's comparison
    /// patterns. `pos` must point at a `Cmp`.
    pub fn match_cmp(&self, pos: Pos) -> CmpMatch {
        let Inst::Cmp { op, dst, a, b } = self.func.blocks[pos.0].insts[pos.1] else {
            panic!("match_cmp called on a non-Cmp instruction");
        };
        let oa = self.load_origin(a, pos);
        let ob = self.load_origin(b, pos);
        match (oa, ob) {
            (Ok(la), Ok(lb)) => CmpMatch::S2R {
                op,
                dst,
                a: la.addr,
                b: lb.addr,
            },
            (Ok(la), Err(_)) => CmpMatch::S1R {
                op,
                dst,
                addr: la.addr,
                val: b,
            },
            (Err(_), Ok(lb)) => CmpMatch::S1R {
                op: op.swap(),
                dst,
                addr: lb.addr,
                val: a,
            },
            (Err(ea), Err(eb)) => CmpMatch::No { a: ea, b: eb },
        }
    }

    /// Match one `TmStore` against the increment pattern
    /// `*addr = *addr ± delta`. `pos` must point at a `TmStore`.
    pub fn match_inc(&self, pos: Pos) -> Result<IncMatch, Decline> {
        let Inst::TmStore { addr, val } = self.func.blocks[pos.0].insts[pos.1] else {
            panic!("match_inc called on a non-TmStore instruction");
        };
        let Some(vr) = val.reg() else {
            return Err(Decline::NotALoad);
        };
        let Some(DefSite::Inst(bb, bi)) = self.rd.unique_def(pos, vr) else {
            return Err(Decline::NotALoad);
        };
        let Inst::Bin { op, dst, a, b } = self.func.blocks[bb].insts[bi] else {
            return Err(Decline::NotALoad);
        };
        debug_assert_eq!(dst, vr);
        let bin_at = (bb, bi);
        let (origin, delta, negate) = match op {
            BinOp::Add => {
                // load + delta or delta + load.
                if let Ok(o) = self.load_origin(a, bin_at) {
                    (o, b, false)
                } else {
                    (self.load_origin(b, bin_at)?, a, false)
                }
            }
            // Only load - delta is an increment; delta - load is not.
            BinOp::Sub => (self.load_origin(a, bin_at)?, b, true),
            _ => return Err(Decline::NotALoad),
        };
        // The delta side must itself be literal/local at the bin.
        if self.load_origin(delta, bin_at).is_ok() {
            return Err(Decline::NotALoad);
        }
        // Same address at the load and at the store, by
        // reaching-definition identity...
        if !self
            .rd
            .operand_identical(origin.addr, origin.load_at, addr, pos)
        {
            return Err(Decline::AddrRedefined);
        }
        // ...and nothing on the load→store path may disturb the
        // address, the delta, or memory (the store itself is `pos`,
        // which the path scan excludes).
        let mut protect = Vec::new();
        if let Some(r) = addr.reg() {
            protect.push(r);
        }
        if let Some(r) = delta.reg() {
            protect.push(r);
        }
        self.clean_path(origin.load_at, pos, &protect)?;
        Ok(IncMatch {
            addr,
            delta,
            negate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::ReachingDefs;
    use crate::parser::parse_function;

    fn ctx_for(src: &str, f: impl FnOnce(&PatternCtx<'_>)) {
        let func = parse_function(src).unwrap();
        let cfg = Cfg::new(&func);
        let rd = ReachingDefs::compute(&func, &cfg);
        f(&PatternCtx::new(&func, &cfg, &rd));
    }

    #[test]
    fn cross_block_cmp_matches() {
        ctx_for(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  br test
test:
  r2 = cmp.gt r1, 0
  condbr r2, a, b
a:
  tmend
  ret 1
b:
  tmend
  ret 0
}
",
            |cx| {
                // cmp is at block 1 ("test"), index 0.
                match cx.match_cmp((1, 0)) {
                    CmpMatch::S1R { addr, .. } => assert_eq!(addr, Operand::Reg(0)),
                    other => panic!("expected S1R, got {other:?}"),
                }
            },
        );
    }

    #[test]
    fn intervening_store_declines_cmp() {
        ctx_for(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  tmstore r0, 99
  r2 = cmp.gt r1, 0
  tmend
  ret r2
}
",
            |cx| {
                assert_eq!(
                    cx.match_cmp((0, 3)),
                    CmpMatch::No {
                        a: Decline::InterveningWrite,
                        b: Decline::NotALoad,
                    }
                );
            },
        );
    }

    #[test]
    fn region_boundary_declines_cmp() {
        ctx_for(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  tmend
  r2 = cmp.gt r1, 0
  ret r2
}
",
            |cx| {
                assert!(matches!(
                    cx.match_cmp((0, 3)),
                    CmpMatch::No {
                        a: Decline::RegionBoundary,
                        ..
                    }
                ));
            },
        );
    }

    #[test]
    fn address_redefinition_declines_cmp() {
        ctx_for(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  r0 = add r0, 1
  r2 = cmp.gt r1, 0
  tmend
  ret r2
}
",
            |cx| {
                assert!(matches!(
                    cx.match_cmp((0, 3)),
                    CmpMatch::No {
                        a: Decline::AddrRedefined,
                        ..
                    }
                ));
            },
        );
    }

    #[test]
    fn ambiguous_defs_decline_with_reason() {
        ctx_for(
            r"
func f(1) {
entry:
  tmbegin
  condbr r0, a, b
a:
  r1 = tmload r0
  br join
b:
  r1 = const 5
  br join
join:
  r2 = cmp.gt r1, 0
  tmend
  ret r2
}
",
            |cx| {
                assert!(matches!(
                    cx.match_cmp((3, 0)),
                    CmpMatch::No {
                        a: Decline::AmbiguousLoad,
                        ..
                    }
                ));
            },
        );
    }

    #[test]
    fn in_loop_same_block_pair_still_matches() {
        // Load and compare share a loop body with a store *after* the
        // compare. The wrap-around path re-executes the load, so each
        // iteration's compare sees that iteration's value — the
        // promotion is sound and must not be declined.
        ctx_for(
            r"
func f(1) {
entry:
  tmbegin
  br head
head:
  condbr r0, body, out
body:
  r1 = tmload r0
  r2 = add r1, 0
  r3 = cmp.gt r1, 0
  tmstore r0, 7
  br head
out:
  tmend
  ret 0
}
",
            |cx| {
                // load at (2,0), use at (2,2): only (2,1) lies between.
                assert_eq!(cx.positions_between((2, 0), (2, 2)), vec![(2, 1)]);
                assert!(matches!(cx.match_cmp((2, 2)), CmpMatch::S1R { .. }));
            },
        );
    }

    #[test]
    fn use_block_cycle_positions_are_conservative() {
        // The compare's block loops on itself *without* re-executing the
        // load: the second compare still sees the first load, but the
        // store on the self-loop has changed memory — a promoted
        // re-reading builtin would diverge, so the match must decline.
        ctx_for(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  br spin
spin:
  r2 = cmp.gt r1, 0
  tmstore r0, 7
  condbr r2, spin, out
out:
  tmend
  ret 0
}
",
            |cx| {
                // load at (0,1), use at (1,0): the tmstore at (1,1) sits
                // on the spin→spin cycle, between load and a later use.
                let between = cx.positions_between((0, 1), (1, 0));
                assert!(between.contains(&(1, 1)), "store on cycle: {between:?}");
                assert!(matches!(
                    cx.match_cmp((1, 0)),
                    CmpMatch::No {
                        a: Decline::InterveningWrite,
                        ..
                    }
                ));
            },
        );
    }
}
