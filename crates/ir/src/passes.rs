//! The paper's GCC middle-end passes, reimplemented over our IR.
//!
//! * [`tm_widen`] — range-widened promotion: the abstract interpreter
//!   ([`crate::analysis::absint`]) proves that `cmp (load + c), k` is
//!   the relation `cmp load, k - c` (no-wrap certificate from the
//!   interval domain), reaching promotions the syntactic matcher below
//!   structurally cannot see;
//! * [`tm_mark`] — pattern detection (§6): conditional expressions with a
//!   transactional-load origin become `_ITM_S1R`/`_ITM_S2R` builtins;
//!   transactional stores of `load ± local` on the same address become
//!   `_ITM_SW`. Origins are tracked through **whole-function reaching
//!   definitions** ([`crate::analysis::ReachingDefs`]): unlike the
//!   seed's block-local matcher, a comparison whose load sits in a
//!   predecessor block is still promoted, provided no path between the
//!   load and the use writes memory, crosses an atomic-region boundary,
//!   or redefines a register the re-evaluated address depends on (see
//!   [`crate::analysis::patterns`] for the exact conditions).
//! * [`tm_optimize`] — never-live elimination (§6): whole-function
//!   liveness ([`crate::analysis::Liveness`]) removes transactional
//!   loads whose result is never live — in particular the read half of
//!   every matched `inc` — plus the pure ALU instructions orphaned by
//!   the rewrite. The pass is conservative: an instruction is removed
//!   only when liveness *guarantees* the value is dead along every
//!   path. Semantic builtins (`TmCmpVal`/`TmCmpAddr`) are kept even
//!   when their boolean is dead: they record a relation in the semantic
//!   read set, and we preserve the seed's conservative choice.
//!
//! Both passes run under the strict verifier: [`run_tm_passes_checked`]
//! verifies the function before `tm_mark`, between the passes, and
//! after `tm_optimize`, so a pass bug surfaces as a [`VerifyError`]
//! instead of silent miscompilation.

use crate::analysis::absint::{widen_candidates, AbsInt, Regions, WidenCandidate};
use crate::analysis::verify::{check_structure, verify_with};
use crate::analysis::{BitSet, Cfg, CmpMatch, Liveness, PatternCtx, ReachingDefs, VerifyError};
use crate::ir::{Function, Inst, Operand};

/// Statistics reported by a pass run (used by the Figure-2 harness to
/// show the 2→1 TM-call reduction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassReport {
    /// `Cmp` instructions rewritten to `_ITM_S1R` by range widening
    /// (abstract interpretation), which the syntactic matcher declined.
    pub widened: usize,
    /// `Cmp` instructions rewritten to `_ITM_S1R`.
    pub s1r: usize,
    /// `Cmp` instructions rewritten to `_ITM_S2R`.
    pub s2r: usize,
    /// `TmStore` instructions rewritten to `_ITM_SW`.
    pub sw: usize,
    /// Transactional loads removed as never-live.
    pub loads_removed: usize,
    /// Pure ALU instructions removed as never-live.
    pub pure_removed: usize,
}

/// The range-widening pass: rewrite `cmp.OP (tmload a) + c, k` into
/// `tmcmp.OP a, k - c` when the abstract interpreter proves the `+ c`
/// cannot wrap (see [`crate::analysis::absint::widen`]). Runs *before*
/// [`tm_mark`] on the original IR, where the guards feeding the
/// interval refinement are still plain `Cmp`s; the `c == 0` cases are
/// deliberately left to the syntactic matcher.
pub fn tm_widen(func: &mut Function) -> PassReport {
    let cfg = Cfg::new(func);
    let rd = ReachingDefs::compute(func, &cfg);
    widen(func, &cfg, &rd)
}

/// [`tm_widen`] over the function's CFG and reaching definitions.
fn widen(func: &mut Function, cfg: &Cfg, rd: &ReachingDefs) -> PassReport {
    let mut report = PassReport::default();
    let absint = AbsInt::compute(func, cfg);
    let regions = Regions::compute(func, cfg);
    // Like tm_mark: a rewritten Cmp defines the same register at the
    // same position, so collecting first keeps the analyses valid.
    let cands = widen_candidates(func, cfg, rd, &absint, &regions);
    for cand in cands {
        if let WidenCandidate::Promote {
            pos,
            dst,
            op,
            addr,
            k_prime,
            ..
        } = cand
        {
            func.blocks[pos.0].insts[pos.1] = Inst::TmCmpVal {
                op,
                dst,
                addr,
                val: Operand::Imm(k_prime),
            };
            report.widened += 1;
        }
    }
    report
}

/// The `tm_mark` extension: detect and rewrite the paper's `cmp` and
/// `inc` patterns across basic blocks. Leaves the feeding loads in
/// place — [`tm_optimize`] removes the ones that became dead.
pub fn tm_mark(func: &mut Function) -> PassReport {
    let cfg = Cfg::new(func);
    let rd = ReachingDefs::compute(func, &cfg);
    mark(func, &cfg, &rd)
}

/// [`tm_mark`] over the function's CFG and reaching definitions.
fn mark(func: &mut Function, cfg: &Cfg, rd: &ReachingDefs) -> PassReport {
    let mut report = PassReport::default();
    // Rewrites neither add nor remove definitions (a promoted `Cmp`
    // defines the same register at the same position; a promoted
    // `TmStore` still defines nothing), so the analyses stay valid
    // while we collect rewrites; they are applied afterwards.
    let cx = PatternCtx::new(func, cfg, rd);
    let mut rewrites: Vec<((usize, usize), Inst)> = Vec::new();
    for (b, block) in func.blocks.iter().enumerate() {
        for (i, inst) in block.insts.iter().enumerate() {
            match inst {
                Inst::Cmp { .. } => match cx.match_cmp((b, i)) {
                    CmpMatch::S2R { op, dst, a, b: rb } => {
                        rewrites.push(((b, i), Inst::TmCmpAddr { op, dst, a, b: rb }));
                        report.s2r += 1;
                    }
                    CmpMatch::S1R { op, dst, addr, val } => {
                        rewrites.push(((b, i), Inst::TmCmpVal { op, dst, addr, val }));
                        report.s1r += 1;
                    }
                    CmpMatch::No { .. } => {}
                },
                Inst::TmStore { .. } => {
                    if let Ok(m) = cx.match_inc((b, i)) {
                        rewrites.push((
                            (b, i),
                            Inst::TmInc {
                                addr: m.addr,
                                delta: m.delta,
                                negate: m.negate,
                            },
                        ));
                        report.sw += 1;
                    }
                }
                _ => {}
            }
        }
    }
    for ((b, i), inst) in rewrites {
        func.blocks[b].insts[i] = inst;
    }
    report
}

/// Is this instruction removable when its destination is dead?
/// Transactional loads are — that is the point of the pass (the TM
/// side-effect of a never-live read is pure overhead). Stores, semantic
/// builtins, and control flow are not: `TmCmpVal`/`TmCmpAddr` record a
/// relation in the semantic read set, and we conservatively keep them
/// even when the boolean result is dead.
fn removable(inst: &Inst) -> (bool, bool) {
    // (is_tm_load, is_pure_alu)
    match inst {
        Inst::TmLoad { .. } => (true, false),
        Inst::Mov { .. } | Inst::Bin { .. } | Inst::Cmp { .. } | Inst::Not { .. } => (false, true),
        _ => (false, false),
    }
}

/// The `tm_optimize` pass: iteratively remove never-live transactional
/// loads and the pure instructions orphaned by removal, to a fixpoint.
pub fn tm_optimize(func: &mut Function) -> PassReport {
    let cfg = Cfg::new(func);
    optimize(func, &cfg)
}

/// [`tm_optimize`] over the function's CFG. Removal never touches a
/// terminator, so the CFG holds for every round.
fn optimize(func: &mut Function, cfg: &Cfg) -> PassReport {
    let mut report = PassReport::default();
    let mut live = BitSet::empty(func.num_regs as usize);
    let mut keep = Vec::new();
    loop {
        let liveness = Liveness::compute(func, cfg);
        let mut removed_any = false;
        for b in 0..func.blocks.len() {
            live.clone_from(liveness.live_out(b));
            keep.clear();
            keep.resize(func.blocks[b].insts.len(), true);
            for (ii, inst) in func.blocks[b].insts.iter().enumerate().rev() {
                let dead_def = inst.def().is_some_and(|d| !live.contains(d as usize));
                let (is_load, is_pure) = removable(inst);
                if dead_def && (is_load || is_pure) {
                    keep[ii] = false;
                    if is_load {
                        report.loads_removed += 1;
                    } else {
                        report.pure_removed += 1;
                    }
                    removed_any = true;
                    // A removed instruction contributes neither defs nor
                    // uses to liveness above it.
                    continue;
                }
                if let Some(d) = inst.def() {
                    live.remove(d as usize);
                }
                for r in inst.uses() {
                    live.insert(r as usize);
                }
            }
            if keep.contains(&false) {
                let mut idx = 0;
                func.blocks[b].insts.retain(|_| {
                    let k = keep[idx];
                    idx += 1;
                    k
                });
            }
        }
        if !removed_any {
            return report;
        }
    }
}

/// Run the full pipeline (the "modified GCC" configuration) —
/// `tm_widen`, `tm_mark`, `tm_optimize` in order — with the strict
/// verifier before, between, and after every pass, and merge the
/// reports.
pub fn run_tm_passes_checked(func: &mut Function) -> Result<PassReport, VerifyError> {
    // No pass moves an edge, and neither tm_widen nor tm_mark moves a
    // definition (see `mark`), so one CFG serves the pipeline and its
    // verifier runs, and one reaching-definitions solution serves both
    // rewriting passes. Should a pass rewrite a terminator, `verify_with`
    // checks the function on a CFG of its own.
    check_structure(func)?;
    let cfg = Cfg::new(func);
    verify_with(func, &cfg)?;
    let rd = ReachingDefs::compute(func, &cfg);
    let w = widen(func, &cfg, &rd);
    verify_with(func, &cfg)?;
    let mut r = mark(func, &cfg, &rd);
    verify_with(func, &cfg)?;
    let o = optimize(func, &cfg);
    verify_with(func, &cfg)?;
    r.widened = w.widened;
    r.loads_removed = o.loads_removed;
    r.pure_removed = o.pure_removed;
    Ok(r)
}

/// Run both passes in order and merge the reports, panicking if the
/// verifier rejects the function before or after a pass (a verifier
/// failure here is a pass bug or invalid input IR — use
/// [`run_tm_passes_checked`] to handle it as a value).
pub fn run_tm_passes(func: &mut Function) -> PassReport {
    run_tm_passes_checked(func).unwrap_or_else(|e| panic!("IR verifier rejected function: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, FunctionBuilder, Operand};
    use semtm_core::CmpOp;

    /// `if (*a > 0) ret 1 else ret 0` — the canonical S1R pattern.
    fn cmp_pattern() -> Function {
        let mut fb = FunctionBuilder::new("p", 1); // r0 = addr
        let v = fb.reg();
        let c = fb.reg();
        let t = fb.block("then");
        let e = fb.block("else");
        fb.switch_to(0);
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Cmp {
            op: CmpOp::Gt,
            dst: c,
            a: Operand::Reg(v),
            b: Operand::Imm(0),
        });
        fb.push(Inst::CondBr {
            cond: Operand::Reg(c),
            then_to: t,
            else_to: e,
        });
        fb.switch_to(t);
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret {
            val: Some(Operand::Imm(1)),
        });
        fb.switch_to(e);
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret {
            val: Some(Operand::Imm(0)),
        });
        fb.build()
    }

    /// `*a = *a + 5` — the canonical SW pattern.
    fn inc_pattern(op: BinOp, swapped: bool) -> Function {
        let mut fb = FunctionBuilder::new("i", 1);
        let v = fb.reg();
        let s = fb.reg();
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        let (a, b) = if swapped {
            (Operand::Imm(5), Operand::Reg(v))
        } else {
            (Operand::Reg(v), Operand::Imm(5))
        };
        fb.push(Inst::Bin { op, dst: s, a, b });
        fb.push(Inst::TmStore {
            addr: Operand::Reg(0),
            val: Operand::Reg(s),
        });
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret { val: None });
        fb.build()
    }

    #[test]
    fn cmp_becomes_s1r() {
        let mut f = cmp_pattern();
        assert_eq!(f.barrier_count(), 1, "one load before the passes");
        let r = run_tm_passes(&mut f);
        assert_eq!(r.s1r, 1);
        assert_eq!(r.loads_removed, 1, "the feeding load must die");
        assert_eq!(f.barrier_count(), 1, "exactly one S1R barrier remains");
        assert_eq!(f.count_insts(|i| matches!(i, Inst::TmCmpVal { .. })), 1);
        assert_eq!(f.count_insts(|i| matches!(i, Inst::TmLoad { .. })), 0);
    }

    #[test]
    fn add_and_sub_become_sw() {
        for (op, swapped, negate) in [
            (BinOp::Add, false, false),
            (BinOp::Add, true, false),
            (BinOp::Sub, false, true),
        ] {
            let mut f = inc_pattern(op, swapped);
            let r = run_tm_passes(&mut f);
            assert_eq!(r.sw, 1, "{op:?} swapped={swapped}");
            assert_eq!(r.loads_removed, 1);
            let incs: Vec<bool> = f
                .blocks
                .iter()
                .flat_map(|b| b.insts.iter())
                .filter_map(|i| match i {
                    Inst::TmInc { negate, .. } => Some(*negate),
                    _ => None,
                })
                .collect();
            assert_eq!(incs, vec![negate]);
            assert_eq!(f.barrier_count(), 1, "two TM calls became one");
        }
    }

    #[test]
    fn sub_with_load_on_right_is_not_an_inc() {
        // *a = 5 - *a must NOT become an increment.
        let mut f = inc_pattern(BinOp::Sub, true);
        let r = run_tm_passes(&mut f);
        assert_eq!(r.sw, 0);
        assert_eq!(f.count_insts(|i| matches!(i, Inst::TmStore { .. })), 1);
    }

    #[test]
    fn cmp_of_two_loads_becomes_s2r() {
        let mut fb = FunctionBuilder::new("q", 2);
        let v1 = fb.reg();
        let v2 = fb.reg();
        let c = fb.reg();
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v1,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::TmLoad {
            dst: v2,
            addr: Operand::Reg(1),
        });
        fb.push(Inst::Cmp {
            op: CmpOp::Eq,
            dst: c,
            a: Operand::Reg(v1),
            b: Operand::Reg(v2),
        });
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(c)),
        });
        let mut f = fb.build();
        let r = run_tm_passes(&mut f);
        assert_eq!(r.s2r, 1);
        assert_eq!(r.loads_removed, 2);
        assert_eq!(f.barrier_count(), 1, "three TM calls became one");
    }

    #[test]
    fn live_load_is_kept_after_cmp_rewrite() {
        // The loaded value is also stored back — the load must survive.
        let mut fb = FunctionBuilder::new("keep", 1);
        let v = fb.reg();
        let c = fb.reg();
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Cmp {
            op: CmpOp::Gt,
            dst: c,
            a: Operand::Reg(v),
            b: Operand::Imm(0),
        });
        fb.push(Inst::TmStore {
            addr: Operand::Reg(0),
            val: Operand::Reg(v),
        });
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(c)),
        });
        let mut f = fb.build();
        let r = run_tm_passes(&mut f);
        assert_eq!(r.s1r, 1);
        assert_eq!(r.loads_removed, 0, "value is still live");
        assert_eq!(f.count_insts(|i| matches!(i, Inst::TmLoad { .. })), 1);
    }

    #[test]
    fn address_redefinition_blocks_inc_match() {
        // r0 is overwritten between load and store: *different* address.
        let mut fb = FunctionBuilder::new("redef", 1);
        let v = fb.reg();
        let s = fb.reg();
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Bin {
            op: BinOp::Add,
            dst: s,
            a: Operand::Reg(v),
            b: Operand::Imm(1),
        });
        fb.push(Inst::Bin {
            op: BinOp::Add,
            dst: 0,
            a: Operand::Reg(0),
            b: Operand::Imm(8),
        });
        fb.push(Inst::TmStore {
            addr: Operand::Reg(0),
            val: Operand::Reg(s),
        });
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret { val: None });
        let mut f = fb.build();
        let r = tm_mark(&mut f);
        assert_eq!(r.sw, 0, "must not match across an address redefinition");
    }

    #[test]
    fn address_redefinition_blocks_cmp_match() {
        // Regression (satellite fix): the address register is redefined
        // between the load and the compare. The seed's syntactic
        // matcher promoted this to `tmcmp r0, 0`, which would re-read
        // the *new* address; reaching-definition identity rejects it.
        let mut fb = FunctionBuilder::new("cmp_redef", 1);
        let v = fb.reg();
        let c = fb.reg();
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Bin {
            op: BinOp::Add,
            dst: 0,
            a: Operand::Reg(0),
            b: Operand::Imm(8),
        });
        fb.push(Inst::Cmp {
            op: CmpOp::Gt,
            dst: c,
            a: Operand::Reg(v),
            b: Operand::Imm(0),
        });
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(c)),
        });
        let mut f = fb.build();
        let r = run_tm_passes(&mut f);
        assert_eq!(r.s1r, 0, "promotion would compare the wrong address");
        assert_eq!(f.count_insts(|i| matches!(i, Inst::Cmp { .. })), 1);
    }

    #[test]
    fn intervening_store_blocks_cmp_match() {
        // Regression: the transaction writes the compared address
        // between the load and the compare; a promoted `tmcmp` would
        // observe the new value instead of the loaded one.
        let mut fb = FunctionBuilder::new("cmp_wr", 1);
        let v = fb.reg();
        let c = fb.reg();
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::TmStore {
            addr: Operand::Reg(0),
            val: Operand::Imm(99),
        });
        fb.push(Inst::Cmp {
            op: CmpOp::Gt,
            dst: c,
            a: Operand::Reg(v),
            b: Operand::Imm(0),
        });
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(c)),
        });
        let mut f = fb.build();
        let r = run_tm_passes(&mut f);
        assert_eq!(r.s1r, 0, "promotion would observe the stored value");
    }

    #[test]
    fn intervening_store_blocks_inc_match() {
        // Regression: `*a = old(*a) + 1` with a store to `*a` in
        // between is NOT an increment of the current value.
        let mut fb = FunctionBuilder::new("inc_wr", 1);
        let v = fb.reg();
        let s = fb.reg();
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::TmStore {
            addr: Operand::Reg(0),
            val: Operand::Imm(5),
        });
        fb.push(Inst::Bin {
            op: BinOp::Add,
            dst: s,
            a: Operand::Reg(v),
            b: Operand::Imm(1),
        });
        fb.push(Inst::TmStore {
            addr: Operand::Reg(0),
            val: Operand::Reg(s),
        });
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret { val: None });
        let mut f = fb.build();
        let r = run_tm_passes(&mut f);
        assert_eq!(r.sw, 0, "must not fold across an intervening store");
    }

    #[test]
    fn cross_block_cmp_becomes_s1r() {
        // The acceptance pattern: load in one block, compare in a
        // successor — the seed's block-local matcher always missed it.
        let mut fb = FunctionBuilder::new("xb", 1);
        let v = fb.reg();
        let c = fb.reg();
        let test = fb.block("test");
        let t = fb.block("t");
        let e = fb.block("e");
        fb.switch_to(0);
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Br { target: test });
        fb.switch_to(test);
        fb.push(Inst::Cmp {
            op: CmpOp::Gt,
            dst: c,
            a: Operand::Reg(v),
            b: Operand::Imm(0),
        });
        fb.push(Inst::CondBr {
            cond: Operand::Reg(c),
            then_to: t,
            else_to: e,
        });
        fb.switch_to(t);
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret {
            val: Some(Operand::Imm(1)),
        });
        fb.switch_to(e);
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret {
            val: Some(Operand::Imm(0)),
        });
        let mut f = fb.build();
        let before = f.barrier_count();
        let r = run_tm_passes(&mut f);
        assert_eq!(r.s1r, 1, "cross-block comparison is promoted");
        assert_eq!(r.loads_removed, 1, "the cross-block feeding load dies");
        assert_eq!(f.barrier_count(), before, "load+cmp became one S1R");
        assert_eq!(f.count_insts(|i| matches!(i, Inst::TmLoad { .. })), 0);
    }

    #[test]
    fn liveness_across_blocks_protects_loads() {
        // Load in block 0, use in block 1 — never-live analysis must see
        // the cross-block use.
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
        let mut f = fb.build();
        let r = tm_optimize(&mut f);
        assert_eq!(r.loads_removed, 0);
    }

    #[test]
    fn checked_passes_reject_invalid_ir() {
        // A function whose only path returns inside an open region.
        let f = Function {
            name: "openret".into(),
            num_args: 0,
            num_regs: 0,
            blocks: vec![crate::ir::Block {
                label: "entry".into(),
                insts: vec![Inst::TmBegin, Inst::Ret { val: None }],
            }],
        };
        let err = run_tm_passes_checked(&mut f.clone()).unwrap_err();
        assert!(err.message.contains("still open"), "{err}");
    }
}
