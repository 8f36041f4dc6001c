//! `semlint`: semantic-misuse diagnostics for IR programs.
//!
//! The paper's semantic builtins shift work from the STM runtime to the
//! compiler — and with that shift comes a new class of *static* misuse
//! that a runtime can no longer catch. This module checks for them on
//! whole functions, using the [`crate::analysis`] framework:
//!
//! Each rule has a one-defect seed fixture under `programs/lintcases/`
//! (the example column; asserted exact by `tests/lintcases.rs`):
//!
//! | rule | severity | meaning | example |
//! |-------|---------|---------|---------|
//! | SL000 | error   | the strict IR verifier rejected the function | `programs/lintcases/sl000.ir:8:3` |
//! | SL001 | error   | transactional read of an address after `_ITM_SW` in the same region (the deferred semantic increment is not forwarded to reads) | `programs/lintcases/sl001.ir:10:3` |
//! | SL002 | warning | non-transactional access to an address also accessed inside an atomic region (privatization hazard) | `programs/lintcases/sl002.ir:12:3` |
//! | SL003 | info    | a `cmp`/`inc` pattern was *almost* promotable; reports why the matcher declined | `programs/lintcases/sl003.ir:10:3` |
//! | SL004 | warning | duplicate transactional load of the same address with no intervening write (downgraded to info when the pass pipeline folds it) | `programs/lintcases/sl004.ir:10:3` |
//! | SL005 | warning | a register definition whose value is never used (dead store) | `programs/lintcases/sl005.ir:11:3` |
//! | SL006 | warning | two distinct atomic regions statically guaranteed to collide on a raw, non-reducible access | `programs/lintcases/sl006.ir:12:3` |
//! | SL007 | warning | a comparison whose outcome value-range analysis decides at compile time | `programs/lintcases/sl007.ir:12:3` |
//! | SL008 | info    | a range-widened `tmcmp` promotion is provable but declined: the right-hand side is a register with a provably constant value, not an immediate | `programs/lintcases/sl008.ir:16:3` |
//! | SL009 | info    | an atomic region that provably never writes (read-only fast-path candidate) | `programs/lintcases/sl009.ir:7:3` |
//! | SL010 | warning | an address loaded inside an atomic region dereferenced after the region ended (escaped-pointer hazard) | `programs/lintcases/sl010.ir:12:3` |
//! | SL011 | error   | a semantic builtin (`tmcmp`/`tmcmp2`/`tminc`) outside any atomic region | `programs/lintcases/sl011.ir:7:3` |
//!
//! Rules SL006–SL009 drive off the [`crate::analysis::absint`]
//! abstract interpreter: the conflict matrix (SL006, SL009), interval
//! queries (SL007) and the range-widening candidate scan (SL008).
//!
//! Diagnostics carry the instruction position and, when the function
//! came from [`crate::parser::parse_function_spanned`], the source
//! line/column. Only `error`-severity findings should fail a build;
//! `warning`s describe performance or robustness smells the `tm_mark` /
//! `tm_optimize` pipeline usually removes.

use crate::analysis::absint::Overlap;
use crate::analysis::absint::{widen_candidates, WidenCandidate};
use crate::analysis::verify::{check_flow, check_structure};
use crate::analysis::{
    AbsInt, Cfg, CmpMatch, ConflictAnalysis, Decline, Interval, Liveness, PatternCtx, Pos,
    ReachingDefs, Regions, ValueOrigin,
};
use crate::ir::{Function, Inst, Operand};
use crate::parser::{SourceMap, Span};

/// How bad a finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Definitely wrong; `semlint` exits nonzero.
    Error,
    /// Suspicious or wasteful, but executable.
    Warning,
    /// An observation (e.g. a missed-promotion explanation).
    Info,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        })
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`SL000`..`SL011`).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Function the finding is in.
    pub func: String,
    /// Instruction position, when attributable.
    pub pos: Option<Pos>,
    /// Source span, when the function carries a [`SourceMap`].
    pub span: Option<Span>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Render as `file:line:col: severity[RULE] message` (falling back
    /// to block/instruction coordinates without a span).
    pub fn render(&self, file: &str) -> String {
        match (self.span, self.pos) {
            (Some(s), _) => format!(
                "{file}:{}:{}: {}[{}] {}",
                s.line, s.col, self.severity, self.rule, self.message
            ),
            (None, Some((b, i))) => format!(
                "{file}: {} (block {b}, inst {i}): {}[{}] {}",
                self.func, self.severity, self.rule, self.message
            ),
            (None, None) => format!(
                "{file}: {}: {}[{}] {}",
                self.func, self.severity, self.rule, self.message
            ),
        }
    }
}

/// Rule catalogue: `(id, severity, summary)` — also printed by
/// `semlint --rules`.
pub const RULES: &[(&str, Severity, &str)] = &[
    (
        "SL000",
        Severity::Error,
        "function rejected by the strict IR verifier",
    ),
    (
        "SL001",
        Severity::Error,
        "transactional read of an address after _ITM_SW in the same atomic region",
    ),
    (
        "SL002",
        Severity::Warning,
        "non-transactional access to an address also accessed inside an atomic region",
    ),
    (
        "SL003",
        Severity::Info,
        "cmp/inc pattern close to promotable; explains why the matcher declined",
    ),
    (
        "SL004",
        Severity::Warning,
        "duplicate transactional load of the same address with no intervening write",
    ),
    (
        "SL005",
        Severity::Warning,
        "register definition whose value is never used (dead store)",
    ),
    (
        "SL006",
        Severity::Warning,
        "two distinct atomic regions statically guaranteed to collide on a raw access",
    ),
    (
        "SL007",
        Severity::Warning,
        "comparison whose outcome value-range analysis decides at compile time",
    ),
    (
        "SL008",
        Severity::Info,
        "provable range-widened tmcmp promotion declined: rhs is a constant-valued register, not an immediate",
    ),
    (
        "SL009",
        Severity::Info,
        "atomic region that provably never writes (read-only fast-path candidate)",
    ),
    (
        "SL010",
        Severity::Warning,
        "address loaded inside an atomic region dereferenced after the region ended",
    ),
    (
        "SL011",
        Severity::Error,
        "semantic builtin (tmcmp/tmcmp2/tminc) outside any atomic region",
    ),
];

/// The address operands a barrier instruction dereferences.
fn addresses(inst: &Inst) -> Vec<Operand> {
    match *inst {
        Inst::TmLoad { addr, .. }
        | Inst::TmStore { addr, .. }
        | Inst::TmCmpVal { addr, .. }
        | Inst::TmInc { addr, .. } => vec![addr],
        Inst::TmCmpAddr { a, b, .. } => vec![a, b],
        _ => vec![],
    }
}

fn is_mem_read(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::TmLoad { .. } | Inst::TmCmpVal { .. } | Inst::TmCmpAddr { .. }
    )
}

/// Lint one function. Pass the [`SourceMap`] from
/// [`crate::parser::parse_function_spanned`] to get `line:col` spans on
/// the diagnostics; `None` falls back to block/instruction coordinates.
pub fn lint_function(func: &Function, map: Option<&SourceMap>) -> Vec<Diagnostic> {
    let spanned = |pos: Option<Pos>, rule: &'static str, message: String| Diagnostic {
        rule,
        severity: severity_of(rule),
        func: func.name.clone(),
        pos,
        span: pos.and_then(|(b, i)| map.and_then(|m| m.span(b, i))),
        message,
    };

    // SL000: everything below assumes a verified function. One CFG
    // serves the verifier's flow checks and every analysis below.
    let verified = check_structure(func).and_then(|()| {
        let cfg = Cfg::new(func);
        check_flow(func, &cfg).map(|()| cfg)
    });
    let cfg = match verified {
        Ok(cfg) => cfg,
        Err(e) => {
            let pos = e.block.map(|b| (b, e.inst.unwrap_or(0)));
            return vec![spanned(pos, "SL000", format!("verifier: {}", e.message))];
        }
    };
    let rd = ReachingDefs::compute(func, &cfg);
    let live = Liveness::compute(func, &cfg);
    let cx = PatternCtx::new(func, &cfg, &rd);
    let absint = AbsInt::compute(func, &cfg);
    let regions = Regions::compute(func, &cfg);
    let conflicts = ConflictAnalysis::compute(func, &absint, &regions);
    let depth = |p: Pos| regions.depth(p);
    let mut out: Vec<Diagnostic> = Vec::new();

    let reach = Reach::new(&cfg);

    // Every memory access: (position, instruction).
    let accesses: Vec<Pos> = func
        .blocks
        .iter()
        .enumerate()
        .flat_map(|(b, blk)| {
            blk.insts
                .iter()
                .enumerate()
                .filter(|(_, inst)| !addresses(inst).is_empty())
                .map(move |(i, _)| (b, i))
        })
        .collect();
    let inst_at = |p: Pos| &func.blocks[p.0].insts[p.1];
    // Address identity: same register with identical reaching sets, OR
    // the same resolved value origin — the latter sees through `mov`
    // copy chains, which register-name identity cannot.
    let same_addr = |p: Pos, q: Pos| {
        addresses(inst_at(p)).iter().any(|&ap| {
            addresses(inst_at(q)).iter().any(|&aq| {
                rd.operand_identical(ap, p, aq, q) || {
                    let oa = rd.operand_origin(func, ap, p);
                    oa != ValueOrigin::Unknown && oa == rd.operand_origin(func, aq, q)
                }
            })
        })
    };

    // SL001: a deferred semantic increment followed by a transactional
    // read of the same address in the same region. `_ITM_SW` adds the
    // delta to the *semantic write set*; a later read is served from
    // memory and silently misses the increment.
    for &p in &accesses {
        if !matches!(inst_at(p), Inst::TmInc { .. }) || depth(p) == 0 {
            continue;
        }
        for &q in &accesses {
            if q != p
                && is_mem_read(inst_at(q))
                && depth(q) > 0
                && reach.may_follow(p, q)
                && same_addr(p, q)
            {
                out.push(spanned(
                    Some(q),
                    "SL001",
                    format!(
                        "transactional read of an address incremented by _ITM_SW at \
                         ({}, {}) in the same atomic region; the deferred increment \
                         is not visible to reads",
                        p.0, p.1
                    ),
                ));
            }
        }
    }

    // SL002: the same address is touched both inside an atomic region
    // and outside one — the outside access races with other
    // transactions (privatization hazard).
    for &q in &accesses {
        if depth(q) != 0 {
            continue;
        }
        if let Some(&p) = accesses.iter().find(|&&p| depth(p) > 0 && same_addr(p, q)) {
            out.push(spanned(
                Some(q),
                "SL002",
                format!(
                    "non-transactional access to an address also accessed inside an \
                     atomic region (at ({}, {})); concurrent transactions may race \
                     with it",
                    p.0, p.1
                ),
            ));
        }
    }

    // SL003: almost-promotable patterns, with the matcher's reason.
    // `NotALoad` sides are ordinary arithmetic, not missed opportunities.
    let interesting = |d: Decline| !matches!(d, Decline::NotALoad);
    for (b, blk) in func.blocks.iter().enumerate() {
        for (i, inst) in blk.insts.iter().enumerate() {
            match inst {
                Inst::Cmp { .. } => {
                    if let CmpMatch::No { a, b: rb } = cx.match_cmp((b, i)) {
                        for d in [a, rb].into_iter().filter(|&d| interesting(d)) {
                            out.push(spanned(
                                Some((b, i)),
                                "SL003",
                                format!(
                                    "comparison not promoted to a semantic builtin: {}",
                                    d.reason()
                                ),
                            ));
                        }
                    }
                }
                Inst::TmStore { .. } => {
                    if let Err(d) = cx.match_inc((b, i)) {
                        if interesting(d) {
                            out.push(spanned(
                                Some((b, i)),
                                "SL003",
                                format!("store not promoted to _ITM_SW: {}", d.reason()),
                            ));
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // SL004: two loads of the identical address with nothing in between
    // that could change the value — the second pays a second barrier
    // (and, on NOrec, a second validation) for the same word. A finding
    // the pass pipeline provably folds away is only informational; one
    // that *survives* the pipeline is a real extra validation and stays
    // a warning.
    let dups = duplicate_load_pairs(func, &reach, &rd, &cx);
    if !dups.is_empty() {
        let folded = {
            let mut opt = func.clone();
            let _ = crate::passes::run_tm_passes(&mut opt);
            let ocfg = Cfg::new(&opt);
            let ord = ReachingDefs::compute(&opt, &ocfg);
            let ocx = PatternCtx::new(&opt, &ocfg, &ord);
            duplicate_load_pairs(&opt, &Reach::new(&ocfg), &ord, &ocx).is_empty()
        };
        let verdict = if folded {
            "the tm_mark/tm_optimize pipeline folds this"
        } else {
            "the pass pipeline cannot fold this"
        };
        for (p, q) in dups {
            let mut d = spanned(
                Some(q),
                "SL004",
                format!(
                    "duplicate transactional load of the same address (first \
                     loaded at ({}, {})); {verdict}",
                    p.0, p.1
                ),
            );
            if folded {
                d.severity = Severity::Info;
            }
            out.push(d);
        }
    }

    // SL005: definitions whose value is never used. Mirrors what
    // tm_optimize removes, but also covers side-effect-free ALU results.
    for (b, blk) in func.blocks.iter().enumerate() {
        for (i, inst) in blk.insts.iter().enumerate() {
            let pure = matches!(
                inst,
                Inst::Mov { .. }
                    | Inst::Bin { .. }
                    | Inst::Cmp { .. }
                    | Inst::Not { .. }
                    | Inst::TmLoad { .. }
            );
            match inst.def() {
                Some(d) if pure && !live.live_at((b, i + 1)).contains(d as usize) => {
                    out.push(spanned(
                        Some((b, i)),
                        "SL005",
                        format!("result r{d} is never used (dead store)"),
                    ));
                }
                _ => {}
            }
        }
    }

    // SL006: two distinct regions in this function statically
    // guaranteed to collide on a raw access when two threads run them
    // concurrently — neither byte nor semantic validation can ride
    // through it, so one side always aborts.
    for i in 0..conflicts.summaries.len() {
        for j in i + 1..conflicts.summaries.len() {
            let Some(c) = conflicts.conflict(i, j) else {
                continue;
            };
            if c.overlap == Overlap::Must && !c.reducible {
                out.push(spanned(
                    Some(c.witness.1),
                    "SL006",
                    format!(
                        "atomic regions R{i} and R{j} are statically guaranteed \
                         to conflict: this access collides with ({}, {}) on the \
                         same word and is not semantically reducible",
                        c.witness.0 .0, c.witness.0 .1
                    ),
                ));
            }
        }
    }

    // SL007: a comparison whose outcome the value ranges already
    // decide — the check is dead weight, and a guard that can never
    // fire usually hides a logic error.
    let show = |iv: Interval| {
        if iv == Interval::TOP {
            "(-inf..inf)".to_string()
        } else {
            format!("[{}..{}]", iv.lo, iv.hi)
        }
    };
    for (b, blk) in func.blocks.iter().enumerate() {
        for (i, inst) in blk.insts.iter().enumerate() {
            let Inst::Cmp { op, a, b: rb, .. } = *inst else {
                continue;
            };
            if !absint.state_reachable((b, i)) {
                continue;
            }
            let va = absint.operand((b, i), a).range;
            let vb = absint.operand((b, i), rb).range;
            if let Some(outcome) = Interval::cmp_always(op, va, vb) {
                out.push(spanned(
                    Some((b, i)),
                    "SL007",
                    format!(
                        "comparison is always {outcome} by value-range analysis \
                         (lhs in {}, rhs in {})",
                        show(va),
                        show(vb)
                    ),
                ));
            }
        }
    }

    // SL008: every proof obligation of the range-widened promotion
    // holds, but the compared-against side is a register — tm_widen
    // only bakes manifest immediates into the rewritten tmcmp.
    for cand in widen_candidates(func, &cfg, &rd, &absint, &regions) {
        let WidenCandidate::DeclinedSingleton {
            pos,
            load_at,
            c,
            witness,
        } = cand
        else {
            continue;
        };
        let k = witness.singleton().unwrap_or(witness.lo);
        out.push(spanned(
            Some(pos),
            "SL008",
            format!(
                "range analysis proves this compare of load({}, {})+{c} is \
                 tmcmp-promotable (the right-hand register always holds {k}), \
                 but the rewrite needs an immediate; use {k} directly",
                load_at.0, load_at.1
            ),
        ));
    }

    // SL009: a region that provably never writes can take a read-only
    // fast path — no write-set bookkeeping, no deferred increments.
    for s in &conflicts.summaries {
        if s.is_read_only() {
            out.push(spanned(
                regions.begins(s.region).first().copied(),
                "SL009",
                format!(
                    "atomic region R{} only reads and compares; eligible for a \
                     read-only fast path",
                    s.region
                ),
            ));
        }
    }

    // SL010: an address computed from a value loaded inside an atomic
    // region, dereferenced after the region ended — once the
    // transaction commits, nothing keeps the pointed-to word stable
    // (escaped-pointer hazard).
    for &q in &accesses {
        if depth(q) != 0 {
            continue;
        }
        for aq in addresses(inst_at(q)) {
            let ValueOrigin::Def(p) = rd.operand_origin(func, aq, q) else {
                continue;
            };
            if matches!(inst_at(p), Inst::TmLoad { .. }) && regions.region(p).is_some() {
                out.push(spanned(
                    Some(q),
                    "SL010",
                    format!(
                        "dereferences an address loaded inside an atomic region \
                         (at ({}, {})) after that region ended; the pointed-to \
                         word is unprotected here",
                        p.0, p.1
                    ),
                ));
            }
        }
    }

    // SL011: a semantic builtin with no enclosing region. The verifier
    // allows plain loads/stores outside regions (they are ordinary
    // accesses), but tmcmp/tmcmp2/tminc have no transaction to attach
    // their deferred semantics to.
    for &q in &accesses {
        if depth(q) == 0
            && matches!(
                inst_at(q),
                Inst::TmInc { .. } | Inst::TmCmpVal { .. } | Inst::TmCmpAddr { .. }
            )
        {
            out.push(spanned(
                Some(q),
                "SL011",
                "semantic builtin outside any atomic region; there is no \
                 transaction to defer the operation into"
                    .to_string(),
            ));
        }
    }

    out.sort_by(|x, y| (x.pos, x.rule).cmp(&(y.pos, y.rule)));
    out.dedup();
    out
}

/// The rule's severity in [`RULES`].
fn severity_of(rule: &str) -> Severity {
    RULES
        .iter()
        .find(|r| r.0 == rule)
        .unwrap_or_else(|| panic!("{rule} is not in RULES"))
        .1
}

/// Block-level may-reachability through at least one edge:
/// `self.0[a][b]` when block `b` can run after block `a`.
struct Reach(Vec<Vec<bool>>);

impl Reach {
    fn new(cfg: &Cfg) -> Reach {
        let n = cfg.succs.len();
        let mut reach = vec![vec![false; n]; n];
        for (b, row) in reach.iter_mut().enumerate() {
            let mut stack = cfg.succs[b].clone();
            while let Some(s) = stack.pop() {
                if !row[s] {
                    row[s] = true;
                    stack.extend(cfg.succs[s].iter());
                }
            }
        }
        Reach(reach)
    }

    /// Can the instruction at `q` run after the one at `p`?
    fn may_follow(&self, p: Pos, q: Pos) -> bool {
        (p.0 == q.0 && q.1 > p.1) || self.0[p.0][q.0]
    }
}

/// All `(first, second)` pairs of transactional loads of the identical
/// address with a provably clean path between them (the SL004 shape).
fn duplicate_load_pairs(
    func: &Function,
    reach: &Reach,
    rd: &ReachingDefs,
    cx: &PatternCtx,
) -> Vec<(Pos, Pos)> {
    let mut out = Vec::new();
    for (bp, blkp) in func.blocks.iter().enumerate() {
        for (ip, instp) in blkp.insts.iter().enumerate() {
            let Inst::TmLoad { addr: ap, .. } = *instp else {
                continue;
            };
            let p = (bp, ip);
            for (bq, blkq) in func.blocks.iter().enumerate() {
                for (iq, instq) in blkq.insts.iter().enumerate() {
                    let Inst::TmLoad { addr: aq, .. } = *instq else {
                        continue;
                    };
                    let q = (bq, iq);
                    if q == p || !reach.may_follow(p, q) || !rd.operand_identical(ap, p, aq, q) {
                        continue;
                    }
                    let protect: Vec<_> = ap.reg().into_iter().collect();
                    if cx.clean_path(p, q, &protect).is_ok() {
                        out.push((p, q));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_function, parse_function_spanned};

    fn lint_src(src: &str) -> Vec<Diagnostic> {
        lint_function(&parse_function(src).unwrap(), None)
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn read_after_sw_is_an_error() {
        let d = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  tminc r0, 1
  r1 = tmload r0
  tmend
  ret r1
}
",
        );
        assert!(rules_of(&d).contains(&"SL001"), "{d:?}");
        let sl1 = d.iter().find(|d| d.rule == "SL001").unwrap();
        assert_eq!(sl1.severity, Severity::Error);
        assert_eq!(sl1.pos, Some((0, 2)));
    }

    #[test]
    fn read_of_other_address_after_sw_is_fine() {
        let d = lint_src(
            r"
func f(2) {
entry:
  tmbegin
  tminc r0, 1
  r2 = tmload r1
  tmend
  ret r2
}
",
        );
        assert!(!rules_of(&d).contains(&"SL001"), "{d:?}");
    }

    #[test]
    fn nontransactional_access_warns() {
        // The tail re-reads r0 outside the region (classic privatization
        // shape).
        let d = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  tmstore r0, 1
  tmend
  r2 = tmload r0
  ret r2
}
",
        );
        let sl2: Vec<_> = d.iter().filter(|d| d.rule == "SL002").collect();
        assert_eq!(sl2.len(), 1, "{d:?}");
        assert_eq!(sl2[0].pos, Some((0, 4)));
        assert_eq!(sl2[0].severity, Severity::Warning);
    }

    #[test]
    fn missed_promotion_reports_reason() {
        // Intervening store blocks the cmp promotion; SL003 explains.
        let d = lint_src(
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
        );
        let sl3: Vec<_> = d.iter().filter(|d| d.rule == "SL003").collect();
        assert_eq!(sl3.len(), 1, "{d:?}");
        assert!(sl3[0].message.contains("write may execute"), "{sl3:?}");
        assert_eq!(sl3[0].severity, Severity::Info);
    }

    #[test]
    fn duplicate_load_warns_and_intervening_store_suppresses() {
        let dup = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  r2 = tmload r0
  r3 = add r1, r2
  tmend
  ret r3
}
",
        );
        let sl4: Vec<_> = dup.iter().filter(|d| d.rule == "SL004").collect();
        assert_eq!(sl4.len(), 1, "{dup:?}");
        assert_eq!(sl4[0].pos, Some((0, 2)));

        let stored = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  tmstore r0, 7
  r2 = tmload r0
  r3 = add r1, r2
  tmend
  ret r3
}
",
        );
        assert!(!rules_of(&stored).contains(&"SL004"), "{stored:?}");
    }

    #[test]
    fn dead_definition_warns() {
        let d = lint_src(
            r"
func f(1) {
entry:
  r1 = add r0, 1
  ret r0
}
",
        );
        let sl5: Vec<_> = d.iter().filter(|d| d.rule == "SL005").collect();
        assert_eq!(sl5.len(), 1, "{d:?}");
        assert!(sl5[0].message.contains("r1"), "{sl5:?}");
    }

    #[test]
    fn invalid_function_reports_verifier_error_only() {
        let d = lint_src("func f(0) {\nentry:\n  tmbegin\n  ret\n}\n");
        assert_eq!(rules_of(&d), vec!["SL000"], "{d:?}");
        assert_eq!(d[0].severity, Severity::Error);
    }

    #[test]
    fn diagnostics_carry_source_spans() {
        let src = "func f(1) {\nentry:\n  tmbegin\n  tminc r0, 1\n  r1 = tmload r0\n  tmend\n  ret r1\n}\n";
        let (f, map) = parse_function_spanned(src).unwrap();
        let d = lint_function(&f, Some(&map));
        let sl1 = d.iter().find(|d| d.rule == "SL001").unwrap();
        let span = sl1.span.expect("span present");
        assert_eq!(span.line, 5);
        let rendered = sl1.render("x.ir");
        assert!(rendered.starts_with("x.ir:5:3: error[SL001]"), "{rendered}");
    }

    #[test]
    fn copied_address_still_trips_privatization_warning() {
        // The depth-0 access goes through a `mov` of the region's
        // address register: register-name identity misses it, the
        // copy-chain origin does not.
        let d = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  tmstore r0, 1
  tmend
  r1 = mov r0
  r2 = tmload r1
  ret r2
}
",
        );
        let sl2: Vec<_> = d.iter().filter(|d| d.rule == "SL002").collect();
        assert_eq!(sl2.len(), 1, "{d:?}");
        assert_eq!(sl2[0].pos, Some((0, 4)));
    }

    #[test]
    fn foldable_duplicate_load_is_downgraded_to_info() {
        // The first load only feeds a promotable compare: tm_mark turns
        // the compare into a tmcmp, tm_optimize removes the orphaned
        // load, and the duplicate is gone — info, not warning.
        let d = lint_src(
            r"
func f(2) {
entry:
  tmbegin
  r2 = tmload r0
  r3 = cmp.gt r2, 0
  r4 = tmload r0
  r5 = add r4, r3
  tminc r1, 1
  tmend
  ret r5
}
",
        );
        assert_eq!(rules_of(&d), vec!["SL004"], "{d:?}");
        assert_eq!(d[0].severity, Severity::Info);
        assert!(d[0].message.contains("folds this"), "{d:?}");
    }

    #[test]
    fn guaranteed_region_conflict_warns() {
        let d = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  tmstore r0, 1
  tmend
  tmbegin
  tmstore r0, 2
  tmend
  ret
}
",
        );
        assert_eq!(rules_of(&d), vec!["SL006"], "{d:?}");
        assert_eq!(d[0].pos, Some((0, 4)));
        assert!(d[0].message.contains("R0 and R1"), "{d:?}");
    }

    #[test]
    fn range_decided_comparison_warns() {
        // r1 >= 10 on the then-edge makes `r1 > 5` always true.
        let d = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  r2 = cmp.gte r1, 10
  condbr r2, big, out
big:
  r3 = cmp.gt r1, 5
  tmstore r0, r3
  tmend
  ret r3
out:
  tmend
  ret 0
}
",
        );
        assert_eq!(rules_of(&d), vec!["SL007"], "{d:?}");
        assert_eq!(d[0].pos, Some((1, 0)));
        assert!(d[0].message.contains("always true"), "{d:?}");
    }

    #[test]
    fn declined_singleton_promotion_reports_info() {
        let d = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  r2 = cmp.lte r1, 100
  condbr r2, ok, out
ok:
  r3 = add r1, 27
  r5 = const 77
  r4 = cmp.gt r3, r5
  tmstore r0, 1
  tmend
  ret r4
out:
  tmend
  ret 0
}
",
        );
        assert_eq!(rules_of(&d), vec!["SL008"], "{d:?}");
        assert_eq!(d[0].severity, Severity::Info);
        assert!(d[0].message.contains("use 77 directly"), "{d:?}");
    }

    #[test]
    fn read_only_region_reports_fast_path_candidate() {
        let d = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmcmp.gt r0, 10
  tmend
  ret r1
}
",
        );
        assert_eq!(rules_of(&d), vec!["SL009"], "{d:?}");
        assert_eq!(d[0].pos, Some((0, 0)), "anchored at the tmbegin");
        assert_eq!(d[0].severity, Severity::Info);
    }

    #[test]
    fn escaped_pointer_dereference_warns() {
        let d = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  tmstore r0, 5
  tmend
  r2 = tmload r1
  ret r2
}
",
        );
        assert_eq!(rules_of(&d), vec!["SL010"], "{d:?}");
        assert_eq!(d[0].pos, Some((0, 4)));
        let deref_in_region = lint_src(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  r2 = tmload r1
  tmend
  ret r2
}
",
        );
        assert!(
            !rules_of(&deref_in_region).contains(&"SL010"),
            "in-region deref is protected: {deref_in_region:?}"
        );
    }

    #[test]
    fn semantic_builtin_outside_region_is_an_error() {
        let d = lint_src(
            r"
func f(1) {
entry:
  tminc r0, 1
  ret
}
",
        );
        assert_eq!(rules_of(&d), vec!["SL011"], "{d:?}");
        assert_eq!(d[0].severity, Severity::Error);
        assert_eq!(d[0].pos, Some((0, 0)));
    }

    #[test]
    fn builtin_programs_have_no_errors() {
        for (path, f) in crate::programs::all() {
            let diags = lint_function(&f, None);
            assert!(
                diags.iter().all(|d| d.severity != Severity::Error),
                "{path}: {diags:?}"
            );
        }
    }

    #[test]
    fn cross_block_guard_lints_clean() {
        let d = lint_function(&crate::programs::cross_block_guard(), None);
        assert!(d.is_empty(), "{d:?}");
    }
}
