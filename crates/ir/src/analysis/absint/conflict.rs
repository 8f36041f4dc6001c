//! Static conflict analysis: per-region abstract access sets and the
//! region×region conflict matrix.
//!
//! This is the static twin of the runtime flight recorder: where
//! `semtm_core::Telemetry::hot_addresses()` *observes* which words two
//! transactions fought over, this module *predicts* the fight from the
//! abstract addresses the interpreter computed. The matrix is exported
//! by `semlint --conflicts` and backs rules `SL006` (a region pair that
//! must conflict on a raw access) and `SL009` (a provably read-only
//! region).
//!
//! Like-instance convention: two regions are compared as if both run
//! with the *same* argument values (two threads executing the same
//! kernel on the same object). Under that convention two `Arg`-based
//! addresses with the same base register and equal singleton offsets
//! denote the same word (`Must`); same base with disjoint offset sets
//! provably differ (`No`) — wrapping addition is injective in the
//! offset, so this holds even if the address arithmetic wrapped.

use super::super::reaching::Pos;
use super::regions::Regions;
use super::{AbsInt, AbsVal, Interval, Sym};
use crate::ir::{Function, Inst, Operand, Reg};

/// An abstract heap address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbsAddr {
    /// A compile-time constant word index.
    Const(i64),
    /// `entry(arg r) + offset`, offset drawn from the interval.
    Arg(Reg, Interval),
    /// No usable identity.
    Unknown,
}

impl AbsAddr {
    /// Project an abstract value to an address.
    pub fn from_value(v: AbsVal) -> AbsAddr {
        match v.sym {
            Sym::Arg(r, off) => AbsAddr::Arg(r, off),
            _ => match v.range.singleton() {
                Some(k) => AbsAddr::Const(k),
                None => AbsAddr::Unknown,
            },
        }
    }

    /// May/must overlap under the like-instance convention.
    pub fn overlap(self, other: AbsAddr) -> Overlap {
        match (self, other) {
            (AbsAddr::Const(a), AbsAddr::Const(b)) => {
                if a == b {
                    Overlap::Must
                } else {
                    Overlap::No
                }
            }
            (AbsAddr::Arg(r1, o1), AbsAddr::Arg(r2, o2)) if r1 == r2 => {
                match (o1.singleton(), o2.singleton()) {
                    (Some(a), Some(b)) if a == b => Overlap::Must,
                    _ if o1.meet(o2).is_empty() => Overlap::No,
                    _ => Overlap::May,
                }
            }
            // Different bases (or a base vs a raw constant) may alias:
            // nothing relates the argument values.
            _ => Overlap::May,
        }
    }
}

impl std::fmt::Display for AbsAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbsAddr::Const(k) => write!(f, "{k}"),
            AbsAddr::Arg(r, off) => {
                if let Some(k) = off.singleton() {
                    if k == 0 {
                        write!(f, "arg{r}")
                    } else {
                        write!(f, "arg{r}+{k}")
                    }
                } else if *off == Interval::TOP {
                    write!(f, "arg{r}+?")
                } else {
                    write!(f, "arg{r}+[{}..{}]", off.lo, off.hi)
                }
            }
            AbsAddr::Unknown => write!(f, "?"),
        }
    }
}

/// How strongly two abstract addresses can denote the same word.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Overlap {
    /// Provably distinct.
    No,
    /// Possibly the same word.
    May,
    /// Provably the same word.
    Must,
}

/// What an access does to its word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// `tmload` — a value read.
    Read,
    /// `tmstore` — a value write.
    Write,
    /// `tmcmp`/`tmcmp2` — a semantic read that only observes a
    /// relation.
    Compare,
    /// `tminc`/`tmdec` — a semantic, commutative read-modify-write.
    Inc,
}

impl AccessKind {
    fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Compare => "cmp",
            AccessKind::Inc => "inc",
        }
    }
}

/// One transactional memory access inside a region.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// Where the instruction sits.
    pub pos: Pos,
    /// Read / write / compare / inc.
    pub kind: AccessKind,
    /// The abstract address it touches.
    pub addr: AbsAddr,
}

/// The abstract read/write/compare set of one atomic region.
pub struct RegionSummary {
    /// Dense region index (matches [`Regions`]).
    pub region: usize,
    /// Every transactional access in the region, program order.
    pub accesses: Vec<Access>,
}

impl RegionSummary {
    /// True when the region performs no write and no increment — a
    /// candidate for a read-only fast path (`SL009`).
    pub fn is_read_only(&self) -> bool {
        !self.accesses.is_empty()
            && self
                .accesses
                .iter()
                .all(|a| matches!(a.kind, AccessKind::Read | AccessKind::Compare))
    }
}

/// One cell of the conflict matrix: the strongest way regions `i` and
/// `j` can collide.
#[derive(Clone, Copy, Debug)]
pub struct Conflict {
    /// How certain the address overlap is.
    pub overlap: Overlap,
    /// True when every colliding pair is semantically reducible —
    /// compare-vs-write and inc-vs-inc collisions that semantic
    /// validation can ride through (the paper's point), as opposed to
    /// raw read/write collisions byte validation must abort on.
    pub reducible: bool,
    /// A witness pair of positions, one per region.
    pub witness: (Pos, Pos),
}

/// Whole-function conflict analysis result.
pub struct ConflictAnalysis {
    /// Per-region access summaries.
    pub summaries: Vec<RegionSummary>,
    /// `matrix[i][j]` (i ≤ j): the conflict between regions i and j,
    /// if any pair of their accesses can overlap.
    matrix: Vec<Vec<Option<Conflict>>>,
}

/// Does a `k1` access colliding with a `k2` access conflict at all,
/// and if so, can semantic validation reduce it?
/// Returns `None` for non-conflicting pairs (read/read and anything
/// involving only observations), `Some(reducible)` otherwise.
fn classify(k1: AccessKind, k2: AccessKind) -> Option<bool> {
    use AccessKind::*;
    match (k1, k2) {
        // Pure observations never conflict with each other.
        (Read | Compare, Read | Compare) => None,
        // A compare against a concurrent writer/incrementer is the
        // paper's semantic win: validation re-checks the relation.
        (Compare, Write | Inc) | (Write | Inc, Compare) => Some(true),
        // Increments commute with each other.
        (Inc, Inc) => Some(true),
        // Everything else is a raw data conflict.
        _ => Some(false),
    }
}

impl ConflictAnalysis {
    /// Summarise every region of `func` and fold the pairwise matrix.
    pub fn compute(func: &Function, absint: &AbsInt, regions: &Regions) -> ConflictAnalysis {
        let mut summaries: Vec<RegionSummary> = (0..regions.count())
            .map(|region| RegionSummary {
                region,
                accesses: Vec::new(),
            })
            .collect();
        for (b, block) in func.blocks.iter().enumerate() {
            for (i, inst) in block.insts.iter().enumerate() {
                let pos = (b, i);
                let Some(region) = regions.region(pos) else {
                    continue;
                };
                if !absint.state_reachable(pos) {
                    continue;
                }
                let addr_of = |a: Operand| AbsAddr::from_value(absint.operand(pos, a));
                let mut push = |kind, addr| {
                    summaries[region].accesses.push(Access { pos, kind, addr });
                };
                match *inst {
                    Inst::TmLoad { addr, .. } => push(AccessKind::Read, addr_of(addr)),
                    Inst::TmStore { addr, .. } => push(AccessKind::Write, addr_of(addr)),
                    Inst::TmCmpVal { addr, .. } => push(AccessKind::Compare, addr_of(addr)),
                    Inst::TmCmpAddr { a, b: rb, .. } => {
                        push(AccessKind::Compare, addr_of(a));
                        push(AccessKind::Compare, addr_of(rb));
                    }
                    Inst::TmInc { addr, .. } => push(AccessKind::Inc, addr_of(addr)),
                    _ => {}
                }
            }
        }

        let n = summaries.len();
        let mut matrix = vec![vec![None; n]; n];
        for i in 0..n {
            for j in i..n {
                matrix[i][j] = cell(&summaries[i], &summaries[j]);
            }
        }
        ConflictAnalysis { summaries, matrix }
    }

    /// The conflict between regions `i` and `j`, if any (symmetric).
    pub fn conflict(&self, i: usize, j: usize) -> Option<Conflict> {
        let (i, j) = (i.min(j), i.max(j));
        self.matrix[i][j]
    }

    /// Render the matrix as the `--conflicts` report for one function.
    pub fn render(&self, func: &Function) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{}: {} region(s)", func.name, self.summaries.len());
        for s in &self.summaries {
            let _ = writeln!(
                out,
                "  region R{}{}:",
                s.region,
                if s.is_read_only() { " (read-only)" } else { "" }
            );
            for a in &s.accesses {
                let _ = writeln!(
                    out,
                    "    {:>5} {}  at ({},{})",
                    a.kind.label(),
                    a.addr,
                    a.pos.0,
                    a.pos.1
                );
            }
        }
        let mut any = false;
        for i in 0..self.summaries.len() {
            for j in i..self.summaries.len() {
                if let Some(c) = self.matrix[i][j] {
                    any = true;
                    let _ = writeln!(
                        out,
                        "  R{} x R{}: {} conflict{} — ({},{}) vs ({},{})",
                        i,
                        j,
                        match c.overlap {
                            Overlap::Must => "MUST",
                            Overlap::May => "may",
                            Overlap::No => unreachable!("No-overlap cells are None"),
                        },
                        if c.reducible {
                            " (semantically reducible)"
                        } else {
                            ""
                        },
                        c.witness.0 .0,
                        c.witness.0 .1,
                        c.witness.1 .0,
                        c.witness.1 .1,
                    );
                }
            }
        }
        if !any {
            let _ = writeln!(out, "  no region pair can conflict");
        }
        out
    }
}

/// Fold all access pairs of two regions into the strongest conflict.
/// Raw beats reducible, Must beats May; the witness tracks the
/// strongest pair seen.
fn cell(a: &RegionSummary, b: &RegionSummary) -> Option<Conflict> {
    let mut best: Option<Conflict> = None;
    for x in &a.accesses {
        for y in &b.accesses {
            // Within one region (self-pairing under the like-instance
            // convention) every pair still counts: two instances of the
            // same region racing each other.
            let Some(reducible) = classify(x.kind, y.kind) else {
                continue;
            };
            let overlap = x.addr.overlap(y.addr);
            if overlap == Overlap::No {
                continue;
            }
            let cand = Conflict {
                overlap,
                reducible,
                witness: (x.pos, y.pos),
            };
            best = Some(match best {
                None => cand,
                Some(cur) => {
                    // Order: raw-Must > reducible-Must > raw-May >
                    // reducible-May (a certain raw collision is the
                    // headline; reducibility only claims *all* pairs
                    // are reducible).
                    let rank = |c: &Conflict| (if c.reducible { 0 } else { 1 }, c.overlap);
                    if rank(&cand) > rank(&cur) {
                        cand
                    } else {
                        cur
                    }
                }
            });
        }
    }
    // `reducible` must mean "every colliding pair is reducible";
    // recompute it as a conjunction rather than trusting the max.
    if let Some(ref mut c) = best {
        c.reducible = a.accesses.iter().all(|x| {
            b.accesses.iter().all(|y| match classify(x.kind, y.kind) {
                Some(false) => x.addr.overlap(y.addr) == Overlap::No,
                _ => true,
            })
        });
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Cfg;
    use crate::parser::parse_function;

    fn analyse(src: &str) -> ConflictAnalysis {
        let f = parse_function(src).unwrap();
        let cfg = Cfg::new(&f);
        let ai = AbsInt::compute(&f, &cfg);
        let regions = Regions::compute(&f, &cfg);
        ConflictAnalysis::compute(&f, &ai, &regions)
    }

    #[test]
    fn same_base_disjoint_offsets_cannot_conflict() {
        let ca = analyse(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmload r0
  tmstore r0, r1
  tmend
  r2 = add r0, 1
  tmbegin
  r3 = tmload r2
  tmstore r2, r3
  tmend
  ret
}
",
        );
        assert_eq!(ca.summaries.len(), 2);
        assert!(
            ca.conflict(0, 1).is_none(),
            "arg0+0 and arg0+1 are provably distinct words"
        );
        // But each region must conflict with its own twin instance.
        let self_c = ca.conflict(0, 0).unwrap();
        assert_eq!(self_c.overlap, Overlap::Must);
        assert!(!self_c.reducible, "load/store is a raw conflict");
    }

    #[test]
    fn write_write_on_same_word_is_must_raw() {
        let ca = analyse(
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
        let c = ca.conflict(0, 1).unwrap();
        assert_eq!(c.overlap, Overlap::Must);
        assert!(!c.reducible);
    }

    #[test]
    fn compare_vs_inc_is_reducible() {
        let ca = analyse(
            r"
func f(1) {
entry:
  tmbegin
  r1 = tmcmp.gt r0, 10
  tmend
  tmbegin
  tminc r0, 1
  tmend
  ret r1
}
",
        );
        let c = ca.conflict(0, 1).unwrap();
        assert_eq!(c.overlap, Overlap::Must);
        assert!(c.reducible, "semantic validation rides through this");
        assert!(ca.summaries[0].is_read_only());
        assert!(!ca.summaries[1].is_read_only());
    }

    #[test]
    fn distinct_bases_only_may_conflict() {
        let ca = analyse(
            r"
func f(2) {
entry:
  tmbegin
  tmstore r0, 1
  tmend
  tmbegin
  r2 = tmload r1
  tmend
  ret r2
}
",
        );
        // Distinct arg bases: store(arg0) vs load(arg1) may alias, but
        // nothing proves they must.
        let c = ca.conflict(0, 1).unwrap();
        assert_eq!(c.overlap, Overlap::May);
        assert!(!c.reducible);
    }
}
