//! The strict IR verifier.
//!
//! [`verify`] runs before and after every pass (see
//! [`crate::passes::run_tm_passes_checked`]) and enforces what the
//! structural [`Function::validate`] cannot see on its own:
//!
//! * **definite assignment** — along *every* path from the entry, each
//!   register is written before it is read (arguments count as written);
//!   a must-analysis with intersection join over the solver;
//! * **region consistency** — every block is entered at one well-defined
//!   atomic-region depth, `tmend` never underflows, and no path returns
//!   while a region is still open (the interpreter would raise
//!   `UnbalancedEnd` at runtime; the verifier rejects it statically).
//!   One depth walk, shared with [`super::Regions`], reports these;
//! * the structural checks themselves (terminator placement, branch
//!   targets, register bounds) by delegating to `validate`.

use super::absint::regions::region_depths;
use super::bitset::BitSet;
use super::cfg::Cfg;
use super::reaching::Pos;
use super::solver::{solve, DataflowProblem, Direction};
use crate::ir::{BlockId, Function, Inst};

/// A verifier failure, locating the offending instruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub func: String,
    /// Block containing the problem (when attributable).
    pub block: Option<BlockId>,
    /// Instruction index within the block (when attributable).
    pub inst: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: ", self.func)?;
        if let Some(b) = self.block {
            write!(f, "block {b}")?;
            if let Some(i) = self.inst {
                write!(f, ", inst {i}")?;
            }
            write!(f, ": ")?;
        }
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Definite-assignment facts: one "definitely written" bit per
/// register. Must-analysis ⇒ intersection join, all-true top.
struct DefiniteAssign {
    num_regs: usize,
    num_args: usize,
}

impl DataflowProblem for DefiniteAssign {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary_fact(&self) -> BitSet {
        let mut args = BitSet::empty(self.num_regs);
        args.insert_range(self.num_args);
        args
    }

    fn init_fact(&self) -> BitSet {
        BitSet::full(self.num_regs)
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.intersect_with(from)
    }

    fn transfer(&self, inst: &Inst, _pos: Pos, fact: &mut BitSet) {
        if let Some(d) = inst.def() {
            fact.insert(d as usize);
        }
    }
}

/// Verify `func`; `Ok(())` means the passes and the interpreter can
/// rely on all invariants above.
pub fn verify(func: &Function) -> Result<(), VerifyError> {
    check_structure(func)?;
    check_flow(func, &Cfg::new(func))
}

/// [`verify`] given `cfg`, a CFG built for `func` before a pass rewrote
/// it. A CFG is a function of the block terminators alone, so `cfg` is
/// reused when every terminator is as it was and rebuilt otherwise: a
/// pass that breaks an edge is checked on the edges it left.
pub(crate) fn verify_with(func: &Function, cfg: &Cfg) -> Result<(), VerifyError> {
    check_structure(func)?;
    if cfg.describes(func) {
        check_flow(func, cfg)
    } else {
        check_flow(func, &Cfg::new(func))
    }
}

/// The structural layer (terminators, branch targets, bounds): what a
/// [`Cfg`] needs of `func` to be built.
pub(crate) fn check_structure(func: &Function) -> Result<(), VerifyError> {
    func.validate().map_err(|message| VerifyError {
        func: func.name.clone(),
        block: None,
        inst: None,
        message,
    })
}

/// Definite assignment and region consistency over `cfg`, which must
/// be `func`'s.
pub(crate) fn check_flow(func: &Function, cfg: &Cfg) -> Result<(), VerifyError> {
    check_definite_assignment(func, cfg)?;
    match region_depths(func, cfg).error {
        Some((block, inst, message)) => Err(VerifyError {
            func: func.name.clone(),
            block: Some(block),
            inst,
            message,
        }),
        None => Ok(()),
    }
}

fn check_definite_assignment(func: &Function, cfg: &Cfg) -> Result<(), VerifyError> {
    let problem = DefiniteAssign {
        num_regs: func.num_regs as usize,
        num_args: func.num_args as usize,
    };
    let assigned = solve(func, cfg, &problem);
    for &b in &cfg.rpo {
        for (i, inst) in func.blocks[b].insts.iter().enumerate() {
            if let Some(r) = inst
                .uses()
                .find(|&r| !assigned.at((b, i)).contains(r as usize))
            {
                return Err(VerifyError {
                    func: func.name.clone(),
                    block: Some(b),
                    inst: Some(i),
                    message: format!(
                        "register r{r} may be read before it is written \
                         (some path from the entry reaches this use without a def)"
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_function;

    fn verify_src(src: &str) -> Result<(), VerifyError> {
        verify(&parse_function(src).unwrap())
    }

    #[test]
    fn a_rewritten_terminator_is_checked_on_a_fresh_cfg() {
        // A pass that retargets `entry`'s branch past `set` leaves `r1`
        // unwritten on the path to its use. The CFG built before that
        // pass still shows the old edge, on which the function is fine:
        // `verify_with` must notice the terminator moved and check the
        // new edges instead.
        let mut f = parse_function(
            r"
func f(1) {
entry:
  br set
set:
  r1 = const 1
  br use
use:
  ret r1
}
",
        )
        .unwrap();
        let before = Cfg::new(&f);
        verify_with(&f, &before).unwrap();
        let use_block = f.blocks.len() - 1;
        *f.blocks[0].insts.last_mut().unwrap() = Inst::Br { target: use_block };
        assert!(!before.describes(&f), "the retarget is seen");
        assert!(
            check_flow(&f, &before).is_ok(),
            "the stale CFG would have passed the broken function"
        );
        let e = verify_with(&f, &before).unwrap_err();
        assert!(e.message.contains("r1"), "{e}");
        assert_eq!(
            e,
            verify(&f).unwrap_err(),
            "the same verdict as a fresh verify"
        );
    }

    #[test]
    fn accepts_all_builtin_programs() {
        for f in [
            crate::programs::hashtable_op(),
            crate::programs::vacation_reserve(),
            crate::programs::bank_transfer(),
            crate::programs::cross_block_guard(),
        ] {
            verify(&f).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn rejects_maybe_uninitialized_use() {
        let e = verify_src(
            r"
func f(1) {
entry:
  condbr r0, set, use
set:
  r1 = const 1
  br use
use:
  ret r1
}
",
        )
        .unwrap_err();
        assert!(e.message.contains("r1"), "{e}");
        assert!(e.message.contains("before it is written"), "{e}");
    }

    #[test]
    fn accepts_all_paths_assigned() {
        verify_src(
            r"
func f(1) {
entry:
  condbr r0, a, b
a:
  r1 = const 1
  br out
b:
  r1 = const 2
  br out
out:
  ret r1
}
",
        )
        .unwrap();
    }

    #[test]
    fn rejects_unbalanced_end() {
        let e = verify_src("func f(0) {\nentry:\n  tmend\n  ret\n}\n").unwrap_err();
        assert!(e.message.contains("outside any atomic region"), "{e}");
    }

    #[test]
    fn rejects_return_inside_region() {
        let e = verify_src("func f(0) {\nentry:\n  tmbegin\n  ret\n}\n").unwrap_err();
        assert!(e.message.contains("still open"), "{e}");
    }

    #[test]
    fn rejects_inconsistent_join_depth() {
        // `open` (depth 1) is the else-target so the DFS walks it first;
        // `plain` then arrives at the join at depth 0 and trips the
        // consistency check. (With the other order the walk reports the
        // join's tmend as an underflow instead — also a rejection, but
        // this test pins the join diagnostic.)
        let e = verify_src(
            r"
func f(1) {
entry:
  condbr r0, plain, open
open:
  tmbegin
  br join
plain:
  br join
join:
  tmend
  ret
}
",
        )
        .unwrap_err();
        assert!(e.message.contains("inconsistent"), "{e}");
    }
}
