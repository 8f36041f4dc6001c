//! A generic worklist solver for forward and backward dataflow problems.
//!
//! A problem supplies one instruction's transfer and a join; the
//! solver derives each block's transfer from it (program order for
//! forward problems, reversed for backward ones), iterates to a
//! fixpoint over a worklist seeded in reverse postorder (forward) or
//! postorder (backward), then replays every block once more from its
//! solved boundary fact and hands back the fact at every position
//! ([`Solution::at`]). That replay is the only one: reaching
//! definitions, the abstract interpreter, liveness, the verifier's
//! definite-assignment check and lint rule SL005 all read its
//! positions rather than re-walk a block themselves.
//!
//! All blocks participate, including unreachable ones: the legacy
//! liveness loop in `tm_optimize` visited every block, and keeping that
//! behaviour makes the rewrite on top of this solver a strict
//! refactoring.

use super::cfg::Cfg;
use super::reaching::Pos;
use crate::ir::{BlockId, Function, Inst};
use std::collections::VecDeque;

/// Direction of a dataflow problem.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Facts flow from the entry towards returns (e.g. reaching
    /// definitions).
    Forward,
    /// Facts flow from returns towards the entry (e.g. liveness).
    Backward,
}

/// A dataflow problem over one function.
pub trait DataflowProblem {
    /// The lattice element propagated between blocks.
    type Fact: Clone + PartialEq;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The fact at the boundary: the function entry for forward
    /// problems, every exit (return) for backward problems.
    fn boundary_fact(&self) -> Self::Fact;

    /// The optimistic initial fact given to every block before
    /// iteration (the lattice's identity element for [`Self::join`]).
    fn init_fact(&self) -> Self::Fact;

    /// Merge `from` into `into`; return whether `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// Apply the instruction `inst` at `pos` to `fact`, in the
    /// problem's direction: a forward problem turns the fact before the
    /// instruction into the fact after it, a backward problem the fact
    /// after it into the fact before it.
    fn transfer(&self, inst: &Inst, pos: Pos, fact: &mut Self::Fact);

    /// Does this problem refine facts on CFG edges? When `false` (the
    /// default) the solver skips the per-edge fact clone entirely, so
    /// existing problems pay nothing for the hook.
    fn has_edge_transfer(&self) -> bool {
        false
    }

    /// Refine `fact` as it flows across the edge `from → to` (forward
    /// problems only; called before joining into `to`). The canonical
    /// client is branch refinement in the abstract interpreter: on the
    /// then-edge of `condbr` the guarding comparison is known true, on
    /// the else-edge known false. Only called when
    /// [`Self::has_edge_transfer`] returns `true`.
    fn transfer_edge(
        &self,
        _func: &Function,
        _from: BlockId,
        _to: BlockId,
        _fact: &mut Self::Fact,
    ) {
    }

    /// Join `from` into `into` at the entry of block `block`, returning
    /// whether `into` changed. Defaults to the block-blind
    /// [`Self::join`]; lattices with infinite ascending chains (the
    /// interval domain) override this to apply *widening* once a block
    /// has been joined into often enough, which is what makes the
    /// fixpoint terminate.
    fn join_at(&self, _block: BlockId, into: &mut Self::Fact, from: &Self::Fact) -> bool {
        self.join(into, from)
    }
}

/// The solved facts at every position, in *program order* for both
/// directions: `at((b, i))` holds just before instruction `i` of block
/// `b`, and `at((b, len))` at the block's end.
#[derive(Clone, Debug)]
pub struct Solution<F> {
    /// Every position's fact, block after block.
    at: Vec<F>,
    /// `start[b]` is the index in `at` of block `b`'s first position;
    /// `start[n]` is `at.len()`.
    start: Vec<usize>,
}

impl<F> Solution<F> {
    /// The facts of block `b`'s positions, its end included.
    fn block(&self, b: BlockId) -> &[F] {
        &self.at[self.start[b]..self.start[b + 1]]
    }

    /// The fact just before the instruction at `pos` (`pos.1` may be
    /// the block's length: the fact at its end).
    pub fn at(&self, pos: Pos) -> &F {
        &self.block(pos.0)[pos.1]
    }

    /// The fact at the start of block `b`.
    pub fn entry(&self, b: BlockId) -> &F {
        &self.block(b)[0]
    }

    /// The fact at the end of block `b`.
    pub fn exit(&self, b: BlockId) -> &F {
        self.block(b).last().expect("a block has an end position")
    }
}

/// Step `fact` across block `b` in the problem's direction. With a
/// `trail`, first record the fact each instruction is applied to, in
/// the order the instructions are visited.
fn step_block<P: DataflowProblem>(
    func: &Function,
    problem: &P,
    b: BlockId,
    fact: &mut P::Fact,
    mut trail: Option<&mut Vec<P::Fact>>,
) {
    let insts = &func.blocks[b].insts;
    let mut step = |i: usize| {
        if let Some(t) = trail.as_mut() {
            t.push(fact.clone());
        }
        problem.transfer(&insts[i], (b, i), fact);
    };
    match problem.direction() {
        Direction::Forward => (0..insts.len()).for_each(&mut step),
        Direction::Backward => (0..insts.len()).rev().for_each(&mut step),
    }
}

/// Run `problem` to a fixpoint over `func` and replay every block into
/// per-position facts.
pub fn solve<P: DataflowProblem>(func: &Function, cfg: &Cfg, problem: &P) -> Solution<P::Fact> {
    let n = func.blocks.len();
    let forward = problem.direction() == Direction::Forward;
    // `input[b]` is the fact on the side facts arrive from (block start
    // for forward, block end for backward).
    let mut input: Vec<P::Fact> = vec![problem.init_fact(); n];
    let mut output: Vec<P::Fact> = vec![problem.init_fact(); n];

    if forward {
        problem.join(&mut input[0], &problem.boundary_fact());
    } else {
        // Backward boundary: blocks ending in `Ret` (no successors).
        let boundary = problem.boundary_fact();
        for (b, succs) in cfg.succs.iter().enumerate() {
            if succs.is_empty() {
                problem.join(&mut input[b], &boundary);
            }
        }
    }

    // Seed the worklist in an order that converges quickly: reverse
    // postorder for forward problems, postorder for backward ones, with
    // unreachable blocks appended so they are processed too.
    let mut order: Vec<BlockId> = if forward {
        cfg.rpo.clone()
    } else {
        cfg.rpo.iter().rev().copied().collect()
    };
    for b in 0..n {
        if !cfg.reachable(b) {
            order.push(b);
        }
    }

    let mut on_list = vec![true; n];
    let mut work = VecDeque::from(order);
    // Two buffers for the whole fixpoint: a block step works in `step`
    // and, when the block's output changed, swaps it in; a refined edge
    // fact is built in `edge`. `clone_from` reuses their storage.
    let mut step = problem.init_fact();
    let mut edge = problem.init_fact();
    while let Some(b) = work.pop_front() {
        on_list[b] = false;
        step.clone_from(&input[b]);
        step_block(func, problem, b, &mut step, None);
        if step == output[b] {
            continue;
        }
        std::mem::swap(&mut output[b], &mut step);
        let dependents: &[BlockId] = if forward {
            &cfg.succs[b]
        } else {
            &cfg.preds[b]
        };
        for &d in dependents {
            let changed = if forward && problem.has_edge_transfer() {
                edge.clone_from(&output[b]);
                problem.transfer_edge(func, b, d, &mut edge);
                problem.join_at(d, &mut input[d], &edge)
            } else {
                problem.join_at(d, &mut input[d], &output[b])
            };
            if changed && !on_list[d] {
                on_list[d] = true;
                work.push_back(d);
            }
        }
    }

    // Replay each block from the fact on the side facts arrive from
    // (its start forward, its end backward), recording every position.
    let positions = func.blocks.iter().map(|block| block.insts.len() + 1).sum();
    let mut at = Vec::with_capacity(positions);
    let mut start = Vec::with_capacity(n + 1);
    for (b, mut fact) in input.into_iter().enumerate() {
        start.push(at.len());
        step_block(func, problem, b, &mut fact, Some(&mut at));
        at.push(fact);
        if !forward {
            at[start[b]..].reverse();
        }
    }
    start.push(at.len());
    Solution { at, start }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{DefSite, Liveness, ReachingDefs};
    use crate::ir::{FunctionBuilder, Operand};
    use crate::parser::parse_function;

    /// A toy forward problem: "may reach this block" as a bool.
    struct Reachability;
    impl DataflowProblem for Reachability {
        type Fact = bool;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary_fact(&self) -> bool {
            true
        }
        fn init_fact(&self) -> bool {
            false
        }
        fn join(&self, into: &mut bool, from: &bool) -> bool {
            let new = *into || *from;
            let changed = new != *into;
            *into = new;
            changed
        }
        fn transfer(&self, _inst: &Inst, _pos: Pos, _fact: &mut bool) {}
    }

    #[test]
    fn forward_reachability_matches_cfg() {
        let mut fb = FunctionBuilder::new("r", 1);
        let next = fb.block("next");
        let dead = fb.block("dead");
        fb.switch_to(0);
        fb.push(Inst::Br { target: next });
        fb.switch_to(next);
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(0)),
        });
        fb.switch_to(dead);
        fb.push(Inst::Ret { val: None });
        let f = fb.build();
        let cfg = Cfg::new(&f);
        let sol = solve(&f, &cfg, &Reachability);
        assert!(*sol.entry(0) && *sol.entry(1));
        assert!(!*sol.entry(2), "dead block never becomes reachable");
    }

    /// A loop whose body is a diamond; `r1` is carried around it.
    const LOOP_DIAMOND: &str = r"
func f(1) {
entry:
  r1 = const 0
  br head
head:
  r2 = cmp.lt r1, r0
  condbr r2, body, out
body:
  condbr r0, left, right
left:
  r1 = add r1, 1
  br join
right:
  r1 = add r1, 2
  br join
join:
  br head
out:
  ret r1
}
";

    /// Every position of the function, block end included.
    fn positions(f: &Function) -> Vec<Pos> {
        (0..f.blocks.len())
            .flat_map(|b| (0..=f.blocks[b].insts.len()).map(move |i| (b, i)))
            .collect()
    }

    #[test]
    fn forward_facts_at_every_position() {
        let f = parse_function(LOOP_DIAMOND).unwrap();
        let rd = ReachingDefs::compute(&f, &Cfg::new(&f));
        // The definitions of r1 reaching each position: the three
        // that meet at the loop head everywhere in the loop, until the
        // arm's own add kills them.
        let loop_defs = vec![
            DefSite::Inst(0, 0),
            DefSite::Inst(3, 0),
            DefSite::Inst(4, 0),
        ];
        let expect = |pos: Pos| match pos {
            (0, 0) => vec![DefSite::Entry(1)],
            (0, _) => vec![DefSite::Inst(0, 0)],
            (3, 1..) => vec![DefSite::Inst(3, 0)],
            (4, 1..) => vec![DefSite::Inst(4, 0)],
            (5, _) => vec![DefSite::Inst(3, 0), DefSite::Inst(4, 0)],
            _ => loop_defs.clone(),
        };
        for pos in positions(&f) {
            let got: Vec<DefSite> = rd.reaching(pos, 1).map(|id| rd.defs[id as usize]).collect();
            assert_eq!(got, expect(pos), "r1 at {pos:?}");
        }
    }

    #[test]
    fn backward_facts_at_every_position() {
        let f = parse_function(LOOP_DIAMOND).unwrap();
        let live = Liveness::compute(&f, &Cfg::new(&f));
        // [r0, r1, r2] live just before each position: the loop keeps
        // r0 and the carried r1 live on every path back to the head.
        let expect = |pos: Pos| match pos {
            (0, 0) => [true, false, false],
            (1, 1) => [true, true, true],
            (6, 0) => [false, true, false],
            (6, 1) => [false, false, false],
            _ => [true, true, false],
        };
        for pos in positions(&f) {
            let got: Vec<bool> = (0..3).map(|r| live.live_at(pos).contains(r)).collect();
            assert_eq!(got, expect(pos), "live set at {pos:?}");
        }
    }
}
