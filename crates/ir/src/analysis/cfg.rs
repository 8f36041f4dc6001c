//! Control-flow graph: successor/predecessor maps, reverse postorder,
//! and dominators.
//!
//! Every whole-function analysis starts here. The CFG is computed once
//! per function and shared by the dataflow solver, the pattern matcher,
//! the verifier, and the lint passes; blocks unreachable from the entry
//! are retained in the maps (some passes still iterate them) but carry
//! no reverse-postorder index and are dominated by nothing.

use crate::ir::{BlockId, Function};

/// The control-flow graph of one [`Function`].
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Successors of each block (terminator targets, in branch order).
    pub succs: Vec<Vec<BlockId>>,
    /// Predecessors of each block.
    pub preds: Vec<Vec<BlockId>>,
    /// Reachable blocks in reverse postorder (entry first).
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo`; `None` for unreachable blocks.
    pub rpo_index: Vec<Option<usize>>,
    /// Immediate dominator of each reachable block; the entry block is
    /// its own idom, unreachable blocks have `None`.
    pub idom: Vec<Option<BlockId>>,
}

impl Cfg {
    /// Build the CFG (edges, reverse postorder, dominator tree) of
    /// `func`.
    pub fn new(func: &Function) -> Cfg {
        let n = func.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for (b, block) in func.blocks.iter().enumerate() {
            for s in block.successors() {
                succs[b].push(s);
                preds[s].push(b);
            }
        }

        // Iterative postorder DFS from the entry block.
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        // Stack of (block, next successor index to visit).
        let mut stack: Vec<(BlockId, usize)> = vec![(0, 0)];
        seen[0] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b].len() {
                let s = succs[b][*i];
                *i += 1;
                if !seen[s] {
                    seen[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![None; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = Some(i);
        }

        let idom = compute_idoms(&rpo, &rpo_index, &preds, n);
        Cfg {
            succs,
            preds,
            rpo,
            rpo_index,
            idom,
        }
    }

    /// Whether this is still the CFG of `func`: same blocks, and each
    /// block's terminator names the same successors in the same order
    /// (everything else in a CFG follows from those). O(blocks).
    pub(crate) fn describes(&self, func: &Function) -> bool {
        self.succs.len() == func.blocks.len()
            && func
                .blocks
                .iter()
                .zip(&self.succs)
                .all(|(block, succs)| block.successors().eq(succs.iter().copied()))
    }

    /// Whether `b` is reachable from the entry block.
    pub fn reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b].is_some()
    }

    /// Whether block `a` dominates block `b` (reflexive). Unreachable
    /// blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.reachable(a) || !self.reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let Some(parent) = self.idom[cur] else {
                return false;
            };
            if parent == cur {
                return false; // reached the entry without meeting `a`
            }
            cur = parent;
        }
    }
}

/// Cooper–Harvey–Kennedy iterative dominator computation over the
/// reverse postorder.
fn compute_idoms(
    rpo: &[BlockId],
    rpo_index: &[Option<usize>],
    preds: &[Vec<BlockId>],
    n: usize,
) -> Vec<Option<BlockId>> {
    let mut idom: Vec<Option<BlockId>> = vec![None; n];
    if rpo.is_empty() {
        return idom;
    }
    let entry = rpo[0];
    idom[entry] = Some(entry);
    let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
        while a != b {
            while rpo_index[a].unwrap() > rpo_index[b].unwrap() {
                a = idom[a].unwrap();
            }
            while rpo_index[b].unwrap() > rpo_index[a].unwrap() {
                b = idom[b].unwrap();
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<BlockId> = None;
            for &p in &preds[b] {
                if idom[p].is_none() {
                    continue; // unprocessed or unreachable predecessor
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, cur, p),
                });
            }
            if new_idom.is_some() && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    idom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FunctionBuilder, Inst, Operand};

    /// entry -> (then | else) -> join, plus an unreachable block.
    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("d", 1);
        let t = fb.block("then");
        let e = fb.block("else");
        let j = fb.block("join");
        let dead = fb.block("dead");
        fb.switch_to(0);
        fb.push(Inst::CondBr {
            cond: Operand::Reg(0),
            then_to: t,
            else_to: e,
        });
        fb.switch_to(t);
        fb.push(Inst::Br { target: j });
        fb.switch_to(e);
        fb.push(Inst::Br { target: j });
        fb.switch_to(j);
        fb.push(Inst::Ret { val: None });
        fb.switch_to(dead);
        fb.push(Inst::Ret { val: None });
        fb.build()
    }

    #[test]
    fn edges_and_reachability() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.succs[0], vec![1, 2]);
        assert_eq!(cfg.preds[3], vec![1, 2]);
        assert!(cfg.reachable(0) && cfg.reachable(3));
        assert!(!cfg.reachable(4), "dead block is unreachable");
        assert_eq!(cfg.rpo[0], 0, "entry leads the reverse postorder");
    }

    #[test]
    fn dominators_of_a_diamond() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert!(cfg.dominates(0, 3), "entry dominates the join");
        assert!(!cfg.dominates(1, 3), "one arm does not dominate the join");
        assert!(cfg.dominates(3, 3), "dominance is reflexive");
        assert!(!cfg.dominates(0, 4), "nothing dominates unreachable code");
        assert_eq!(cfg.idom[3], Some(0));
    }

    #[test]
    fn loop_dominators() {
        // entry -> head; head -> (body | exit); body -> head.
        let mut fb = FunctionBuilder::new("l", 1);
        let head = fb.block("head");
        let body = fb.block("body");
        let exit = fb.block("exit");
        fb.switch_to(0);
        fb.push(Inst::Br { target: head });
        fb.switch_to(head);
        fb.push(Inst::CondBr {
            cond: Operand::Reg(0),
            then_to: body,
            else_to: exit,
        });
        fb.switch_to(body);
        fb.push(Inst::Br { target: head });
        fb.switch_to(exit);
        fb.push(Inst::Ret { val: None });
        let f = fb.build();
        let cfg = Cfg::new(&f);
        assert!(cfg.dominates(head, body));
        assert!(cfg.dominates(head, exit));
        assert!(!cfg.dominates(body, exit));
        assert_eq!(cfg.idom[exit], Some(head));
    }
}
