//! Atomic-region identification.
//!
//! The conflict analysis and several lint rules need to talk about
//! *regions* — the dynamic extent of one `tmbegin`..`tmend` pair — not
//! just region *depth*. A region is keyed by the `TmBegin` that raises
//! the depth from 0 (nested begins under the flattened-nesting model do
//! not open a new transaction). Where two distinct begins' extents meet
//! at a join point (both arms of a diamond open a region, say), the
//! regions are merged with a union-find: they denote the same dynamic
//! transaction at the join and must be analysed as one.

use super::super::cfg::Cfg;
use super::super::reaching::Pos;
use crate::ir::{BlockId, Function, Inst};
use std::collections::{BTreeMap, HashMap};

/// Atomic-region depth at every position, from one walk of the CFG:
/// the only statement of the depth rule (`tmbegin` opens a level,
/// `tmend` closes one). The verifier reports its first balance error;
/// [`Regions`] reads its depths.
pub(crate) struct Depths {
    /// `at[b][i]` = depth before `(b, i)`, `at[b][len]` at the block's
    /// end; unreachable blocks are depth 0.
    pub(crate) at: Vec<Vec<u32>>,
    /// The first balance violation met: block, instruction (none for a
    /// join that is entered at two depths) and message.
    pub(crate) error: Option<(BlockId, Option<usize>, String)>,
}

/// Propagate region depth from the entry along the CFG, depth first.
/// Every reachable block must be entered at one depth, `tmend` must
/// not underflow and no `ret` may leave a region open. After a
/// violation the walk goes on (an underflowing `tmend` stays at depth
/// 0, a join keeps the depth it was first entered at), so every
/// position gets a depth even on input the verifier rejects.
pub(crate) fn region_depths(func: &Function, cfg: &Cfg) -> Depths {
    let mut at: Vec<Vec<u32>> = func
        .blocks
        .iter()
        .map(|b| vec![0; b.insts.len() + 1])
        .collect();
    let mut error = None;
    let mut fail = |b: BlockId, i: Option<usize>, message: String| {
        error.get_or_insert((b, i, message));
    };
    let mut entered = vec![false; func.blocks.len()];
    entered[0] = true;
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let mut depth = at[b][0];
        for (i, inst) in func.blocks[b].insts.iter().enumerate() {
            match inst {
                Inst::TmBegin => depth += 1,
                Inst::TmEnd if depth == 0 => {
                    fail(b, Some(i), "tmend outside any atomic region".into());
                }
                Inst::TmEnd => depth -= 1,
                Inst::Ret { .. } if depth != 0 => fail(
                    b,
                    Some(i),
                    format!("return while {depth} atomic region(s) are still open"),
                ),
                _ => {}
            }
            at[b][i + 1] = depth;
        }
        for &s in &cfg.succs[b] {
            if !entered[s] {
                entered[s] = true;
                at[s][0] = depth;
                work.push(s);
            } else if at[s][0] != depth {
                let d = at[s][0];
                fail(
                    s,
                    None,
                    format!(
                        "inconsistent atomic-region depth at join: \
                         entered at depth {d} and at depth {depth}"
                    ),
                );
            }
        }
    }
    Depths { at, error }
}

/// Region membership and depth for every instruction of one function.
pub struct Regions {
    /// Region depth at every position ([`Depths::at`]).
    depth: Vec<Vec<u32>>,
    /// `region_of[b][i]` = dense region index, for instructions at
    /// depth > 0.
    region_of: Vec<Vec<Option<usize>>>,
    /// Per region, the `TmBegin` positions that open it (more than one
    /// only for merged regions).
    begins: Vec<Vec<Pos>>,
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> UnionFind {
        UnionFind { parent: Vec::new() }
    }
    fn make(&mut self) -> usize {
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra.max(rb)] = ra.min(rb);
        true
    }
}

impl Regions {
    /// Compute regions for a (verified) function.
    pub fn compute(func: &Function, cfg: &Cfg) -> Regions {
        let depth = region_depths(func, cfg).at;
        // The instruction that raises the depth from 0 (a `tmbegin`)
        // opens a transaction; a position at depth 0 is outside every
        // transaction.
        let opens = |(b, i): Pos| depth[b][i] == 0 && depth[b][i + 1] > 0;
        let mut uf = UnionFind::new();
        // One raw region id per opening TmBegin position.
        let mut begin_ids: HashMap<Pos, usize> = HashMap::new();
        // Block-entry region (the outer `None`: not reached yet), and
        // the raw region of every position, as of the latest sweep.
        let mut entry: Vec<Option<Option<usize>>> = vec![None; func.blocks.len()];
        entry[0] = Some(None);
        let mut raw: Vec<Vec<Option<usize>>> = func
            .blocks
            .iter()
            .map(|b| vec![None; b.insts.len()])
            .collect();

        // Propagate to a fixpoint; unions can only merge, so this
        // terminates (each pass either changes nothing or shrinks the
        // number of region classes / fills in an entry state). The
        // last pass changes nothing, so it leaves `raw` final.
        loop {
            let mut changed = false;
            for &b in &cfg.rpo {
                let Some(region) = entry[b] else {
                    continue;
                };
                let mut region = region.map(|r| uf.find(r));
                for i in 0..func.blocks[b].insts.len() {
                    raw[b][i] = if depth[b][i] > 0 { region } else { None };
                    if opens((b, i)) {
                        let id = *begin_ids.entry((b, i)).or_insert_with(|| uf.make());
                        region = Some(uf.find(id));
                    } else if depth[b][i + 1] == 0 {
                        region = None;
                    }
                }
                for &s in &cfg.succs[b] {
                    match entry[s] {
                        None => {
                            entry[s] = Some(region);
                            changed = true;
                        }
                        Some(other) => {
                            if let (Some(a), Some(o)) = (region, other) {
                                changed |= uf.union(a, o);
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Dense re-index of the surviving region roots, ordered by
        // their first begin position.
        let mut root_begins: BTreeMap<usize, Vec<Pos>> = BTreeMap::new();
        for (&pos, &id) in &begin_ids {
            root_begins.entry(uf.find(id)).or_default().push(pos);
        }
        let mut roots: Vec<(Pos, usize)> = root_begins
            .iter_mut()
            .map(|(&root, begins)| {
                begins.sort_unstable();
                (begins[0], root)
            })
            .collect();
        roots.sort_unstable();
        let dense: HashMap<usize, usize> = roots
            .iter()
            .enumerate()
            .map(|(d, &(_, root))| (root, d))
            .collect();
        let begins: Vec<Vec<Pos>> = roots
            .iter()
            .map(|&(_, root)| root_begins[&root].clone())
            .collect();
        let region_of = raw
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|r| r.map(|r| dense[&uf.find(r)]))
                    .collect()
            })
            .collect();
        Regions {
            depth,
            region_of,
            begins,
        }
    }

    /// Region depth before executing the instruction at `pos`.
    pub fn depth(&self, pos: Pos) -> u32 {
        self.depth[pos.0][pos.1]
    }

    /// Dense region index of the transaction `pos` executes inside, if
    /// any. The `TmBegin` itself is *outside* (depth-before is 0); the
    /// matching `TmEnd` is inside.
    pub fn region(&self, pos: Pos) -> Option<usize> {
        self.region_of[pos.0][pos.1]
    }

    /// Number of distinct atomic regions.
    pub fn count(&self) -> usize {
        self.begins.len()
    }

    /// The `TmBegin` positions opening region `r`.
    pub fn begins(&self, r: usize) -> &[Pos] {
        &self.begins[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Cfg;
    use crate::parser::parse_function;

    fn regions_for(src: &str) -> Regions {
        let f = parse_function(src).unwrap();
        let cfg = Cfg::new(&f);
        Regions::compute(&f, &cfg)
    }

    #[test]
    fn sequential_regions_are_distinct() {
        let r = regions_for(
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
        assert_eq!(r.count(), 2);
        assert_eq!(r.region((0, 1)), Some(0));
        assert_eq!(r.region((0, 4)), Some(1));
        assert_eq!(r.region((0, 6)), None, "ret is outside both");
        assert_eq!(r.depth((0, 1)), 1);
    }

    #[test]
    fn diamond_opening_on_both_arms_merges() {
        let r = regions_for(
            r"
func f(1) {
entry:
  condbr r0, a, b
a:
  tmbegin
  br join
b:
  tmbegin
  br join
join:
  tmstore r0, 1
  tmend
  ret
}
",
        );
        assert_eq!(r.count(), 1, "both begins denote the same transaction");
        assert_eq!(r.region((3, 0)), Some(0));
        assert_eq!(r.begins(0).len(), 2);
    }
}
