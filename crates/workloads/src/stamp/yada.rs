//! STAMP **Yada** — Ruppert-style mesh refinement (paper §7.1),
//! simplified per DESIGN.md §7.
//!
//! Threads drain a work list of *bad* elements (quality below a
//! threshold). Refining an element opens a **cavity**: the element plus
//! its neighbourhood is read, the bad element is retired (its `alive`
//! flag cleared — the "isGarbage" state the paper converts to a `cmp`),
//! and two better replacement elements are spliced into the
//! neighbourhood; a shared element counter is `TM_INC`ed. Replacements
//! can themselves be bad, so the work list grows dynamically until the
//! mesh is fully refined — exactly Yada's execution pattern, where
//! cavities of nearby bad elements overlap and produce *true* conflicts
//! that semantic validation cannot (and must not) forgive.
//!
//! Element record (8 heap words): `alive, quality, nbr[0..4], generation`.

use crate::driver::RunResult;
use semtm_core::util::SplitMix64;
use semtm_core::{Abort, Addr, CmpOp, Stm, TVar, Tx};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const E_ALIVE: usize = 0;
const E_QUALITY: usize = 1;
const E_NBR: usize = 2; // 4 slots
const E_GEN: usize = 6;
const WORDS: usize = 8;

const NBRS: usize = 4;
const NIL: i64 = -1;

#[inline]
fn field(elem: i64, f: usize) -> Addr {
    Addr::from_index(elem as usize + f)
}

/// Yada configuration.
#[derive(Clone, Copy, Debug)]
pub struct YadaConfig {
    /// Initial mesh elements.
    pub elements: usize,
    /// Quality threshold: elements below it are "bad" (refined).
    pub threshold: i64,
    /// Quality gained per refinement generation (replacements get
    /// `quality + boost ± jitter`).
    pub boost: i64,
}

impl Default for YadaConfig {
    fn default() -> Self {
        YadaConfig {
            elements: 512,
            threshold: 50,
            boost: 30,
        }
    }
}

/// The shared mesh.
pub struct Yada {
    config: YadaConfig,
    /// Live element count (transactional — the paper's counter `inc`).
    element_count: TVar<i64>,
    /// All elements ever created (ids are heap block addresses).
    created: Mutex<Vec<i64>>,
    /// Initial bad-element work list.
    initial_work: Vec<i64>,
}

impl Yada {
    /// Build an initial mesh: a ring of elements with cross links and
    /// randomised qualities.
    pub fn new(stm: &Stm, config: YadaConfig, seed: u64) -> Yada {
        let mut rng = SplitMix64::new(seed);
        let mut ids = Vec::with_capacity(config.elements);
        for _ in 0..config.elements {
            let e = stm.alloc(WORDS);
            ids.push(e.index() as i64);
        }
        let n = ids.len();
        let mut initial_work = Vec::new();
        for (i, &e) in ids.iter().enumerate() {
            let quality = rng.below(100) as i64;
            stm.write_now(field(e, E_ALIVE).offset(0), 1);
            stm.write_now(field(e, E_QUALITY), quality);
            stm.write_now(field(e, E_GEN), 0);
            // Ring plus a long-range chord: realistic cavity overlap.
            let nbrs = [
                ids[(i + 1) % n],
                ids[(i + n - 1) % n],
                ids[(i + 7) % n],
                ids[rng.index(n)],
            ];
            for (s, nb) in nbrs.iter().enumerate() {
                stm.write_now(field(e, E_NBR + s), *nb);
            }
            if quality < config.threshold {
                initial_work.push(e);
            }
        }
        Yada {
            config,
            element_count: TVar::new(stm, config.elements as i64),
            created: Mutex::new(ids),
            initial_work,
        }
    }

    /// Number of elements whose refinement is pending at construction.
    pub fn initial_bad(&self) -> usize {
        self.initial_work.len()
    }

    /// Refine one element. Returns newly created bad elements to be
    /// re-queued, or `None` if the element was already retired or good.
    fn refine(
        &self,
        stm: &Stm,
        tx: &mut Tx<'_>,
        elem: i64,
        rng_word: u64,
    ) -> Result<Option<Vec<i64>>, Abort> {
        // isGarbage check — semantic: the relation "alive == 1" is all we
        // need; a concurrent refinement that retires a *different*
        // element never flips it.
        if !tx.cmp(field(elem, E_ALIVE), CmpOp::Eq, 1)? {
            return Ok(None);
        }
        let quality = tx.read(field(elem, E_QUALITY))?;
        if quality >= self.config.threshold {
            return Ok(None);
        }
        // Open the cavity: read the whole neighbourhood (plain reads —
        // the dominant traffic, as in Table 3's Yada profile).
        let mut cavity = [NIL; NBRS];
        for (s, slot) in cavity.iter_mut().enumerate() {
            let nb = tx.read(field(elem, E_NBR + s))?;
            *slot = nb;
            if nb != NIL {
                let _ = tx.read(field(nb, E_ALIVE))?;
                let _ = tx.read(field(nb, E_QUALITY))?;
                let _ = tx.read(field(nb, E_GEN))?;
            }
        }
        let generation = tx.read(field(elem, E_GEN))?;

        // Retire the bad element, create two replacements.
        tx.write(field(elem, E_ALIVE), 0)?;
        let mut fresh = Vec::new();
        let mut new_ids = [NIL; 2];
        for (k, id_slot) in new_ids.iter_mut().enumerate() {
            let e = stm.alloc(WORDS);
            let id = e.index() as i64;
            *id_slot = id;
            let jitter = ((rng_word >> (k * 8)) % 17) as i64 - 8;
            let q = (quality + self.config.boost + jitter).min(100);
            tx.write(field(id, E_ALIVE), 1)?;
            tx.write(field(id, E_QUALITY), q)?;
            tx.write(field(id, E_GEN), generation + 1)?;
            if q < self.config.threshold {
                fresh.push(id);
            }
        }
        // Splice: each replacement links to half the cavity + its twin.
        for (k, &id) in new_ids.iter().enumerate() {
            tx.write(field(id, E_NBR), new_ids[1 - k])?;
            tx.write(field(id, E_NBR + 1), cavity[k * 2])?;
            tx.write(field(id, E_NBR + 2), cavity[k * 2 + 1])?;
            tx.write(field(id, E_NBR + 3), NIL)?;
        }
        // Rewire cavity members that pointed at the retired element.
        for (k, &nb) in cavity.iter().enumerate() {
            if nb == NIL {
                continue;
            }
            for s in 0..NBRS {
                let p = tx.read(field(nb, E_NBR + s))?;
                if p == elem {
                    tx.write(field(nb, E_NBR + s), new_ids[k / 2])?;
                }
            }
        }
        // Net element count: -1 + 2.
        tx.inc(self.element_count.addr(), 1)?;
        self.created.lock().unwrap().extend_from_slice(&new_ids);
        Ok(Some(fresh))
    }

    /// Drain the refinement work list on `threads` workers until the
    /// mesh has no bad elements. Returns total refinements performed.
    pub fn run_refinement(&self, stm: &Stm, threads: usize, seed: u64) -> usize {
        let queue = Mutex::new(self.initial_work.clone());
        let refinements = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for tid in 0..threads {
                let queue = &queue;
                let refinements = &refinements;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ (tid as u64 + 1).wrapping_mul(0xABCD));
                    loop {
                        let next = queue.lock().unwrap().pop();
                        let Some(elem) = next else {
                            break;
                        };
                        let w = rng.next_u64();
                        let out = stm.atomic(|tx| self.refine(stm, tx, elem, w));
                        if let Some(fresh) = out {
                            refinements.fetch_add(1, Ordering::Relaxed);
                            if !fresh.is_empty() {
                                queue.lock().unwrap().extend_from_slice(&fresh);
                            }
                        }
                    }
                });
            }
        });
        refinements.load(Ordering::Relaxed)
    }

    /// Quiescent invariants: the transactional element counter matches
    /// the alive census; no alive element is below threshold; every
    /// alive element's neighbours are valid ids.
    pub fn verify(&self, stm: &Stm) -> Result<(), String> {
        let created = self.created.lock().unwrap();
        let idset: std::collections::HashSet<i64> = created.iter().copied().collect();
        let mut alive = 0i64;
        for &e in created.iter() {
            if stm.read_now(field(e, E_ALIVE)) != 1 {
                continue;
            }
            alive += 1;
            let q = stm.read_now(field(e, E_QUALITY));
            if q < self.config.threshold {
                return Err(format!("alive element {e} still bad (quality {q})"));
            }
            for s in 0..NBRS {
                let nb = stm.read_now(field(e, E_NBR + s));
                if nb != NIL && !idset.contains(&nb) {
                    return Err(format!("element {e} links to unknown id {nb}"));
                }
            }
        }
        let counted = self.element_count.read_now(stm);
        if counted != alive {
            return Err(format!("element counter {counted} != alive census {alive}"));
        }
        Ok(())
    }
}

/// Measured run for the figure harness: full refinement, reporting
/// wall-clock time (Figure 1o) and abort rate (Figure 1p).
pub fn run(stm: &Stm, config: YadaConfig, threads: usize, seed: u64) -> RunResult {
    let mesh = Yada::new(stm, config, seed);
    let before = stm.stats();
    let start = std::time::Instant::now();
    let refinements = mesh.run_refinement(stm, threads, seed);
    let elapsed = start.elapsed();
    mesh.verify(stm).expect("yada invariant violated");
    RunResult {
        threads,
        elapsed,
        total_ops: refinements as u64,
        stats: stm.stats().since(&before),
        setup_commits: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 20).orec_count(1 << 10))
    }

    fn small() -> YadaConfig {
        YadaConfig {
            elements: 64,
            threshold: 50,
            boost: 30,
        }
    }

    #[test]
    fn refinement_terminates_and_cleans_mesh() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let mesh = Yada::new(&s, small(), 7);
            let bad = mesh.initial_bad();
            assert!(bad > 0, "seeded mesh must contain bad elements");
            let refinements = mesh.run_refinement(&s, 1, 7);
            assert!(refinements >= bad, "{alg}: every seed element refined");
            mesh.verify(&s).unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }

    #[test]
    fn concurrent_refinement_keeps_invariants() {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let s = stm(alg);
            let mesh = Yada::new(&s, small(), 13);
            mesh.run_refinement(&s, 4, 13);
            mesh.verify(&s).unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
    }

    #[test]
    fn profile_is_read_dominated_with_few_compares() {
        // Table 3 Yada: reads stay dominant; only the garbage checks
        // become compares.
        let s = stm(Algorithm::SNOrec);
        let mesh = Yada::new(&s, small(), 29);
        mesh.run_refinement(&s, 1, 29);
        let st = s.stats().committed;
        assert!(st.reads > 0);
        assert!(st.cmps > 0);
        assert!(
            st.reads > 5 * st.cmps,
            "reads must dominate compares ({} vs {})",
            st.reads,
            st.cmps
        );
        assert!(st.incs > 0, "element counter increments");
    }
}
