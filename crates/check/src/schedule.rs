//! Schedule drivers: who runs next at each coordinator decision.
//!
//! Two explorers are provided, both CHESS-style over the same decision
//! interface:
//!
//! * [`DfsDriver`] — exhaustive depth-first enumeration of schedules
//!   with a **bounded number of preemptions** (a context switch at a
//!   point where the running thread could have continued). Completion
//!   switches and spin switches are free, which keeps the tree finite
//!   and focuses the budget on the switches that actually expose races.
//! * [`RandomDriver`] — a seeded random walk (SplitMix64), fully
//!   replayable from the printed seed.

use semtm_core::sched::Fault;
use semtm_core::util::SplitMix64;

/// One scheduling decision's context, handed to the driver.
#[derive(Debug)]
pub struct Decision<'a> {
    /// The thread that ran last, if it is still runnable.
    pub current: Option<usize>,
    /// Whether `current` parked at a spin point (futile wait): it must
    /// not be rescheduled while another thread is runnable, and
    /// switching away from it is free.
    pub spin: bool,
    /// Runnable thread ids, ascending. Never empty.
    pub alive: &'a [usize],
}

/// A schedule driver: picks the next thread to resume.
pub trait Driver {
    /// Return the id of the thread to run; must be in `d.alive`.
    fn choose(&mut self, d: Decision<'_>) -> usize;

    /// The guard every thread of the execution skips
    /// ([`ExploreOptions::fault`]); none by default.
    fn fault(&self) -> Option<Fault> {
        None
    }
}

/// Candidate threads for a decision, and whether picking any candidate
/// other than the first costs a preemption.
///
/// * No current thread (previous one finished): all alive, free.
/// * Current spinning and others runnable: the others, free (the
///   spinner is excluded — rescheduling it cannot make progress).
/// * Current spinning alone: only it (the schedule may still be a
///   livelock; the step cap handles that).
/// * Otherwise: current first then the others; choosing an *other*
///   costs one preemption.
fn candidates(d: &Decision<'_>) -> (Vec<usize>, bool) {
    match d.current {
        None => (d.alive.to_vec(), false),
        Some(c) if d.spin => {
            let others: Vec<usize> = d.alive.iter().copied().filter(|&i| i != c).collect();
            if others.is_empty() {
                (vec![c], false)
            } else {
                (others, false)
            }
        }
        Some(c) => {
            let mut cands = vec![c];
            cands.extend(d.alive.iter().copied().filter(|&i| i != c));
            let costs = cands.len() > 1;
            (cands, costs)
        }
    }
}

/// A node of the DFS tree: one decision already taken this execution.
struct Node {
    cands: Vec<usize>,
    /// Whether non-first candidates cost a preemption here.
    costs: bool,
    chosen_idx: usize,
    /// Preemptions spent strictly before this decision.
    preempts_before: u32,
}

/// Exhaustive bounded-preemption DFS over schedules.
///
/// Use via [`explore_exhaustive`]: run an execution with the driver,
/// then call [`DfsDriver::advance`]; repeat until it returns `false`.
pub struct DfsDriver {
    max_preemptions: u32,
    /// Choice indices to replay for the prefix of the current execution.
    prefix: Vec<usize>,
    /// Decisions taken so far in the current execution.
    trace: Vec<Node>,
    preemptions: u32,
    fault: Option<Fault>,
}

impl DfsDriver {
    /// A DFS exploring every schedule with at most `max_preemptions`
    /// forced context switches.
    pub fn new(max_preemptions: u32) -> DfsDriver {
        DfsDriver {
            max_preemptions,
            prefix: Vec::new(),
            trace: Vec::new(),
            preemptions: 0,
            fault: None,
        }
    }

    /// Reset per-execution state and move to the next unexplored branch.
    /// Returns `false` when the whole bounded tree has been explored.
    pub fn advance(&mut self) -> bool {
        while let Some(node) = self.trace.last() {
            let next = node.chosen_idx + 1;
            let affordable = !node.costs || node.preempts_before < self.max_preemptions;
            if next < node.cands.len() && affordable {
                self.prefix = self
                    .trace
                    .iter()
                    .map(|n| n.chosen_idx)
                    .take(self.trace.len() - 1)
                    .collect();
                self.prefix.push(next);
                self.trace.clear();
                self.preemptions = 0;
                return true;
            }
            self.trace.pop();
        }
        false
    }

    /// The schedule of the current execution, as thread ids in decision
    /// order (for failure reports).
    pub fn schedule(&self) -> Vec<usize> {
        self.trace.iter().map(|n| n.cands[n.chosen_idx]).collect()
    }
}

impl Driver for DfsDriver {
    fn choose(&mut self, d: Decision<'_>) -> usize {
        let (cands, costs) = candidates(&d);
        let depth = self.trace.len();
        let idx = if depth < self.prefix.len() {
            // Replaying the prefix chosen by `advance`. The tree below a
            // fixed prefix is deterministic, so the candidate list must
            // match what we saw last time.
            self.prefix[depth].min(cands.len() - 1)
        } else {
            0
        };
        let chosen = cands[idx];
        let costed = costs && idx > 0;
        self.trace.push(Node {
            cands,
            costs,
            chosen_idx: idx,
            preempts_before: self.preemptions,
        });
        if costed {
            self.preemptions += 1;
        }
        chosen
    }

    fn fault(&self) -> Option<Fault> {
        self.fault
    }
}

/// Seeded random-walk driver: switches away from a runnable current
/// thread with probability `switch_pct`%, otherwise continues it.
pub struct RandomDriver {
    rng: SplitMix64,
    switch_pct: u32,
}

impl RandomDriver {
    /// A random walk fully determined by `seed`.
    pub fn new(seed: u64, switch_pct: u32) -> RandomDriver {
        RandomDriver {
            rng: SplitMix64::new(seed),
            switch_pct,
        }
    }
}

impl Driver for RandomDriver {
    fn choose(&mut self, d: Decision<'_>) -> usize {
        let (cands, costs) = candidates(&d);
        if cands.len() == 1 {
            return cands[0];
        }
        if costs {
            if self.rng.chance(self.switch_pct) {
                cands[1 + self.rng.index(cands.len() - 1)]
            } else {
                cands[0]
            }
        } else {
            cands[self.rng.index(cands.len())]
        }
    }
}

/// Budgets for one exploration run.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Preemption bound for the exhaustive DFS.
    pub max_preemptions: u32,
    /// Hard cap on the number of executions (0 = unlimited).
    pub max_executions: usize,
    /// The guard every execution's threads skip (a mutant the checker
    /// must catch), or `None` for the engines as they ship.
    pub fault: Option<Fault>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_preemptions: 3,
            max_executions: 0,
            fault: None,
        }
    }
}

/// Exhaustively explore schedules: call `execute` once per schedule with
/// the driver (pass it to [`crate::history::run_checked`], or to
/// [`crate::vthread::run_threads`] for an execution that records no
/// history), until the bounded tree is exhausted or a budget trips.
///
/// On `Err` from `execute`, panics with the failing execution index and
/// the schedule (thread ids in decision order) so the run is replayable.
/// Returns the number of executions explored.
pub fn explore_exhaustive(
    opts: ExploreOptions,
    mut execute: impl FnMut(&mut DfsDriver) -> Result<(), String>,
) -> usize {
    let mut driver = DfsDriver {
        fault: opts.fault,
        ..DfsDriver::new(opts.max_preemptions)
    };
    let mut executions = 0usize;
    loop {
        executions += 1;
        if let Err(msg) = execute(&mut driver) {
            panic!(
                "schedule exploration failed at execution {executions} \
                 (schedule {:?}, {} preemptions): {msg}",
                driver.schedule(),
                driver.preemptions,
            );
        }
        if opts.max_executions != 0 && executions >= opts.max_executions {
            return executions;
        }
        if !driver.advance() {
            return executions;
        }
    }
}

/// Run `iterations` random-walk executions derived from `base_seed`.
/// Each execution gets an independent seed; a failure panics with that
/// seed so the exact walk can be replayed with [`RandomDriver::new`].
pub fn explore_random(
    base_seed: u64,
    iterations: usize,
    switch_pct: u32,
    mut execute: impl FnMut(&mut RandomDriver) -> Result<(), String>,
) -> usize {
    let mut seeder = SplitMix64::new(base_seed);
    for i in 0..iterations {
        let seed = seeder.next_u64();
        let mut driver = RandomDriver::new(seed, switch_pct);
        if let Err(msg) = execute(&mut driver) {
            panic!(
                "random schedule exploration failed at iteration {i} \
                 (replay seed {seed:#x}, switch_pct {switch_pct}): {msg}"
            );
        }
    }
    iterations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulate executions on a fixed abstract program: each thread has
    /// `steps` points; collect all explored schedules.
    fn enumerate(threads: usize, steps: usize, max_preemptions: u32) -> Vec<Vec<usize>> {
        let mut schedules = Vec::new();
        let mut driver = DfsDriver::new(max_preemptions);
        loop {
            let mut remaining = vec![steps; threads];
            let mut current: Option<usize> = None;
            let mut order = Vec::new();
            loop {
                let alive: Vec<usize> = (0..threads).filter(|&i| remaining[i] > 0).collect();
                if alive.is_empty() {
                    break;
                }
                let c = driver.choose(Decision {
                    current,
                    spin: false,
                    alive: &alive,
                });
                order.push(c);
                remaining[c] -= 1;
                current = if remaining[c] > 0 { Some(c) } else { None };
            }
            schedules.push(order);
            if !driver.advance() {
                break;
            }
        }
        schedules
    }

    #[test]
    fn zero_preemptions_yields_thread_orderings_only() {
        // With no preemptions each thread runs to completion once
        // scheduled: exactly n! schedules.
        let s = enumerate(2, 3, 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(s[1], vec![1, 1, 1, 0, 0, 0]);
        assert_eq!(enumerate(3, 2, 0).len(), 6);
    }

    #[test]
    fn full_preemption_budget_covers_all_interleavings() {
        // 2 threads × 3 steps: C(6,3) = 20 interleavings; a budget of 5
        // (≥ max possible switches) must reach all of them.
        let s = enumerate(2, 3, 5);
        let unique: std::collections::HashSet<_> = s.iter().cloned().collect();
        assert_eq!(unique.len(), 20);
        assert_eq!(s.len(), 20, "no schedule explored twice");
    }

    #[test]
    fn bounded_preemptions_prune_monotonically() {
        let n0 = enumerate(2, 4, 0).len();
        let n1 = enumerate(2, 4, 1).len();
        let n2 = enumerate(2, 4, 2).len();
        let all = enumerate(2, 4, 8).len();
        assert!(n0 < n1 && n1 < n2 && n2 < all);
        assert_eq!(all, 70); // C(8,4)
    }

    #[test]
    fn spin_forces_a_switch() {
        let mut driver = DfsDriver::new(0);
        let c = driver.choose(Decision {
            current: Some(0),
            spin: true,
            alive: &[0, 1],
        });
        assert_eq!(c, 1, "spinner must yield to the other thread");
    }

    #[test]
    fn random_walk_is_replayable() {
        let walk = |seed| {
            let mut d = RandomDriver::new(seed, 30);
            let mut order = Vec::new();
            let mut current = None;
            for _ in 0..32 {
                let c = d.choose(Decision {
                    current,
                    spin: false,
                    alive: &[0, 1, 2],
                });
                order.push(c);
                current = Some(c);
            }
            order
        };
        assert_eq!(walk(42), walk(42));
        assert_ne!(walk(42), walk(43));
    }
}
