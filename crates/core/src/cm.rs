//! Contention management.
//!
//! When a transaction aborts, *how* it retries shapes throughput under
//! contention (Scherer & Scott, PODC 2005 — the paper's \[22\]). The
//! algorithms in this crate resolve conflicts by aborting the reader /
//! later committer, so the contention manager's job reduces to pacing
//! retries. There is one policy, with constant bounds: randomised
//! truncated exponential backoff — the "Polite" manager the paper's
//! evaluation uses. Three rivals (immediate retry, linear backoff,
//! yield-only) were measured against it on the contended hashtable and
//! retired; DESIGN.md §4 row A3 keeps the numbers.

use crate::error::AbortReason;
use crate::util::SplitMix64;

/// Spins of the first pause, and the floor of every later one.
const MIN_SPINS: u32 = 16;
/// Ceiling of the random part of a pause.
const MAX_SPINS: u32 = 8192;

/// Per-transaction retry pacing: the state of one caller's backoff.
#[derive(Clone, Debug)]
pub struct ContentionManager {
    rng: SplitMix64,
}

impl ContentionManager {
    /// Create a manager for one executing context; `seed` decorrelates
    /// the jitter of concurrent callers.
    pub fn new(seed: u64) -> ContentionManager {
        ContentionManager {
            rng: SplitMix64::new(seed),
        }
    }

    /// Pace before retry number `attempt` (0-based) after an abort for
    /// `reason`. Explicit (workload-logic) retries always just yield:
    /// spinning cannot make the awaited state change on this core.
    ///
    /// Returns the number of spin iterations executed (0 for pure
    /// yields), which the telemetry layer feeds into the backoff
    /// histogram — making time lost to pacing, not just time lost to
    /// re-execution, observable.
    pub fn pause(&mut self, attempt: u32, reason: AbortReason) -> u64 {
        if reason == AbortReason::Explicit {
            std::thread::yield_now();
            return 0;
        }
        let ceiling = MIN_SPINS
            .saturating_mul(1 << attempt.min(16))
            .min(MAX_SPINS);
        let spins = MIN_SPINS as u64 + self.rng.below(ceiling as u64);
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        // On heavily oversubscribed machines spinning alone can livelock;
        // yield to the scheduler once the backoff gets long.
        if attempt > 4 {
            std::thread::yield_now();
        }
        spins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pauses_stay_within_the_bounds() {
        let mut cm = ContentionManager::new(7);
        for attempt in 0..40 {
            let spins = cm.pause(attempt, AbortReason::Validation);
            assert!(spins >= MIN_SPINS as u64, "attempt {attempt}: {spins}");
            assert!(
                spins < (MIN_SPINS + MAX_SPINS) as u64,
                "attempt {attempt}: {spins}"
            );
            assert_eq!(cm.pause(attempt, AbortReason::Explicit), 0);
        }
        // The first pause draws from [MIN, 2·MIN): the ramp starts small.
        assert!(ContentionManager::new(1).pause(0, AbortReason::Locked) < 2 * MIN_SPINS as u64);
    }

    #[test]
    fn huge_attempt_saturates() {
        ContentionManager::new(1).pause(u32::MAX, AbortReason::Locked); // must not overflow
    }
}
