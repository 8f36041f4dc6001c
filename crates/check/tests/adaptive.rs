//! Clean-run exploration of engine hot-swaps: bounded-preemption
//! schedules of a switch racing transactional commits/aborts — and a
//! switch racing a WAL group-commit flush — must serialize, with no
//! acked-but-not-fsynced commit crossing the switch epoch.
//!
//! The same drain scenario runs *faulted* (drain barrier skipped) in
//! the mutation table (`tests/mutations.rs`), proving the checker would
//! catch the bug these schedules are gating against.
//!
//! The spin waits in the drain/flusher loops branch freely in the DFS
//! (spin switches cost no preemption), so the full bounded trees are
//! far too large to exhaust; each bound instead runs a deterministic
//! DFS *prefix* of a few hundred executions. Calibration: with the
//! drain skipped, the violating schedule sits at execution 145 of
//! the bound-2 DFS order (649 at bound 3) — the prefixes below cover
//! that neighbourhood several times over.

use semtm_check::scenario;
use semtm_check::schedule::{explore_exhaustive, ExploreOptions};

/// `(preemption bound, execution cap)` pairs the clean sweeps run at.
const BUDGETS: [(u32, usize); 2] = [(1, 400), (2, 800)];

#[test]
fn switch_racing_commits_and_aborts_serializes() {
    // Drained from the global commit clock and from 4 clock shards.
    for shards in [1, 4] {
        for (bound, cap) in BUDGETS {
            let explored = explore_exhaustive(
                ExploreOptions {
                    max_preemptions: bound,
                    max_executions: cap,
                    fault: None,
                },
                |driver| scenario::adaptive_switch_drain(driver, shards),
            );
            assert!(explored > 1, "{shards}, bound {bound}: explored {explored}");
        }
    }
}

#[test]
fn switch_racing_wal_group_commit_flush_keeps_acks_durable() {
    for (bound, cap) in BUDGETS {
        let explored = explore_exhaustive(
            ExploreOptions {
                max_preemptions: bound,
                max_executions: cap,
                fault: None,
            },
            |driver| scenario::adaptive_switch_wal_flush(driver),
        );
        assert!(explored > 1, "bound {bound}: explored {explored}");
    }
}
