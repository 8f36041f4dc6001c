//! Regression test: the harness catches a deliberately broken engine
//! hot-swap (skipping the drain barrier, so an in-flight S-NOrec
//! attempt keeps running across the reseed while later transactions
//! commit under S-TL2 and never move the NOrec sequence lock).
//!
//! Faults are process-global, so this file holds exactly one test and
//! lives in its own integration-test binary (own process). The same
//! scenario runs *unfaulted* across all schedules in
//! `tests/adaptive.rs`, proving the panic here is the armed fault and
//! nothing else.

use semtm_check::scenario;
use semtm_check::schedule::{explore_exhaustive, ExploreOptions};
use semtm_core::fault;

#[test]
#[should_panic(expected = "no real-time-consistent serial order")]
fn skipped_switch_drain_is_caught_by_the_checker() {
    fault::arm(fault::ADAPT_SKIP_DRAIN);
    // The violating schedule (T0 passes its cmp; the undained switch
    // reseeds and publishes S-TL2; T0 extends its snapshot; T1 commits
    // under S-TL2; T0 reads stale-consistently and commits) is reached
    // at execution 649 of this DFS order, in well under a second. The
    // schedule is a global-clock interleaving, so it runs at one shard.
    explore_exhaustive(
        ExploreOptions {
            max_preemptions: 3,
            ..ExploreOptions::default()
        },
        |driver| scenario::adaptive_switch_drain(driver, 1),
    );
}
