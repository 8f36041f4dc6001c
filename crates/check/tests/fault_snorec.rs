//! Regression test: the harness catches a deliberately reintroduced
//! S-NOrec bug (skipping the per-entry semantic revalidation during
//! `Validate`, i.e. after a snapshot extension), on the global commit
//! clock and on 4 clock shards.
//!
//! Faults are process-global, so this file holds exactly one test and
//! lives in its own integration-test binary (own process). The same
//! scenario runs *unfaulted* across all schedules in
//! `tests/scheduler_smoke.rs`, proving the panic here is the armed
//! fault and nothing else.

use semtm_check::scenario;
use semtm_check::schedule::{explore_exhaustive, ExploreOptions};
use semtm_core::{fault, Algorithm};
use std::panic::catch_unwind;

#[test]
fn skipped_snorec_revalidation_is_caught_by_the_checker() {
    fault::arm(fault::SNOREC_SKIP_REVALIDATION);
    for shards in [1, 4] {
        let explored = catch_unwind(|| {
            explore_exhaustive(
                ExploreOptions {
                    max_preemptions: 3,
                    ..ExploreOptions::default()
                },
                |driver| scenario::snorec_revalidation(driver, Algorithm::SNOrec, shards),
            )
        });
        let msg = *explored
            .expect_err("the checker must object to some schedule")
            .downcast::<String>()
            .expect("panic payload");
        assert!(
            msg.contains("no real-time-consistent serial order"),
            "{shards} shard(s): {msg}"
        );
    }
}
