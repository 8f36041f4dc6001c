//! Regression test: the harness catches a deliberately reintroduced
//! TL2 bug (skipping commit-time read-set validation when the commit
//! timestamp moved past the start version), on a one-shard runtime and
//! on the padded layout of a 4-shard one (where both cells share an
//! orec).
//!
//! Faults are process-global, so this file holds exactly one test and
//! lives in its own integration-test binary (own process). The same
//! scenario runs *unfaulted* across all schedules in
//! `tests/scheduler_smoke.rs`.

use semtm_check::scenario;
use semtm_check::schedule::{explore_exhaustive, ExploreOptions};
use semtm_core::fault;
use std::panic::catch_unwind;

#[test]
fn skipped_tl2_read_validation_is_caught_by_the_checker() {
    fault::arm(fault::TL2_SKIP_READ_VALIDATION);
    for shards in [1, 4] {
        let explored = catch_unwind(|| {
            explore_exhaustive(
                ExploreOptions {
                    max_preemptions: 3,
                    ..ExploreOptions::default()
                },
                |driver| scenario::tl2_read_validation(driver, shards),
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
