//! Regression test: the harness catches a deliberately broken first
//! touch of the sharded commit clock (the shard's word is recorded but
//! the shard is left out of the set the attempt has read under, so no
//! later validation looks at it).
//!
//! Faults are process-global, so this file holds exactly one test and
//! lives in its own integration-test binary (own process). The same
//! scenario runs *unfaulted* across all schedules and all four
//! algorithms in `tests/sharded_clock.rs`, proving the panic here is the
//! armed fault and nothing else — and that the explorer sees the
//! first-touch step, not only that the step passes.

use semtm_check::scenario;
use semtm_check::schedule::{explore_exhaustive, ExploreOptions};
use semtm_core::{fault, Algorithm};

#[test]
#[should_panic(expected = "no real-time-consistent serial order")]
fn forgotten_first_touch_is_caught_by_the_checker() {
    fault::arm(fault::SCNOREC_FORGET_TOUCH);
    explore_exhaustive(
        ExploreOptions {
            max_preemptions: 2,
            ..ExploreOptions::default()
        },
        |driver| scenario::first_touch_straddle(driver, Algorithm::SNOrec),
    );
}
