//! Cross-backend differential fuzzing: random transaction programs run
//! on all four algorithms under seeded random schedules must land in
//! the serial-oracle outcome set and pass the opacity/history checker.
//!
//! [`RUNS`] lists every runtime shape the fuzzer runs, each row on its
//! own seeded program stream: the global commit clock, the sharded clock
//! at 4 shards and at 16 (the benchmark's `scnorec` count, where every
//! line of the micro heap has a shard of its own), and the global clock
//! with a switcher thread hot-swapping engine families mid-run — plus a
//! second stream at 4 shards, with and without the switcher. The budgets
//! are tuned for the tier-1 wall clock; `SEMTM_CHECK_ITERS=<n>` sets
//! every row to `n` programs for longer soak runs. Failures panic with
//! the program seed, schedule seed, base seed, shard count and a
//! minimized reproducer program.

use semtm_check::fuzz::{iterations, run_differential};

/// `(base seed, clock shards, hot-swap thread, programs)`. Fixed seeds:
/// every row is fully deterministic, so a failure in CI reproduces
/// locally with no extra information.
const RUNS: [(u64, usize, bool, usize); 6] = [
    (0x5eed_cafe_f00d_0001, 1, false, 1000),
    (0x5eed_cafe_f00d_0001, 4, false, 200),
    (0x5eed_cafe_f00d_0001, 16, false, 100),
    (0x5eed_cafe_f00d_0001, 1, true, 200),
    (0x5eed_cafe_f00d_0002, 4, false, 1000),
    (0x5eed_cafe_f00d_0002, 4, true, 200),
];

#[test]
fn differential_fuzz_all_backends_match_serial_oracle() {
    for (base_seed, shards, hot_swap, programs) in RUNS {
        run_differential(iterations(programs), base_seed, shards, hot_swap);
    }
}
