//! Cross-backend differential fuzzing: random transaction programs run
//! on all four algorithms under seeded random schedules must land in
//! the serial-oracle outcome set and pass the opacity/history checker.
//!
//! Each row of [`RUNS`] fuzzes the same seeded program stream on one
//! runtime shape: the global commit clock, the sharded clock at 4
//! shards and at 16 (the benchmark's `scnorec` count, where every line
//! of the micro heap has a shard of its own), and the global clock with
//! a switcher thread hot-swapping engine families mid-run. The budgets
//! are tuned for the tier-1 wall clock; `SEMTM_CHECK_ITERS=<n>` sets
//! every row to `n` programs for longer soak runs. Failures panic with
//! the program seed, schedule seed, shard count and a minimized
//! reproducer program.

use semtm_check::fuzz::{iterations, run_differential};

/// `(clock shards, hot-swap thread, programs)`.
const RUNS: [(usize, bool, usize); 4] = [
    (1, false, 1000),
    (4, false, 200),
    (16, false, 100),
    (1, true, 200),
];

#[test]
fn differential_fuzz_all_backends_match_serial_oracle() {
    // Fixed base seed: the run is fully deterministic, so a failure in
    // CI reproduces locally with no extra information.
    for (shards, hot_swap, programs) in RUNS {
        run_differential(
            iterations(programs),
            0x5eed_cafe_f00d_0001,
            shards,
            hot_swap,
        );
    }
}
