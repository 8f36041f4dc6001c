//! Cross-backend differential fuzzing: random programs, random
//! schedules, all four algorithms checked against the serial oracle and
//! the history checker.

use crate::checker::check_history;
use crate::history::{atomic_recorded, RecTx, Recorder};
use crate::program::{POp, Program};
use crate::schedule::RandomDriver;
use crate::shrink::shrink;
use crate::vthread::run_threads;
use semtm_core::chrome::chrome_trace_json;
use semtm_core::error::Abort;
use semtm_core::util::SplitMix64;
use semtm_core::{Addr, Algorithm, Mode, Stm, StmConfig, TelemetryLevel};

/// Probability (%) that the random driver preempts a runnable thread.
const SWITCH_PCT: u32 = 40;
/// Per-execution scheduling-step cap (livelock backstop).
const STEP_CAP: usize = 50_000;

/// Number of fuzz programs: `SEMTM_CHECK_ITERS` when set, else `dflt`.
pub fn iterations(dflt: usize) -> usize {
    std::env::var("SEMTM_CHECK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(dflt)
}

/// Commit-clock shard count for the check runtimes: `SEMTM_CLOCK_SHARDS`
/// when set (tier-1 reruns the whole suite with it at 4 so every
/// scenario and fuzz program also gates the sharded clock), else 1 —
/// the classical global sequence lock.
pub fn clock_shards() -> usize {
    std::env::var("SEMTM_CLOCK_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// Whether scheduled executions add an engine hot-swap virtual thread:
/// `SEMTM_ADAPTIVE` (any value but `0` or empty) — tier-1 reruns the
/// fuzz suite with it so every random program history is also checked
/// across two mode switches (away from the starting engine family and
/// back). The switcher performs no data operations, so the serial
/// oracle of the program is unchanged; only the engines executing the
/// transactions vary mid-history.
pub fn adaptive() -> bool {
    std::env::var("SEMTM_ADAPTIVE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The cross-family hot-swap target for a runtime currently in `mode`:
/// the other engine family, same semanticity (matching what the
/// [`semtm_core::Controller`] would propose).
pub fn flip_family(mode: Mode) -> Mode {
    Mode::new(match mode.algorithm {
        Algorithm::NOrec => Algorithm::Tl2,
        Algorithm::SNOrec => Algorithm::STl2,
        Algorithm::Tl2 => Algorithm::NOrec,
        Algorithm::STl2 => Algorithm::SNOrec,
    })
}

fn check_config(alg: Algorithm, shards: usize) -> StmConfig {
    // A sharded run gets a slightly bigger heap (8 cache lines) plus
    // padded allocation, so separately allocated cells land on distinct
    // lines and therefore distinct clock shards — otherwise a 64-word
    // micro heap collapses every address into shard 0 and the sharded
    // paths go untested.
    let sharded = shards > 1;
    StmConfig::new(alg)
        .heap_words(if sharded { 128 } else { 64 })
        .orec_count(16)
        .clock_shards(shards)
        .padded_alloc(sharded)
        .lock_wait_spins(8)
}

/// An [`Stm`] sized and tuned for scheduler-driven micro executions:
/// tiny heap, short lock patience. Honors [`clock_shards`].
pub fn check_stm(alg: Algorithm) -> Stm {
    check_stm_sharded(alg, clock_shards())
}

/// [`check_stm`] with an explicit commit-clock shard count, regardless
/// of the `SEMTM_CLOCK_SHARDS` environment.
pub fn check_stm_sharded(alg: Algorithm, shards: usize) -> Stm {
    Stm::new(check_config(alg, shards))
}

/// [`check_stm`] with the flight recorder on, for replaying a failing
/// schedule into a dumpable timeline. The rings are kept tiny — the
/// micro programs record a handful of spans, and exploration harnesses
/// construct one `Stm` per schedule, so the eager per-shard ring
/// allocation must stay cheap.
pub fn check_stm_traced(alg: Algorithm) -> Stm {
    check_stm_traced_sharded(alg, clock_shards())
}

/// [`check_stm_traced`] with an explicit commit-clock shard count.
pub fn check_stm_traced_sharded(alg: Algorithm, shards: usize) -> Stm {
    Stm::new(
        check_config(alg, shards)
            .telemetry(TelemetryLevel::Spans)
            .trace_capacity(64),
    )
}

fn exec_op(rtx: &mut RecTx<'_, '_>, op: POp, base: Addr, stride: usize) -> Result<(), Abort> {
    let slot = |s: usize| base.offset(s * stride);
    match op {
        POp::Read(s) => {
            rtx.read(slot(s))?;
        }
        POp::Write(s, v) => rtx.write(slot(s), v)?,
        POp::Inc(s, d) => rtx.inc(slot(s), d)?,
        POp::Cmp(s, op, c) => {
            rtx.cmp(slot(s), op, c)?;
        }
        POp::CmpAddr(a, op, b) => {
            rtx.cmp_addr(slot(a), op, slot(b))?;
        }
        POp::Guard(s, op, c, s2, d) => {
            if rtx.cmp(slot(s), op, c)? {
                rtx.inc(slot(s2), d)?;
            }
        }
    }
    Ok(())
}

/// Slot spacing in heap words: sharded runtimes place each program slot
/// on its own cache line so the slots span distinct clock shards
/// (contiguous slots would all map to shard 0 and leave the multi-shard
/// commit paths unexercised).
fn slot_stride(shards: usize) -> usize {
    if shards > 1 {
        semtm_core::heap::LINE_WORDS
    } else {
        1
    }
}

/// Run `program` once on `alg` under the random schedule `sched_seed`,
/// recording the full history. Errors describe any divergence from the
/// serial oracle or any checker violation, with enough context to
/// replay. Honors [`clock_shards`].
pub fn run_program(program: &Program, alg: Algorithm, sched_seed: u64) -> Result<(), String> {
    run_program_sharded(program, alg, sched_seed, clock_shards())
}

/// [`run_program`] with an explicit commit-clock shard count.
pub fn run_program_sharded(
    program: &Program,
    alg: Algorithm,
    sched_seed: u64,
    shards: usize,
) -> Result<(), String> {
    run_program_on(
        &check_stm_sharded(alg, shards),
        program,
        alg,
        sched_seed,
        slot_stride(shards),
        adaptive(),
    )
}

/// Replay `program` on a flight-recorder-enabled runtime under the same
/// schedule and return the recorded timeline as Chrome trace-event JSON
/// (pass/fail of the replay itself is irrelevant — the spans are the
/// product). Honors [`clock_shards`].
pub fn trace_program(program: &Program, alg: Algorithm, sched_seed: u64) -> String {
    trace_program_sharded(program, alg, sched_seed, clock_shards())
}

/// [`trace_program`] with an explicit commit-clock shard count.
pub fn trace_program_sharded(
    program: &Program,
    alg: Algorithm,
    sched_seed: u64,
    shards: usize,
) -> String {
    let stm = check_stm_traced_sharded(alg, shards);
    let _ = run_program_on(
        &stm,
        program,
        alg,
        sched_seed,
        slot_stride(shards),
        adaptive(),
    );
    chrome_trace_json(alg, &stm.telemetry().span_events())
}

fn run_program_on(
    stm: &Stm,
    program: &Program,
    alg: Algorithm,
    sched_seed: u64,
    stride: usize,
    hot_swap: bool,
) -> Result<(), String> {
    let base = stm.alloc(program.slots * stride);
    for (i, v) in program.init.iter().enumerate() {
        stm.write_now(base.offset(i * stride), *v);
    }
    let rec = Recorder::new();

    let shared = (stm, &rec, program, base, stride);
    type Shared<'a> = (&'a Stm, &'a Recorder, &'a Program, Addr, usize);
    let body = |tid: usize, shared: &Shared<'_>| {
        let (stm, rec, program, base, stride) = *shared;
        for tx in &program.threads[tid] {
            atomic_recorded(stm, rec, tid, |rtx| {
                for &op in tx {
                    exec_op(rtx, op, base, stride)?;
                }
                Ok(())
            });
        }
    };
    // Under `SEMTM_ADAPTIVE`, one extra virtual thread hot-swaps the
    // runtime to the other engine family and back, so the recorded
    // history spans three engine eras. It touches no program slot —
    // the serial oracle below is the unchanged one.
    let switcher = |_tid: usize, shared: &Shared<'_>| {
        let (stm, ..) = *shared;
        let home = stm.mode();
        let away = flip_family(home);
        stm.switch_to(away)
            .expect("unsharded modes are always available");
        stm.switch_to(home)
            .expect("the starting mode is always available");
    };
    let mut bodies: Vec<crate::vthread::Body<'_, Shared<'_>>> =
        program.threads.iter().map(|_| &body as _).collect();
    if hot_swap {
        bodies.push(&switcher);
    }

    let mut driver = RandomDriver::new(sched_seed, SWITCH_PCT);
    let outcome = run_threads(&shared, &bodies, &mut driver, STEP_CAP);
    if outcome.capped {
        return Err(format!(
            "{alg}: step cap {STEP_CAP} exceeded (livelock?) after {} steps",
            outcome.steps
        ));
    }

    let final_mem: Vec<i64> = (0..program.slots)
        .map(|i| stm.read_now(base.offset(i * stride)))
        .collect();
    if !program.serial_outcomes().contains(&final_mem) {
        return Err(format!(
            "{alg}: final state {final_mem:?} is outside the serial oracle set \
             {:?} (init {:?})",
            program.serial_outcomes(),
            program.init
        ));
    }

    let init: Vec<(Addr, i64)> = program
        .init
        .iter()
        .enumerate()
        .map(|(i, v)| (base.offset(i * stride), *v))
        .collect();
    let fin: Vec<(Addr, i64)> = final_mem
        .iter()
        .enumerate()
        .map(|(i, v)| (base.offset(i * stride), *v))
        .collect();
    check_history(&rec.attempts(), &init, &fin).map_err(|e| format!("{alg}: {e}"))
}

/// Fuzz `programs` random programs, each on every algorithm, under
/// independently seeded random schedules derived from `base_seed`.
/// Honors [`clock_shards`].
///
/// On failure the failing program is minimized with [`shrink`] and the
/// panic message carries the program, algorithm, program seed, and
/// schedule seed — everything needed to replay.
pub fn run_differential(programs: usize, base_seed: u64) {
    run_differential_sharded(programs, base_seed, clock_shards());
}

/// [`run_differential`] with an explicit commit-clock shard count —
/// the fuzz gate the sharded commit clock must pass on all four
/// backends (`tests/sharded_clock.rs`) independent of the environment.
pub fn run_differential_sharded(programs: usize, base_seed: u64, shards: usize) {
    let mut seeder = SplitMix64::new(base_seed);
    for i in 0..programs {
        let prog_seed = seeder.next_u64();
        let sched_seed = seeder.next_u64();
        let mut rng = SplitMix64::new(prog_seed);
        let program = Program::generate(&mut rng);
        for alg in Algorithm::ALL {
            if let Err(msg) = run_program_sharded(&program, alg, sched_seed, shards) {
                let minimized = shrink(&program, |p| {
                    run_program_sharded(p, alg, sched_seed, shards).is_err()
                });
                let note = crate::tracedump::dump_note(
                    &format!("fuzz_{alg}"),
                    &trace_program_sharded(&minimized, alg, sched_seed, shards),
                );
                panic!(
                    "differential fuzz failure at program {i}/{programs} on {alg} \
                     (program seed {prog_seed:#x}, schedule seed {sched_seed:#x}, \
                     base seed {base_seed:#x}, clock shards {shards}): {msg}\n{note}\n\
                     minimized program: {minimized:#?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_swap_thread_switches_twice_and_history_still_checks() {
        // Every algorithm's random-program history must keep checking
        // with the engine hot-swapped away and back mid-schedule: two
        // completed switches on the runtime, same serial oracle.
        let mut rng = SplitMix64::new(11);
        let program = Program::generate(&mut rng);
        for alg in Algorithm::ALL {
            let stm = check_stm_sharded(alg, 1);
            run_program_on(&stm, &program, alg, 99, 1, true)
                .unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert_eq!(stm.switch_count(), 2, "{alg}");
            assert_eq!(stm.mode(), Mode::new(alg), "{alg}: back home");
        }
    }

    #[test]
    fn trace_program_replays_into_chrome_json() {
        let mut rng = SplitMix64::new(7);
        let program = Program::generate(&mut rng);
        let json = trace_program(&program, Algorithm::SNOrec, 42);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""), "replay must record spans");
    }
}
