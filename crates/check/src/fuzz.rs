//! Cross-backend differential fuzzing: random programs, random
//! schedules, all four algorithms checked against the serial oracle and
//! the history checker.

use crate::history::{run_checked, RecBody, RecThread, RecTx};
use crate::program::{POp, Program};
use crate::schedule::RandomDriver;
use crate::shrink::shrink;
use crate::tracedump::span_note;
use semtm_core::error::Abort;
use semtm_core::util::SplitMix64;
use semtm_core::{Addr, Algorithm, Mode, Stm, StmConfig, TelemetryLevel};

/// Probability (%) that the random driver preempts a runnable thread.
const SWITCH_PCT: u32 = 40;
/// Per-execution scheduling-step cap (livelock backstop): random
/// programs run longer than the explorers' scenarios.
const FUZZ_STEP_CAP: usize = 50_000;

/// Number of fuzz programs: `SEMTM_CHECK_ITERS` when set, else `dflt`.
pub fn iterations(dflt: usize) -> usize {
    std::env::var("SEMTM_CHECK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(dflt)
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
/// tiny heap, short lock patience, `shards` commit-clock shards (1 is
/// the classical global sequence lock; above 1 every allocation gets a
/// cache line, and so a clock shard, of its own).
pub fn check_stm(alg: Algorithm, shards: usize) -> Stm {
    Stm::new(check_config(alg, shards))
}

/// [`check_stm`] with the flight recorder on, for replaying a failing
/// schedule into a dumpable timeline. The rings are kept tiny — the
/// micro programs record a handful of spans, and exploration harnesses
/// construct one `Stm` per schedule, so the eager per-shard ring
/// allocation must stay cheap.
pub fn check_stm_traced(alg: Algorithm, shards: usize) -> Stm {
    Stm::new(
        check_config(alg, shards)
            .telemetry(TelemetryLevel::Spans)
            .trace_capacity(64),
    )
}

fn exec_op(rtx: &mut RecTx<'_, '_>, op: POp, slots: &[Addr]) -> Result<(), Abort> {
    match op {
        POp::Read(s) => {
            rtx.read(slots[s])?;
        }
        POp::Write(s, v) => rtx.write(slots[s], v)?,
        POp::Inc(s, d) => rtx.inc(slots[s], d)?,
        POp::Cmp(s, op, c) => {
            rtx.cmp(slots[s], op, c)?;
        }
        POp::CmpAddr(a, op, b) => {
            rtx.cmp_addr(slots[a], op, slots[b])?;
        }
        POp::Guard(s, op, c, s2, d) => {
            if rtx.cmp(slots[s], op, c)? {
                rtx.inc(slots[s2], d)?;
            }
        }
    }
    Ok(())
}

/// One cell per program slot, holding its initial value. A sharded
/// runtime pads every allocation, so the slots then span distinct cache
/// lines and clock shards (packed slots would all map to shard 0 and
/// leave the multi-shard commit paths unexercised).
fn alloc_slots(stm: &Stm, init: &[i64]) -> Vec<Addr> {
    init.iter().map(|&v| stm.alloc_cell(v)).collect()
}

/// Run `program` once on `alg` with `shards` commit-clock shards under
/// the random schedule `sched_seed`, recording the full history; with
/// `hot_swap`, one more virtual thread switches engine families and
/// back mid-run. Errors describe any divergence from the serial oracle
/// or any checker violation, with enough context to replay.
pub fn run_program(
    program: &Program,
    alg: Algorithm,
    sched_seed: u64,
    shards: usize,
    hot_swap: bool,
) -> Result<(), String> {
    run_program_on(&check_stm(alg, shards), program, alg, sched_seed, hot_swap)
}

fn run_program_on(
    stm: &Stm,
    program: &Program,
    alg: Algorithm,
    sched_seed: u64,
    hot_swap: bool,
) -> Result<(), String> {
    let slots = alloc_slots(stm, &program.init);
    let body = |t: &RecThread<'_>| {
        for tx in &program.threads[t.index()] {
            t.atomic(|rtx| {
                for &op in tx {
                    exec_op(rtx, op, &slots)?;
                }
                Ok(())
            });
        }
    };
    // The hot-swap thread switches the runtime to the other engine
    // family and back, so the recorded history spans three engine eras.
    // It touches no program slot — the serial oracle below is the
    // unchanged one.
    let switcher = |_: &RecThread<'_>| {
        let home = stm.mode();
        let away = flip_family(home);
        stm.switch_to(away)
            .expect("unsharded modes are always available");
        stm.switch_to(home)
            .expect("the starting mode is always available");
    };
    let mut threads: Vec<RecBody<'_>> = program.threads.iter().map(|_| &body as _).collect();
    if hot_swap {
        threads.push(&switcher);
    }

    let name = format!("fuzz_{alg}");
    let mut driver = RandomDriver::new(sched_seed, SWITCH_PCT);
    run_checked(&name, stm, &slots, &threads, &mut driver, FUZZ_STEP_CAP)?;

    let final_mem: Vec<i64> = slots.iter().map(|&a| stm.read_now(a)).collect();
    if !program.serial_outcomes().contains(&final_mem) {
        return Err(format!(
            "{alg}: final state {final_mem:?} is outside the serial oracle set \
             {:?} (init {:?}){}",
            program.serial_outcomes(),
            program.init,
            span_note(stm, &name)
        ));
    }
    Ok(())
}

/// Fuzz `programs` random programs, each on every algorithm with
/// `shards` commit-clock shards (and the `hot_swap` thread, if asked),
/// under independently seeded random schedules derived from
/// `base_seed`.
///
/// On failure the failing program is minimized with [`shrink`] and
/// replayed on a flight-recorder runtime ([`check_stm_traced`]), whose
/// failure dumps the timeline; the panic message carries the program,
/// algorithm, program seed, and schedule seed — everything needed to
/// replay.
pub fn run_differential(programs: usize, base_seed: u64, shards: usize, hot_swap: bool) {
    let mut seeder = SplitMix64::new(base_seed);
    for i in 0..programs {
        let prog_seed = seeder.next_u64();
        let sched_seed = seeder.next_u64();
        let mut rng = SplitMix64::new(prog_seed);
        let program = Program::generate(&mut rng);
        for alg in Algorithm::ALL {
            let run = |p: &Program| run_program(p, alg, sched_seed, shards, hot_swap);
            if let Err(msg) = run(&program) {
                let minimized = shrink(&program, |p| run(p).is_err());
                let traced = check_stm_traced(alg, shards);
                let replay = run_program_on(&traced, &minimized, alg, sched_seed, hot_swap);
                let note = replay
                    .err()
                    .unwrap_or_else(|| "traced replay passed".into());
                panic!(
                    "differential fuzz failure at program {i}/{programs} on {alg} \
                     (program seed {prog_seed:#x}, schedule seed {sched_seed:#x}, \
                     base seed {base_seed:#x}, clock shards {shards}, \
                     hot swap {hot_swap}): {msg}\ntraced replay: {note}\n\
                     minimized program: {minimized:#?}"
                );
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use semtm_core::chrome::chrome_trace_json;
    use semtm_core::heap::LINE_WORDS;
    use semtm_core::sclock::ShardedClock;

    /// The placement the sharded runs depend on: at `shards > 1`, the
    /// cells in `addrs` sit on pairwise distinct cache lines spread over
    /// at least two clock shards; at one shard they are packed onto one
    /// line, as the census's runtimes expect.
    pub(crate) fn assert_cells_spread(addrs: &[Addr], shards: usize, what: &str) {
        let lines: Vec<usize> = addrs.iter().map(|a| a.index() / LINE_WORDS).collect();
        if shards == 1 {
            let packed = lines.iter().all(|&l| l == lines[0]);
            assert!(packed, "{what} at 1 shard: {addrs:?} not packed");
            return;
        }
        let mut distinct = lines.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            lines.len(),
            "{what} at {shards} shards: cells share a cache line ({lines:?})"
        );
        let clock = ShardedClock::new(shards);
        let mut used: Vec<usize> = addrs.iter().map(|&a| clock.shard_of(a)).collect();
        used.sort_unstable();
        used.dedup();
        assert!(
            used.len() >= 2,
            "{what} at {shards} shards: every cell under shard {used:?}"
        );
    }

    #[test]
    fn program_slots_spread_over_lines_and_shards() {
        let init = [0; 5];
        for shards in [1, 4, 16] {
            for alg in Algorithm::ALL {
                let slots = alloc_slots(&check_stm(alg, shards), &init);
                assert_cells_spread(&slots, shards, &format!("{alg} fuzz slots"));
            }
        }
    }

    #[test]
    fn hot_swap_thread_switches_twice_and_history_still_checks() {
        // Every algorithm's random-program history must keep checking
        // with the engine hot-swapped away and back mid-schedule: two
        // completed switches on the runtime, same serial oracle.
        let mut rng = SplitMix64::new(11);
        let program = Program::generate(&mut rng);
        for alg in Algorithm::ALL {
            let stm = check_stm(alg, 1);
            run_program_on(&stm, &program, alg, 99, true).unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert_eq!(stm.switch_count(), 2, "{alg}");
            assert_eq!(stm.mode(), Mode::new(alg), "{alg}: back home");
        }
    }

    #[test]
    fn traced_replay_records_spans_for_chrome_json() {
        // The runtime a failing program is replayed on records the
        // timeline its failure dumps.
        let mut rng = SplitMix64::new(7);
        let program = Program::generate(&mut rng);
        // (shards, hot swap): the global clock, the sharded clock, and
        // the global clock across a hot swap.
        for (shards, hot_swap) in [(1, false), (4, false), (1, true)] {
            let alg = Algorithm::SNOrec;
            let stm = check_stm_traced(alg, shards);
            run_program_on(&stm, &program, alg, 42, hot_swap).unwrap();
            let json = chrome_trace_json(alg, &stm.telemetry().span_events());
            assert!(json.contains("\"traceEvents\":["), "{shards} {hot_swap}");
            assert!(
                json.contains("\"ph\":\"X\""),
                "{shards} {hot_swap}: replay must record spans"
            );
        }
    }
}
