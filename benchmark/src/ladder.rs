//! The layer ladder: single-thread micro-loops over the library's public
//! functions, one rung per layer, bottom (a raw heap word) to top (one
//! whole bank transaction). The rungs are independent of the workload
//! being traced; every traced run measures all of them.
//!
//! A rung calibrates a batch of calls to a fixed wall time, runs a fixed
//! number of batches and reports the lower quartile of the per-call
//! times: like the quiet slices, the fast batches are the undisturbed
//! ones.

use crate::cells::{Cell, Engine, Env, IrState, Kernels, Workload, ENGINES};
use crate::estimator::{estimate, lower_quartile};
use crate::hist::Hist;
use crate::probe::Probe;
use crate::runner::{self, Plan};
use semtm_core::sclock::ShardedClock;
use semtm_core::util::SplitMix64;
use semtm_core::wal::encode_record;
use semtm_core::{
    replay, AdaptPolicy, Addr, Algorithm, CmpOp, CommitLog, DurabilityMode, FileStorage, Heap,
    LogStorage, Mode, Stm, TelemetryLevel,
};
use semtm_ir::{lower, parse_function, programs, run_tm_passes, Function, Interp};
use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long and how often a rung measures.
#[derive(Clone, Copy)]
pub struct Budget {
    pub batches: usize,
    pub batch: Duration,
    /// Slice length and measured rounds of the two sliced rungs: the
    /// base-vs-semantic run and the log under load.
    pub gain_slice: Duration,
    pub gain_rounds: usize,
}

impl Budget {
    pub const FULL: Budget = Budget {
        batches: 40,
        batch: Duration::from_millis(2),
        gain_slice: Duration::from_millis(125),
        gain_rounds: 5,
    };
    pub const SMOKE: Budget = Budget {
        batches: 8,
        batch: Duration::from_micros(500),
        gain_slice: Duration::from_millis(50),
        gain_rounds: 2,
    };

    /// Nanoseconds per call of `f`; `between` runs untimed after every
    /// batch.
    fn time_with(&self, mut f: impl FnMut(), mut between: impl FnMut()) -> f64 {
        let mut run = |iters: u64| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            let ns = t.elapsed().as_nanos() as f64;
            between();
            ns / iters as f64
        };
        let mut iters = 1u64;
        let per_call = loop {
            let per_call = run(iters);
            // The second test ends the search for a body the optimiser
            // folded away, which never fills a batch.
            if per_call * iters as f64 * 4.0 >= self.batch.as_nanos() as f64 || iters >= 1 << 40 {
                break per_call.max(1e-3);
            }
            iters *= 4;
        };
        let iters = ((self.batch.as_nanos() as f64 / per_call) as u64).max(1);
        let samples: Vec<f64> = (0..self.batches).map(|_| run(iters)).collect();
        lower_quartile(&samples)
    }

    fn time(&self, f: impl FnMut()) -> f64 {
        self.time_with(f, || {})
    }
}

pub type Rungs = Vec<(String, f64)>;

const TX_OPS: usize = 16;
/// Seed of the scripts whose counts must repeat exactly from run to run.
const SCRIPT_SEED: u64 = 0x5EED;

#[derive(Clone, Copy)]
enum TxKind {
    Empty,
    Read,
    Cmp,
    Inc,
    Write,
    ReadsThenWrite,
}

fn engine_rungs(b: &Budget, engine: &Engine, seed: u64, out: &mut Rungs) {
    let stm = Stm::new(engine.config());
    let words = 1024;
    let base = stm.alloc_array(words, 1_000i64);
    // 16 distinct words scattered like a bank transaction's accounts.
    let mut rng = SplitMix64::new(seed);
    let mut picks: Vec<usize> = Vec::new();
    while picks.len() < TX_OPS + 1 {
        let i = rng.index(words);
        if !picks.contains(&i) {
            picks.push(i);
        }
    }
    let addrs: Vec<Addr> = picks.iter().map(|&i| base.offset(i)).collect();
    let (extra, addrs) = addrs.split_last().expect("17 picks");
    let tx = |kind: TxKind| {
        stm.atomic(|tx| {
            for &a in addrs {
                match kind {
                    TxKind::Empty => break,
                    TxKind::Read | TxKind::ReadsThenWrite => {
                        black_box(tx.read(a)?);
                    }
                    TxKind::Cmp => {
                        black_box(tx.cmp(a, CmpOp::Gte, 1)?);
                    }
                    TxKind::Inc => tx.inc(a, 1)?,
                    TxKind::Write => tx.write(a, 7)?,
                }
            }
            if let TxKind::ReadsThenWrite = kind {
                tx.write(*extra, 7)?;
            }
            Ok(())
        })
    };
    let empty = b.time(|| tx(TxKind::Empty));
    let reads = b.time(|| tx(TxKind::Read));
    let m = engine.module;
    out.push((format!("{m}.empty_tx_ns"), empty));
    out.push((format!("{m}.read_ns"), (reads - empty) / TX_OPS as f64));
    for (name, kind) in [
        ("cmp_ns", TxKind::Cmp),
        ("inc_ns", TxKind::Inc),
        ("write_ns", TxKind::Write),
    ] {
        let t = b.time(|| tx(kind));
        out.push((format!("{m}.{name}"), (t - empty) / TX_OPS as f64));
    }
    let writer = b.time(|| tx(TxKind::ReadsThenWrite));
    out.push((format!("{m}.writer_commit_ns"), writer - reads));
}

/// A log storage that keeps nothing, so that timing appends does not
/// grow memory with the number of batches.
struct Discard;

impl LogStorage for Discard {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        black_box(bytes);
        Ok(())
    }
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

const RECORD_WRITES: usize = 20;

fn wal_rungs(b: &Budget, env: &Env<'_>, out: &mut Rungs) {
    let writes: Vec<(Addr, i64)> = (0..RECORD_WRITES)
        .map(|i| (Addr::from_index(i * 37), 1_000 + i as i64))
        .collect();
    let mut buf = Vec::with_capacity(1024);
    out.push((
        "wal.encode_ns".into(),
        b.time(|| {
            buf.clear();
            encode_record(&mut buf, 1, black_box(&writes));
        }),
    ));

    let log = CommitLog::new(Box::new(Discard), DurabilityMode::Manual);
    out.push((
        "wal.append_ns".into(),
        b.time_with(
            || {
                black_box(log.append(&writes).expect("append to a healthy log"));
            },
            || {
                log.flush_step().expect("flush to the discarding storage");
            },
        ),
    ));

    std::fs::create_dir_all(env.out_dir).expect("creating the output directory");
    let path = env.out_dir.join("ladder-sync.log");
    let file = FileStorage::create(&path).expect("creating the log file");
    let log = CommitLog::new(Box::new(file), DurabilityMode::Sync);
    let ns = b.time(|| {
        let ticket = log.append(&writes).expect("append to a healthy log");
        log.wait_durable(ticket).expect("sync of a healthy log");
    });
    out.push(("wal.sync_commit_us".into(), ns / 1e3));
    drop(log);
    let _ = std::fs::remove_file(&path);

    let records = 2048usize;
    let mut bytes = Vec::new();
    for seq in 1..=records as u64 {
        encode_record(&mut bytes, seq, &writes);
    }
    let heap = Heap::new(1 << 12);
    let ns = b.time(|| {
        let report = replay(black_box(&bytes), &heap);
        assert_eq!(report.records, records as u64);
    });
    out.push(("wal.replay_krec_s".into(), records as f64 / ns * 1e6));
}

fn telemetry_rungs(b: &Budget, out: &mut Rungs) {
    for level in [
        TelemetryLevel::Counters,
        TelemetryLevel::Histograms,
        TelemetryLevel::Trace,
        TelemetryLevel::Spans,
    ] {
        let stm = Stm::new(ENGINES[0].config().telemetry(level));
        let cells = stm.alloc_array(4 * 16, 0i64);
        let ns = b.time(|| {
            stm.atomic(|tx| {
                for i in 0..4 {
                    tx.inc(cells.offset(i * 16), 1)?;
                }
                Ok(())
            })
        });
        out.push((format!("telemetry.tx_ns.{}", level.name()), ns));
    }
}

fn adapt_rungs(b: &Budget, env: &Env<'_>, seed: u64, out: &mut Rungs) {
    let round_trip = |stm: &Stm| {
        for alg in [Algorithm::STl2, Algorithm::SNOrec] {
            let report = stm.switch_to(Mode::new(alg)).expect("global-clock mode");
            assert!(report.changed());
        }
    };
    let idle = Stm::new(ENGINES[0].config());
    out.push((
        "adapt.switch_us".into(),
        b.time(|| round_trip(&idle)) / 2.0 / 1e3,
    ));

    let cell = Cell::build(Workload::BankTransfer, ENGINES[0], 0, env);
    let stop = AtomicBool::new(false);
    let loaded = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..runner::workers())
            .map(|w| {
                let (cell, stop) = (&cell, &stop);
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ (w as u64 + 0x51));
                    let mut probe = Probe::idle();
                    while !stop.load(Ordering::Relaxed) {
                        cell.op(0, &mut rng, &mut probe);
                    }
                })
            })
            .collect();
        let ns = b.time(|| round_trip(&cell.stm));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("load thread panicked");
        }
        ns
    });
    cell.verify(0)
        .expect("bank invariant across engine switches");
    out.push(("adapt.switch_loaded_us".into(), loaded / 2.0 / 1e3));

    let adaptive = Stm::new(ENGINES[1].config().adaptive(AdaptPolicy::default()));
    out.push((
        "adapt.tick_ns".into(),
        b.time(|| {
            black_box(adaptive.adapt_tick());
        }),
    ));
    assert_eq!(
        adaptive.switch_count(),
        0,
        "an idle runtime has no reason to switch"
    );
}

/// Instructions one call executes: the smallest step budget it fits in.
fn steps_of(run: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0u64, 1u64 << 16);
    assert!(run(hi), "kernel needs more than {hi} steps");
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if run(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

fn ir_rungs(b: &Budget, out: &mut Rungs) {
    let sources = [
        programs::HASHTABLE_OP_SRC,
        programs::BANK_TRANSFER_SRC,
        programs::VACATION_RESERVE_SRC,
    ];
    let parse = || -> Vec<Function> {
        sources
            .iter()
            .map(|s| parse_function(s).expect("shipped kernel parses"))
            .collect()
    };
    out.push((
        "ir.parse_us".into(),
        b.time(|| {
            black_box(parse());
        }) / 1e3,
    ));
    let parsed = parse();
    // The passes rewrite in place, so each call works on a fresh copy;
    // copying three small functions is part of the number.
    out.push((
        "ir.passes_us".into(),
        b.time(|| {
            for f in &parsed {
                let mut f = f.clone();
                black_box(run_tm_passes(&mut f));
            }
        }) / 1e3,
    ));
    let passed: Vec<Function> = parsed
        .iter()
        .map(|f| {
            let mut f = f.clone();
            run_tm_passes(&mut f);
            f
        })
        .collect();
    out.push((
        "ir.lower_us".into(),
        b.time(|| {
            for f in &passed {
                black_box(lower(f).expect("shipped kernel lowers"));
            }
        }) / 1e3,
    ));

    // Tree-walking against lowered dispatch on the bank kernel; balances
    // large enough that every call takes the transfer path.
    let stm = Stm::new(ENGINES[0].config());
    let accounts = stm.alloc_array(2, 1i64 << 40);
    let args = [
        accounts.index() as i64,
        accounts.offset(1).index() as i64,
        1,
    ];
    let tree = &passed[1];
    let flat = lower(tree).expect("shipped kernel lowers");
    let mut interp = Interp::new(&stm);
    let tree_steps = steps_of(|limit| {
        let mut probe = Interp::new(&stm);
        probe.step_limit = limit;
        probe.execute(tree, &args).is_ok()
    });
    let flat_steps = steps_of(|limit| {
        let mut probe = Interp::new(&stm);
        probe.step_limit = limit;
        probe.execute_lowered(&flat, &args).is_ok()
    });
    interp.step_limit = u64::MAX;
    let ns = b.time(|| {
        black_box(interp.execute(tree, &args).expect("kernel runs"));
    });
    out.push(("ir.tree_ns_per_inst".into(), ns / tree_steps as f64));
    let ns = b.time(|| {
        black_box(interp.execute_lowered(&flat, &args).expect("kernel runs"));
    });
    out.push(("ir.lowered_ns_per_inst".into(), ns / flat_steps as f64));

    // Barrier calls per atomic region over a fixed single-thread script
    // of `ir-kernels` operations: an exact count, before and after the
    // passes.
    for (name, passes) in [("before", false), ("after", true)] {
        let stm = Stm::new(ENGINES[0].config());
        let state = IrState::new(&stm, Kernels::compile(passes));
        let interp = Interp::new(&stm);
        let mut rng = SplitMix64::new(SCRIPT_SEED);
        let mut booked = 0;
        for _ in 0..500 {
            let (ok, seats, _) = state.op(&interp, &mut rng, None);
            assert!(ok, "kernel script fails");
            booked += seats;
        }
        state
            .verify(&stm, booked)
            .expect("kernel script invariants");
        out.push((
            format!("ir.tm_calls_per_region.{name}"),
            interp.counters.tm_calls() as f64 / interp.counters.region_attempts() as f64,
        ));
    }
}

/// Quiet-slice throughput of each semantic algorithm over its base
/// algorithm on `hashtable-hot`: the paper's Figure 1 ratio.
fn semantic_gain(b: &Budget, env: &Env<'_>, seed: u64, out: &mut Rungs) -> Result<(), String> {
    let engines = [
        ENGINES[0],
        Engine {
            cell: "norec",
            algorithm: Algorithm::NOrec,
            ..ENGINES[0]
        },
        ENGINES[2],
        Engine {
            cell: "tl2",
            algorithm: Algorithm::Tl2,
            ..ENGINES[2]
        },
    ];
    let cells: Vec<Cell> = engines
        .iter()
        .enumerate()
        .map(|(i, e)| Cell::build(Workload::HashtableHot, *e, i, env))
        .collect();
    let plan = Plan {
        warmup: 2 * cells.len(),
        measured: b.gain_rounds * cells.len(),
        slice: b.gain_slice,
        workers: runner::workers(),
        cpu_time: false,
    };
    let run = runner::run(&cells, &plan, seed, env.epoch, &mut || {});
    for (cell, r) in cells.iter().zip(&run.cells) {
        cell.verify(r.aux_total)
            .map_err(|e| format!("semantic_gain {}: {e}", cell.engine.cell))?;
    }
    let tput: Vec<f64> = run
        .cells
        .iter()
        .map(|r| estimate(&r.slices).tput_ktps)
        .collect();
    out.push(("semantic_gain.norec".into(), tput[0] / tput[1]));
    out.push(("semantic_gain.tl2".into(), tput[2] / tput[3]));
    Ok(())
}

/// What the storage decorator sees under `bank-durable`'s load: a short
/// sliced run of the three durable cells with the wrappers on, flushed
/// with the real `sync_data`. Part of every traced run, so that the log
/// is watched whatever workload is traced.
fn wal_under_load(b: &Budget, env: &Env<'_>, seed: u64, out: &mut Rungs) -> Result<(), String> {
    let mut cells: Vec<Cell> = ENGINES
        .iter()
        .enumerate()
        .map(|(i, e)| Cell::build(Workload::BankDurable, *e, i, env))
        .collect();
    for cell in &mut cells {
        cell.wrapped = true;
    }
    let plan = Plan {
        warmup: cells.len(),
        measured: b.gain_rounds * cells.len(),
        slice: b.gain_slice,
        workers: runner::workers(),
        cpu_time: false,
    };
    let run = runner::run(&cells, &plan, seed, env.epoch, &mut || {});
    let (mut syncs, mut bytes, mut commits, mut tail, mut op) = (0, 0, 0, 0, 0);
    let mut sync_ns = Hist::new();
    for (cell, r) in cells.into_iter().zip(&run.cells) {
        let name = cell.engine.cell;
        let meter = cell.wal.as_ref().expect("durable cell").meter.clone();
        // On a bank cell `aux` counts the writing transactions, each one
        // record in the log, over the whole run like the decorator's counts.
        cell.verify(r.aux_total)
            .and_then(|()| cell.restart_check(r.aux_total))
            .map_err(|e| format!("log under load, {name}: {e}"))?;
        syncs += meter.syncs.load(Ordering::Relaxed);
        bytes += meter.appended_bytes.load(Ordering::Relaxed);
        sync_ns.merge(&meter.sync_ns.lock().expect("sync histogram poisoned"));
        commits += r.aux_total;
        tail += r.sums.tail_ns;
        op += r.sums.op_ns;
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    out.push(("wal.fsyncs".into(), syncs as f64));
    out.push(("wal.fsync_us_p50".into(), sync_ns.quantile(0.5) / 1e3));
    out.push(("wal.commits_per_fsync".into(), ratio(commits, syncs)));
    out.push(("wal.bytes_per_commit".into(), ratio(bytes, commits)));
    out.push(("wal.durable_wait_share".into(), ratio(tail, op)));
    Ok(())
}

/// Every rung that does not depend on the traced workload.
pub fn run_all(b: &Budget, env: &Env<'_>, seed: u64) -> Result<Rungs, String> {
    let mut out = Rungs::new();

    let heap = Heap::new(1 << 16);
    let words: Vec<Addr> = (0..1024).map(|_| heap.alloc(1)).collect();
    let mut i = 0;
    let mut next = || {
        i = (i + 1) & 1023;
        words[i]
    };
    out.push((
        "heap.load_ns".into(),
        b.time(|| {
            black_box(heap.load(next()));
        }),
    ));
    out.push(("heap.store_ns".into(), b.time(|| heap.store(next(), 7))));

    for engine in &ENGINES {
        engine_rungs(b, engine, seed, &mut out);
    }

    let clock = ShardedClock::new(16);
    let mut even = 0u64;
    out.push((
        "sclock.acquire_release_ns".into(),
        b.time(|| {
            assert!(clock.try_acquire(3, even));
            even += 2;
            clock.release(3, even);
        }),
    ));
    out.push((
        "sclock.load_all_ns".into(),
        b.time(|| {
            for s in 0..clock.len() {
                black_box(clock.load(s));
            }
        }),
    ));

    let bank = Cell::build(Workload::BankTransfer, ENGINES[0], 0, env);
    let mut rng = SplitMix64::new(seed);
    let mut probe = Probe::idle();
    out.push((
        "workloads.bank_tx_ns".into(),
        b.time(|| {
            black_box(bank.op(0, &mut rng, &mut probe));
        }),
    ));
    bank.verify(0)?;

    wal_rungs(b, env, &mut out);
    wal_under_load(b, env, seed, &mut out)?;
    telemetry_rungs(b, &mut out);
    adapt_rungs(b, env, seed, &mut out);
    ir_rungs(b, &mut out);
    semantic_gain(b, env, seed, &mut out)?;
    Ok(out)
}

/// The exact schedule-point counts, from the companion binary built
/// with the library's `shuttle` feature. Returns the per-transaction
/// metrics and the per-`PointKind` breakdown, as printed.
pub fn sched_points(counts_bin: &std::path::Path) -> Result<(Rungs, String), String> {
    let output = std::process::Command::new(counts_bin)
        .output()
        .map_err(|e| format!("running {}: {e}", counts_bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} failed: {}",
            counts_bin.display(),
            output.status
        ));
    }
    let text = String::from_utf8(output.stdout).map_err(|e| e.to_string())?;
    let mut rungs = Rungs::new();
    for line in text.lines() {
        let mut f = line.split_whitespace();
        if f.next() == Some("per_tx") {
            let (Some(cell), Some(value)) = (f.next(), f.next().and_then(|v| v.parse().ok()))
            else {
                return Err(format!("unreadable line from the counts binary: {line}"));
            };
            rungs.push((format!("sched.points_per_tx.{cell}"), value));
        }
    }
    if rungs.len() != ENGINES.len() {
        return Err(format!("counts binary reported {} cells", rungs.len()));
    }
    Ok((rungs, text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_search_finds_the_smallest_budget() {
        assert_eq!(steps_of(|limit| limit >= 17), 17);
        assert_eq!(steps_of(|limit| limit >= 1), 1);
    }

    #[test]
    fn timing_reports_time_per_call() {
        let b = Budget::SMOKE;
        let ns = b.time(|| std::thread::sleep(Duration::from_micros(200)));
        assert!((200_000.0..2_000_000.0).contains(&ns), "{ns}");
        let mut calls = 0u64;
        let mut batches = 0u64;
        // `black_box`: a bare `calls += 1` folds the whole batch into one
        // addition, and no batch of it ever takes the calibration time.
        b.time_with(|| calls = std::hint::black_box(calls + 1), || batches += 1);
        assert!(batches > b.batches as u64 && calls > batches);
    }
}
