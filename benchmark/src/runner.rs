//! The sliced, closed-loop run.
//!
//! `W` workers each issue one operation after another (a caller of
//! `Stm::atomic` waits for its commit, so the loop is closed). The main
//! thread advances a slice counter on a fixed schedule; slices rotate
//! over the cells, so every cell is measured throughout the run and sees
//! the same share of the host's quiet and disturbed periods. Between two
//! rounds of slices the workers park and the main thread runs the
//! caller's own work — the timed set-ups, which so see that share too.

use crate::cells::Cell;
use crate::estimator::Slice;
use crate::hist::Hist;
use crate::probe::{Probe, ShareSums, Span};
use semtm_core::util::SplitMix64;
use semtm_core::StatsSnapshot;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Worker threads: the host's parallelism, at most four.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Slices run before measurement starts (they rotate too).
    pub warmup: usize,
    pub measured: usize,
    pub slice: Duration,
    pub workers: usize,
    /// Read each worker's on-CPU time at slice changes.
    pub cpu_time: bool,
}

impl Plan {
    /// The plan for `seconds` of 250 ms slices over `cells` cells: one
    /// warm-up round, then as many whole rounds as fit.
    pub fn for_seconds(seconds: f64, cells: usize, workers: usize) -> Plan {
        let total = (seconds * 4.0) as usize;
        let rounds = (total.saturating_sub(cells) / cells).max(1);
        Plan {
            warmup: cells,
            measured: rounds * cells,
            slice: Duration::from_millis(250),
            workers,
            cpu_time: false,
        }
    }

    pub fn total(&self) -> usize {
        self.warmup + self.measured
    }
}

/// One worker's record of one slice.
#[derive(Default)]
struct SliceRec {
    ops: u64,
    failed: u64,
    aux: u64,
    cpu_ns: u64,
    hist: Hist,
}

struct WorkerOut {
    slices: Vec<SliceRec>,
    probe: Probe,
}

/// What a run measured for one cell.
#[derive(Default)]
pub struct CellRun {
    /// The measured slices, workers merged, in run order.
    pub slices: Vec<Slice>,
    /// Operations started in measured slices.
    pub ops: u64,
    /// Operations whose call reported an error, warm-up included.
    pub failed: u64,
    /// Operations of the whole run, warm-up included.
    pub ops_total: u64,
    /// Sum of `OpOut::aux` over the whole run.
    pub aux_total: u64,
    /// Worker on-CPU time over the measured slices (0 unless asked for).
    pub cpu_ns: u64,
    /// The library's counters over the measured slices (an operation in
    /// flight when warm-up ends counts where it commits).
    pub stats: StatsSnapshot,
    pub sums: ShareSums,
}

pub struct RunOut {
    pub cells: Vec<CellRun>,
    pub spans: Vec<Span>,
}

/// This thread's time on a CPU so far, from the scheduler's accounting.
fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

const DONE: usize = usize::MAX;
/// Between two rounds: the workers park until the next slice id appears.
const PAUSE: usize = usize::MAX - 1;

fn worker(
    cells: &[Cell],
    plan: &Plan,
    slice: &AtomicUsize,
    parked: &AtomicUsize,
    start: &Barrier,
    mut rng: SplitMix64,
    mut probe: Probe,
) -> WorkerOut {
    // Everything a worker writes while timing is allocated here.
    let mut recs: Vec<SliceRec> = (0..plan.total()).map(|_| SliceRec::default()).collect();
    start.wait();
    let mut current = DONE;
    let mut cpu_mark = 0;
    let mut last = Instant::now();
    loop {
        // `Relaxed`: the counter publishes nothing but itself; a worker
        // that sees it late books one more operation to the old slice.
        let s = slice.load(Ordering::Relaxed);
        if s != current {
            if plan.cpu_time {
                let now = thread_cpu_ns();
                if let Some(rec) = recs.get_mut(current) {
                    rec.cpu_ns = now - cpu_mark;
                }
                cpu_mark = now;
            }
            if s == DONE {
                break;
            }
            if s == PAUSE {
                current = PAUSE;
                // `Release` pairs with the main thread's `Acquire`: the
                // last operation has returned before the pause is used.
                parked.fetch_add(1, Ordering::Release);
                while slice.load(Ordering::Relaxed) == PAUSE {
                    std::thread::park();
                }
                continue;
            }
            current = s;
            probe.new_slice();
            last = Instant::now();
        }
        let slot = s % cells.len();
        let out = cells[slot].op(slot, &mut rng, &mut probe);
        // One clock read per operation: an operation's end is the next
        // one's start, so generating the next inputs is part of it.
        let now = Instant::now();
        let rec = &mut recs[s];
        rec.hist.record((now - last).as_nanos() as u64);
        rec.ops += 1;
        rec.failed += u64::from(!out.ok);
        rec.aux += out.aux;
        last = now;
    }
    WorkerOut {
        slices: recs,
        probe,
    }
}

/// Run `plan` over `cells`. Worker `w` draws its inputs from a
/// SplitMix64 stream derived from `seed` and `w`. `between_rounds` runs
/// on the calling thread after every round of slices but the last, while
/// the workers are parked.
pub fn run(
    cells: &[Cell],
    plan: &Plan,
    seed: u64,
    epoch: Instant,
    between_rounds: &mut dyn FnMut(),
) -> RunOut {
    let slice = AtomicUsize::new(0);
    let parked = AtomicUsize::new(0);
    let start = Barrier::new(plan.workers + 1);
    let mut walls = Vec::with_capacity(plan.total());
    let stats = || -> Vec<StatsSnapshot> { cells.iter().map(|c| c.stm.stats()).collect() };
    let mut warm = stats();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.workers)
            .map(|w| {
                let rng =
                    SplitMix64::new(SplitMix64::new(seed ^ ((w as u64 + 1) << 32)).next_u64());
                let probe = Probe::new(epoch, w as u32 + 1, cells.len(), plan.total());
                let (slice, parked, start) = (&slice, &parked, &start);
                scope.spawn(move || worker(cells, plan, slice, parked, start, rng, probe))
            })
            .collect();
        start.wait();
        let mut began = Instant::now();
        for s in 0..plan.total() {
            std::thread::sleep((began + plan.slice).saturating_duration_since(Instant::now()));
            let last = s + 1 == plan.total();
            let round_ends = (s + 1) % cells.len() == 0;
            let next = match (last, round_ends) {
                (true, _) => DONE,
                (false, true) => PAUSE,
                (false, false) => s + 1,
            };
            slice.store(next, Ordering::Relaxed);
            let ended = Instant::now();
            walls.push((ended - began).as_secs_f64());
            began = ended;
            if s + 1 == plan.warmup {
                warm = stats();
            }
            if next == PAUSE {
                while parked.load(Ordering::Acquire) < plan.workers {
                    std::thread::yield_now();
                }
                between_rounds();
                parked.store(0, Ordering::Relaxed);
                slice.store(s + 1, Ordering::Relaxed);
                for h in &handles {
                    h.thread().unpark();
                }
                began = Instant::now();
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut runs: Vec<CellRun> = stats()
        .iter()
        .zip(&warm)
        .map(|(end, warm)| CellRun {
            stats: end.since(warm),
            ..CellRun::default()
        })
        .collect();
    for s in 0..plan.total() {
        let run = &mut runs[s % cells.len()];
        let mut merged = Slice {
            ops: 0,
            wall_s: walls[s],
            hist: Hist::new(),
        };
        for out in &outs {
            let rec = &out.slices[s];
            run.ops_total += rec.ops;
            run.aux_total += rec.aux;
            run.failed += rec.failed;
            if s >= plan.warmup {
                merged.ops += rec.ops;
                merged.hist.merge(&rec.hist);
                run.cpu_ns += rec.cpu_ns;
            }
        }
        if s >= plan.warmup {
            run.ops += merged.ops;
            run.slices.push(merged);
        }
    }
    let mut spans = Vec::new();
    for out in outs {
        for (run, sums) in runs.iter_mut().zip(&out.probe.sums) {
            run.sums.add(sums);
        }
        spans.extend(out.probe.spans);
    }
    RunOut { cells: runs, spans }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fills_the_time_with_whole_rounds() {
        let p = Plan::for_seconds(20.0, 3, 2);
        assert_eq!((p.warmup, p.measured), (3, 75));
        let p = Plan::for_seconds(24.75, 3, 2);
        assert_eq!((p.warmup, p.measured), (3, 96));
        let p = Plan::for_seconds(10.0, 4, 2);
        assert_eq!((p.warmup, p.measured), (4, 36));
        let p = Plan::for_seconds(0.5, 3, 2);
        assert_eq!((p.warmup, p.measured), (3, 3));
    }
}
