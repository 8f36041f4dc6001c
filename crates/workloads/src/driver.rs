//! Multi-threaded measurement driver shared by all workloads.
//!
//! Two modes, matching the paper's methodology (§7):
//!
//! * **fixed duration** — threads repeatedly execute workload
//!   transactions for a wall-clock interval; reported as *throughput*
//!   (micro-benchmarks: Hashtable, Bank, LRU);
//! * **fixed work** — a given number of workload operations is split
//!   across threads; reported as *execution time* (STAMP applications).
//!
//! Both return a [`RunResult`] carrying the interval's [`StatsSnapshot`],
//! from which abort rates (the right-hand columns of Figures 1 and 2) are
//! derived.

use semtm_core::util::SplitMix64;
use semtm_core::{SamplePoint, Sampler, StatsSnapshot, Stm};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Outcome of one measured run.
#[derive(Clone, Copy, Debug)]
pub struct RunResult {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the measured interval.
    pub elapsed: Duration,
    /// Completed workload operations (top-level transactions).
    pub total_ops: u64,
    /// STM statistics accumulated during the interval.
    pub stats: StatsSnapshot,
    /// Transactions committed while building the workload's initial
    /// state (pre-population, warm-up) *before* the measured interval.
    /// The runtime-wide accounting identity is exact:
    /// `stm.stats().commits == total_ops + setup_commits`.
    pub setup_commits: u64,
}

impl RunResult {
    /// Throughput in thousands of transactions per second (the y-axis of
    /// Figures 1a/1c/1e and 2a).
    pub fn throughput_ktps(&self) -> f64 {
        if self.elapsed.is_zero() {
            0.0
        } else {
            self.total_ops as f64 / self.elapsed.as_secs_f64() / 1000.0
        }
    }

    /// Abort percentage over the interval.
    pub fn abort_pct(&self) -> f64 {
        self.stats.abort_pct()
    }
}

/// Run `work(tid, rng)` repeatedly on `threads` threads for `duration`.
/// Each call to `work` should execute exactly one workload transaction.
pub fn run_for_duration(
    stm: &Stm,
    threads: usize,
    duration: Duration,
    seed: u64,
    work: impl Fn(usize, &mut SplitMix64) + Sync,
) -> RunResult {
    // One tick spanning the whole run: the timer sleeps through it.
    run_for_duration_observed(stm, threads, duration, duration, seed, work, |_, _| {}).0
}

/// Like [`run_for_duration`], but the timer thread additionally samples
/// the runtime's statistics every `sample_every`, producing the
/// throughput/abort-rate time series of the paper's figure style (and of
/// any production dashboard), and hands each sample to `observe` *while
/// the run is in flight* — the hook behind live dashboards, which can
/// also read `stm`'s telemetry (hot addresses, span counts) from inside
/// the callback. The observer runs on the timer thread, so a slow
/// observer stretches the tick, not the workers. The final partial
/// interval is included, so the series' commit counts sum to the run's
/// commits.
#[allow(clippy::too_many_arguments)]
pub fn run_for_duration_observed(
    stm: &Stm,
    threads: usize,
    duration: Duration,
    sample_every: Duration,
    seed: u64,
    work: impl Fn(usize, &mut SplitMix64) + Sync,
    mut observe: impl FnMut(Duration, &SamplePoint),
) -> (RunResult, Vec<SamplePoint>) {
    let stop = AtomicBool::new(false);
    let ops = AtomicU64::new(0);
    let before = stm.stats();
    let sample_every = sample_every.max(Duration::from_millis(1));
    let start = Instant::now();
    let mut series = Vec::new();
    // Deltas are taken against `before` so the series ignores any earlier
    // traffic on the same Stm, exactly like the RunResult itself.
    let mut sampler = Sampler::new(before);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let stop = &stop;
            let ops = &ops;
            let work = &work;
            s.spawn(move || {
                let mut rng = SplitMix64::new(seed ^ ((tid as u64 + 1) * 0x9E37_79B9));
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    work(tid, &mut rng);
                    local += 1;
                }
                ops.fetch_add(local, Ordering::Relaxed);
            });
        }
        // The scope owner doubles as timer and sampler.
        while start.elapsed() < duration {
            let remaining = duration.saturating_sub(start.elapsed());
            std::thread::sleep(sample_every.min(remaining));
            let point = sampler.sample(stm.stats());
            observe(start.elapsed(), &point);
            series.push(point);
        }
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();
    // Workers drain their in-flight transaction after `stop`; fold that
    // tail into a final sample so the series sums to the run totals.
    let tail = sampler.sample(stm.stats());
    if tail.commits > 0 || series.is_empty() {
        observe(elapsed, &tail);
        series.push(tail);
    }
    let result = RunResult {
        threads,
        elapsed,
        total_ops: ops.load(Ordering::Relaxed),
        stats: stm.stats().since(&before),
        setup_commits: 0,
    };
    (result, series)
}

/// Split `total_ops` operations across `threads` threads and time the
/// whole batch (STAMP-style execution-time measurement). Operation `i` of
/// the global index space is executed by thread `i % threads`.
pub fn run_fixed_work(
    stm: &Stm,
    threads: usize,
    total_ops: u64,
    seed: u64,
    work: impl Fn(usize, u64, &mut SplitMix64) + Sync,
) -> RunResult {
    let before = stm.stats();
    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..threads {
            let work = &work;
            s.spawn(move || {
                let mut rng = SplitMix64::new(seed ^ ((tid as u64 + 1) * 0xC2B2_AE35));
                let mut i = tid as u64;
                while i < total_ops {
                    work(tid, i, &mut rng);
                    i += threads as u64;
                }
            });
        }
    });
    let elapsed = start.elapsed();
    RunResult {
        threads,
        elapsed,
        total_ops,
        stats: stm.stats().since(&before),
        setup_commits: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    #[test]
    fn fixed_work_distributes_all_indices() {
        let stm = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(1 << 10));
        let a = stm.alloc_cell(0i64);
        let r = run_fixed_work(&stm, 3, 100, 1, |_tid, _i, _rng| {
            stm.atomic(|tx| tx.inc(a, 1));
        });
        assert_eq!(r.total_ops, 100);
        assert_eq!(stm.read_now(a), 100);
        assert_eq!(r.stats.commits, 100);
    }

    #[test]
    fn observed_run_invokes_callback_per_sample() {
        let stm = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(1 << 10));
        let a = stm.alloc_cell(0i64);
        let mut ticks = 0usize;
        let (r, series) = run_for_duration_observed(
            &stm,
            2,
            Duration::from_millis(60),
            Duration::from_millis(10),
            7,
            |_tid, _rng| {
                stm.atomic(|tx| tx.inc(a, 1));
            },
            |elapsed, point| {
                assert!(elapsed > Duration::ZERO);
                assert!(point.dt_secs > 0.0);
                ticks += 1;
            },
        );
        assert_eq!(ticks, series.len(), "one callback per sample");
        assert!(ticks >= 3, "60ms / 10ms should tick several times");
        let sum: u64 = series.iter().map(|p| p.commits).sum();
        assert_eq!(sum, r.stats.commits, "series must cover the whole run");
        let aborts: u64 = series.iter().map(|p| p.conflict_aborts).sum();
        assert_eq!(aborts, r.stats.conflict_aborts());
        for w in series.windows(2) {
            assert!(w[0].t_secs < w[1].t_secs, "timestamps strictly increase");
        }
    }

    #[test]
    fn duration_run_counts_ops_and_stats() {
        let stm = Stm::new(StmConfig::new(Algorithm::Tl2).heap_words(1 << 10));
        let a = stm.alloc_cell(0i64);
        let r = run_for_duration(&stm, 2, Duration::from_millis(50), 7, |_tid, _rng| {
            stm.atomic(|tx| tx.inc(a, 1));
        });
        assert!(r.total_ops > 0);
        assert_eq!(r.stats.commits, r.total_ops);
        assert_eq!(stm.read_now(a) as u64, r.total_ops);
        assert!(r.throughput_ktps() > 0.0);
    }
}
