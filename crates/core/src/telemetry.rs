//! The telemetry subsystem: per-thread counters, log-bucketed latency
//! histograms, a ring of attempt spans, and an interval sampler.
//!
//! Everything the paper's evaluation measures — Table 3's per-operation
//! invocation counts, the abort-rate series of Figures 1–2 — and
//! everything a scaling investigation needs on top of it (commit-latency
//! quantiles, wasted work from aborted attempts, per-abort forensics)
//! flows through one [`Telemetry`] instance owned by the
//! [`crate::Stm`].
//!
//! Four levels, selected by [`StmConfig::telemetry`](crate::StmConfig):
//!
//! * [`TelemetryLevel::Counters`] (default) — the per-thread counters
//!   only: each thread adds to the cache-line-padded attempt record its
//!   [lease](crate::util::LEASES) selects, which no other live thread
//!   writes, so the hot commit/abort path never bounces a counter cache
//!   line between cores and needs no locked instruction. Cost: one
//!   relaxed load and store for the commit or abort itself plus one per
//!   operation kind the attempt actually used — a zero count is not
//!   flushed. Threads without a lease share an overflow record, written
//!   with `fetch_add`s.
//! * [`TelemetryLevel::Histograms`] — additionally samples commit
//!   latency, attempts per transaction, read/compare-set sizes at
//!   commit, and contention-manager backoff into fixed-size atomic
//!   [`Histogram`]s (two `Instant::now` calls plus a handful of relaxed
//!   increments per transaction).
//! * [`TelemetryLevel::Trace`] — additionally records every aborted
//!   attempt as a [`SpanEvent`] stamped once, at the abort (who aborted,
//!   why, at which attempt, carrying how much metadata, on which
//!   address), into a per-thread fixed-capacity [`EventRing`] for
//!   postmortem dumps. A committed attempt records nothing.
//! * [`TelemetryLevel::Spans`] — the flight recorder: records every
//!   transaction *attempt* as a [`SpanEvent`] (begin/validate/lock/
//!   writeback/end timestamps plus set sizes) into the same rings and
//!   attributes each abort to the conflicting address/orec and committer
//!   where knowable ([`Conflict`]).
//!
//! The span is the one record of an attempt: [`Telemetry::trace_events`]
//! (the aborted spans), [`Telemetry::hot_addresses`] and the
//! who-aborted-whom summary [`Telemetry::conflict_edges`] all read the
//! retained spans.
//!
//! The [`Sampler`] turns successive [`StatsSnapshot`]s into a
//! throughput/abort-rate time series ([`SamplePoint`]) — the exporter
//! side lives in the bench crate's report writer.

use crate::error::{AbortReason, Conflict};
use crate::heap::Addr;
use crate::ring::EventRing;
use crate::stats::{StatsSnapshot, ThreadRecord};
use crate::util::{Lease, LEASES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How much the runtime records. Levels are cumulative and ordered:
/// `Counters < Histograms < Trace < Spans`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum TelemetryLevel {
    /// Sharded commit/abort/operation counters only (default).
    Counters,
    /// Counters plus latency/attempt/set-size/backoff histograms.
    Histograms,
    /// Histograms plus the abort trace: each aborted attempt as a span,
    /// stamped at the abort.
    Trace,
    /// Trace plus the transaction flight recorder: a span per attempt,
    /// with phase marks and the committer in abort attribution.
    Spans,
}

impl TelemetryLevel {
    /// Display name (used by exporters).
    pub fn name(self) -> &'static str {
        match self {
            TelemetryLevel::Counters => "counters",
            TelemetryLevel::Histograms => "histograms",
            TelemetryLevel::Trace => "trace",
            TelemetryLevel::Spans => "spans",
        }
    }
}

/// Number of span rings at [`TelemetryLevel::Trace`] and above. A span
/// lands in ring `thread_token() % SHARDS`; tokens are never reused, so
/// the 65th thread ever started shares thread 1's ring even while only
/// the two are alive. A ring is a `Mutex`, so sharing costs only
/// contention. The counters are not sharded by token: each thread writes
/// the attempt record its [lease](crate::util::LEASES) selects.
pub const SHARDS: usize = 64;

/// The span ring of the thread whose [token](crate::util::thread_token)
/// is `token`.
#[inline]
fn ring_index(token: u64) -> usize {
    token as usize % SHARDS
}

// --- histograms -----------------------------------------------------------

/// 8 sub-buckets per power-of-two octave, HDR-histogram style: values
/// below 8 get an exact bucket each; larger values land in the bucket
/// `(msb - 2) * 8 + ((v >> (msb - 3)) - 8)`, giving a worst-case
/// relative error of 12.5% across the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 62 * 8;

/// Map a value to its bucket index.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (msb - 3)) - 8) as usize;
        (msb - 2) * 8 + sub
    }
}

/// The smallest value mapping to bucket `i` (the value reported for any
/// sample in that bucket — quantiles are therefore lower bounds).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i < 8 {
        i as u64
    } else {
        let shift = i / 8 - 1;
        ((8 + (i % 8)) as u64) << shift
    }
}

/// A fixed-size concurrent histogram: one relaxed `fetch_add` per
/// sample, no allocation after construction, mergeable by snapshotting.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        let mut v = Vec::with_capacity(HISTOGRAM_BUCKETS);
        v.resize_with(HISTOGRAM_BUCKETS, || AtomicU64::new(0));
        Histogram {
            buckets: v.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            // Sentinel: `fetch_min` pulls this down on the first sample;
            // the snapshot reports 0 while the histogram is empty.
            min: AtomicU64::new(u64::MAX),
        }
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Copy out a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let raw_min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            // The sentinel can also be visible transiently when a racing
            // `record` has bumped `count` but not yet lowered `min`.
            min: if count == 0 || raw_min == u64::MAX {
                0
            } else {
                raw_min
            },
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile accessors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
    min: u64,
}

impl HistogramSnapshot {
    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples (bucketing never loses the sum,
    /// which is what lets tests assert exact invariants).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded sample (exact), 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Mean of all recorded samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]` — the lower bound of the
    /// bucket containing the `⌈q·count⌉`-th smallest sample (≤ the true
    /// quantile, within the 12.5% bucket width). 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_lower_bound(i);
            }
        }
        self.max
    }

    /// Median (see [`Self::value_at_quantile`]).
    pub fn p50(&self) -> u64 {
        self.value_at_quantile(0.50)
    }
    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.value_at_quantile(0.90)
    }
    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.value_at_quantile(0.99)
    }

    /// Non-empty buckets as `(lower_bound, sample_count)` pairs, in
    /// ascending value order — the exporter's raw material.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_bound(i), c))
    }
}

// --- flight-recorder spans ------------------------------------------------

/// One transaction attempt as recorded at [`TelemetryLevel::Spans`]:
/// a begin/end interval with optional intra-attempt phase marks and,
/// for aborted attempts, the attributed cause. The raw material of the
/// Chrome trace-event export ([`crate::chrome`]). At
/// [`TelemetryLevel::Trace`] only aborted attempts are recorded, each
/// stamped once, at the abort: `start_ns == end_ns` and no phase marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// [Thread token](crate::util::thread_token) of the executing
    /// thread — one timeline track per thread.
    pub thread: u64,
    /// Attempt start, nanoseconds since the owning [`Telemetry`] (i.e.
    /// the `Stm`) was created — a per-instance timeline shared by all
    /// threads.
    pub start_ns: u64,
    /// Attempt end (commit completed or abort detected).
    pub end_ns: u64,
    /// When validation first ran within this attempt, if it did.
    pub validate_ns: Option<u64>,
    /// When commit-time lock acquisition first ran, if it did.
    pub lock_ns: Option<u64>,
    /// When writeback first ran, if it did.
    pub writeback_ns: Option<u64>,
    /// 1-based attempt number within its transaction.
    pub attempt: u32,
    /// Read-set entries at attempt end.
    pub read_set: usize,
    /// Write-set entries at attempt end.
    pub write_set: usize,
    /// Compare-set entries at attempt end (0 for the NOrec family).
    pub compare_set: usize,
    /// `None` for a committed attempt; the cause and attribution for an
    /// aborted one.
    pub abort: Option<(AbortReason, Conflict)>,
}

impl SpanEvent {
    /// Did this attempt commit?
    #[inline]
    pub fn committed(&self) -> bool {
        self.abort.is_none()
    }

    /// Attempt duration in nanoseconds.
    #[inline]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One aggregated who-aborted-whom edge of
/// [`Telemetry::conflict_edges`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictEdge {
    /// Thread token of the aborted transaction.
    pub victim: u64,
    /// Thread token of the committer that invalidated it.
    pub by: u64,
    /// How many retained aborted spans this edge accounts for.
    pub count: u64,
}

/// Intra-attempt phase-timestamp recorder, embedded in the per-thread
/// transaction contexts. Construction from
/// [`Telemetry::phase_recorder`] materialises the `level >= Spans`
/// check once into the `epoch` field: a disabled recorder's marks are
/// a single always-false branch, so the `Counters` hot path takes no
/// clock reads.
///
/// Marks are first-wins within an attempt ([`PhaseRecorder::reset`]
/// clears them at attempt begin), so a validation retry loop records
/// when validation *started*.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseRecorder {
    epoch: Option<Instant>,
    validate_ns: Option<u64>,
    lock_ns: Option<u64>,
    writeback_ns: Option<u64>,
}

impl PhaseRecorder {
    /// A recorder whose marks are no-ops (telemetry below `Spans`).
    #[inline]
    pub fn disabled() -> PhaseRecorder {
        PhaseRecorder::default()
    }

    /// A live recorder stamping nanoseconds since `epoch` (the owning
    /// [`Telemetry`]'s creation instant, so marks share the span
    /// timeline).
    #[inline]
    pub fn enabled(epoch: Instant) -> PhaseRecorder {
        PhaseRecorder {
            epoch: Some(epoch),
            ..PhaseRecorder::default()
        }
    }

    /// Is this recorder live?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    #[inline]
    fn stamp(&self) -> Option<u64> {
        self.epoch.map(|e| e.elapsed().as_nanos() as u64)
    }

    /// Mark the start of validation (first call per attempt wins).
    #[inline]
    pub fn mark_validate(&mut self) {
        if self.validate_ns.is_none() {
            self.validate_ns = self.stamp();
        }
    }

    /// Mark the start of commit-time lock acquisition.
    #[inline]
    pub fn mark_lock(&mut self) {
        if self.lock_ns.is_none() {
            self.lock_ns = self.stamp();
        }
    }

    /// Mark the start of writeback.
    #[inline]
    pub fn mark_writeback(&mut self) {
        if self.writeback_ns.is_none() {
            self.writeback_ns = self.stamp();
        }
    }

    /// Clear the marks for a fresh attempt (keeps the epoch).
    #[inline]
    pub fn reset(&mut self) {
        self.validate_ns = None;
        self.lock_ns = None;
        self.writeback_ns = None;
    }

    /// The validation mark, if any.
    #[inline]
    pub fn validate_ns(&self) -> Option<u64> {
        self.validate_ns
    }

    /// The lock-acquisition mark, if any.
    #[inline]
    pub fn lock_ns(&self) -> Option<u64> {
        self.lock_ns
    }

    /// The writeback mark, if any.
    #[inline]
    pub fn writeback_ns(&self) -> Option<u64> {
        self.writeback_ns
    }
}

// --- sampler --------------------------------------------------------------

/// One point of the throughput/abort-rate time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SamplePoint {
    /// Seconds since sampling started, at the end of this interval.
    pub t_secs: f64,
    /// Length of this interval in seconds.
    pub dt_secs: f64,
    /// Commits in this interval.
    pub commits: u64,
    /// Conflict aborts in this interval.
    pub conflict_aborts: u64,
    /// Commits per second over this interval.
    pub throughput: f64,
    /// Conflict-abort percentage over this interval.
    pub abort_pct: f64,
}

/// Interval snapshot-differ: feed it absolute [`StatsSnapshot`]s and it
/// emits per-interval [`SamplePoint`]s. Drives the time-series export.
#[derive(Debug)]
pub struct Sampler {
    started: Instant,
    prev: StatsSnapshot,
    prev_t: f64,
}

impl Sampler {
    /// Start sampling from the given baseline snapshot at t = 0.
    pub fn new(baseline: StatsSnapshot) -> Sampler {
        Sampler {
            started: Instant::now(),
            prev: baseline,
            prev_t: 0.0,
        }
    }

    /// Take a sample now (wall clock measured internally).
    pub fn sample(&mut self, snapshot: StatsSnapshot) -> SamplePoint {
        let t = self.started.elapsed().as_secs_f64();
        self.sample_at(t, snapshot)
    }

    /// Take a sample with an externally supplied timestamp (seconds since
    /// sampling started). Deterministic, for tests.
    pub fn sample_at(&mut self, t_secs: f64, snapshot: StatsSnapshot) -> SamplePoint {
        let delta = snapshot.since(&self.prev);
        let dt = (t_secs - self.prev_t).max(1e-9);
        self.prev = snapshot;
        self.prev_t = t_secs;
        SamplePoint {
            t_secs,
            dt_secs: dt,
            commits: delta.commits,
            conflict_aborts: delta.conflict_aborts(),
            throughput: delta.commits as f64 / dt,
            abort_pct: delta.abort_pct(),
        }
    }
}

// --- the front object -----------------------------------------------------

/// All telemetry state of one [`crate::Stm`] instance.
///
/// Each tier allocates only at its own level: the attempt records always,
/// the five histograms at [`TelemetryLevel::Histograms`] and above, the
/// per-thread span rings at [`TelemetryLevel::Trace`] and above. Below
/// its level a tier's recorders do nothing and its readers return empty
/// snapshots.
pub struct Telemetry {
    level: TelemetryLevel,
    started: Instant,
    /// One attempt record per lease, then the overflow record.
    records: Box<[ThreadRecord]>,
    /// `Some` at `Histograms` and above.
    histograms: Option<Histograms>,
    /// `SHARDS` rings at `Trace` and above; empty below.
    spans: Box<[Mutex<EventRing<SpanEvent>>]>,
    rates: Mutex<RateState>,
}

/// The histogram tier's five recorders.
#[derive(Default)]
struct Histograms {
    commit_latency_ns: Histogram,
    attempts_per_commit: Histogram,
    commit_read_set: Histogram,
    commit_compare_set: Histogram,
    backoff_spins: Histogram,
}

// Every allocation `Telemetry::new` makes holds `LEASES + 1`, `SHARDS`
// or `HISTOGRAM_BUCKETS` elements (a ring, `trace_capacity` events) of
// one of these types, so their sizes pin its footprint; `ThreadRecord`'s
// is pinned in `stats.rs`. `Mutex` and `usize` sizes vary by platform.
// The histogram tier's `Option` costs no space: its boxed buckets give
// `None` a niche.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Telemetry>() == 536);
    assert!(size_of::<AtomicU64>() * HISTOGRAM_BUCKETS == 3968);
    assert!(size_of::<Mutex<EventRing<SpanEvent>>>() == 56);
    assert!(size_of::<SpanEvent>() == 128);
};

/// One smoothed rate window from [`Telemetry::rates`]: commit/abort
/// rates and average set sizes, EWMA-folded across sampling windows.
///
/// Built **entirely from the Counters tier** — one [`StatsSnapshot`]
/// merge per call, no histogram, trace, or span access — so a controller
/// polling it never touches a Spans-gated path and costs nothing between
/// calls (pull-based; there is no background sampling).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RateEwma {
    /// Commits per second (smoothed).
    pub commit_rate: f64,
    /// Conflict aborts per attempt, 0..1 (smoothed).
    pub abort_ratio: f64,
    /// Read-set entries per committed transaction — plain reads plus
    /// semantic compares, both forms (smoothed).
    pub avg_read_set: f64,
    /// Write-set entries per committed transaction — writes plus
    /// deferred increments (smoothed).
    pub avg_write_set: f64,
    /// The window's [`StatsSnapshot::wasted_work_ratio`] (smoothed).
    pub wasted_ratio: f64,
    /// Fraction of committed operations using the semantic API
    /// (`cmp`/`inc`), 0..1 (smoothed). Stays 0 under baseline modes,
    /// where the semantic calls delegate to plain reads/writes.
    pub semantic_share: f64,
    /// Commits in the **raw** newest window (not smoothed) — the
    /// controller's "is there enough signal" gate.
    pub window_commits: u64,
    /// Length of the raw newest window in seconds.
    pub window_secs: f64,
}

#[derive(Default)]
struct RateState {
    prev: StatsSnapshot,
    prev_ns: u64,
    ewma: Option<RateEwma>,
}

fn fold(alpha: f64, prev: f64, next: f64) -> f64 {
    prev + alpha * (next - prev)
}

impl Telemetry {
    /// Create telemetry state for one runtime instance. `trace_capacity`
    /// is the per-thread span-ring capacity (newest spans win) at
    /// `Trace` and above. See [`crate::StmConfig::trace_capacity`] for
    /// the memory cost.
    pub fn new(level: TelemetryLevel, trace_capacity: usize) -> Telemetry {
        let mut records = Vec::with_capacity(LEASES + 1);
        records.resize_with(LEASES, ThreadRecord::default);
        records.push(ThreadRecord::overflow());
        let rings = if level >= TelemetryLevel::Trace {
            SHARDS
        } else {
            0
        };
        let mut spans = Vec::with_capacity(rings);
        spans.resize_with(rings, || Mutex::new(EventRing::new(trace_capacity)));
        Telemetry {
            level,
            started: Instant::now(),
            records: records.into_boxed_slice(),
            histograms: (level >= TelemetryLevel::Histograms).then(Histograms::default),
            spans: spans.into_boxed_slice(),
            rates: Mutex::new(RateState::default()),
        }
    }

    /// The configured recording level.
    #[inline]
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// Nanoseconds since this instance was created (the trace timeline).
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// The attempt record `lease` selects.
    #[inline]
    pub(crate) fn record(&self, lease: Lease) -> &ThreadRecord {
        &self.records[lease.index()]
    }

    /// Every attempt record, the overflow record last.
    pub(crate) fn records(&self) -> &[ThreadRecord] {
        &self.records
    }

    /// Merge all attempt records into one [`StatsSnapshot`]. Exact once
    /// the threads that counted have been joined; while they run it may
    /// miss their newest counts, never count one twice.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        for r in self.records.iter() {
            r.merge_into(&mut out);
        }
        out
    }

    /// Advance the rate window and return the smoothed rates: the delta
    /// between the previous call's [`StatsSnapshot`] and now, folded into
    /// EWMAs with weight `alpha` (the newest window's share, `0 < α ≤ 1`).
    ///
    /// Counters tier only — the one consumer pattern is a controller (or
    /// sampler) polling at its own cadence; the window state is shared,
    /// so interleaving *independent* pollers would split the windows
    /// between them. The first call's window spans from construction.
    pub fn rates(&self, alpha: f64) -> RateEwma {
        // Snapshot while holding the lock: the `prev` a concurrent poller
        // stored is then never newer than `snap`, so `since` cannot
        // underflow.
        let mut state = self.rates.lock().expect("rate state poisoned");
        let now_ns = self.elapsed_ns();
        let snap = self.snapshot();
        let w = snap.since(&state.prev);
        let dt = (now_ns.saturating_sub(state.prev_ns)) as f64 / 1e9;
        let ops = &w.committed;
        let commits = w.commits as f64;
        let reads = (ops.reads + ops.cmps + ops.cmp_pairs) as f64;
        let writes = (ops.writes + ops.incs) as f64;
        let semantic = (ops.cmps + ops.cmp_pairs + ops.incs) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let window = RateEwma {
            commit_rate: ratio(commits, dt.max(1e-9)),
            abort_ratio: ratio(w.conflict_aborts() as f64, w.attempts() as f64),
            avg_read_set: ratio(reads, commits),
            avg_write_set: ratio(writes, commits),
            wasted_ratio: w.wasted_work_ratio(),
            semantic_share: ratio(semantic, reads + writes),
            window_commits: w.commits,
            window_secs: dt,
        };
        let alpha = alpha.clamp(f64::MIN_POSITIVE, 1.0);
        let smoothed = match state.ewma {
            None => window,
            Some(prev) => RateEwma {
                commit_rate: fold(alpha, prev.commit_rate, window.commit_rate),
                abort_ratio: fold(alpha, prev.abort_ratio, window.abort_ratio),
                avg_read_set: fold(alpha, prev.avg_read_set, window.avg_read_set),
                avg_write_set: fold(alpha, prev.avg_write_set, window.avg_write_set),
                wasted_ratio: fold(alpha, prev.wasted_ratio, window.wasted_ratio),
                semantic_share: fold(alpha, prev.semantic_share, window.semantic_share),
                window_commits: window.window_commits,
                window_secs: window.window_secs,
            },
        };
        state.prev = snap;
        state.prev_ns = now_ns;
        state.ewma = Some(smoothed);
        smoothed
    }

    /// Record the profile of a committed transaction (histogram level;
    /// a no-op below it).
    #[inline]
    pub fn record_commit_profile(
        &self,
        latency_ns: u64,
        attempts: u64,
        read_set: usize,
        compare_set: usize,
    ) {
        if let Some(h) = &self.histograms {
            h.commit_latency_ns.record(latency_ns);
            h.attempts_per_commit.record(attempts);
            h.commit_read_set.record(read_set as u64);
            h.commit_compare_set.record(compare_set as u64);
        }
    }

    /// Record a contention-manager pause (histogram level, a no-op below
    /// it; spin counts of zero still count a sample so yield-only
    /// policies show up).
    #[inline]
    pub fn record_backoff(&self, spins: u64) {
        if let Some(h) = &self.histograms {
            h.backoff_spins.record(spins);
        }
    }

    /// A [`PhaseRecorder`] appropriate for this telemetry level: live
    /// (sharing this instance's timeline) at `Spans`, inert below.
    #[inline]
    pub fn phase_recorder(&self) -> PhaseRecorder {
        if self.level >= TelemetryLevel::Spans {
            PhaseRecorder::enabled(self.started)
        } else {
            PhaseRecorder::disabled()
        }
    }

    /// Append a span to its thread's ring (every attempt at
    /// `Spans`, aborted attempts at `Trace`; a no-op below `Trace`,
    /// which has no rings).
    pub fn record_span(&self, event: SpanEvent) {
        if let Some(Ok(mut ring)) = self.spans.get(ring_index(event.thread)).map(Mutex::lock) {
            ring.push(event);
        }
    }

    /// Snapshot of the histogram `pick` selects; empty below
    /// `Histograms`.
    fn histogram(&self, pick: impl Fn(&Histograms) -> &Histogram) -> HistogramSnapshot {
        self.histograms
            .as_ref()
            .map_or_else(HistogramSnapshot::default, |h| pick(h).snapshot())
    }

    /// End-to-end commit latency in nanoseconds (histogram level).
    pub fn commit_latency_ns(&self) -> HistogramSnapshot {
        self.histogram(|h| &h.commit_latency_ns)
    }
    /// Attempts needed per committed transaction (histogram level).
    pub fn attempts_per_commit(&self) -> HistogramSnapshot {
        self.histogram(|h| &h.attempts_per_commit)
    }
    /// Read-set size at commit (histogram level).
    pub fn commit_read_set(&self) -> HistogramSnapshot {
        self.histogram(|h| &h.commit_read_set)
    }
    /// Compare-set size at commit (histogram level; all-zero for the
    /// NOrec family and the delegating baselines).
    pub fn commit_compare_set(&self) -> HistogramSnapshot {
        self.histogram(|h| &h.commit_compare_set)
    }
    /// Contention-manager spins per pause (histogram level).
    pub fn backoff_spins(&self) -> HistogramSnapshot {
        self.histogram(|h| &h.backoff_spins)
    }

    /// All retained spans, merged across threads and sorted by start
    /// time. Each thread retains at most `trace_capacity` newest spans.
    pub fn span_events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::new();
        for ring in self.spans.iter() {
            if let Ok(ring) = ring.lock() {
                out.extend(ring.iter().copied());
            }
        }
        out.sort_by_key(|e| (e.start_ns, e.end_ns));
        out
    }

    /// The aborted attempts among the retained spans, sorted by abort
    /// time (`end_ns`). At `Trace` that is every retained span; at
    /// `Spans`, the aborts in the window [`Telemetry::span_events`]
    /// shows.
    pub fn trace_events(&self) -> Vec<SpanEvent> {
        let mut out = self.span_events();
        out.retain(|e| !e.committed());
        out.sort_by_key(|e| e.end_ns);
        out
    }

    /// Total spans evicted from the rings (nonzero means the dump is
    /// missing its oldest attempts). At `Trace` the rings hold aborts
    /// only, so `trace_events().len() + spans_evicted()` is the abort
    /// count; at `Spans` it is the attempt count.
    pub fn spans_evicted(&self) -> u64 {
        self.spans
            .iter()
            .filter_map(|r| r.lock().ok().map(|ring| ring.evicted()))
            .sum()
    }

    /// Count one key per attributed abort over the retained spans
    /// (`key` picks what an abort's attribution names, if anything),
    /// heaviest first, ties broken by key.
    fn count_conflicts<K: Ord + std::hash::Hash>(
        &self,
        key: impl Fn(&SpanEvent, Conflict) -> Option<K>,
    ) -> Vec<(K, u64)> {
        let mut agg: std::collections::HashMap<K, u64> = std::collections::HashMap::new();
        for ring in self.spans.iter() {
            if let Ok(ring) = ring.lock() {
                for span in ring.iter() {
                    if let Some(k) = span.abort.and_then(|(_, c)| key(span, c)) {
                        *agg.entry(k).or_default() += 1;
                    }
                }
            }
        }
        let mut out: Vec<(K, u64)> = agg.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The most contended heap addresses seen by abort attribution,
    /// ranked by conflict count (descending; ties broken by address for
    /// determinism). The counts are exact over the retained spans — the
    /// newest `trace_capacity` spans per ring, the window
    /// [`Telemetry::span_events`] returns — so they sum to the number
    /// of retained aborted spans that name an address. Empty below
    /// [`TelemetryLevel::Trace`].
    pub fn hot_addresses(&self) -> Vec<(Addr, u64)> {
        self.count_conflicts(|_, c| c.addr())
    }

    /// The who-aborted-whom summary: aggregated `(victim, aborter)`
    /// thread pairs with abort counts, heaviest first (ties broken by
    /// victim then aborter token). Counted over the same retained spans
    /// as [`Telemetry::hot_addresses`]. Empty below
    /// [`TelemetryLevel::Spans`] — the NOrec family stamps the committer
    /// word only there, so a lower tier would show TL2's lock owners
    /// alone — and only as complete as the algorithms' attribution (TL2
    /// lock conflicts name the owner exactly; NOrec validation failures
    /// use the most-recent-committer heuristic).
    pub fn conflict_edges(&self) -> Vec<ConflictEdge> {
        if self.level < TelemetryLevel::Spans {
            return Vec::new();
        }
        self.count_conflicts(|span, c| c.by().map(|by| (span.thread, by)))
            .into_iter()
            .map(|((victim, by), count)| ConflictEdge { victim, by, count })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(TelemetryLevel::Counters < TelemetryLevel::Histograms);
        assert!(TelemetryLevel::Histograms < TelemetryLevel::Trace);
        assert!(TelemetryLevel::Trace < TelemetryLevel::Spans);
    }

    #[test]
    fn rates_windows_diff_counters_and_fold_ewma() {
        use crate::stats::OpCounts;
        let t = Telemetry::new(TelemetryLevel::Counters, 1);
        let commit = |reads: u64, writes: u64| {
            t.records[0].record_commit(&OpCounts {
                reads,
                writes,
                ..OpCounts::default()
            })
        };
        for _ in 0..10 {
            commit(8, 2);
        }
        let w1 = t.rates(1.0); // α = 1: no smoothing, raw window
        assert_eq!(w1.window_commits, 10);
        assert_eq!(w1.avg_read_set, 8.0);
        assert_eq!(w1.avg_write_set, 2.0);
        assert_eq!(w1.abort_ratio, 0.0);
        assert!(w1.commit_rate > 0.0);
        // Second window: different profile, half-weight smoothing.
        for _ in 0..10 {
            commit(16, 0);
        }
        let w2 = t.rates(0.5);
        assert_eq!(w2.window_commits, 10, "window is the delta, not totals");
        assert_eq!(w2.avg_read_set, 12.0, "EWMA of 8 and 16 at α = 0.5");
        assert_eq!(w2.avg_write_set, 1.0);
        // Counters tier throughout: no Spans-gated state was touched.
        assert!(t.hot_addresses().is_empty());
        assert!(t.span_events().is_empty());
    }

    #[test]
    fn bucket_index_is_exact_below_eight() {
        for v in 0..8 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_monotone_and_consistent() {
        // Every bucket's lower bound must map back to that bucket, and
        // bounds must strictly increase.
        let mut prev = None;
        for i in 0..HISTOGRAM_BUCKETS {
            let lb = bucket_lower_bound(i);
            assert_eq!(bucket_index(lb), i, "lower bound of bucket {i}");
            if let Some(p) = prev {
                assert!(lb > p, "bucket {i} bound not increasing");
            }
            prev = Some(lb);
        }
        // And the extremes are representable.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_error_is_bounded() {
        let mut rng = crate::util::SplitMix64::new(11);
        for _ in 0..10_000 {
            let v = rng.next_u64() >> rng.below(60);
            let lb = bucket_lower_bound(bucket_index(v));
            assert!(lb <= v);
            // Lower bound within 12.5% of the sample.
            assert!((v - lb) as f64 <= 0.125 * v as f64 + 1.0, "v={v} lb={lb}");
        }
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050);
        assert_eq!(s.max(), 100);
        // Exact below 8; bucketed (≤12.5% low) above.
        let p50 = s.p50();
        assert!(p50 <= 50 && p50 as f64 >= 50.0 * 0.875 - 1.0, "p50={p50}");
        let p99 = s.p99();
        assert!(p99 <= 99 && p99 as f64 >= 99.0 * 0.875 - 1.0, "p99={p99}");
        assert_eq!(s.value_at_quantile(0.0), 1, "q=0 is the minimum sample");
        let p100 = s.value_at_quantile(1.0);
        assert!(p100 <= 100 && p100 as f64 >= 100.0 * 0.875, "p100={p100}");
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::default().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.nonzero_buckets().count(), 0);
    }

    #[test]
    fn nonzero_buckets_cover_all_samples() {
        let h = Histogram::default();
        for v in [0u64, 1, 7, 8, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let total: u64 = s.nonzero_buckets().map(|(_, c)| c).sum();
        assert_eq!(total, s.count());
    }

    #[test]
    fn record_merge_sums_counts() {
        use crate::stats::OpCounts;
        let t = Telemetry::new(TelemetryLevel::Counters, 16);
        let ops = OpCounts {
            reads: 2,
            incs: 1,
            ..OpCounts::default()
        };
        // Write into a leased record and the overflow record directly.
        t.records[0].record_commit(&ops);
        t.records[LEASES].record_commit(&ops);
        t.records[LEASES].record_abort(AbortReason::Validation, &ops);
        let s = t.snapshot();
        assert_eq!(s.commits, 2);
        assert_eq!(s.committed.reads, 4);
        assert_eq!(s.committed.incs, 2);
        assert_eq!(s.aborts(AbortReason::Validation), 1);
        assert_eq!(s.aborted.reads, 2);
        assert_eq!(s.aborted.incs, 1);
    }

    #[test]
    fn zero_counts_are_skipped_without_losing_any() {
        use crate::stats::OpCounts;
        // Every mix of zero and non-zero operation kinds (bit i of `mix`
        // sets field i), committed and aborted under each reason, spread
        // over two leased records and the overflow record: the merged
        // snapshot must be the hand sum.
        let t = Telemetry::new(TelemetryLevel::Counters, 16);
        let reasons = AbortReason::ALL;
        let mut want = StatsSnapshot::default();
        for mix in 0u64..64 {
            let field = |i: u64| if mix & (1 << i) != 0 { mix + i + 1 } else { 0 };
            let ops = OpCounts {
                reads: field(0),
                writes: field(1),
                cmps: field(2),
                cmp_pairs: field(3),
                incs: field(4),
                promotes: field(5),
            };
            let record = &t.records[[0, 1, LEASES][mix as usize % 3]];
            record.record_commit(&ops);
            want.commits += 1;
            want.committed = want.committed + ops;

            let reason = reasons[mix as usize % reasons.len()];
            record.record_abort(reason, &ops);
            want = want.with_aborts(reason, 1);
            want.aborted = want.aborted + ops;
        }
        assert_eq!(t.snapshot(), want);
    }

    #[test]
    fn sampler_emits_interval_deltas() {
        let snap = |commits: u64, locked: u64| {
            let mut s = StatsSnapshot::default().with_aborts(AbortReason::Locked, locked);
            s.commits = commits;
            s
        };
        let mut sampler = Sampler::new(snap(100, 10));
        let p = sampler.sample_at(2.0, snap(300, 110));
        assert_eq!(p.commits, 200);
        assert_eq!(p.conflict_aborts, 100);
        assert!((p.throughput - 100.0).abs() < 1e-9);
        assert!((p.abort_pct - 100.0 * 100.0 / 300.0).abs() < 1e-9);
        // Second interval differences against the previous sample.
        let p2 = sampler.sample_at(3.0, snap(310, 110));
        assert_eq!(p2.commits, 10);
        assert_eq!(p2.conflict_aborts, 0);
        assert!((p2.dt_secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn each_tier_allocates_and_records_only_at_its_level() {
        use TelemetryLevel::*;
        for level in [Counters, Histograms, Trace, Spans] {
            let t = Telemetry::new(level, 8);
            let histograms = level >= Histograms;
            let trace = level >= Trace;
            assert_eq!(t.histograms.is_some(), histograms, "{level:?}");
            assert_eq!(t.spans.len(), if trace { SHARDS } else { 0 }, "{level:?}");
            // The public recorders are callable at every level; below
            // their tier they do nothing.
            t.record_commit_profile(100, 2, 3, 1);
            t.record_backoff(7);
            t.record_span(aborted_span(1, at_addr(5)));
            let readers = [
                t.commit_latency_ns(),
                t.attempts_per_commit(),
                t.commit_read_set(),
                t.commit_compare_set(),
                t.backoff_spins(),
            ];
            for h in &readers {
                assert_eq!(h.count(), u64::from(histograms), "{level:?}");
                assert_eq!(h.nonzero_buckets().count(), usize::from(histograms));
            }
            if !histograms {
                assert_eq!(
                    readers[0],
                    HistogramSnapshot::default(),
                    "empty below the tier"
                );
            }
            assert_eq!(t.span_events().len(), usize::from(trace), "{level:?}");
            assert_eq!(t.trace_events().len(), usize::from(trace));
            assert_eq!(t.hot_addresses().len(), usize::from(trace));
            assert_eq!(t.spans_evicted(), 0);
        }
    }

    #[test]
    fn trace_records_and_sorts_events() {
        let t = Telemetry::new(TelemetryLevel::Trace, 8);
        t.record_span(SpanEvent {
            start_ns: 10,
            end_ns: 10,
            read_set: 3,
            compare_set: 2,
            ..aborted_span(1, Conflict::NONE)
        });
        t.record_span(SpanEvent {
            start_ns: 20,
            end_ns: 20,
            attempt: 2,
            read_set: 5,
            abort: Some((AbortReason::Locked, Conflict::NONE)),
            ..aborted_span(1, Conflict::NONE)
        });
        let events = t.trace_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].end_ns <= events[1].end_ns);
        let (reason, conflict) = events[0].abort.unwrap();
        assert_eq!(reason, AbortReason::Validation);
        assert!(conflict.is_none());
        assert_eq!(t.spans_evicted(), 0);
    }

    #[test]
    fn trace_events_carry_attribution() {
        let t = Telemetry::new(TelemetryLevel::Trace, 8);
        let conflict = crate::error::Abort::validation()
            .at_addr(Addr::from_index(42))
            .by(7)
            .conflict();
        t.record_span(SpanEvent {
            read_set: 3,
            ..aborted_span(1, conflict)
        });
        let events = t.trace_events();
        let (_, conflict) = events[0].abort.unwrap();
        assert_eq!(conflict.addr(), Some(Addr::from_index(42)));
        assert_eq!(conflict.by(), Some(7));
    }

    #[test]
    fn below_spans_addresses_rank_but_edges_stay_empty() {
        // TL2 names a lock owner at every tier, but the NOrec family's
        // committer word is stamped only at `Spans`: the edges wait for it.
        let t = Telemetry::new(TelemetryLevel::Trace, 8);
        let both = crate::error::Abort::locked()
            .at_addr(Addr::from_index(5))
            .by(7)
            .conflict();
        t.record_span(aborted_span(1, both));
        assert_eq!(t.hot_addresses(), [(Addr::from_index(5), 1)]);
        assert!(t.conflict_edges().is_empty());
    }

    #[test]
    fn histogram_min_tracks_smallest_sample() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().min(), 0, "empty histogram reports 0");
        h.record(500);
        assert_eq!(h.snapshot().min(), 500);
        h.record(3);
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.min(), 3);
        assert_eq!(s.max(), 1000);
        assert!(s.min() <= s.max());
    }

    #[test]
    fn histogram_min_handles_zero_sample() {
        let h = Histogram::default();
        h.record(0);
        h.record(9);
        assert_eq!(h.snapshot().min(), 0);
        assert_eq!(h.snapshot().count(), 2);
    }

    // Satellite: deterministic property sweep over the bucketing maps.
    #[test]
    fn bucket_lower_bound_never_exceeds_value() {
        let mut values = vec![0u64, 1, u64::MAX];
        for k in 0..64u32 {
            let p = 1u64 << k;
            values.push(p);
            values.push(p.saturating_sub(1));
            values.push(p.saturating_add(1));
        }
        let mut rng = crate::util::SplitMix64::new(0xB0C4_0001);
        for _ in 0..10_000 {
            // Shift to cover every magnitude, not just 64-bit values.
            values.push(rng.next_u64() >> rng.below(64));
        }
        for &v in &values {
            let i = bucket_index(v);
            assert!(i < HISTOGRAM_BUCKETS, "v={v} index={i} out of range");
            let lb = bucket_lower_bound(i);
            assert!(lb <= v, "v={v} bucket={i} lower_bound={lb}");
        }
    }

    #[test]
    fn value_at_quantile_is_monotone_in_q() {
        let h = Histogram::default();
        let mut rng = crate::util::SplitMix64::new(0xB0C4_0002);
        for _ in 0..2_000 {
            h.record(rng.next_u64() >> rng.below(60));
        }
        let s = h.snapshot();
        let mut prev = 0u64;
        for step in 0..=100u32 {
            let q = step as f64 / 100.0;
            let v = s.value_at_quantile(q);
            assert!(v >= prev, "quantile not monotone: q={q} v={v} prev={prev}");
            prev = v;
        }
        assert!(s.value_at_quantile(1.0) <= s.max());
        assert!(s.value_at_quantile(0.0) >= s.min().min(1));
    }

    #[test]
    fn span_ring_records_and_sorts() {
        let t = Telemetry::new(TelemetryLevel::Spans, 8);
        let span = |start: u64, end: u64, abort| SpanEvent {
            thread: 1,
            start_ns: start,
            end_ns: end,
            validate_ns: None,
            lock_ns: None,
            writeback_ns: None,
            attempt: 1,
            read_set: 2,
            write_set: 1,
            compare_set: 0,
            abort,
        };
        t.record_span(span(
            50,
            90,
            Some((AbortReason::Validation, Conflict::NONE)),
        ));
        t.record_span(span(10, 40, None));
        let spans = t.span_events();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].start_ns, 10);
        assert!(spans[0].committed());
        assert_eq!(spans[0].duration_ns(), 30);
        assert!(!spans[1].committed());
        assert_eq!(t.trace_events(), [spans[1]], "the trace is the aborts");
        assert_eq!(t.spans_evicted(), 0);
    }

    #[test]
    fn span_ring_capacity_follows_trace_capacity() {
        let t = Telemetry::new(TelemetryLevel::Spans, 2);
        for i in 0..5u64 {
            t.record_span(SpanEvent {
                thread: 1,
                start_ns: i,
                end_ns: i + 1,
                validate_ns: None,
                lock_ns: None,
                writeback_ns: None,
                attempt: 1,
                read_set: 0,
                write_set: 0,
                compare_set: 0,
                abort: None,
            });
        }
        assert_eq!(t.span_events().len(), 2, "ring keeps the newest 2");
        assert_eq!(t.spans_evicted(), 3);
    }

    #[test]
    fn phase_recorder_disabled_records_nothing() {
        let mut p = PhaseRecorder::disabled();
        assert!(!p.is_enabled());
        p.mark_validate();
        p.mark_lock();
        p.mark_writeback();
        assert_eq!(p.validate_ns(), None);
        assert_eq!(p.lock_ns(), None);
        assert_eq!(p.writeback_ns(), None);
    }

    #[test]
    fn phase_recorder_marks_are_first_wins_and_resettable() {
        let mut p = PhaseRecorder::enabled(Instant::now());
        assert!(p.is_enabled());
        p.mark_validate();
        let first = p.validate_ns().expect("enabled recorder stamps");
        std::thread::sleep(std::time::Duration::from_millis(1));
        p.mark_validate();
        assert_eq!(p.validate_ns(), Some(first), "first mark wins");
        p.reset();
        assert_eq!(p.validate_ns(), None);
        assert!(p.is_enabled(), "reset keeps the epoch");
    }

    /// A synthetic aborted attempt of thread `victim` carrying `conflict`.
    fn aborted_span(victim: u64, conflict: Conflict) -> SpanEvent {
        SpanEvent {
            thread: victim,
            start_ns: 0,
            end_ns: 1,
            validate_ns: None,
            lock_ns: None,
            writeback_ns: None,
            attempt: 1,
            read_set: 0,
            write_set: 0,
            compare_set: 0,
            abort: Some((AbortReason::Validation, conflict)),
        }
    }

    fn at_addr(addr: usize) -> Conflict {
        crate::error::Abort::validation()
            .at_addr(Addr::from_index(addr))
            .conflict()
    }

    fn by(token: u64) -> Conflict {
        crate::error::Abort::locked().by(token).conflict()
    }

    #[test]
    fn hot_addresses_rank_by_conflict_weight() {
        let t = Telemetry::new(TelemetryLevel::Spans, 32);
        for _ in 0..20 {
            t.record_span(aborted_span(1, at_addr(5)));
        }
        for _ in 0..3 {
            t.record_span(aborted_span(2, at_addr(9)));
        }
        let hot = t.hot_addresses();
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, Addr::from_index(5));
        assert_eq!(hot[0].1, 20);
        assert_eq!(hot[1], (Addr::from_index(9), 3));
    }

    #[test]
    fn conflict_edges_aggregate_across_shards() {
        let t = Telemetry::new(TelemetryLevel::Spans, 8);
        // A span lands in its victim's shard: victims 1 and 2 fill two
        // rings, and their edges merge into one ranking.
        for _ in 0..4 {
            t.record_span(aborted_span(1, by(9)));
        }
        t.record_span(aborted_span(2, by(9)));
        let edges = t.conflict_edges();
        assert_eq!(
            edges,
            [
                ConflictEdge {
                    victim: 1,
                    by: 9,
                    count: 4
                },
                ConflictEdge {
                    victim: 2,
                    by: 9,
                    count: 1
                }
            ]
        );
    }

    #[test]
    fn unattributed_conflicts_leave_both_views_empty() {
        let t = Telemetry::new(TelemetryLevel::Spans, 8);
        t.record_span(aborted_span(1, Conflict::NONE));
        assert_eq!(t.span_events().len(), 1);
        assert!(t.hot_addresses().is_empty());
        assert!(t.conflict_edges().is_empty());
    }

    #[test]
    fn evicted_spans_drop_out_of_both_views() {
        let t = Telemetry::new(TelemetryLevel::Spans, 2);
        let both = |addr: usize, token: u64| {
            crate::error::Abort::validation()
                .at_addr(Addr::from_index(addr))
                .by(token)
                .conflict()
        };
        t.record_span(aborted_span(1, both(5, 7)));
        t.record_span(aborted_span(1, both(6, 8)));
        t.record_span(aborted_span(1, both(6, 8)));
        assert_eq!(t.spans_evicted(), 1);
        assert_eq!(t.hot_addresses(), [(Addr::from_index(6), 2)]);
        assert_eq!(
            t.conflict_edges(),
            [ConflictEdge {
                victim: 1,
                by: 8,
                count: 2
            }]
        );
    }
}
