//! The telemetry subsystem: sharded counters, log-bucketed latency
//! histograms, an abort-event trace, and an interval sampler.
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
//! * [`TelemetryLevel::Counters`] (default) — the sharded counters only:
//!   each thread increments a cache-line-padded [`StatShard`] selected by
//!   its [`crate::util::thread_token`], so the hot commit/abort path
//!   never bounces a counter cache line between cores. Cost: one relaxed
//!   `fetch_add` for the commit or abort itself plus one per operation
//!   kind the attempt actually used — a zero count is not flushed.
//! * [`TelemetryLevel::Histograms`] — additionally samples commit
//!   latency, attempts per transaction, read/compare-set sizes at
//!   commit, and contention-manager backoff into fixed-size atomic
//!   [`Histogram`]s (two `Instant::now` calls plus a handful of relaxed
//!   increments per transaction).
//! * [`TelemetryLevel::Trace`] — additionally records every abort into a
//!   per-thread fixed-capacity [`EventRing`] of [`AbortEvent`]s for
//!   postmortem dumps (who aborted, why, at which attempt, carrying how
//!   much metadata).
//! * [`TelemetryLevel::Spans`] — the flight recorder: additionally
//!   records every transaction *attempt* as a [`SpanEvent`]
//!   (begin/validate/lock/writeback/end timestamps plus set sizes) into
//!   a second per-thread ring, attributes each abort to the conflicting
//!   address/orec and committer where knowable ([`Conflict`]), and feeds
//!   the per-shard hot-address sketch behind [`Telemetry::hot_addresses`]
//!   and the who-aborted-whom summary behind [`Telemetry::conflict_edges`].
//!
//! The [`Sampler`] turns successive [`StatsSnapshot`]s into a
//! throughput/abort-rate time series ([`SamplePoint`]) — the exporter
//! side lives in the bench crate's report writer.

use crate::config::Algorithm;
use crate::error::{AbortReason, Conflict};
use crate::heap::Addr;
use crate::hotspot::{ConflictEdge, EdgeTable, HotSketch};
use crate::ring::EventRing;
use crate::stats::{StatShard, StatsSnapshot};
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
    /// Histograms plus the per-thread abort-event trace ring.
    Trace,
    /// Trace plus the transaction flight recorder: per-attempt spans,
    /// abort attribution, hot-address sketch, conflict summary.
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

/// Number of counter shards (and trace rings). A power of two larger
/// than any sane core count; threads map onto shards by
/// `thread_token() % SHARDS`, so two threads share a shard only beyond
/// 64 live threads — and sharing is merely a perf, not a correctness,
/// concern.
pub const SHARDS: usize = 64;

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

// --- abort trace ----------------------------------------------------------

/// One aborted attempt, as recorded at [`TelemetryLevel::Trace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbortEvent {
    /// Nanoseconds since the owning [`Telemetry`] (i.e. the `Stm`) was
    /// created — a per-instance monotonic timeline shared by all threads.
    pub timestamp_ns: u64,
    /// Algorithm the instance runs (carried so merged dumps from several
    /// instances stay attributable).
    pub algorithm: Algorithm,
    /// Why the attempt aborted.
    pub reason: AbortReason,
    /// Best-effort attribution: the conflicting address/orec and the
    /// committer that caused the abort, where the algorithm knew them.
    pub conflict: Conflict,
    /// 1-based attempt number within its transaction (1 = first try).
    pub attempt: u32,
    /// Read-set entries at abort time.
    pub read_set: usize,
    /// Compare-set entries at abort time (0 for the NOrec family).
    pub compare_set: usize,
}

// --- flight-recorder spans ------------------------------------------------

/// One transaction attempt as recorded at [`TelemetryLevel::Spans`]:
/// a begin/end interval with optional intra-attempt phase marks and,
/// for aborted attempts, the attributed cause. The raw material of the
/// Chrome trace-event export ([`crate::chrome`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// [Thread token](crate::util::thread_token) of the executing
    /// thread — one timeline track per thread.
    pub thread: u64,
    /// Attempt start, nanoseconds on the owning [`Telemetry`] timeline.
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
pub struct Telemetry {
    level: TelemetryLevel,
    algorithm: Algorithm,
    started: Instant,
    shards: Box<[StatShard]>,
    commit_latency_ns: Histogram,
    attempts_per_commit: Histogram,
    commit_read_set: Histogram,
    commit_compare_set: Histogram,
    backoff_spins: Histogram,
    traces: Box<[Mutex<EventRing<AbortEvent>>]>,
    spans: Box<[Mutex<EventRing<SpanEvent>>]>,
    hot: Box<[HotSketch]>,
    edges: Box<[EdgeTable]>,
    rates: Mutex<RateState>,
}

// Every allocation `Telemetry::new` makes holds `SHARDS` or
// `HISTOGRAM_BUCKETS` elements (a ring, `trace_capacity` events) of one
// of these types, so their sizes pin its footprint; `StatShard`'s is
// pinned in `stats.rs`. `Mutex` and `usize` sizes vary by platform.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const _: () = {
    use std::mem::size_of;
    assert!(size_of::<Telemetry>() == 584);
    assert!(size_of::<AtomicU64>() * HISTOGRAM_BUCKETS == 3968);
    assert!(size_of::<Mutex<EventRing<AbortEvent>>>() == 56);
    assert!(size_of::<AbortEvent>() == 48);
    assert!(size_of::<Mutex<EventRing<SpanEvent>>>() == 56);
    assert!(size_of::<SpanEvent>() == 128);
    assert!(size_of::<HotSketch>() == 56);
    assert!(size_of::<EdgeTable>() == 32);
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
    /// is the per-thread ring capacity (newest events win) — it governs
    /// both the abort-event rings (≥ `Trace`) and the span rings
    /// (≥ `Spans`). See [`crate::StmConfig::trace_capacity`] for the
    /// memory cost.
    pub fn new(level: TelemetryLevel, algorithm: Algorithm, trace_capacity: usize) -> Telemetry {
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, StatShard::default);
        // The rings only ever see events at their level or above; size
        // them to 1 otherwise so a disabled trace costs a few words, not
        // megabytes.
        let ring_capacity = if level >= TelemetryLevel::Trace {
            trace_capacity.max(1)
        } else {
            1
        };
        let span_capacity = if level >= TelemetryLevel::Spans {
            trace_capacity.max(1)
        } else {
            1
        };
        let spans_on = level >= TelemetryLevel::Spans;
        let mut traces = Vec::with_capacity(SHARDS);
        traces.resize_with(SHARDS, || Mutex::new(EventRing::new(ring_capacity)));
        let mut spans = Vec::with_capacity(SHARDS);
        spans.resize_with(SHARDS, || Mutex::new(EventRing::new(span_capacity)));
        let mut hot = Vec::with_capacity(SHARDS);
        hot.resize_with(SHARDS, || HotSketch::new(spans_on));
        let mut edges = Vec::with_capacity(SHARDS);
        edges.resize_with(SHARDS, EdgeTable::new);
        Telemetry {
            level,
            algorithm,
            started: Instant::now(),
            shards: shards.into_boxed_slice(),
            commit_latency_ns: Histogram::default(),
            attempts_per_commit: Histogram::default(),
            commit_read_set: Histogram::default(),
            commit_compare_set: Histogram::default(),
            backoff_spins: Histogram::default(),
            traces: traces.into_boxed_slice(),
            spans: spans.into_boxed_slice(),
            hot: hot.into_boxed_slice(),
            edges: edges.into_boxed_slice(),
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

    /// The counter shard of the thread whose token is `token`.
    #[inline]
    pub(crate) fn shard_of(&self, token: u64) -> &StatShard {
        &self.shards[token as usize % SHARDS]
    }

    /// Merge all shards into one [`StatsSnapshot`].
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut out = StatsSnapshot::default();
        for s in self.shards.iter() {
            s.merge_into(&mut out);
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

    /// Record the profile of a committed transaction (histogram level).
    #[inline]
    pub fn record_commit_profile(
        &self,
        latency_ns: u64,
        attempts: u64,
        read_set: usize,
        compare_set: usize,
    ) {
        self.commit_latency_ns.record(latency_ns);
        self.attempts_per_commit.record(attempts);
        self.commit_read_set.record(read_set as u64);
        self.commit_compare_set.record(compare_set as u64);
    }

    /// Record a contention-manager pause (histogram level; spin counts
    /// of zero still count a sample so yield-only policies show up).
    #[inline]
    pub fn record_backoff(&self, spins: u64) {
        self.backoff_spins.record(spins);
    }

    /// Append an abort event to the calling thread's trace ring.
    pub fn record_abort_event(
        &self,
        reason: AbortReason,
        conflict: Conflict,
        attempt: u32,
        rs: usize,
        cs: usize,
    ) {
        let event = AbortEvent {
            timestamp_ns: self.elapsed_ns(),
            algorithm: self.algorithm,
            reason,
            conflict,
            attempt,
            read_set: rs,
            compare_set: cs,
        };
        let slot = crate::util::thread_token() as usize % SHARDS;
        if let Ok(mut ring) = self.traces[slot].lock() {
            ring.push(event);
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

    /// Append a flight-recorder span to the calling thread's span ring
    /// (spans level).
    pub fn record_span(&self, event: SpanEvent) {
        let slot = crate::util::thread_token() as usize % SHARDS;
        if let Ok(mut ring) = self.spans[slot].lock() {
            ring.push(event);
        }
    }

    /// Feed an abort's attribution into the hot-address sketch and the
    /// who-aborted-whom table (spans level). `victim` is the aborted
    /// transaction's thread token.
    pub fn record_conflict(&self, victim: u64, conflict: Conflict) {
        let slot = victim as usize % SHARDS;
        if let Some(addr) = conflict.addr() {
            self.hot[slot].record(addr.index() as u32);
        }
        if let Some(by) = conflict.by() {
            self.edges[slot].record(victim, by);
        }
    }

    /// End-to-end commit latency in nanoseconds (histogram level).
    pub fn commit_latency_ns(&self) -> HistogramSnapshot {
        self.commit_latency_ns.snapshot()
    }
    /// Attempts needed per committed transaction (histogram level).
    pub fn attempts_per_commit(&self) -> HistogramSnapshot {
        self.attempts_per_commit.snapshot()
    }
    /// Read-set size at commit (histogram level).
    pub fn commit_read_set(&self) -> HistogramSnapshot {
        self.commit_read_set.snapshot()
    }
    /// Compare-set size at commit (histogram level; all-zero for the
    /// NOrec family and the delegating baselines).
    pub fn commit_compare_set(&self) -> HistogramSnapshot {
        self.commit_compare_set.snapshot()
    }
    /// Contention-manager spins per pause (histogram level).
    pub fn backoff_spins(&self) -> HistogramSnapshot {
        self.backoff_spins.snapshot()
    }

    /// All retained abort events, merged across threads and sorted by
    /// timestamp. Each thread retains at most `trace_capacity` newest
    /// events; [`EventRing::evicted`] tells how many were dropped.
    pub fn trace_events(&self) -> Vec<AbortEvent> {
        let mut out = Vec::new();
        for ring in self.traces.iter() {
            if let Ok(ring) = ring.lock() {
                out.extend(ring.iter().copied());
            }
        }
        out.sort_by_key(|e| e.timestamp_ns);
        out
    }

    /// Total abort events evicted from trace rings (trace truncation
    /// indicator: nonzero means the dump is missing the oldest events).
    pub fn trace_evicted(&self) -> u64 {
        self.traces
            .iter()
            .filter_map(|r| r.lock().ok().map(|ring| ring.evicted()))
            .sum()
    }

    /// All retained flight-recorder spans, merged across threads and
    /// sorted by start time. Each thread retains at most
    /// `trace_capacity` newest spans.
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

    /// Total spans evicted from span rings (nonzero means the timeline
    /// is missing its oldest attempts).
    pub fn spans_evicted(&self) -> u64 {
        self.spans
            .iter()
            .filter_map(|r| r.lock().ok().map(|ring| ring.evicted()))
            .sum()
    }

    /// The most contended heap addresses seen by abort attribution,
    /// ranked by estimated conflict count (descending; ties broken by
    /// address for determinism). Merges the per-shard sketches; the
    /// estimates are count-min upper bounds, so ranks are reliable for
    /// genuinely hot addresses and noisy for one-off conflicts. Empty
    /// below [`TelemetryLevel::Spans`].
    pub fn hot_addresses(&self) -> Vec<(Addr, u64)> {
        let mut agg: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        for sketch in self.hot.iter() {
            for (addr, weight) in sketch.entries() {
                *agg.entry(addr).or_insert(0) += weight;
            }
        }
        let mut out: Vec<(u32, u64)> = agg.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.into_iter()
            .map(|(a, w)| (Addr::from_index(a as usize), w))
            .collect()
    }

    /// The who-aborted-whom summary: aggregated `(victim, aborter)`
    /// thread pairs with abort counts, heaviest first (ties broken by
    /// victim then aborter token). Empty below
    /// [`TelemetryLevel::Spans`], and only as complete as the
    /// algorithms' attribution (TL2 lock conflicts name the owner
    /// exactly; NOrec validation failures use the most-recent-committer
    /// heuristic).
    pub fn conflict_edges(&self) -> Vec<ConflictEdge> {
        let mut agg: std::collections::HashMap<(u64, u64), u64> = std::collections::HashMap::new();
        for table in self.edges.iter() {
            for e in table.entries() {
                *agg.entry((e.victim, e.by)).or_insert(0) += e.count;
            }
        }
        let mut out: Vec<ConflictEdge> = agg
            .into_iter()
            .map(|((victim, by), count)| ConflictEdge { victim, by, count })
            .collect();
        out.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.victim.cmp(&b.victim))
                .then(a.by.cmp(&b.by))
        });
        out
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
        let t = Telemetry::new(TelemetryLevel::Counters, Algorithm::SNOrec, 1);
        let commit = |reads: u64, writes: u64| {
            t.shards[0].record_commit(&OpCounts {
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
    fn shard_merge_sums_counts() {
        use crate::stats::OpCounts;
        let t = Telemetry::new(TelemetryLevel::Counters, Algorithm::SNOrec, 16);
        let ops = OpCounts {
            reads: 2,
            incs: 1,
            ..OpCounts::default()
        };
        // Write into two different shards directly.
        t.shards[0].record_commit(&ops);
        t.shards[1].record_commit(&ops);
        t.shards[1].record_abort(AbortReason::Validation, &ops);
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
        // over several shards: the merged snapshot must be the hand sum.
        let t = Telemetry::new(TelemetryLevel::Counters, Algorithm::SNOrec, 16);
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
            let shard = &t.shards[mix as usize % 3];
            shard.record_commit(&ops);
            want.commits += 1;
            want.committed = want.committed + ops;

            let reason = reasons[mix as usize % reasons.len()];
            shard.record_abort(reason, &ops);
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
    fn trace_records_and_sorts_events() {
        let t = Telemetry::new(TelemetryLevel::Trace, Algorithm::STl2, 8);
        t.record_abort_event(AbortReason::Validation, Conflict::NONE, 1, 3, 2);
        t.record_abort_event(AbortReason::Locked, Conflict::NONE, 2, 5, 0);
        let events = t.trace_events();
        assert_eq!(events.len(), 2);
        assert!(events[0].timestamp_ns <= events[1].timestamp_ns);
        assert_eq!(events[0].reason, AbortReason::Validation);
        assert_eq!(events[0].algorithm, Algorithm::STl2);
        assert!(events[0].conflict.is_none());
        assert_eq!(t.trace_evicted(), 0);
    }

    #[test]
    fn trace_events_carry_attribution() {
        let t = Telemetry::new(TelemetryLevel::Trace, Algorithm::SNOrec, 8);
        let conflict = crate::error::Abort::validation()
            .at_addr(Addr::from_index(42))
            .by(7)
            .conflict();
        t.record_abort_event(AbortReason::Validation, conflict, 1, 3, 0);
        let events = t.trace_events();
        assert_eq!(events[0].conflict.addr(), Some(Addr::from_index(42)));
        assert_eq!(events[0].conflict.by(), Some(7));
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
        let t = Telemetry::new(TelemetryLevel::Spans, Algorithm::SNOrec, 8);
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
        assert_eq!(t.spans_evicted(), 0);
    }

    #[test]
    fn span_ring_capacity_follows_trace_capacity() {
        let t = Telemetry::new(TelemetryLevel::Spans, Algorithm::NOrec, 2);
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

    #[test]
    fn hot_addresses_rank_by_conflict_weight() {
        let t = Telemetry::new(TelemetryLevel::Spans, Algorithm::SNOrec, 8);
        let hit = |addr: usize| {
            crate::error::Abort::validation()
                .at_addr(Addr::from_index(addr))
                .conflict()
        };
        for _ in 0..20 {
            t.record_conflict(1, hit(5));
        }
        for _ in 0..3 {
            t.record_conflict(2, hit(9));
        }
        let hot = t.hot_addresses();
        assert!(hot.len() >= 2);
        assert_eq!(hot[0].0, Addr::from_index(5));
        assert!(hot[0].1 >= 20);
        assert_eq!(hot[1].0, Addr::from_index(9));
    }

    #[test]
    fn conflict_edges_aggregate_across_shards() {
        let t = Telemetry::new(TelemetryLevel::Spans, Algorithm::STl2, 8);
        let by = |token: u64| crate::error::Abort::locked().by(token).conflict();
        // Same edge recorded from two victims mapping to different shards.
        for _ in 0..4 {
            t.record_conflict(1, by(9));
        }
        t.record_conflict(2, by(9));
        let edges = t.conflict_edges();
        assert_eq!(
            edges[0],
            ConflictEdge {
                victim: 1,
                by: 9,
                count: 4
            }
        );
        assert!(edges.contains(&ConflictEdge {
            victim: 2,
            by: 9,
            count: 1
        }));
    }

    #[test]
    fn unattributed_conflicts_leave_sketches_empty() {
        let t = Telemetry::new(TelemetryLevel::Spans, Algorithm::NOrec, 8);
        t.record_conflict(1, Conflict::NONE);
        assert!(t.hot_addresses().is_empty());
        assert!(t.conflict_edges().is_empty());
    }
}
