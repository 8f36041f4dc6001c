//! Runtime statistics: the per-thread attempt record the hot path flushes
//! into, and the point-in-time [`StatsSnapshot`] every reporting layer
//! consumes.
//!
//! Reproduces the measurement infrastructure behind the paper's Table 3
//! ("average number of invocations per operation type per transaction")
//! and the abort-rate series of Figures 1 and 2.
//!
//! Two types are the only lists of what the runtime counts: [`OpCounts`]
//! names the six operation kinds and [`AbortReason`] the six abort
//! reasons. A `ThreadRecord` and a [`StatsSnapshot`] hold the same
//! counter set — commits, one count per reason, and an `OpCounts` block
//! each for committed and for aborted attempts — and recording, merging
//! and [`StatsSnapshot::since`] are written over those two lists.
//!
//! Transactions accumulate operation counts locally in [`OpCounts`];
//! counts are flushed into the calling thread's `ThreadRecord` when the
//! attempt ends — into the committed block on commit (so the
//! per-transaction averages are per *committed* transaction, as in the
//! paper's Table 3) and into the aborted block on abort, which is what
//! makes wasted work visible. [`crate::telemetry::Telemetry`] owns the
//! records and merges them on demand.

use crate::error::AbortReason;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of abort reasons; per-reason counters are indexed by
/// `reason as usize`.
const REASONS: usize = AbortReason::ALL.len();

/// Number of operation kinds (fields of [`OpCounts`]).
const KINDS: usize = 6;

/// Per-transaction operation counters, accumulated locally while the
/// transaction runs.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct OpCounts {
    /// Plain transactional reads (`TM_READ`).
    pub reads: u64,
    /// Plain transactional writes (`TM_WRITE`).
    pub writes: u64,
    /// Semantic comparisons, address–value form (`_ITM_S1R`).
    pub cmps: u64,
    /// Semantic comparisons, address–address form (`_ITM_S2R`).
    pub cmp_pairs: u64,
    /// Semantic increments/decrements (`_ITM_SW`).
    pub incs: u64,
    /// `inc` entries promoted to read+write by a later read of the same
    /// address (Algorithm 6, lines 18–22).
    pub promotes: u64,
}

impl OpCounts {
    /// The counts in field order, which is the order of a record's blocks.
    #[inline(always)]
    fn to_array(self) -> [u64; KINDS] {
        [
            self.reads,
            self.writes,
            self.cmps,
            self.cmp_pairs,
            self.incs,
            self.promotes,
        ]
    }

    /// The inverse of `to_array`. Its struct literal names every field, so
    /// a new operation kind does not compile until `KINDS` follows.
    #[inline(always)]
    fn from_array([reads, writes, cmps, cmp_pairs, incs, promotes]: [u64; KINDS]) -> OpCounts {
        OpCounts {
            reads,
            writes,
            cmps,
            cmp_pairs,
            incs,
            promotes,
        }
    }

    fn zip(self, other: OpCounts, f: impl Fn(u64, u64) -> u64) -> OpCounts {
        let (a, b) = (self.to_array(), other.to_array());
        OpCounts::from_array(std::array::from_fn(|i| f(a[i], b[i])))
    }

    /// Reset all counters to zero (reused across retries).
    pub fn clear(&mut self) {
        *self = OpCounts::default();
    }

    /// Sum over all operation kinds.
    pub fn total(&self) -> u64 {
        self.to_array().iter().sum()
    }
}

impl std::ops::Add for OpCounts {
    type Output = OpCounts;
    fn add(self, other: OpCounts) -> OpCounts {
        self.zip(other, |a, b| a + b)
    }
}

/// One thread's attempt record in one runtime: how many of its attempts
/// are in flight (the mode machine's presence count,
/// [`crate::adapt`]) and its counters. 128-byte aligned so neighbouring
/// records can never share a line (and to respect the 2-line prefetcher
/// granularity on x86): 20 words and a flag round up to two line pairs.
///
/// A record is written by the one thread whose [lease](crate::util::LEASES)
/// selects it, so a count is a plain load and store; only the overflow
/// record, which threads without a lease share, is written with locked
/// adds. Readers ([`Telemetry::snapshot`](crate::telemetry::Telemetry::snapshot),
/// a switch's drain) only load.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct ThreadRecord {
    /// Attempts of the writing thread(s) between `enter` and `exit`.
    pub(crate) active: AtomicU64,
    commits: AtomicU64,
    aborts: [AtomicU64; REASONS],
    committed: [AtomicU64; KINDS],
    aborted: [AtomicU64; KINDS],
    /// Whether any thread may write this record (the overflow record)
    /// rather than its lease holder alone.
    shared: bool,
}

const _: () = assert!(std::mem::size_of::<ThreadRecord>() == 256);

impl ThreadRecord {
    /// The record every thread without a lease writes.
    pub(crate) fn overflow() -> ThreadRecord {
        ThreadRecord {
            shared: true,
            ..ThreadRecord::default()
        }
    }

    /// Whether more than one thread may write this record.
    #[inline(always)]
    pub(crate) fn is_shared(&self) -> bool {
        self.shared
    }

    /// Record a committed transaction together with its operation counts.
    #[inline]
    pub(crate) fn record_commit(&self, ops: &OpCounts) {
        self.count(&self.commits, &self.committed, ops);
    }

    /// Record an aborted attempt, flushing its operation counts into the
    /// aborted block (an aborted attempt's work is real work the machine
    /// did and threw away; hiding it flatters abort-heavy runs).
    #[inline]
    pub(crate) fn record_abort(&self, reason: AbortReason, ops: &OpCounts) {
        self.count(&self.aborts[reason as usize], &self.aborted, ops);
    }

    /// Count one attempt: one more `outcome` (the commit, or the abort's
    /// reason) and `ops` into `block`. The lease holder, the record's
    /// only writer, adds with a plain load and store: the load returns
    /// its own last store. `Relaxed` either way: a count publishes
    /// nothing, and the readers that must see every count are ordered
    /// after the writer by a thread join or by the lease hand-over
    /// (DESIGN.md §8.5).
    #[inline(always)]
    fn count(&self, outcome: &AtomicU64, block: &[AtomicU64; KINDS], ops: &OpCounts) {
        if self.shared {
            count_shared(outcome, block, ops);
        } else {
            flush(outcome, block, ops, |c, n| {
                c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed)
            });
        }
    }

    /// Add this record's counts to `sum`.
    pub(crate) fn merge_into(&self, sum: &mut StatsSnapshot) {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let ops = |block: &[AtomicU64; KINDS]| OpCounts::from_array(block.each_ref().map(load));
        let record = StatsSnapshot {
            commits: load(&self.commits),
            aborts: self.aborts.each_ref().map(load),
            committed: ops(&self.committed),
            aborted: ops(&self.aborted),
        };
        *sum = sum.zip(&record, |a, b| a + b);
    }
}

/// [`ThreadRecord::count`] on the overflow record, which several threads
/// write: locked adds. Out of line, so the leased path carries none.
#[cold]
#[inline(never)]
fn count_shared(outcome: &AtomicU64, block: &[AtomicU64; KINDS], ops: &OpCounts) {
    flush(outcome, block, ops, |c, n| {
        c.fetch_add(n, Ordering::Relaxed);
    });
}

/// Add 1 to `outcome` and each count of `ops` to its counter in `block`
/// with `add`, skipping the add where the count is zero (most
/// transactions leave most operation kinds at zero; a Bank commit
/// flushes 3 counters instead of 7). The sums are the same either way.
#[inline(always)]
fn flush(
    outcome: &AtomicU64,
    block: &[AtomicU64; KINDS],
    ops: &OpCounts,
    add: impl Fn(&AtomicU64, u64),
) {
    add(outcome, 1);
    for (ctr, n) in block.iter().zip(ops.to_array()) {
        if n != 0 {
            add(ctr, n);
        }
    }
}

/// A point-in-time copy of the runtime counters, with derived metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted attempts per reason, indexed by `reason as usize`.
    aborts: [u64; REASONS],
    /// Operations executed by attempts that went on to commit.
    pub committed: OpCounts,
    /// Operations executed by attempts that aborted (wasted work).
    pub aborted: OpCounts,
}

impl StatsSnapshot {
    fn zip(&self, other: &StatsSnapshot, f: impl Fn(u64, u64) -> u64 + Copy) -> StatsSnapshot {
        StatsSnapshot {
            commits: f(self.commits, other.commits),
            aborts: std::array::from_fn(|i| f(self.aborts[i], other.aborts[i])),
            committed: self.committed.zip(other.committed, f),
            aborted: self.aborted.zip(other.aborted, f),
        }
    }

    /// Aborted attempts for one reason.
    pub fn aborts(&self, reason: AbortReason) -> u64 {
        self.aborts[reason as usize]
    }

    /// This snapshot with `n` more aborts for `reason` — for building a
    /// snapshot by hand.
    pub fn with_aborts(mut self, reason: AbortReason, n: u64) -> StatsSnapshot {
        self.aborts[reason as usize] += n;
        self
    }

    /// All aborts including explicit retries and durability failures.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Aborts caused by concurrency conflicts. Explicit retries are
    /// excluded — they are workload logic (e.g. "buffer full"), and the
    /// paper's abort-rate plots measure conflicts — and so are durability
    /// failures.
    pub fn conflict_aborts(&self) -> u64 {
        self.total_aborts()
            - self.aborts(AbortReason::Explicit)
            - self.aborts(AbortReason::Durability)
    }

    /// Total attempts: every attempt either commits or aborts, so
    /// `attempts == commits + total_aborts` — the telemetry invariant
    /// the test suite pins down.
    pub fn attempts(&self) -> u64 {
        self.commits + self.total_aborts()
    }

    /// Abort percentage: conflicts / (commits + conflicts) × 100 — the
    /// y-axis of the paper's abort plots.
    pub fn abort_pct(&self) -> f64 {
        let attempts = self.commits + self.conflict_aborts();
        if attempts == 0 {
            0.0
        } else {
            100.0 * self.conflict_aborts() as f64 / attempts as f64
        }
    }

    /// Fraction of all transactional operations whose work was thrown
    /// away by an abort: `aborted / (aborted + committed)`. 0.0 when no
    /// operation ran at all.
    pub fn wasted_work_ratio(&self) -> f64 {
        let wasted = self.aborted.total();
        let total = wasted + self.committed.total();
        if total == 0 {
            0.0
        } else {
            wasted as f64 / total as f64
        }
    }

    /// Average of `what` per committed transaction.
    fn per_commit(&self, what: u64) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            what as f64 / self.commits as f64
        }
    }

    /// Average plain reads per committed transaction (Table 3 "Read").
    pub fn reads_per_tx(&self) -> f64 {
        self.per_commit(self.committed.reads)
    }
    /// Average plain writes per committed transaction (Table 3 "Write").
    pub fn writes_per_tx(&self) -> f64 {
        self.per_commit(self.committed.writes)
    }
    /// Average comparisons per committed transaction (Table 3 "Compare";
    /// both operand forms).
    pub fn cmps_per_tx(&self) -> f64 {
        self.per_commit(self.committed.cmps + self.committed.cmp_pairs)
    }
    /// Average increments per committed transaction (Table 3 "Increment").
    pub fn incs_per_tx(&self) -> f64 {
        self.per_commit(self.committed.incs)
    }
    /// Average promotions per committed transaction (Table 3 "Promote").
    pub fn promotes_per_tx(&self) -> f64 {
        self.per_commit(self.committed.promotes)
    }

    /// Difference against an earlier snapshot (for measuring an interval).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        self.zip(earlier, |now, then| now - then)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_per_commit() {
        let snap = StatsSnapshot {
            commits: 2,
            committed: OpCounts {
                reads: 6,
                writes: 2,
                cmps: 4,
                cmp_pairs: 2,
                incs: 8,
                promotes: 2,
            },
            ..StatsSnapshot::default()
        };
        assert_eq!(snap.reads_per_tx(), 3.0);
        assert_eq!(snap.cmps_per_tx(), 3.0); // (4 + 2 pairs) / 2
        assert_eq!(snap.incs_per_tx(), 4.0);
        assert_eq!(snap.promotes_per_tx(), 1.0);
    }

    #[test]
    fn abort_pct_excludes_explicit() {
        let snap = StatsSnapshot {
            commits: 1,
            ..StatsSnapshot::default()
        }
        .with_aborts(AbortReason::Validation, 1)
        .with_aborts(AbortReason::Explicit, 1);
        assert_eq!(snap.conflict_aborts(), 1);
        assert_eq!(snap.total_aborts(), 2);
        assert_eq!(snap.attempts(), 3);
        assert!((snap.abort_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn since_computes_interval() {
        let t0 = StatsSnapshot {
            commits: 1,
            ..StatsSnapshot::default()
        };
        let t1 = StatsSnapshot {
            commits: 2,
            committed: OpCounts {
                reads: 5,
                ..OpCounts::default()
            },
            aborted: OpCounts {
                reads: 3,
                ..OpCounts::default()
            },
            ..StatsSnapshot::default()
        }
        .with_aborts(AbortReason::Locked, 1);
        let d = t1.since(&t0);
        assert_eq!(d.commits, 1);
        assert_eq!(d.committed.reads, 5);
        assert_eq!(d.aborts(AbortReason::Locked), 1);
        assert_eq!(d.aborted.reads, 3);
    }

    #[test]
    fn wasted_work_ratio_counts_aborted_ops() {
        let snap = StatsSnapshot {
            commits: 1,
            committed: OpCounts {
                reads: 6,
                ..OpCounts::default()
            },
            aborted: OpCounts {
                reads: 2,
                incs: 2,
                ..OpCounts::default()
            },
            ..StatsSnapshot::default()
        };
        assert_eq!(snap.aborted.total(), 4);
        assert_eq!(snap.committed.total(), 6);
        assert!((snap.wasted_work_ratio() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_has_zero_rates() {
        let snap = StatsSnapshot::default();
        assert_eq!(snap.abort_pct(), 0.0);
        assert_eq!(snap.reads_per_tx(), 0.0);
        assert_eq!(snap.wasted_work_ratio(), 0.0);
    }
}
