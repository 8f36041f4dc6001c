//! Runtime statistics: per-transaction operation counters and the
//! point-in-time [`StatsSnapshot`] every reporting layer consumes.
//!
//! Reproduces the measurement infrastructure behind the paper's Table 3
//! ("average number of invocations per operation type per transaction")
//! and the abort-rate series of Figures 1 and 2.
//!
//! Transactions accumulate operation counts locally in [`OpCounts`];
//! counts are flushed into the sharded [`crate::telemetry::Telemetry`]
//! cells when the attempt ends — into the committed counters on commit
//! (so the per-transaction averages are per *committed* transaction, as
//! in the paper's Table 3) and into the `aborted_*` counters on abort,
//! which is what makes wasted work visible.

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
    /// Reset all counters to zero (reused across retries).
    pub fn clear(&mut self) {
        *self = OpCounts::default();
    }

    /// Sum over all operation kinds.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.cmps + self.cmp_pairs + self.incs + self.promotes
    }
}

/// A point-in-time copy of the runtime counters, with derived metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Committed transactions.
    pub commits: u64,
    /// Aborts due to failed (semantic) validation.
    pub aborts_validation: u64,
    /// Aborts due to encountering a locked orec.
    pub aborts_locked: u64,
    /// Aborts after lock-wait timeout (TL2 family only).
    pub aborts_timeout: u64,
    /// Aborts during commit-time lock acquisition.
    pub aborts_lock_acquire: u64,
    /// Programmer-requested retries.
    pub aborts_explicit: u64,
    /// Aborts because the commit log refused the write record (WAL I/O
    /// failure; fail-stop, so at most one per thread in practice).
    pub aborts_durability: u64,
    /// Total `TM_READ` calls in committed transactions.
    pub reads: u64,
    /// Total `TM_WRITE` calls in committed transactions.
    pub writes: u64,
    /// Total address–value `cmp` calls in committed transactions.
    pub cmps: u64,
    /// Total address–address `cmp` calls in committed transactions.
    pub cmp_pairs: u64,
    /// Total `inc` calls in committed transactions.
    pub incs: u64,
    /// Total promoted `inc` entries in committed transactions.
    pub promotes: u64,
    /// `TM_READ` calls in attempts that aborted (wasted work).
    pub aborted_reads: u64,
    /// `TM_WRITE` calls in attempts that aborted.
    pub aborted_writes: u64,
    /// Address–value `cmp` calls in attempts that aborted.
    pub aborted_cmps: u64,
    /// Address–address `cmp` calls in attempts that aborted.
    pub aborted_cmp_pairs: u64,
    /// `inc` calls in attempts that aborted.
    pub aborted_incs: u64,
    /// Promoted `inc` entries in attempts that aborted.
    pub aborted_promotes: u64,
}

impl StatsSnapshot {
    /// All aborts, regardless of reason. Explicit retries are excluded:
    /// they are workload logic (e.g. "buffer full"), not concurrency
    /// conflicts, and the paper's abort-rate plots measure conflicts.
    pub fn conflict_aborts(&self) -> u64 {
        self.aborts_validation + self.aborts_locked + self.aborts_timeout + self.aborts_lock_acquire
    }

    /// All aborts including explicit retries and durability failures.
    pub fn total_aborts(&self) -> u64 {
        self.conflict_aborts() + self.aborts_explicit + self.aborts_durability
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

    /// Operations executed by attempts that went on to commit.
    pub fn committed_ops(&self) -> u64 {
        self.reads + self.writes + self.cmps + self.cmp_pairs + self.incs + self.promotes
    }

    /// Operations executed by attempts that aborted (thrown away).
    pub fn aborted_ops(&self) -> u64 {
        self.aborted_reads
            + self.aborted_writes
            + self.aborted_cmps
            + self.aborted_cmp_pairs
            + self.aborted_incs
            + self.aborted_promotes
    }

    /// Fraction of all transactional operations whose work was thrown
    /// away by an abort: `aborted / (aborted + committed)`. 0.0 when no
    /// operation ran at all.
    pub fn wasted_work_ratio(&self) -> f64 {
        let wasted = self.aborted_ops();
        let total = wasted + self.committed_ops();
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
        self.per_commit(self.reads)
    }
    /// Average plain writes per committed transaction (Table 3 "Write").
    pub fn writes_per_tx(&self) -> f64 {
        self.per_commit(self.writes)
    }
    /// Average comparisons per committed transaction (Table 3 "Compare";
    /// both operand forms).
    pub fn cmps_per_tx(&self) -> f64 {
        self.per_commit(self.cmps + self.cmp_pairs)
    }
    /// Average increments per committed transaction (Table 3 "Increment").
    pub fn incs_per_tx(&self) -> f64 {
        self.per_commit(self.incs)
    }
    /// Average promotions per committed transaction (Table 3 "Promote").
    pub fn promotes_per_tx(&self) -> f64 {
        self.per_commit(self.promotes)
    }

    /// Difference against an earlier snapshot (for measuring an interval).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            commits: self.commits - earlier.commits,
            aborts_validation: self.aborts_validation - earlier.aborts_validation,
            aborts_locked: self.aborts_locked - earlier.aborts_locked,
            aborts_timeout: self.aborts_timeout - earlier.aborts_timeout,
            aborts_lock_acquire: self.aborts_lock_acquire - earlier.aborts_lock_acquire,
            aborts_explicit: self.aborts_explicit - earlier.aborts_explicit,
            aborts_durability: self.aborts_durability - earlier.aborts_durability,
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            cmps: self.cmps - earlier.cmps,
            cmp_pairs: self.cmp_pairs - earlier.cmp_pairs,
            incs: self.incs - earlier.incs,
            promotes: self.promotes - earlier.promotes,
            aborted_reads: self.aborted_reads - earlier.aborted_reads,
            aborted_writes: self.aborted_writes - earlier.aborted_writes,
            aborted_cmps: self.aborted_cmps - earlier.aborted_cmps,
            aborted_cmp_pairs: self.aborted_cmp_pairs - earlier.aborted_cmp_pairs,
            aborted_incs: self.aborted_incs - earlier.aborted_incs,
            aborted_promotes: self.aborted_promotes - earlier.aborted_promotes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_per_commit() {
        let snap = StatsSnapshot {
            commits: 2,
            reads: 6,
            writes: 2,
            cmps: 4,
            cmp_pairs: 2,
            incs: 8,
            promotes: 2,
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
            aborts_validation: 1,
            aborts_explicit: 1,
            ..StatsSnapshot::default()
        };
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
            reads: 5,
            aborts_locked: 1,
            aborted_reads: 3,
            ..StatsSnapshot::default()
        };
        let d = t1.since(&t0);
        assert_eq!(d.commits, 1);
        assert_eq!(d.reads, 5);
        assert_eq!(d.aborts_locked, 1);
        assert_eq!(d.aborted_reads, 3);
    }

    #[test]
    fn wasted_work_ratio_counts_aborted_ops() {
        let snap = StatsSnapshot {
            commits: 1,
            reads: 6,
            aborted_reads: 2,
            aborted_incs: 2,
            ..StatsSnapshot::default()
        };
        assert_eq!(snap.aborted_ops(), 4);
        assert_eq!(snap.committed_ops(), 6);
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
