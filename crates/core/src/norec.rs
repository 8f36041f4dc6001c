//! NOrec and S-NOrec (the paper's Algorithm 6): one engine, two clocks.
//!
//! NOrec [Dalessandro et al., PPoPP 2010] keeps **no ownership records**:
//! a commit clock orders writer commits, and readers maintain value-based
//! read-sets validated whenever that clock moves. S-NOrec generalises
//! value-based validation to **semantic validation**: the read-set stores
//! `(addr, operator, operand)` triples and validation re-evaluates the
//! recorded relation, so a concurrent commit that changes a value
//! *without changing the recorded relation's outcome* no longer aborts
//! the reader. Plain reads degenerate to `EQ` entries, recovering exactly
//! NOrec's value-based validation.
//!
//! `NorecTx` owns the read-set, the write-set and the three reads of
//! live memory once; the write-set's front — filter, read-after-write and
//! promote rules — is `stm::Engine`'s, shared with TL2. How the commit clock is
//! sampled, validated against and acquired is the `CommitClock` it is
//! monomorphised over: [`GlobalClock`] is the classical single sequence
//! lock, [`ShardedClock`](crate::sclock::ShardedClock) the per-line shard
//! vector selected by [`clock_shards`](crate::StmConfig::clock_shards).
//! DESIGN.md §8 tables what each clock must guarantee.
//!
//! The baseline (`Algorithm::NOrec`) uses the same code with the semantic
//! entry points never invoked — the front-end [`crate::stm::Tx`] delegates
//! `cmp`→`read` and `inc`→`read`+`write` for non-semantic algorithms,
//! mirroring how unmodified libitm delegates the new ABI calls.

use crate::error::{Abort, AbortReason};
use crate::heap::{Addr, Heap, LINE_BYTES};
use crate::ops::CmpOp;
use crate::sched::{self, Fault, PointKind};
use crate::sets::{ReadEntry, Scratch, ScratchBox, WriteSet};
use crate::stm::Engine;
use crate::telemetry::PhaseRecorder;
use crate::util::SpinWait;
use crate::wal::CommitLog;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a clock revalidates: one attempt's read-set over the heap. The
/// phase recorder rides along so a validation that `acquire` starts is
/// stamped like any other.
pub(crate) struct Reads<'a> {
    pub(crate) heap: &'a Heap,
    pub(crate) entries: &'a [ReadEntry],
    pub(crate) phases: &'a mut PhaseRecorder,
}

impl Reads<'_> {
    /// Semantically re-check every entry `moved` selects (Algorithm 6
    /// `Validate`, line 5); the failing entry's address is attributed.
    pub(crate) fn recheck(&self, moved: impl Fn(&ReadEntry) -> bool) -> Result<(), Abort> {
        if sched::fault(Fault::SnorecSkipRevalidation) {
            return Ok(());
        }
        match self
            .entries
            .iter()
            .find(|e| moved(e) && !e.holds(self.heap))
        {
            Some(e) => Err(Abort::validation().at_addr(e.addrs().0)),
            None => Ok(()),
        }
    }
}

/// The commit clock of the NOrec family: the one thing the two NOrec
/// engines ever differed in. A clock hands each attempt a `View`; the
/// engine's invariant is that **whenever a read returns with the view
/// not [`moved`](CommitClock::moved), every read-set entry holds in the
/// heap as it is at that moment**, and each method states what it
/// contributes to keeping that true.
pub(crate) trait CommitClock {
    /// One attempt's view of the clock; kept across attempts.
    type View;
    /// Schedule point ahead of the data load of a consistent read.
    const READ: PointKind;
    /// Schedule point between the clock's acquisition and the first data
    /// store (nothing may yield from there to `release`).
    const WRITEBACK: PointKind;

    /// A view for a new transaction context (not yet meaningful), built
    /// over whatever vectors it needs out of `scratch`.
    fn view(&self, scratch: &mut Scratch) -> Self::View;
    /// Give `view`'s vectors back to `scratch` when its context ends.
    fn retire(_view: &mut Self::View, _scratch: &mut Scratch) {}
    /// Start an attempt with an empty read-set: either sample a time at
    /// which no write-back is in flight, or leave every sample to
    /// [`touch`](CommitClock::touch).
    fn begin(&self, view: &mut Self::View);
    /// Called ahead of every consistent read of `addr`: a clock whose
    /// view covers only what the attempt has read under extends it to
    /// `addr` here. A clock that samples everything in `begin` inherits
    /// this no-op.
    #[inline(always)]
    fn touch(&self, _view: &mut Self::View, _addr: Addr) {}
    /// Has a write-back possibly started since `view` was last valid? A
    /// `false` after a data load proves the loaded value belongs to the
    /// same heap state as every entry read before it.
    fn moved(&self, view: &Self::View) -> bool;
    /// Changes exactly when validation advances the view (the pair-read
    /// consistency probe of `cmp_addr`).
    fn stamp(view: &Self::View) -> u64;
    /// Wait out in-flight commits, re-check the entries whose clock words
    /// moved and advance `view` to a current quiescent sample, or abort.
    fn validate(&self, view: &mut Self::View, reads: &mut Reads<'_>) -> Result<(), Abort>;
    /// Lock the clock words covering `writes`. Returns `Ok` with the
    /// read-set valid under the held locks; on `Err` nothing is held.
    fn acquire(
        &self,
        view: &mut Self::View,
        writes: &WriteSet,
        reads: &mut Reads<'_>,
    ) -> Result<(), Abort>;
    /// Called with the locks held, before the first data store: every
    /// write-back is preceded by a step that makes concurrent views
    /// [`moved`](CommitClock::moved). Acquisition itself is that step
    /// unless the clock says otherwise.
    fn announce(&self) {}
    /// Unlock what `acquire` locked: stamp the next time when
    /// `committed`, else restore the pre-acquire words — sound because a
    /// rollback happens strictly before any data store.
    fn release(&self, view: &Self::View, committed: bool);
    /// Record the committing thread (flight recorder only; called under
    /// the locks so whoever sees the new time also sees the token).
    fn stamp_committer(&self, token: u64);
    /// The most recent stamped committer (0 = never stamped).
    fn committer(&self) -> u64;
    /// Era bump for an adaptive mode switch ([`crate::adapt`]), on a
    /// quiescent runtime: no view sampled before it is current after it.
    fn reseed(&self);
}

/// The single global timestamped lock (even = free, odd = a writer is
/// committing). All global-clock transactions of one [`crate::Stm`]
/// serialise their write-backs through this word.
///
/// Every writer CASes the lock, so it sits in a 128-byte block of its
/// own ([`LINE_BYTES`], the adjacent-line pair): a commit then moves no
/// line that another thread's barrier reads for anything else (the heap
/// and orec bases, the mode word), only the lock itself.
#[repr(align(128))]
#[derive(Default)]
pub struct GlobalClock {
    lock: AtomicU64,
    /// Thread token of the most recent committer, stamped under the
    /// sequence lock — and only when the flight recorder is on
    /// (`TelemetryLevel::Spans`), so the default hot path never touches
    /// this word. NOrec has no per-address metadata, so abort
    /// attribution uses this as a "most recent committer" heuristic: it
    /// names the right culprit whenever the invalidating commit is the
    /// latest one, which under the single global lock is the common
    /// case.
    committer: AtomicU64,
}

const _: () = assert!(
    std::mem::align_of::<GlobalClock>() == LINE_BYTES
        && std::mem::size_of::<GlobalClock>() == LINE_BYTES
);

impl GlobalClock {
    /// Current timestamp (for diagnostics/tests).
    pub fn time(&self) -> u64 {
        self.lock.load(Ordering::SeqCst)
    }
}

impl CommitClock for GlobalClock {
    /// The even time at which the read-set was last observed consistent.
    type View = u64;
    const READ: PointKind = PointKind::NorecRead;
    const WRITEBACK: PointKind = PointKind::NorecWriteback;

    fn view(&self, _: &mut Scratch) -> u64 {
        0
    }

    /// Algorithm 6 `Start`: take an even snapshot of the lock.
    fn begin(&self, view: &mut u64) {
        let mut wait = SpinWait::new();
        loop {
            sched::point(PointKind::NorecBegin);
            let s = self.time();
            if s & 1 == 0 {
                *view = s;
                return;
            }
            sched::spin();
            wait.spin();
        }
    }

    #[inline]
    fn moved(&self, view: &u64) -> bool {
        *view != self.time()
    }

    #[inline]
    fn stamp(view: &u64) -> u64 {
        *view
    }

    /// Algorithm 6 `Validate` (lines 1–9).
    fn validate(&self, view: &mut u64, reads: &mut Reads<'_>) -> Result<(), Abort> {
        reads.phases.mark_validate();
        let mut wait = SpinWait::new();
        loop {
            sched::point(PointKind::NorecValidate);
            let time = self.time();
            if time & 1 != 0 {
                sched::spin();
                wait.spin();
                continue;
            }
            reads.recheck(|_| true)?;
            sched::point(PointKind::NorecValidateRecheck);
            if time == self.time() {
                *view = time;
                return Ok(());
            }
        }
    }

    /// CAS the lock odd from the validated time, re-validating until it
    /// lands: a CAS from `view` proves no commit since the validation.
    fn acquire(&self, view: &mut u64, _: &WriteSet, reads: &mut Reads<'_>) -> Result<(), Abort> {
        loop {
            sched::point(PointKind::NorecCommitAcquire);
            let odd = *view + 1;
            if self
                .lock
                .compare_exchange(*view, odd, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(());
            }
            self.validate(view, reads)?;
        }
    }

    /// Unlocking the seqlock is a release: a reader that loads the new
    /// even word (`time`, `SeqCst`) sees every write-back store.
    fn release(&self, view: &u64, committed: bool) {
        let next = if committed { *view + 2 } else { *view };
        self.lock.store(next, Ordering::Release);
    }

    fn stamp_committer(&self, token: u64) {
        self.committer.store(token, Ordering::Relaxed);
    }

    fn committer(&self) -> u64 {
        self.committer.load(Ordering::Relaxed)
    }

    /// Advance by one commit's worth, keeping the word even (free).
    fn reseed(&self) {
        self.lock.fetch_add(2, Ordering::SeqCst);
    }
}

/// One NOrec / S-NOrec transaction attempt over clock `C`.
///
/// Not a public API — used through [`crate::stm::Tx`].
pub(crate) struct NorecTx<'a, C: CommitClock> {
    heap: &'a Heap,
    clock: &'a C,
    view: C::View,
    /// The read-set, the write-set and the log record buffer, used in
    /// place; handed back to the thread when this context drops.
    scratch: ScratchBox,
    /// The clock is acquired and not yet released (only ever true inside
    /// `commit`; still true afterwards iff a panic unwound out of it).
    held: bool,
    /// Flight-recorder phase marks; inert (its enabled check is the
    /// materialised `level >= Spans` guard) unless `enable_spans`
    /// installed a live recorder.
    phases: PhaseRecorder,
    /// The running thread's token, which a commit stamps into the
    /// clock's committer word for abort attribution. Nonzero only at
    /// `TelemetryLevel::Spans`; 0 turns the stamp and the lookup off.
    committer: u64,
    /// The write-ahead commit log, when the owning [`crate::Stm`] is
    /// durable.
    wal: Option<&'a CommitLog>,
}

impl<'a, C: CommitClock> NorecTx<'a, C> {
    /// Create a transaction context bound to `heap` and `clock`, over
    /// the calling thread's scratch.
    pub(crate) fn new(heap: &'a Heap, clock: &'a C) -> Self {
        let mut scratch = ScratchBox::take();
        NorecTx {
            heap,
            clock,
            view: clock.view(&mut scratch),
            scratch,
            held: false,
            phases: PhaseRecorder::disabled(),
            committer: 0,
            wal: None,
        }
    }

    /// A validation abort names the failing entry's address; with the
    /// flight recorder on, add the most-recent-committer heuristic.
    #[cold]
    fn blame(&self, abort: Abort) -> Abort {
        if self.committer != 0 && abort.reason == AbortReason::Validation {
            // 0 (never stamped) is `Conflict`'s "unknown" sentinel.
            abort.by(self.clock.committer())
        } else {
            abort
        }
    }

    /// The slow path of a read: the clock moved.
    #[cold]
    fn validate(&mut self) -> Result<(), Abort> {
        let mut reads = Reads {
            heap: self.heap,
            entries: &self.scratch.entries,
            phases: &mut self.phases,
        };
        let outcome = self.clock.validate(&mut self.view, &mut reads);
        outcome.map_err(|abort| self.blame(abort))
    }

    /// Algorithm 6 `ReadValid` (lines 10–16): read a word, re-validating
    /// (and moving the view forward) whenever the clock moved. While it
    /// stands still this is a load and a compare.
    #[inline(always)]
    fn read_valid(&mut self, addr: Addr) -> Result<i64, Abort> {
        self.clock.touch(&mut self.view, addr);
        loop {
            sched::point(C::READ);
            let val = self.heap.tm_load(addr);
            if !self.clock.moved(&self.view) {
                return Ok(val);
            }
            self.validate()?;
        }
    }

    /// §4.1 "read after read": duplicates are appended, as the paper
    /// judges a dedup lookup not worth its cost.
    #[inline(always)]
    fn push_read(&mut self, addr: Addr, op: CmpOp, operand: i64) {
        self.scratch
            .entries
            .push(ReadEntry::Val { addr, op, operand });
    }
}

impl<'a, C: CommitClock> Engine<'a> for NorecTx<'a, C> {
    fn enable_wal(&mut self, log: &'a CommitLog) {
        self.wal = Some(log);
    }

    fn enable_spans(&mut self, recorder: PhaseRecorder, token: u64) {
        self.phases = recorder;
        self.committer = token;
    }

    fn phases(&self) -> PhaseRecorder {
        self.phases
    }

    fn begin(&mut self) {
        self.scratch.entries.clear();
        self.scratch.clear_writes();
        self.phases.reset();
        self.clock.begin(&mut self.view);
    }

    #[inline(always)]
    fn scratch(&mut self) -> &mut ScratchBox {
        &mut self.scratch
    }

    /// `TM_READ` on live memory (Algorithm 6, lines 40–43); a plain
    /// read is recorded as an `EQ` entry.
    #[inline(always)]
    fn read_live(&mut self, addr: Addr) -> Result<i64, Abort> {
        let val = self.read_valid(addr)?;
        self.push_read(addr, CmpOp::Eq, val);
        Ok(val)
    }

    /// `Compare` on live memory (Algorithm 6, lines 32–35).
    #[inline(always)]
    fn cmp_live(&mut self, addr: Addr, op: CmpOp, operand: i64) -> Result<bool, Abort> {
        let val = self.read_valid(addr)?;
        let result = op.eval(val, operand);
        self.push_read(addr, op.recorded(result), operand);
        Ok(result)
    }

    #[inline(always)]
    fn cmp_pair_live(&mut self, a: Addr, op: CmpOp, b: Addr) -> Result<bool, Abort> {
        // Read both sides under one view so the recorded relation
        // reflects a consistent memory state.
        let (va, vb) = loop {
            let stamp = C::stamp(&self.view);
            let va = self.read_valid(a)?;
            let vb = self.read_valid(b)?;
            if C::stamp(&self.view) == stamp {
                break (va, vb);
            }
        };
        let result = op.eval(va, vb);
        self.scratch.entries.push(ReadEntry::Pair {
            a,
            op: op.recorded(result),
            b,
        });
        Ok(result)
    }

    /// Commit. Read-only transactions commit immediately (their last
    /// validation is their serialisation point); writers acquire the
    /// clock, then write back (applying deferred increments against live
    /// memory) and release.
    fn commit(&mut self) -> Result<(), Abort> {
        if self.scratch.writes.is_empty() {
            return Ok(());
        }
        self.phases.mark_lock();
        let mut reads = Reads {
            heap: self.heap,
            entries: &self.scratch.entries,
            phases: &mut self.phases,
        };
        let acquired = self
            .clock
            .acquire(&mut self.view, &self.scratch.writes, &mut reads);
        acquired.map_err(|abort| self.blame(abort))?;
        if self.committer != 0 {
            self.clock.stamp_committer(self.committer);
        }
        self.held = true;
        let (clock, view, held) = (self.clock, &self.view, &mut self.held);
        let Scratch {
            writes, resolved, ..
        } = &mut *self.scratch;
        writes.write_back(
            self.heap,
            self.wal,
            resolved,
            &mut self.phases,
            || {
                clock.announce();
                sched::point(C::WRITEBACK);
            },
            |committed| {
                clock.release(view, committed);
                *held = false;
            },
        )
    }

    /// Abort cleanup: the clock is held only inside `commit`, which
    /// releases it on every path it returns from — this covers the one
    /// it does not, a panic unwinding out of the write-back (a poisoned
    /// log, a store to an address outside the heap). Some stores may have
    /// landed, so release as committed: a moved clock sends every
    /// concurrent view through value-based revalidation, which is sound
    /// whether or not the data changed.
    fn rollback(&mut self) {
        if std::mem::take(&mut self.held) {
            self.clock.release(&self.view, true);
        }
    }

    fn read_set_len(&self) -> usize {
        self.scratch.entries.len()
    }

    /// Always 0: cmp outcomes live in the read-set.
    fn compare_set_len(&self) -> usize {
        0
    }

    fn write_set_len(&self) -> usize {
        self.scratch.writes.len()
    }
}

impl<C: CommitClock> Drop for NorecTx<'_, C> {
    fn drop(&mut self) {
        C::retire(&mut self.view, &mut self.scratch);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::heap::LINE_WORDS;
    use crate::sclock::ShardedClock;
    use crate::stats::OpCounts;
    use crate::util::thread_token;

    fn heap() -> Heap {
        Heap::new(LINE_WORDS * 16)
    }

    /// A begun attempt.
    pub(crate) fn tx<'a, C: CommitClock>(heap: &'a Heap, clock: &'a C) -> NorecTx<'a, C> {
        let mut t = NorecTx::new(heap, clock);
        t.begin();
        t
    }

    /// A complete concurrent writer transaction, run inline.
    pub(crate) fn commit_write<C: CommitClock>(heap: &Heap, clock: &C, addr: Addr, v: i64) {
        let mut t = tx(heap, clock);
        t.write(addr, v);
        t.commit().unwrap();
    }

    /// The engine's conformance suite: every behaviour below must hold
    /// whatever clock orders the commits. `time` reads a clock's total
    /// committed time.
    fn suite<C: CommitClock>(make: impl Fn() -> C, time: impl Fn(&C) -> u64) {
        let mut ops = OpCounts::default();

        // read_write_roundtrip_single_tx
        let (heap, clock) = (heap(), make());
        let a = heap.alloc(1);
        let mut t = tx(&heap, &clock);
        t.write(a, 41);
        assert_eq!(t.read(a, &mut ops).unwrap(), 41); // RAW
        t.inc(a, 1);
        assert_eq!(t.read(a, &mut ops).unwrap(), 42); // inc onto Store
        t.commit().unwrap();
        assert_eq!(heap.load(a), 42);

        // plain_read_conflict_aborts_at_validation; the failed commit
        // must not write back (write_after_read_validated_at_commit).
        heap.store(a, 5);
        let mut t1 = tx(&heap, &clock);
        let v = t1.read(a, &mut ops).unwrap();
        commit_write(&heap, &clock, a, 6);
        t1.write(a, v + 100);
        assert_eq!(t1.commit(), Err(Abort::validation()));
        assert_eq!(heap.load(a), 6);

        // Algorithm 1: T1 checks x > 0, T2 bumps x, T1 still commits —
        // semantic_cmp_survives_value_change_that_preserves_relation.
        let x = heap.alloc(1);
        let y = heap.alloc_padded(1);
        heap.store(x, 5);
        let mut t1 = tx(&heap, &clock);
        assert!(t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        commit_write(&heap, &clock, x, 6);
        t1.write(y, 1);
        t1.commit().expect("semantic validation must pass");
        assert_eq!(heap.load(y), 1);

        // semantic_cmp_aborts_when_relation_flips
        let mut t1 = tx(&heap, &clock);
        assert!(t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        commit_write(&heap, &clock, x, -3);
        t1.write(y, 2);
        assert_eq!(t1.commit(), Err(Abort::validation()));

        // false_cmp_records_inverse_and_validates_it: x > 0 is false, so
        // x <= 0 is recorded; -3 -> -10 keeps it, -10 -> 1 breaks it.
        let mut t1 = tx(&heap, &clock);
        let mut t2 = tx(&heap, &clock);
        assert!(!t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        assert!(!t2.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        commit_write(&heap, &clock, x, -10);
        t1.write(y, 3);
        t1.commit().unwrap();
        commit_write(&heap, &clock, x, 1);
        t2.write(y, 4);
        assert_eq!(t2.commit(), Err(Abort::validation()));

        // deferred_inc_applies_against_live_memory: a pure-inc
        // transaction has no read-set, so neither racing update is lost.
        heap.store(x, 10);
        let mut t1 = tx(&heap, &clock);
        t1.inc(x, 1);
        let mut t2 = tx(&heap, &clock);
        t2.inc(x, 5);
        t2.commit().unwrap();
        assert_eq!(heap.load(x), 15);
        t1.commit().unwrap();
        assert_eq!(heap.load(x), 16, "no lost update");

        // promote_pins_the_observed_value: after promotion the entry is
        // a Store plus an EQ read, so a concurrent change now aborts.
        let before = ops.promotes;
        let mut t1 = tx(&heap, &clock);
        t1.inc(x, 2);
        assert_eq!(t1.read(x, &mut ops).unwrap(), 18);
        assert_eq!(ops.promotes, before + 1);
        assert_eq!(t1.read_set_len(), 1, "promotion adds an EQ read entry");
        commit_write(&heap, &clock, x, 100);
        assert_eq!(t1.commit(), Err(Abort::validation()));

        // cmp_addr pair validation, operands on different lines: head !=
        // tail (Algorithm 3's queue non-empty check) survives a tail
        // bump and fails once head catches up.
        let (h, tl) = (heap.alloc_padded(1), heap.alloc_padded(1));
        heap.store(h, 3);
        heap.store(tl, 9);
        let mut t1 = tx(&heap, &clock);
        let mut t2 = tx(&heap, &clock);
        assert!(t1.cmp_addr(h, CmpOp::Neq, tl, &mut ops).unwrap());
        assert!(t2.cmp_addr(h, CmpOp::Neq, tl, &mut ops).unwrap());
        commit_write(&heap, &clock, tl, 10);
        t1.write(y, 5);
        t1.commit().expect("pair relation still holds");
        commit_write(&heap, &clock, h, 10);
        t2.write(y, 6);
        assert_eq!(t2.commit(), Err(Abort::validation()));

        // Duplicate reads are appended (§4.1), and a read-only commit
        // leaves the clock untouched.
        let before = time(&clock);
        let mut t = tx(&heap, &clock);
        let _ = t.read(a, &mut ops).unwrap();
        let _ = t.read(a, &mut ops).unwrap();
        assert_eq!(t.read_set_len(), 2);
        t.commit().unwrap();
        assert_eq!(time(&clock), before);
    }

    /// The read barriers of any engine on addresses the write-set's
    /// filter cannot tell apart: `p` is written, `q` shares its filter
    /// bit and is never written, so every barrier on `q` passes the
    /// filter, misses the index and must fall through to memory. `begin`
    /// hands out a begun attempt over `heap`.
    pub(crate) fn filter_twin_suite<'a, E: Engine<'a>>(heap: &'a Heap, begin: impl Fn() -> E) {
        let cells = heap.alloc(80);
        let (p, q) = (0..80)
            .flat_map(|i| (i + 1..80).map(move |j| (cells.offset(i), cells.offset(j))))
            .find(|&(p, q)| crate::sets::tests::filter_twins(p, q))
            .expect("65 addresses share 64 bits");
        heap.store(p, 10);
        heap.store(q, 20);
        let mut ops = OpCounts::default();

        // Read after write.
        let mut t = begin();
        t.write(p, 7);
        assert_eq!(t.read(q, &mut ops).unwrap(), 20, "the twin reads memory");
        assert_eq!(
            t.read(p, &mut ops).unwrap(),
            7,
            "the written reads its buffer"
        );
        t.inc(q, 1);
        assert_eq!(
            t.read(q, &mut ops).unwrap(),
            21,
            "and the twin too, once buffered"
        );
        t.commit().unwrap();
        assert_eq!((heap.load(p), heap.load(q)), (7, 21));

        // `cmp` after `inc`: the increment is promoted, its twin compared
        // in memory — with the inc's filter bit lost, `p` would compare
        // as 7, not 9.
        let promotes = ops.promotes;
        let mut t = begin();
        t.inc(p, 2);
        assert!(t.cmp(q, CmpOp::Eq, 21, &mut ops).unwrap());
        assert_eq!(ops.promotes, promotes, "no buffer, no promotion");
        assert!(t.cmp(p, CmpOp::Gt, 8, &mut ops).unwrap(), "7 + 2 > 8");
        assert_eq!(ops.promotes, promotes + 1);
        assert!(!t.cmp(q, CmpOp::Lt, 21, &mut ops).unwrap());
        t.commit().unwrap();
        assert_eq!((heap.load(p), heap.load(q)), (9, 21));

        // `cmp_addr` with one side buffered, either way round.
        let mut t = begin();
        t.inc(p, 20);
        assert!(t.cmp_addr(p, CmpOp::Gt, q, &mut ops).unwrap(), "29 > 21");
        assert!(t.cmp_addr(q, CmpOp::Lte, p, &mut ops).unwrap());
        assert_eq!(ops.promotes, promotes + 2, "promoted once, then a store");
        t.commit().unwrap();
        assert_eq!((heap.load(p), heap.load(q)), (29, 21));
    }

    fn shard_time(c: &ShardedClock) -> u64 {
        (0..c.len()).map(|s| c.load(s)).sum()
    }

    #[test]
    fn conformance_global_clock() {
        suite(GlobalClock::default, GlobalClock::time);
        let (heap, clock) = (heap(), GlobalClock::default());
        filter_twin_suite(&heap, || tx(&heap, &clock));
    }

    #[test]
    fn conformance_sharded_clock() {
        suite(|| ShardedClock::new(1), shard_time);
        suite(|| ShardedClock::new(4), shard_time);
        let (heap, clock) = (heap(), ShardedClock::new(4));
        filter_twin_suite(&heap, || tx(&heap, &clock));
    }

    /// One shard *is* the global clock: a deterministic script of
    /// interleaved attempts (a reader held open across each writer's
    /// commit) yields the same outcome per attempt, heap and time.
    #[test]
    fn single_shard_degenerates_to_global_clock() {
        fn run<C: CommitClock>(clock: C, time: impl Fn(&C) -> u64) -> (Vec<String>, Vec<i64>, u64) {
            let heap = heap();
            let cells: Vec<Addr> = (0..6).map(|_| heap.alloc_padded(1)).collect();
            let mut rng = crate::util::SplitMix64::new(0xD1FF);
            let mut ops = OpCounts::default();
            let mut log = Vec::new();
            for _ in 0..200 {
                let (p, q, r) = (
                    cells[rng.index(6)],
                    cells[rng.index(6)],
                    cells[rng.index(6)],
                );
                let mut reader = tx(&heap, &clock);
                let seen = match rng.index(3) {
                    0 => reader.read(p, &mut ops).map(|v| v > 2),
                    1 => reader.cmp(p, CmpOp::Lt, 3, &mut ops),
                    _ => reader.cmp_addr(p, CmpOp::Lte, q, &mut ops),
                };
                let mut writer = tx(&heap, &clock);
                writer.inc(q, 1);
                if rng.chance(50) {
                    let v = writer.read(q, &mut ops).unwrap();
                    writer.write(p, v % 5);
                }
                log.push(format!("{:?}", writer.commit()));
                reader.inc(r, 1);
                log.push(format!("{seen:?} {:?}", reader.commit()));
            }
            let values = cells.iter().map(|&c| heap.load(c)).collect();
            (log, values, time(&clock))
        }
        let global = run(GlobalClock::default(), GlobalClock::time);
        assert!(
            global.0.iter().any(|o| o.contains("Err")),
            "script conflicts"
        );
        assert!(global.0.iter().any(|o| o.ends_with("Ok(())")));
        assert_eq!(global, run(ShardedClock::new(1), shard_time));
    }

    #[test]
    fn validation_abort_attributes_address_and_committer() {
        fn check<C: CommitClock>(clock: C) {
            let heap = heap();
            let a = heap.alloc(1);
            heap.store(a, 5);
            let mut ops = OpCounts::default();
            let live = || PhaseRecorder::enabled(std::time::Instant::now());
            for spans in [true, false] {
                let mut t1 = NorecTx::new(&heap, &clock);
                let mut t2 = NorecTx::new(&heap, &clock);
                if spans {
                    t1.enable_spans(live(), thread_token());
                    t2.enable_spans(live(), thread_token());
                }
                t1.begin();
                let v = t1.read(a, &mut ops).unwrap();
                // With the recorder on, the commit stamps the committer.
                t2.begin();
                t2.write(a, v + 1);
                t2.commit().unwrap();
                t1.write(a, 100);
                let err = t1.commit().unwrap_err();
                assert_eq!(err, Abort::validation());
                // The address is free to attribute (no extra atomics);
                // the committer heuristic needs the gated stamp.
                assert_eq!(err.conflict().addr(), Some(a));
                assert_eq!(err.conflict().by(), spans.then(thread_token));
            }
        }
        check(GlobalClock::default());
        check(ShardedClock::new(4));
    }
}
