//! TL2 and S-TL2 (the paper's Algorithm 7).
//!
//! TL2 [Dice, Shalev, Shavit, DISC 2006] validates reads through a table
//! of **ownership records** ([`orec::OrecTable`]): each committed write
//! stamps its orecs with the commit timestamp, and a read is consistent if
//! its orec is unlocked and not newer than the transaction's start
//! snapshot. Writers lock only their write-set orecs, so disjoint commits
//! proceed concurrently (unlike NOrec's single global lock).
//!
//! S-TL2 adds:
//!
//! * a **compare-set** holding semantic `(addr, op, operand)` entries,
//!   validated by *re-evaluating the relation* rather than by version
//!   comparison;
//! * a **three-phase execution**: before the first plain read ("phase 1")
//!   a `cmp` that observes a too-new orec may *extend the snapshot* after
//!   revalidating the whole compare-set (Algorithm 7 lines 19–25), and may
//!   politely wait on locked orecs instead of aborting; after the first
//!   plain read ("phase 2") `cmp` validates exactly like a read, but its
//!   entry still gets the semantic treatment at commit;
//! * a **CAS-based commit timestamp** instead of fetch-and-add: the
//!   compare-set must be revalidated if any other writer slips a commit
//!   in during `ValidateCompareSet` (lines 68–72), which the CAS detects.
//!
//! Note on Algorithm 7 line 73 (`if start_version + 1 ≠ time`): read
//! against the original TL2 this is the "no concurrent commits since
//! start" fast path; with `time` sampled *before* the CAS the equivalent
//! skip condition is `start_version == time`, which is what we implement.

pub mod orec;

use crate::error::Abort;
use crate::heap::{Addr, Heap, LINE_BYTES};
use crate::ops::CmpOp;
use crate::sched::{self, Fault};
use crate::sets::{ReadEntry, Scratch, ScratchBox};
use crate::stm::Engine;
use crate::telemetry::PhaseRecorder;
use crate::util::SpinWait;
use crate::wal::CommitLog;
use orec::{OrecTable, OrecWord};
use std::sync::atomic::{AtomicU64, Ordering};

/// Global state shared by all TL2-family transactions of one
/// [`crate::Stm`]: the version clock and the orec table.
pub struct Tl2Global {
    clock: VersionClock,
    orecs: OrecTable,
}

/// The TL2 version clock with its attribution stamp, in a 128-byte
/// block of its own ([`LINE_BYTES`], the adjacent-line pair): every
/// S-TL2 writer CASes `timestamp`, and every barrier reads the orec
/// table's base and mask and the heap's, which must not ride on the
/// line a foreign commit just took.
#[repr(align(128))]
struct VersionClock {
    timestamp: AtomicU64,
    /// Thread token of the most recent committed writer, stamped while
    /// its commit locks are still held — but only when the flight
    /// recorder ([`crate::TelemetryLevel::Spans`]) is on. Validation
    /// aborts read it as a "who probably invalidated me" heuristic;
    /// 0 (never stamped) is [`crate::Conflict`]'s "unknown" sentinel.
    committer: AtomicU64,
}

const _: () = assert!(
    std::mem::align_of::<VersionClock>() == LINE_BYTES
        && std::mem::size_of::<VersionClock>() == LINE_BYTES
);

impl Tl2Global {
    /// Create global TL2 state with (at least) `orec_count` orecs.
    pub fn new(orec_count: usize) -> Tl2Global {
        Tl2Global {
            clock: VersionClock {
                timestamp: AtomicU64::new(0),
                committer: AtomicU64::new(0),
            },
            orecs: OrecTable::new(orec_count),
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.clock.timestamp.load(Ordering::SeqCst)
    }

    #[inline]
    fn try_advance(&self, from: u64) -> bool {
        self.clock
            .timestamp
            .compare_exchange(from, from + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Current global version clock (diagnostics/tests).
    pub fn time(&self) -> u64 {
        self.now()
    }

    /// Era bump for an adaptive mode switch ([`crate::adapt`]): advance
    /// the version clock past every orec stamp. Called only on a
    /// quiescent runtime (no orec locked), so transactions of the new
    /// era start with `rv` strictly newer than all pre-switch versions.
    pub(crate) fn reseed(&self) {
        self.clock.timestamp.fetch_add(1, Ordering::SeqCst);
    }
}

/// One TL2 / S-TL2 transaction attempt. Used through [`crate::stm::Tx`].
pub struct Tl2Tx<'a> {
    heap: &'a Heap,
    global: &'a Tl2Global,
    owner: u64,
    lock_wait_spins: u32,
    start_version: u64,
    /// Still in phase 1: the read-set is empty (kept beside it, so that
    /// a `cmp` asks no buffer).
    phase1: bool,
    /// The read-set (`orecs`), the compare-set (`entries` — semantic
    /// entries, a separate set, §4.2), the write-set and the commit's
    /// lock lists, used in place; handed back to the thread when this
    /// context drops.
    scratch: ScratchBox,
    /// Flight-recorder phase marks; inert (its enabled check is the
    /// materialised `level >= Spans` guard) unless
    /// `enable_spans` installed a live recorder.
    phases: PhaseRecorder,
    /// Stamp/read the global committer word for abort attribution.
    /// Only true at `TelemetryLevel::Spans`.
    record_committer: bool,
    /// The write-ahead commit log, when the owning [`crate::Stm`] is
    /// durable.
    wal: Option<&'a CommitLog>,
}

impl<'a> Tl2Tx<'a> {
    /// A context for the thread whose [token](crate::util::thread_token)
    /// is `owner`, the name its commit locks carry.
    pub(crate) fn new(
        heap: &'a Heap,
        global: &'a Tl2Global,
        owner: u64,
        lock_wait_spins: u32,
    ) -> Self {
        Tl2Tx {
            heap,
            global,
            owner,
            lock_wait_spins,
            start_version: 0,
            phase1: false,
            scratch: ScratchBox::take(),
            phases: PhaseRecorder::disabled(),
            record_committer: false,
            wal: None,
        }
    }

    #[inline]
    fn orec_index(&self, addr: Addr) -> usize {
        self.global.orecs.index_of(addr.index())
    }

    /// Spin until orec `oi` is unlocked, up to the configured patience
    /// (the §4.2 starvation-avoidance timeout). A timeout is attributed
    /// to the orec and to the lock holder we last saw on it.
    #[cold]
    fn wait_unlocked(&self, oi: usize) -> Result<OrecWord, Abort> {
        let mut wait = SpinWait::new();
        let mut holder = 0;
        for _ in 0..self.lock_wait_spins {
            let o = self.global.orecs.load(oi);
            if !o.locked_by_other(self.owner) {
                return Ok(o);
            }
            holder = o.owner();
            sched::spin();
            wait.spin();
        }
        Err(Abort::timeout().at_orec(oi).by(holder))
    }

    /// A validation abort attributed to orec `oi` plus, when the flight
    /// recorder is on, the most-recent-committer heuristic (see
    /// [`Tl2Global::committer`]).
    #[cold]
    fn validation_at(&self, oi: usize) -> Abort {
        let mut abort = Abort::validation().at_orec(oi);
        if self.record_committer {
            abort = abort.by(self.global.clock.committer.load(Ordering::Relaxed));
        }
        abort
    }

    /// The abort of a read that met `word`, another committer's lock.
    #[cold]
    fn locked_at(&self, addr: Addr, oi: usize, word: OrecWord) -> Abort {
        Abort::locked().at_addr(addr).at_orec(oi).by(word.owner())
    }

    /// The core TL2 consistent read: value is valid if its orec was
    /// unlocked and not newer than `start_version`, unchanged across the
    /// data load. Appends the orec to the read-set, which ends phase 1.
    #[inline(always)]
    fn read_validated(&mut self, addr: Addr) -> Result<i64, Abort> {
        let oi = self.orec_index(addr);
        sched::point(sched::PointKind::Tl2Read);
        let l1 = self.global.orecs.load(oi);
        if l1.is_locked() {
            debug_assert!(
                l1.owner() != self.owner,
                "read while holding own commit locks"
            );
            return Err(self.locked_at(addr, oi, l1));
        }
        let val = self.heap.tm_load(addr);
        sched::point(sched::PointKind::Tl2ReadWindow);
        let l2 = self.global.orecs.load(oi);
        if l1 != l2 || l1.version() > self.start_version {
            return Err(self.validation_at(oi).at_addr(addr));
        }
        self.scratch.orecs.push(oi);
        self.phase1 = false;
        Ok(val)
    }

    /// Phase-1 tolerant read of one word: waits out locks and retries
    /// version changes instead of aborting (Algorithm 7 lines 11–16).
    /// Returns the value and the orec word it was read under.
    #[inline(always)]
    fn patient_read(&self, addr: Addr) -> Result<(i64, OrecWord), Abort> {
        let oi = self.orec_index(addr);
        loop {
            sched::point(sched::PointKind::Tl2Read);
            let mut l1 = self.global.orecs.load(oi);
            if l1.is_locked() {
                l1 = self.wait_unlocked(oi).map_err(|e| e.at_addr(addr))?;
                if l1.is_locked() {
                    // locked by self — cannot happen outside commit
                    return Err(Abort::locked().at_addr(addr).at_orec(oi));
                }
            }
            let val = self.heap.tm_load(addr);
            sched::point(sched::PointKind::Tl2ReadWindow);
            let l2 = self.global.orecs.load(oi);
            if l1 == l2 {
                return Ok((val, l1));
            }
            sched::spin();
            std::hint::spin_loop(); // transient: l1 != l2 resolves fast
        }
    }

    /// Extend the snapshot after a phase-1 `cmp` observed a too-new orec:
    /// revalidate the compare-set, retrying while other commits interleave
    /// (Algorithm 7 lines 19–25).
    #[cold]
    fn extend_snapshot(&mut self) -> Result<(), Abort> {
        loop {
            sched::point(sched::PointKind::Tl2Extend);
            let time = self.global.now();
            self.validate_compare_set()?;
            if time == self.global.now() {
                self.start_version = self.start_version.max(time);
                return Ok(());
            }
        }
    }

    /// Phase-2 consistent load that does *not* append to the read-set
    /// (the caller appends a compare entry instead): consistency with
    /// previous reads is mandatory, the snapshot can no longer move
    /// (Algorithm 7 lines 26–34).
    #[inline(always)]
    fn phase2_load(&self, addr: Addr) -> Result<i64, Abort> {
        let oi = self.orec_index(addr);
        sched::point(sched::PointKind::Tl2Read);
        let l1 = self.global.orecs.load(oi);
        if l1.locked_by_other(self.owner) {
            return Err(self.locked_at(addr, oi, l1));
        }
        let val = self.heap.tm_load(addr);
        sched::point(sched::PointKind::Tl2ReadWindow);
        let l2 = self.global.orecs.load(oi);
        if l1 != l2 || (!l1.is_locked() && l1.version() > self.start_version) {
            return Err(self.validation_at(oi).at_addr(addr));
        }
        Ok(val)
    }

    /// `ValidateCompareSet` (Algorithm 7 lines 56–65): semantic re-check
    /// of entries whose orecs moved past `start_version`; waits out locks
    /// held by other committers (with the starvation timeout).
    fn validate_compare_set(&self) -> Result<(), Abort> {
        for e in &self.scratch.entries {
            let (a0, a1) = e.addrs();
            let mut changed = false;
            for addr in std::iter::once(a0).chain(a1) {
                let oi = self.orec_index(addr);
                let mut o = self.global.orecs.load(oi);
                if o.locked_by_other(self.owner) {
                    o = self.wait_unlocked(oi).map_err(|err| err.at_addr(addr))?;
                }
                if o.is_locked() || o.version() > self.start_version {
                    // Locked by self (commit-time orec aliasing) or newer
                    // than our snapshot: value may have changed.
                    changed = true;
                }
            }
            if changed && !e.holds(self.heap) {
                return Err(self.validation_at(self.orec_index(a0)).at_addr(a0));
            }
        }
        Ok(())
    }

    /// `ValidateReadSet` (Algorithm 7 lines 51–55): version-based, aborts
    /// on any moved orec. A self-locked read orec is checked against its
    /// pre-lock word, which only needs looking up when some orec this
    /// commit locked was newer than `start_version` (`newest_locked`, the
    /// newest pre-lock version): otherwise every pre-lock version passes.
    fn validate_read_set(&self, newest_locked: u64) -> Result<(), Abort> {
        let look_up = newest_locked > self.start_version;
        for &oi in &self.scratch.orecs {
            let o = self.global.orecs.load(oi);
            if o.locked_by_other(self.owner) {
                // Only the orec is known here: Algorithm 7 line 48 keeps
                // orec indices, not addresses, in the read-set.
                return Err(Abort::locked().at_orec(oi).by(o.owner()));
            }
            let version = if !o.is_locked() {
                o.version()
            } else if look_up {
                // Locked by us at commit: consult the pre-lock word.
                // `locked` is in acquisition order, so scan it.
                let (_, pre) = self
                    .scratch
                    .locked
                    .iter()
                    .find(|&&(i, _)| i == oi)
                    .expect("self-locked orec missing from lock list");
                pre.version()
            } else {
                continue;
            };
            if version > self.start_version {
                return Err(self.validation_at(oi));
            }
        }
        Ok(())
    }

    /// Lock the orec of every write-set address and return the newest
    /// pre-lock version among them. TL2 may take them in any order; this
    /// pass takes them in write-set order and never waits: it loads each
    /// orec, skips one this commit already holds (two written addresses
    /// on one orec) and CASes the others. The first orec another
    /// committer holds, or a lost CAS, sends the commit to
    /// [`Tl2Tx::acquire_ordered`], so only a commit that meets a lock
    /// pays for sorting its orecs. No committer waits while it holds an
    /// orec, except in ascending order (DESIGN.md §8.2).
    fn acquire_write_locks(&mut self) -> Result<u64, Abort> {
        let (orecs, owner) = (&self.global.orecs, self.owner);
        let Scratch { writes, locked, .. } = &mut *self.scratch;
        let mut newest = 0;
        let contended = 'pass: {
            for (addr, _) in writes.iter() {
                let oi = orecs.index_of(addr.index());
                sched::point(sched::PointKind::Tl2LockCas);
                let o = orecs.load(oi);
                if o.is_locked() {
                    if o.owner() == owner {
                        continue;
                    }
                    break 'pass true;
                }
                if !orecs.try_lock(oi, o, owner) {
                    break 'pass true;
                }
                locked.push((oi, o));
                newest = newest.max(o.version());
            }
            false
        };
        if contended {
            return self.acquire_ordered();
        }
        Ok(newest)
    }

    /// The contended path of [`Tl2Tx::acquire_write_locks`]: give back
    /// every orec taken, then lock the distinct write-set orecs in
    /// ascending index order, waiting on each up to the configured
    /// patience. Failure rolls everything back.
    #[cold]
    #[inline(never)]
    fn acquire_ordered(&mut self) -> Result<u64, Abort> {
        self.release_locks_rollback();
        let orecs = &self.global.orecs;
        let Scratch {
            writes, targets, ..
        } = &mut *self.scratch;
        targets.clear();
        targets.extend(writes.iter().map(|(addr, _)| orecs.index_of(addr.index())));
        targets.sort_unstable();
        targets.dedup();
        let mut newest = 0;
        for at in 0..self.scratch.targets.len() {
            let oi = self.scratch.targets[at];
            let mut acquired = false;
            let mut wait = SpinWait::new();
            let mut holder = 0;
            sched::point(sched::PointKind::Tl2LockCas);
            for _ in 0..self.lock_wait_spins {
                let o = self.global.orecs.load(oi);
                if o.is_locked() {
                    debug_assert!(o.owner() != self.owner);
                    holder = o.owner();
                    sched::spin();
                    wait.spin();
                    continue;
                }
                if self.global.orecs.try_lock(oi, o, self.owner) {
                    self.scratch.locked.push((oi, o));
                    newest = newest.max(o.version());
                    acquired = true;
                    break;
                }
            }
            if !acquired {
                self.release_locks_rollback();
                return Err(Abort::lock_acquire().at_orec(oi).by(holder));
            }
        }
        Ok(newest)
    }

    /// Roll back: restore every locked orec to its pre-lock word.
    fn release_locks_rollback(&mut self) {
        for (oi, old) in self.scratch.locked.drain(..) {
            self.global.orecs.store(oi, old);
        }
    }

    /// Diagnostics: current start version (observes snapshot extension).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn start_version(&self) -> u64 {
        self.start_version
    }
}

impl<'a> Engine<'a> for Tl2Tx<'a> {
    fn enable_wal(&mut self, log: &'a CommitLog) {
        self.wal = Some(log);
    }

    fn enable_spans(&mut self, recorder: PhaseRecorder, token: u64) {
        // The committer word TL2 stamps is `owner`, the same token.
        debug_assert_eq!(token, self.owner);
        self.phases = recorder;
        self.record_committer = recorder.is_enabled();
    }

    fn phases(&self) -> PhaseRecorder {
        self.phases
    }

    /// Begin / re-begin: clear metadata, snapshot the clock (Algorithm 7
    /// `Start`).
    fn begin(&mut self) {
        debug_assert!(
            self.scratch.locked.is_empty(),
            "locks leaked across attempts"
        );
        self.scratch.orecs.clear();
        self.scratch.entries.clear();
        self.scratch.clear_writes();
        self.phase1 = true;
        self.phases.reset();
        sched::point(sched::PointKind::Tl2Begin);
        self.start_version = self.global.now();
    }

    #[inline(always)]
    fn scratch(&mut self) -> &mut ScratchBox {
        &mut self.scratch
    }

    /// `TM_READ` on live memory (Algorithm 7 lines 40–50).
    #[inline(always)]
    fn read_live(&mut self, addr: Addr) -> Result<i64, Abort> {
        self.read_validated(addr)
    }

    /// `Compare` on live memory (Algorithm 7): the recorded entry gets
    /// the semantic treatment at commit whichever phase read it, and a
    /// phase-1 read of a too-new orec extends the snapshot over it.
    #[inline(always)]
    fn cmp_live(&mut self, addr: Addr, op: CmpOp, operand: i64) -> Result<bool, Abort> {
        let (val, newer) = if self.phase1 {
            let (val, l1) = self.patient_read(addr)?;
            (val, l1.version() > self.start_version)
        } else {
            (self.phase2_load(addr)?, false)
        };
        let result = op.eval(val, operand);
        self.scratch.entries.push(ReadEntry::Val {
            addr,
            op: op.recorded(result),
            operand,
        });
        if newer {
            self.extend_snapshot()?;
        }
        Ok(result)
    }

    #[inline(always)]
    fn cmp_pair_live(&mut self, a: Addr, op: CmpOp, b: Addr) -> Result<bool, Abort> {
        let (va, vb, newer) = if self.phase1 {
            let (va, l1a) = self.patient_read(a)?;
            let (vb, l1b) = self.patient_read(b)?;
            let newest = l1a.version().max(l1b.version());
            (va, vb, newest > self.start_version)
        } else {
            (self.phase2_load(a)?, self.phase2_load(b)?, false)
        };
        let result = op.eval(va, vb);
        self.scratch.entries.push(ReadEntry::Pair {
            a,
            op: op.recorded(result),
            b,
        });
        if newer {
            self.extend_snapshot()?;
        }
        Ok(result)
    }

    /// Commit (Algorithm 7 lines 66–77). Read-only transactions (possibly
    /// with compare entries) commit immediately: every entry was validated
    /// against `start_version` when recorded, so the transaction
    /// serialises at its (possibly extended) snapshot.
    fn commit(&mut self) -> Result<(), Abort> {
        if self.scratch.writes.is_empty() {
            return Ok(());
        }
        self.phases.mark_lock();
        let newest_locked = self.acquire_write_locks()?;

        // CAS-based timestamp advance with compare-set revalidation
        // (lines 68–72). The CAS — rather than fetch-and-add — guarantees
        // no other writer committed between the semantic validation and
        // our serialisation point.
        self.phases.mark_validate();
        let time = loop {
            sched::point(sched::PointKind::Tl2CommitCas);
            let time = self.global.now();
            if time != self.start_version && !sched::fault(Fault::Stl2SkipCompareSet) {
                if let Err(e) = self.validate_compare_set() {
                    self.release_locks_rollback();
                    return Err(e);
                }
            }
            if self.global.try_advance(time) {
                break time;
            }
        };
        let write_version = time + 1;

        if time != self.start_version && !sched::fault(Fault::Tl2SkipReadValidation) {
            if let Err(e) = self.validate_read_set(newest_locked) {
                self.release_locks_rollback();
                return Err(e);
            }
        }

        // Validation passed, locks held, nothing stored yet. A refused
        // WAL append rolls back cleanly — the advanced clock is harmless
        // without a stamped orec (other transactions at worst revalidate
        // spuriously). From the write-back point through the lock release
        // the write-back is one atomic step of the virtual schedule.
        let (global, owner, stamp) = (self.global, self.owner, self.record_committer);
        let Scratch {
            writes,
            resolved,
            locked,
            ..
        } = &mut *self.scratch;
        writes.write_back(
            self.heap,
            self.wal,
            resolved,
            &mut self.phases,
            || sched::point(sched::PointKind::Tl2Writeback),
            |committed| {
                if committed && stamp {
                    // Still under our commit locks: a reader whose
                    // validation fails against `write_version` also
                    // observes this token.
                    global.clock.committer.store(owner, Ordering::Relaxed);
                }
                for (oi, old) in locked.drain(..) {
                    let word = if committed {
                        OrecWord::unlocked(write_version)
                    } else {
                        old
                    };
                    global.orecs.store(oi, word);
                }
            },
        )
    }

    /// Abort cleanup: no locks are held outside `commit`, which rolls
    /// back on every failure it returns — this covers the one it does
    /// not return from, a panic unwinding out of it.
    fn rollback(&mut self) {
        self.release_locks_rollback();
    }

    fn compare_set_len(&self) -> usize {
        self.scratch.entries.len()
    }

    fn read_set_len(&self) -> usize {
        self.scratch.orecs.len()
    }

    fn write_set_len(&self) -> usize {
        self.scratch.writes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpCounts;
    use crate::util::thread_token;

    fn setup() -> (Heap, Tl2Global) {
        (Heap::new(256), Tl2Global::new(256))
    }

    fn tx<'a>(heap: &'a Heap, global: &'a Tl2Global) -> Tl2Tx<'a> {
        let mut t = Tl2Tx::new(heap, global, thread_token(), 64);
        t.begin();
        t
    }

    fn commit_write(heap: &Heap, global: &Tl2Global, addr: Addr, v: i64) {
        let mut t = tx(heap, global);
        t.write(addr, v);
        t.commit().unwrap();
    }

    #[test]
    fn read_write_roundtrip() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut t = tx(&heap, &global);
        t.write(a, 9);
        assert_eq!(t.read(a, &mut ops).unwrap(), 9);
        t.commit().unwrap();
        assert_eq!(heap.load(a), 9);
        assert_eq!(global.time(), 1, "one writer commit advances the clock");
    }

    #[test]
    fn barriers_tell_filter_twins_apart() {
        let (heap, global) = setup();
        crate::norec::tests::filter_twin_suite(&heap, || tx(&heap, &global));
    }

    #[test]
    fn stale_read_aborts() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &global);
        commit_write(&heap, &global, a, 5); // newer than t1's snapshot
        assert_eq!(t1.read(a, &mut ops), Err(Abort::validation()));
    }

    #[test]
    fn phase1_cmp_extends_snapshot_over_newer_commit() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        heap.store(x, 5);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &global);
        let sv0 = t1.start_version();
        commit_write(&heap, &global, x, 7); // bumps clock past t1's snapshot
                                            // Phase-1 cmp sees the newer orec but extends instead of aborting.
        assert!(t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        assert!(t1.start_version() > sv0, "snapshot must have been extended");
        assert_eq!(t1.compare_set_len(), 1);
        assert_eq!(t1.read_set_len(), 0);
    }

    #[test]
    fn phase2_cmp_on_newer_orec_aborts() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        let y = heap.alloc(1);
        heap.store(x, 5);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &global);
        let _ = t1.read(y, &mut ops).unwrap(); // enter phase 2
        commit_write(&heap, &global, x, 7);
        assert_eq!(t1.cmp(x, CmpOp::Gt, 0, &mut ops), Err(Abort::validation()));
    }

    #[test]
    fn commit_semantically_revalidates_compare_set() {
        // A compare recorded in phase 1 stays valid through a concurrent
        // commit that preserves the relation, and the writer commits.
        let (heap, global) = setup();
        let x = heap.alloc(1);
        let out = heap.alloc(1);
        heap.store(x, 5);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &global);
        assert!(t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        commit_write(&heap, &global, x, 6); // still > 0
        t1.write(out, 1);
        t1.commit()
            .expect("semantic compare-set validation must pass");
        assert_eq!(heap.load(out), 1);
    }

    #[test]
    fn commit_aborts_when_compare_relation_flips() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        let out = heap.alloc(1);
        heap.store(x, 5);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &global);
        assert!(t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap());
        commit_write(&heap, &global, x, -1); // relation flipped
        t1.write(out, 1);
        assert_eq!(t1.commit(), Err(Abort::validation()));
        assert_eq!(heap.load(out), 0, "no write-back on abort");
        // All locks must have been rolled back.
        let oi = global.orecs.index_of(out.index());
        assert!(!global.orecs.load(oi).is_locked());
    }

    #[test]
    fn commit_aborts_when_read_set_is_stale() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        let out = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &global);
        let _ = t1.read(x, &mut ops).unwrap();
        commit_write(&heap, &global, x, 3);
        t1.write(out, 1);
        assert_eq!(t1.commit(), Err(Abort::validation()));
    }

    #[test]
    fn commit_revalidates_a_large_read_set_it_also_locked() {
        // Reading and writing the same cells self-locks every read orec;
        // a concurrent clock advance then sends commit through
        // `validate_read_set`, which must find each orec's pre-lock word
        // among 2 000 held locks.
        const CELLS: usize = 2_000;
        let (heap, global) = (Heap::new(1 << 12), Tl2Global::new(1 << 12));
        let cells = heap.alloc(CELLS);
        let bystander = heap.alloc(1);
        let mut ops = OpCounts::default();
        let read_and_write_all = |t: &mut Tl2Tx<'_>, ops: &mut OpCounts| {
            for i in 0..CELLS {
                let v = t.read(cells.offset(i), ops).unwrap();
                t.write(cells.offset(i), v + 1);
            }
        };

        let mut t = tx(&heap, &global);
        read_and_write_all(&mut t, &mut ops);
        commit_write(&heap, &global, bystander, 1);
        t.commit().expect("no read orec moved");
        assert_eq!(heap.load(cells), 1);
        assert_eq!(heap.load(cells.offset(CELLS - 1)), 1);

        // The word looked up is the right orec's: a commit to one read
        // cell makes exactly that pre-lock version too new.
        for moved in [0, CELLS / 2, CELLS - 1] {
            let mut t = tx(&heap, &global);
            read_and_write_all(&mut t, &mut ops);
            commit_write(&heap, &global, cells.offset(moved), 7);
            let err = t.commit().unwrap_err();
            assert_eq!(err, Abort::validation());
            let orec = global.orecs.index_of(cells.offset(moved).index());
            assert_eq!(err.conflict().orec(), Some(orec as u32), "cell {moved}");
            assert_eq!(heap.load(cells.offset(moved)), 7, "no write-back on abort");
            assert!(!global.orecs.load(orec).is_locked(), "locks rolled back");
        }
    }

    #[test]
    fn a_foreign_lock_sends_the_commit_to_the_ordered_path() {
        // The first pass takes `a`'s orec, meets `b`'s under another
        // token and gives `a` back; only the ordered path waits, so the
        // timeout (`LockAcquire`, by the holder) is its verdict.
        let (heap, global) = setup();
        let a = heap.alloc(1);
        let b = heap.alloc(1);
        let (oa, ob) = (
            global.orecs.index_of(a.index()),
            global.orecs.index_of(b.index()),
        );
        let (pre_a, pre_b) = (global.orecs.load(oa), global.orecs.load(ob));
        assert!(global.orecs.try_lock(ob, pre_b, 999));
        let mut t = Tl2Tx::new(&heap, &global, thread_token(), 16);
        t.begin();
        t.write(a, 1);
        t.write(b, 2);
        let err = t.commit().unwrap_err();
        assert_eq!(err, Abort::lock_acquire());
        assert_eq!(err.conflict().orec(), Some(ob as u32));
        assert_eq!(err.conflict().by(), Some(999));
        assert_eq!(global.orecs.load(oa), pre_a, "first-pass lock given back");
        assert!(global.orecs.load(ob).locked_by_other(t.owner));
        assert_eq!((heap.load(a), heap.load(b)), (0, 0), "nothing written");
        global.orecs.store(ob, pre_b);
        t.begin();
        t.write(a, 1);
        t.write(b, 2);
        t.commit().expect("the lock is gone");
        assert_eq!((heap.load(a), heap.load(b)), (1, 2));
    }

    #[test]
    fn aliasing_addresses_lock_their_orec_once() {
        // Two orecs: the words two apart share one.
        let (heap, global) = (Heap::new(64), Tl2Global::new(2));
        let x = heap.alloc(3);
        let y = x.offset(2);
        let oi = global.orecs.index_of(x.index());
        assert_eq!(global.orecs.index_of(y.index()), oi);
        let mut t = tx(&heap, &global);
        t.write(x, 1);
        t.write(y, 2);
        assert_eq!(t.acquire_write_locks(), Ok(0));
        assert_eq!(t.scratch.locked.as_slice(), &[(oi, OrecWord::unlocked(0))]);
        assert!(global.orecs.load(oi).is_locked());
        t.release_locks_rollback();
        assert_eq!(global.orecs.load(oi), OrecWord::unlocked(0));
        t.commit().unwrap();
        assert_eq!((heap.load(x), heap.load(y)), (1, 2));
        assert_eq!(global.orecs.load(oi), OrecWord::unlocked(global.time()));
    }

    #[test]
    fn a_self_locked_read_orec_is_checked_against_its_pre_lock_version() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        let y = heap.alloc(1);
        let mut ops = OpCounts::default();
        // `x` moved after it was read: the commit locks it over a version
        // newer than its snapshot and must abort.
        let mut t = tx(&heap, &global);
        let v = t.read(x, &mut ops).unwrap();
        commit_write(&heap, &global, x, 5);
        t.write(x, v + 1);
        let err = t.commit().unwrap_err();
        assert_eq!(err, Abort::validation());
        let ox = global.orecs.index_of(x.index());
        assert_eq!(err.conflict().orec(), Some(ox as u32));
        assert_eq!(heap.load(x), 5, "no write-back on abort");
        assert!(!global.orecs.load(ox).is_locked(), "lock rolled back");
        // Only the blind write's orec moved: the read orec is looked up,
        // found unchanged, and the commit goes through.
        let mut t = tx(&heap, &global);
        let v = t.read(x, &mut ops).unwrap();
        commit_write(&heap, &global, y, 7);
        t.write(y, 8);
        t.write(x, v + 1);
        t.commit().expect("the read orec did not move");
        assert_eq!((heap.load(x), heap.load(y)), (6, 8));
    }

    #[test]
    fn deferred_inc_has_no_read_set_and_never_conflicts() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        heap.store(x, 100);
        let mut t1 = tx(&heap, &global);
        t1.inc(x, 1);
        commit_write(&heap, &global, x, 200); // concurrent overwrite
        t1.commit().expect("inc-only transaction validates nothing");
        assert_eq!(heap.load(x), 201);
    }

    #[test]
    fn promote_in_tl2_moves_to_phase2() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        heap.store(x, 10);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &global);
        t1.inc(x, 5);
        assert_eq!(t1.read(x, &mut ops).unwrap(), 15);
        assert_eq!(ops.promotes, 1);
        assert_eq!(t1.read_set_len(), 1, "promotion performs a plain read");
        t1.commit().unwrap();
        assert_eq!(heap.load(x), 15);
    }

    #[test]
    fn locked_orec_times_out_in_phase1() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        let oi = global.orecs.index_of(x.index());
        let pre = global.orecs.load(oi);
        assert!(global.orecs.try_lock(oi, pre, 999)); // stuck foreign lock
        let mut ops = OpCounts::default();
        let mut t1 = Tl2Tx::new(&heap, &global, thread_token(), 16);
        t1.begin();
        assert_eq!(t1.cmp(x, CmpOp::Gt, 0, &mut ops), Err(Abort::timeout()));
        global.orecs.store(oi, pre);
    }

    #[test]
    fn disjoint_writers_commit_with_distinct_versions() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        let b = heap.alloc(1);
        commit_write(&heap, &global, a, 1);
        commit_write(&heap, &global, b, 2);
        let oa = global.orecs.load(global.orecs.index_of(a.index()));
        let ob = global.orecs.load(global.orecs.index_of(b.index()));
        assert_eq!(oa.version(), 1);
        assert_eq!(ob.version(), 2);
    }

    #[test]
    fn stale_read_attributes_address_and_orec() {
        let (heap, global) = setup();
        let a = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &global);
        commit_write(&heap, &global, a, 5);
        let err = t1.read(a, &mut ops).unwrap_err();
        assert_eq!(err, Abort::validation());
        assert_eq!(err.conflict().addr(), Some(a));
        assert_eq!(
            err.conflict().orec(),
            Some(global.orecs.index_of(a.index()) as u32)
        );
        assert_eq!(
            err.conflict().by(),
            None,
            "committer heuristic is Spans-only"
        );
    }

    #[test]
    fn validation_abort_attributes_committer_under_spans() {
        use crate::telemetry::PhaseRecorder;
        let (heap, global) = setup();
        let a = heap.alloc(1);
        let out = heap.alloc(1);
        let mut ops = OpCounts::default();
        let mut t1 = Tl2Tx::new(&heap, &global, thread_token(), 64);
        t1.enable_spans(
            PhaseRecorder::enabled(std::time::Instant::now()),
            thread_token(),
        );
        t1.begin();
        let _ = t1.read(a, &mut ops).unwrap();
        // Concurrent commit with the recorder on stamps the committer.
        let mut t2 = Tl2Tx::new(&heap, &global, thread_token(), 64);
        t2.enable_spans(
            PhaseRecorder::enabled(std::time::Instant::now()),
            thread_token(),
        );
        t2.begin();
        t2.write(a, 3);
        t2.commit().unwrap();
        t1.write(out, 1);
        let err = t1.commit().unwrap_err();
        assert_eq!(err, Abort::validation());
        assert_eq!(
            err.conflict().orec(),
            Some(global.orecs.index_of(a.index()) as u32)
        );
        assert_eq!(err.conflict().by(), Some(thread_token()));
    }

    #[test]
    fn timeout_attributes_lock_holder() {
        let (heap, global) = setup();
        let x = heap.alloc(1);
        let oi = global.orecs.index_of(x.index());
        let pre = global.orecs.load(oi);
        assert!(global.orecs.try_lock(oi, pre, 999)); // stuck foreign lock
        let mut ops = OpCounts::default();
        let mut t1 = Tl2Tx::new(&heap, &global, thread_token(), 16);
        t1.begin();
        let err = t1.cmp(x, CmpOp::Gt, 0, &mut ops).unwrap_err();
        assert_eq!(err, Abort::timeout());
        assert_eq!(err.conflict().addr(), Some(x));
        assert_eq!(err.conflict().orec(), Some(oi as u32));
        assert_eq!(err.conflict().by(), Some(999));
        global.orecs.store(oi, pre);
    }

    #[test]
    fn cmp_addr_pair_validates_both_orecs() {
        let (heap, global) = setup();
        let h = heap.alloc(1);
        let t = heap.alloc(1);
        let out = heap.alloc(1);
        heap.store(h, 3);
        heap.store(t, 9);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &global);
        assert!(t1.cmp_addr(h, CmpOp::Neq, t, &mut ops).unwrap());
        commit_write(&heap, &global, t, 11); // relation preserved
        t1.write(out, 1);
        t1.commit().unwrap();

        let mut t2 = tx(&heap, &global);
        assert!(t2.cmp_addr(h, CmpOp::Neq, t, &mut ops).unwrap());
        commit_write(&heap, &global, h, 11); // h == t now
        t2.write(out, 2);
        assert_eq!(t2.commit(), Err(Abort::validation()));
    }
}
