//! The sharded commit clock of the NOrec family.
//!
//! Plain NOrec serialises every writer commit through **one** global
//! sequence lock ([`crate::norec::GlobalClock`]), and every reader
//! revalidates its whole read-set whenever that word moves. The sharded
//! clock — the [`CommitClock`] selected by
//! [`clock_shards`](crate::StmConfig::clock_shards) above one — splits
//! the single word into `2^k` per-shard sequence locks (each on its own
//! 128-byte line, like the telemetry stat shards), with heap addresses
//! mapped to shards at cache-line granularity:
//!
//! ```text
//! shard(addr) = (addr.index() / LINE_WORDS) & mask
//! ```
//!
//! Two consequences fall out of that mapping:
//!
//! * **Writers only contend when their write-sets share a line.** A
//!   commit acquires exactly the shards covering its write-set, in
//!   ascending index order (CAS from the validated snapshot, rolling back
//!   all acquired shards on any failure), so disjoint commits touch
//!   disjoint shard words. Under the held locks it re-validates only
//!   the *foreign read shards* — shards some read-set entry maps to and
//!   the commit does not hold: held shards cannot move, and a shard no
//!   entry maps to is neither loaded nor waited on, so disjoint commits
//!   run fully in parallel. A committer never waits while it holds a
//!   shard: on an odd foreign read shard it gives its own shards back,
//!   waits the holder out lock-free and acquires again, so two
//!   overlapping commits cannot form a wait cycle.
//! * **Readers only revalidate what moved.** Begin double-collects an
//!   all-even snapshot of the shard vector (sample every shard, then
//!   confirm none moved), so it corresponds to a real instant of the
//!   heap. A shard's sequence word covers *exactly* the addresses mapping
//!   to it, so validation re-checks only the read-set entries whose
//!   covering shards moved: a foreign commit costs O(moved entries), not
//!   O(read-set). Reads consult the single monotone write-back epoch
//!   first ([`ShardedClock::epoch`]): while it stands still, even the
//!   O(shards) vector scan is skipped.
//!
//! With `clock_shards = 1` the mapping collapses to a single word and
//! the protocol degenerates to textbook NOrec. See DESIGN.md §8 for the
//! contract both clocks meet and the opacity argument.
//!
//! The per-shard words follow the NOrec seqlock convention: even = free
//! (a timestamp), odd = a writer is committing. Timestamps only move
//! forward on commit (`+2`); a failed acquisition rolls back to the
//! pre-acquire even value, which is indistinguishable from the lock
//! never having been taken because rollback happens strictly before any
//! data write-back.

use crate::error::Abort;
use crate::heap::{Addr, LINE_WORDS};
use crate::norec::{CommitClock, Reads};
use crate::sched::{self, PointKind};
use crate::sets::{ReadEntry, Scratch, WriteSet};
use crate::util::SpinWait;
use std::sync::atomic::{AtomicU64, Ordering};

/// One shard of the commit clock, padded to its own line pair so that
/// writers bumping different shards never false-share (the same
/// `#[repr(align(128))]` treatment as [`crate::telemetry`]'s stat
/// shards).
#[repr(align(128))]
#[derive(Default)]
struct ClockShard {
    lock: AtomicU64,
}

/// The sharded commit clock: `2^k` sequence locks plus the
/// abort-attribution committer stamp shared by the shard family.
pub struct ShardedClock {
    shards: Box<[ClockShard]>,
    mask: usize,
    /// Monotone write-back epoch: bumped once per commit, after the
    /// commit holds all of its shard locks and strictly before its first
    /// data store. Readers use it as an O(1) filter — a validated
    /// snapshot saw every shard even (no write-back in progress), and
    /// any later write-back must bump this counter first, so "epoch
    /// unchanged" proves the heap is still in the snapshot's state and
    /// the O(shards) vector scan (and any entry re-checks) can be
    /// skipped. The counter never moves backwards.
    epoch: ClockShard,
    /// Most recent committer's thread token, stamped under *all* of the
    /// commit's shard locks and only at `TelemetryLevel::Spans` — same
    /// heuristic as the global clock's.
    committer: AtomicU64,
}

impl ShardedClock {
    /// Create a clock with `count` shards, rounded up to a power of two
    /// and capped at 64 — a commit keeps the set of shards it read in one
    /// word (`count = 1` is allowed and yields plain NOrec).
    pub fn new(count: usize) -> ShardedClock {
        let n = count.clamp(1, u64::BITS as usize).next_power_of_two();
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, ClockShard::default);
        ShardedClock {
            shards: v.into_boxed_slice(),
            mask: n - 1,
            epoch: ClockShard::default(),
            committer: AtomicU64::new(0),
        }
    }

    /// Number of shards (a power of two).
    #[inline]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the clock has no shards (never true; for lint symmetry).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The shard covering heap address `a`. Line granularity: all
    /// [`LINE_WORDS`] words of one cache line share a shard, so padded
    /// allocations ([`crate::heap::Heap::alloc_padded`]) also get
    /// per-node shard words.
    #[inline]
    pub fn shard_of(&self, a: Addr) -> usize {
        (a.index() / LINE_WORDS) & self.mask
    }

    /// Snapshot shard `s`'s sequence word.
    #[inline]
    pub fn load(&self, s: usize) -> u64 {
        self.shards[s].lock.load(Ordering::SeqCst)
    }

    /// Current write-back epoch (see the field docs). A reader holding a
    /// validated all-even snapshot who observes the epoch unchanged
    /// across a heap load knows the load is consistent with that
    /// snapshot: any intervening write-back would have bumped the epoch
    /// first.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.lock.load(Ordering::SeqCst)
    }

    /// Advance the write-back epoch. Committers call this exactly once,
    /// after acquiring every write shard and before the first data
    /// store; failed acquisitions that roll back never touch it.
    #[inline]
    pub fn bump_epoch(&self) {
        self.epoch.lock.fetch_add(1, Ordering::SeqCst);
    }

    /// Try to swing shard `s` from the even value `expected_even` to the
    /// odd (locked) value `expected_even + 1`.
    #[inline]
    pub fn try_acquire(&self, s: usize, expected_even: u64) -> bool {
        debug_assert_eq!(expected_even & 1, 0);
        self.shards[s]
            .lock
            .compare_exchange(
                expected_even,
                expected_even + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Store an even value into shard `s`: `snapshot + 2` after a
    /// committed write-back, or the pre-acquire `snapshot` to roll back
    /// a failed multi-shard acquisition (sound because rollback happens
    /// before any data write-back under this shard).
    #[inline]
    pub fn release(&self, s: usize, new_even: u64) {
        debug_assert_eq!(new_even & 1, 0);
        self.shards[s].lock.store(new_even, Ordering::SeqCst);
    }
}

/// One attempt's view of the shard vector. Its vectors outlive it: a
/// thread's [`Scratch`] keeps the view between transactions.
#[derive(Default)]
pub(crate) struct ShardView {
    /// Last validated shard vector (all even). Invariant: every read-set
    /// entry holds in the heap state determined by these shard values.
    snapshot: Vec<u64>,
    /// Write-back epoch sampled *before* the vector pass that produced
    /// `snapshot`. Sampling before the pass keeps the stored value
    /// stale-low, which is safe (at worst one spurious validation) —
    /// adopting a fresher epoch than the confirmed vector would let a
    /// pending write-back slip past the filter.
    epoch: u64,
    /// Bumped whenever `snapshot` changes.
    gen: u64,
    /// Sampling buffer for validation rounds.
    sample: Vec<u64>,
    /// Ascending shard indices covering the write-set (populated by
    /// `acquire`).
    wshards: Vec<usize>,
    /// Bit `s` set: shard `s` is a *foreign read shard* of the commit —
    /// some read-set entry maps to it and it is not in `wshards`
    /// (populated by `acquire`, once the read-set is final).
    foreign: u64,
}

impl ShardedClock {
    /// One validation pass: sample the vector, re-check moved entries,
    /// confirm, adopt. Without `held`, no lock is held and odd shards are
    /// waited out. With `held` — the commit's write shards locked — the
    /// pass never waits and looks only at the foreign read shards:
    /// entries in held shards are frozen since the CAS from the validated
    /// snapshot, a shard no entry maps to cannot invalidate anything, and
    /// an odd foreign read shard returns `Ok(false)` at once, because its
    /// holder may be waiting on a shard held here.
    fn validate_inner(
        &self,
        v: &mut ShardView,
        reads: &mut Reads<'_>,
        held: bool,
    ) -> Result<bool, Abort> {
        if held && v.foreign == 0 {
            return Ok(true);
        }
        reads.phases.mark_validate();
        // Shards not looked at sample as their snapshot.
        let skipped = |s: usize| held && v.foreign & (1 << s) == 0;
        let mut wait = SpinWait::new();
        'round: loop {
            sched::point(PointKind::ScNorecValidate);
            // Epoch before the vector pass (see `ShardView::epoch`).
            let epoch = self.epoch();
            for s in 0..self.len() {
                if skipped(s) {
                    v.sample[s] = v.snapshot[s];
                    continue;
                }
                let word = self.load(s);
                if word & 1 != 0 {
                    if held {
                        return Ok(false);
                    }
                    sched::spin();
                    wait.spin();
                    continue 'round;
                }
                v.sample[s] = word;
            }
            let moved = v.sample != v.snapshot;
            if moved {
                let shard_moved = |a: Addr| {
                    let s = self.shard_of(a);
                    v.sample[s] != v.snapshot[s]
                };
                reads.recheck(|e: &ReadEntry| {
                    let (a, b) = e.addrs();
                    shard_moved(a) || b.is_some_and(shard_moved)
                })?;
            }
            sched::point(PointKind::ScNorecValidateRecheck);
            if (0..self.len()).any(|s| !skipped(s) && self.load(s) != v.sample[s]) {
                continue 'round;
            }
            if moved {
                v.snapshot.copy_from_slice(&v.sample);
                v.gen = v.gen.wrapping_add(1);
            }
            v.epoch = epoch;
            return Ok(true);
        }
    }

    fn release_held(&self, v: &ShardView, count: usize, committed: bool) {
        for &s in &v.wshards[..count] {
            self.release(s, v.snapshot[s] + if committed { 2 } else { 0 });
        }
    }
}

impl CommitClock for ShardedClock {
    type View = ShardView;
    const READ: PointKind = PointKind::ScNorecRead;
    const WRITEBACK: PointKind = PointKind::ScNorecWriteback;

    /// The view the thread's last sharded transaction left, resized to
    /// this clock: it may have run on a runtime with another shard count.
    fn view(&self, scratch: &mut Scratch) -> ShardView {
        let mut v = std::mem::take(&mut scratch.shards);
        for words in [&mut v.snapshot, &mut v.sample] {
            words.clear();
            words.resize(self.len(), 0);
        }
        v
    }

    fn retire(v: &mut ShardView, scratch: &mut Scratch) {
        scratch.shards = std::mem::take(v);
    }

    /// Double-collect an all-even snapshot of the shard vector.
    fn begin(&self, v: &mut ShardView) {
        let mut wait = SpinWait::new();
        loop {
            sched::point(PointKind::ScNorecBegin);
            // Epoch before the vector pass (see `ShardView::epoch`).
            let epoch = self.epoch();
            // Stop at the first odd shard: its holder is writing these
            // lines, so every extra load here slows its release.
            let all_even = (0..self.len()).all(|s| {
                v.snapshot[s] = self.load(s);
                v.snapshot[s] & 1 == 0
            });
            // Confirming pass: all shards still at the sampled values ⇒
            // there was an instant where the whole vector held at once.
            if all_even && (0..self.len()).all(|s| self.load(s) == v.snapshot[s]) {
                v.epoch = epoch;
                v.gen = v.gen.wrapping_add(1);
                return;
            }
            sched::spin();
            wait.spin();
        }
    }

    /// The quiescent read costs one epoch load beside the data load: an
    /// unchanged epoch means no acquisition, hence no write-back, since
    /// the vector was validated.
    #[inline]
    fn moved(&self, v: &ShardView) -> bool {
        self.epoch() != v.epoch
    }

    #[inline]
    fn stamp(v: &ShardView) -> u64 {
        v.gen
    }

    fn validate(&self, v: &mut ShardView, reads: &mut Reads<'_>) -> Result<(), Abort> {
        self.validate_inner(v, reads, false).map(|_| ())
    }

    fn acquire(
        &self,
        v: &mut ShardView,
        writes: &WriteSet,
        reads: &mut Reads<'_>,
    ) -> Result<(), Abort> {
        let covered = writes
            .iter()
            .fold(0u64, |set, (a, _)| set | 1 << self.shard_of(a));
        // Ascending acquisition order: two commits contending for the
        // same shard pair always race on the lower index first, so the
        // acquisition phase itself cannot deadlock.
        v.wshards.clear();
        v.wshards
            .extend((0..self.len()).filter(|s| covered & (1 << s) != 0));
        v.foreign = 0;
        for e in reads.entries {
            let (a, b) = e.addrs();
            v.foreign |= 1 << self.shard_of(a);
            if let Some(b) = b {
                v.foreign |= 1 << self.shard_of(b);
            }
        }
        v.foreign &= !covered;
        loop {
            sched::point(PointKind::ScNorecCommitAcquire);
            let held = v
                .wshards
                .iter()
                .take_while(|&&s| self.try_acquire(s, v.snapshot[s]))
                .count();
            let valid = if held == v.wshards.len() {
                self.validate_inner(v, reads, true)
            } else {
                Ok(false)
            };
            if let Ok(true) = valid {
                return Ok(());
            }
            // A stale snapshot, a busy shard or a failed re-check: give
            // every held shard back. Nothing was written back, so the
            // bounce odd→same even published no data change — and the
            // wait for the holder below runs with nothing held, so no
            // other committer can be waiting on this one.
            self.release_held(v, held, false);
            valid?;
            self.validate(v, reads)?;
        }
    }

    /// Readers' epoch fast path relies on every write-back being
    /// preceded by a bump; a failed acquisition never gets here.
    fn announce(&self) {
        self.bump_epoch();
    }

    fn release(&self, v: &ShardView, committed: bool) {
        self.release_held(v, v.wshards.len(), committed);
    }

    fn stamp_committer(&self, token: u64) {
        self.committer.store(token, Ordering::Relaxed);
    }

    fn committer(&self) -> u64 {
        self.committer.load(Ordering::Relaxed)
    }

    /// Advance every shard word by one commit's worth (keeping it
    /// even/free) and the write-back epoch.
    fn reseed(&self) {
        for s in self.shards.iter() {
            s.lock.fetch_add(2, Ordering::SeqCst);
        }
        self.bump_epoch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_to_power_of_two() {
        assert_eq!(ShardedClock::new(1).len(), 1);
        assert_eq!(ShardedClock::new(5).len(), 8);
        assert_eq!(ShardedClock::new(8).len(), 8);
        assert_eq!(ShardedClock::new(1000).len(), 64, "capped");
    }

    #[test]
    fn shard_mapping_is_line_granular() {
        let c = ShardedClock::new(4);
        // All words of line 0 share shard 0.
        for i in 0..LINE_WORDS {
            assert_eq!(c.shard_of(Addr(i as u32)), 0);
        }
        // Consecutive lines rotate through the shards.
        assert_eq!(c.shard_of(Addr(LINE_WORDS as u32)), 1);
        assert_eq!(c.shard_of(Addr((4 * LINE_WORDS) as u32)), 0);
    }

    #[test]
    fn single_shard_maps_everything_to_zero() {
        let c = ShardedClock::new(1);
        assert_eq!(c.shard_of(Addr(0)), 0);
        assert_eq!(c.shard_of(Addr(12345)), 0);
    }

    #[test]
    fn acquire_release_cycle() {
        let c = ShardedClock::new(2);
        assert_eq!(c.load(0), 0);
        assert!(c.try_acquire(0, 0));
        assert_eq!(c.load(0), 1, "odd while held");
        assert!(!c.try_acquire(0, 0), "second acquire fails");
        assert_eq!(c.load(1), 0, "other shard untouched");
        c.release(0, 2);
        assert_eq!(c.load(0), 2);
        // Rollback path: acquire then restore the pre-acquire value.
        assert!(c.try_acquire(0, 2));
        c.release(0, 2);
        assert_eq!(c.load(0), 2);
    }

    #[test]
    fn epoch_is_explicit_and_monotone() {
        let c = ShardedClock::new(2);
        assert_eq!(c.epoch(), 0);
        assert!(c.try_acquire(0, 0));
        assert_eq!(c.epoch(), 0, "acquisition alone does not move it");
        c.bump_epoch();
        assert_eq!(c.epoch(), 1, "committer bumps before write-back");
        c.release(0, 2);
        assert_eq!(c.epoch(), 1);
        c.bump_epoch();
        assert_eq!(c.epoch(), 2);
    }

    #[test]
    fn shards_are_line_padded() {
        assert_eq!(std::mem::size_of::<ClockShard>(), 128);
        assert_eq!(std::mem::align_of::<ClockShard>(), 128);
    }

    // --- the clock under the engine: what only a sharded clock does ---

    use crate::heap::Heap;
    use crate::norec::tests::{commit_write, tx};
    use crate::stats::OpCounts;
    use crate::stm::Engine;

    /// A four-shard clock over a heap whose padded allocations land on
    /// consecutive lines, hence consecutive shards.
    fn setup() -> (Heap, ShardedClock) {
        (Heap::new(LINE_WORDS * 16), ShardedClock::new(4))
    }

    #[test]
    fn commit_bumps_only_covering_shards() {
        let (heap, clock) = setup();
        let a = heap.alloc_padded(1); // line 0 → shard 0
        let b = heap.alloc_padded(1); // line 1 → shard 1
        commit_write(&heap, &clock, a, 7);
        assert_eq!(clock.load(clock.shard_of(a)), 2);
        assert_eq!(clock.load(clock.shard_of(b)), 0, "foreign shard untouched");
    }

    #[test]
    fn foreign_shard_commit_does_not_abort_reader() {
        // The per-shard win: a commit to a different line leaves the
        // reader's snapshot intact on the shard that matters, and the
        // value re-check (which would pass anyway) is skipped entirely.
        let (heap, clock) = setup();
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        heap.store(a, 5);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &clock);
        assert_eq!(t1.read(a, &mut ops).unwrap(), 5);
        commit_write(&heap, &clock, b, 9); // foreign shard
        t1.write(a, 6);
        t1.commit()
            .expect("disjoint-shard commit must not conflict");
        assert_eq!(heap.load(a), 6);
    }

    #[test]
    fn same_shard_value_revalidation_still_runs() {
        // Same line, different word: the shard moves, the value
        // re-check runs, and the unchanged word passes (NOrec value
        // semantics preserved at shard granularity).
        let (heap, clock) = setup();
        let a = heap.alloc_padded(2); // two words, one line, one shard
        let b = a.offset(1);
        heap.store(a, 5);
        let mut ops = OpCounts::default();
        let mut t1 = tx(&heap, &clock);
        assert_eq!(t1.read(a, &mut ops).unwrap(), 5);
        commit_write(&heap, &clock, b, 9); // same shard, different word
        t1.write(a, 6);
        t1.commit()
            .expect("value of `a` unchanged: validation passes");
    }

    #[test]
    fn multi_shard_commit_releases_all_shards_even() {
        let (heap, clock) = setup();
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        let mut t = tx(&heap, &clock);
        t.write(a, 1);
        t.write(b, 2);
        t.commit().unwrap();
        assert_eq!(clock.load(0), 2);
        assert_eq!(clock.load(1), 2);
        assert_eq!(clock.load(2), 0);
        assert_eq!(clock.epoch(), 1, "one write-back, one bump");
        assert_eq!(heap.load(a), 1);
        assert_eq!(heap.load(b), 2);
    }

    #[test]
    fn stale_snapshot_acquire_revalidates_and_retries() {
        // A commit needing shards {0, 1} whose shard-1 snapshot is stale:
        // the acquire pass takes shard 0, fails the shard-1 CAS, rolls
        // shard 0 back to its pre-acquire value, revalidates, and the
        // retry lands. The rollback bounce must not look like a commit.
        let (heap, clock) = setup();
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        let mut t = tx(&heap, &clock);
        t.write(a, 1);
        t.write(b, 2);
        // Foreign commit moves shard 1 after the snapshot was taken.
        commit_write(&heap, &clock, b, 7);
        t.commit().expect("no reads: revalidation is vacuous");
        assert_eq!(clock.load(0), 2, "one commit on shard 0");
        assert_eq!(clock.load(1), 4, "two commits on shard 1");
        assert_eq!(heap.load(a), 1);
        assert_eq!(heap.load(b), 2, "second commit overwrote the foreign 7");
    }

    #[test]
    fn commit_ignores_odd_shard_it_did_not_read() {
        let (heap, clock) = setup();
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        heap.store(a, 3);
        let mut t = tx(&heap, &clock);
        let mut ops = OpCounts::default();
        assert_eq!(t.read(a, &mut ops).unwrap(), 3);
        t.write(a, 4);
        // A foreign committer holds shard 1 for as long as it likes: no
        // entry maps there, so the commit neither loads nor waits on it.
        assert!(clock.try_acquire(clock.shard_of(b), 0));
        t.commit().expect("disjoint commits run in parallel");
        assert_eq!(heap.load(a), 4);
        assert_eq!(clock.load(0), 2);
        assert_eq!(clock.load(1), 1, "the foreign holder is undisturbed");
    }

    #[test]
    fn commit_blocked_by_held_read_shard_gives_its_shards_back() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        let (heap, clock) = setup();
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        heap.store(b, 3);
        // Read from shard 1, write to shard 0.
        let mut t = tx(&heap, &clock);
        let mut ops = OpCounts::default();
        assert_eq!(t.read(b, &mut ops).unwrap(), 3);
        t.write(a, 1);
        // A foreign committer now holds shard 1, and keeps it.
        assert!(clock.try_acquire(1, 0));
        let committed = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                t.commit().unwrap();
                committed.store(true, Ordering::SeqCst);
            });
            // While the holder stays, the commit may take shard 0 only to
            // give it back: whenever shard 0 is seen odd it turns even
            // again with no bump and no store, and it never commits.
            let deadline = Instant::now() + Duration::from_millis(50);
            while Instant::now() < deadline {
                assert!(clock.load(0) <= 1, "shard 0 never advances");
                assert_eq!(clock.epoch(), 0, "a given-back acquisition never bumps");
                assert_eq!(heap.load(a), 0, "nothing is written back");
                assert!(!committed.load(Ordering::SeqCst));
            }
            // After the holder goes away the same commit lands.
            clock.release(1, 0);
            let deadline = Instant::now() + Duration::from_secs(30);
            while !committed.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "commit did not land");
                std::thread::yield_now();
            }
        });
        assert_eq!(heap.load(a), 1);
        assert_eq!(clock.load(0), 2);
        assert_eq!(clock.epoch(), 1);
    }
}
