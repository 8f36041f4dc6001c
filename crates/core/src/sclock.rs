//! The sharded commit clock of the NOrec family.
//!
//! Plain NOrec serialises every writer commit through **one** global
//! sequence lock ([`crate::norec::GlobalClock`]), and every reader
//! revalidates its whole read-set whenever that word moves. The sharded
//! clock — the `CommitClock` selected by
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
//!   ascending index order — a CAS from the snapshot on a shard the
//!   attempt read under, a blind `fetch_or` on one it did not, since
//!   with nothing read there any even word will do — giving back all
//!   acquired shards on any failure, so disjoint commits touch disjoint
//!   shard words. Under the held locks it re-validates only the *foreign
//!   read shards* — shards the attempt read under and the commit does
//!   not hold: held shards cannot move, and a shard nothing was read
//!   under is neither loaded nor waited on, so disjoint commits run
//!   fully in parallel. A committer never waits while it holds a shard:
//!   on a busy shard it gives its own shards back, waits the holder out
//!   lock-free and acquires again, so two overlapping commits cannot
//!   form a wait cycle.
//! * **A view samples only what the attempt reads.** Begin touches no
//!   shared memory. The first read under a shard samples that shard's
//!   word, waiting out an odd one (the attempt's very first touch
//!   samples the write-back epoch just before), and the view keeps the
//!   set of shards sampled so far in one word, `known`. A shard's
//!   sequence word covers *exactly* the addresses mapping to it, so
//!   validation looks only at the `known` shards and re-checks only the
//!   read-set entries whose covering shards moved: a foreign commit
//!   costs O(moved entries), not O(read-set). Reads consult the single
//!   monotone write-back epoch first ([`ShardedClock::epoch`]): while it
//!   stands still, no shard word is loaded at all.
//!
//! The invariant: **whenever a read returns with the epoch equal to the
//! view's, every read-set entry holds in the heap as it is at that
//! moment.** The epoch standing still proves no write-back *started*
//! since it was sampled; one that started earlier keeps every one of its
//! shards odd until after its last store; and every `known` shard was
//! seen even *after* that epoch sample — at its first touch, or at the
//! confirming pass of the validation that last advanced the epoch — so
//! none lies under such a write-back and the data under it has not moved
//! since.
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
use crate::fault;
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
    /// data store. Readers use it as an O(1) filter — a view saw each of
    /// its shards even after it sampled the epoch (no write-back in
    /// progress under them), and any later write-back must bump this
    /// counter first, so "epoch unchanged" proves the data under those
    /// shards has not moved and every shard load (and any entry
    /// re-check) can be skipped. The counter never moves backwards.
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

    /// Current write-back epoch (see the field docs). A reader who saw
    /// the load's shard even after sampling the epoch and observes the
    /// epoch unchanged across a heap load knows the load is consistent
    /// with its earlier ones: any intervening write-back would have
    /// bumped the epoch first.
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
    /// before any data write-back under this shard). A release store: a
    /// reader that loads the new word ([`ShardedClock::load`]) sees every
    /// write-back store under the shard.
    #[inline]
    pub fn release(&self, s: usize, new_even: u64) {
        debug_assert_eq!(new_even & 1, 0);
        self.shards[s].lock.store(new_even, Ordering::Release);
    }
}

/// One attempt's view of the shards it has read under. Its vectors
/// outlive it: a thread's [`Scratch`] keeps the view between transactions.
#[derive(Default)]
pub(crate) struct ShardView {
    /// Last validated word (even) of each shard in `known`; during a
    /// commit also the pre-acquire word of each held shard. Any other
    /// slot is stale and never read. Invariant: every read-set entry
    /// under a `known` shard held when that shard's word was seen.
    snapshot: Vec<u64>,
    /// Write-back epoch sampled *before* every sighting of a `known`
    /// shard that `snapshot` rests on. Sampling first keeps the stored
    /// value stale-low, which is safe (at worst one spurious validation)
    /// — an epoch fresher than a shard's sighting would let a write-back
    /// already pending under that shard slip past the filter.
    epoch: u64,
    /// Bumped by `begin` and whenever a `known` word of `snapshot` changes.
    gen: u64,
    /// Sampling buffer for validation rounds.
    sample: Vec<u64>,
    /// Ascending shard indices covering the write-set (populated by
    /// `acquire`).
    wshards: Vec<usize>,
    /// Bit `s` set: the attempt has read under shard `s` and
    /// `snapshot[s]` is meaningful. Cleared by `begin`, grown by `touch`.
    known: u64,
}

/// The indices of the set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let s = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            s
        })
    })
}

impl ShardedClock {
    /// The first read under shard `s` in this attempt: see it even and
    /// remember its word. The wait matters — a shard recorded odd would
    /// put the read under a write-back in flight — and so does the order
    /// on the attempt's first touch, epoch before shard: a commit that
    /// acquired and bumped between a shard sample and a later epoch
    /// sample could store under the shard with the epoch standing still.
    /// Later first touches keep the epoch they find: it was sampled
    /// before now, which is all the invariant asks.
    #[cold]
    fn first_touch(&self, v: &mut ShardView, s: usize) {
        if v.known == 0 {
            v.epoch = self.epoch();
        }
        let mut wait = SpinWait::new();
        loop {
            sched::point(PointKind::ScNorecTouch);
            let word = self.load(s);
            if word & 1 == 0 {
                v.snapshot[s] = word;
                if !fault::active(fault::SCNOREC_FORGET_TOUCH) {
                    v.known |= 1 << s;
                }
                return;
            }
            sched::spin();
            wait.spin();
        }
    }

    /// One validation pass over the shards in `look`: sample them,
    /// re-check the entries under moved ones, confirm, adopt the moved
    /// words. Without `held`, no lock is held, `look` is `known` and odd
    /// shards are waited out. With `held` — the commit's write shards
    /// locked — the pass never waits and `look` is the foreign read
    /// shards alone: entries in held shards are frozen since they were
    /// locked, a shard nothing was read under cannot invalidate anything,
    /// and an odd foreign read shard returns `Ok(false)` at once, because
    /// its holder may be waiting on a shard held here.
    fn validate_inner(
        &self,
        v: &mut ShardView,
        reads: &mut Reads<'_>,
        look: u64,
        held: bool,
    ) -> Result<bool, Abort> {
        if held && look == 0 {
            return Ok(true);
        }
        reads.phases.mark_validate();
        let mut wait = SpinWait::new();
        'round: loop {
            sched::point(PointKind::ScNorecValidate);
            // Epoch before the shard pass (see `ShardView::epoch`).
            let epoch = self.epoch();
            let mut moved = 0u64;
            for s in bits(look) {
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
                moved |= u64::from(word != v.snapshot[s]) << s;
            }
            if moved != 0 {
                let shard_moved = |a: Addr| moved & (1 << self.shard_of(a)) != 0;
                reads.recheck(|e: &ReadEntry| {
                    let (a, b) = e.addrs();
                    shard_moved(a) || b.is_some_and(shard_moved)
                })?;
            }
            sched::point(PointKind::ScNorecValidateRecheck);
            if bits(look).any(|s| self.load(s) != v.sample[s]) {
                continue 'round;
            }
            if moved != 0 {
                for s in bits(moved) {
                    v.snapshot[s] = v.sample[s];
                }
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

    /// The view the thread's last sharded transaction left, resized if
    /// that one ran on a runtime with another shard count. Its words are
    /// stale either way: `begin` empties `known`, and nothing reads a
    /// slot outside it.
    fn view(&self, scratch: &mut Scratch) -> ShardView {
        let mut v = std::mem::take(&mut scratch.shards);
        if v.snapshot.len() != self.len() {
            for words in [&mut v.snapshot, &mut v.sample] {
                words.clear();
                words.resize(self.len(), 0);
            }
        }
        v
    }

    fn retire(v: &mut ShardView, scratch: &mut Scratch) {
        scratch.shards = std::mem::take(v);
    }

    /// Forget every sample. No shared memory is touched: a shard word
    /// matters only to an attempt that reads under it, and `touch`
    /// samples it then.
    fn begin(&self, v: &mut ShardView) {
        v.known = 0;
        v.gen = v.gen.wrapping_add(1);
    }

    /// A read under a shard already in `known` pays this bit test; the
    /// first one samples the shard.
    #[inline(always)]
    fn touch(&self, v: &mut ShardView, addr: Addr) {
        let s = self.shard_of(addr);
        if v.known & (1 << s) == 0 {
            self.first_touch(v, s);
        }
    }

    /// The quiescent read costs one epoch load beside the data load: an
    /// unchanged epoch means no write-back started since it was sampled,
    /// and every `known` shard was seen even after that.
    #[inline]
    fn moved(&self, v: &ShardView) -> bool {
        self.epoch() != v.epoch
    }

    #[inline]
    fn stamp(v: &ShardView) -> u64 {
        v.gen
    }

    fn validate(&self, v: &mut ShardView, reads: &mut Reads<'_>) -> Result<(), Abort> {
        self.validate_inner(v, reads, v.known, false).map(|_| ())
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
        v.wshards.extend(bits(covered));
        // The read-set is final, so `known` is: the shards to re-check
        // under the held locks are those read under and not written.
        let foreign = v.known & !covered;
        loop {
            sched::point(PointKind::ScNorecCommitAcquire);
            let mut held = 0;
            let mut busy = None;
            for &s in &v.wshards {
                if v.known & (1 << s) != 0 {
                    // Read under: only the word the entries were
                    // validated at proves they still hold.
                    if !self.try_acquire(s, v.snapshot[s]) {
                        break;
                    }
                } else {
                    // Nothing was read under `s`, so any even word will
                    // do: set the lock bit blind. `SeqCst` like the CAS
                    // beside it — every thread must see the lock taken
                    // before the epoch bump and the data stores. An even
                    // previous word is the lock, and what `release`
                    // counts on from; an odd one was another's, and the
                    // `or` left it as it was.
                    let previous = self.shards[s].lock.fetch_or(1, Ordering::SeqCst);
                    if previous & 1 != 0 {
                        busy = Some(s);
                        break;
                    }
                    v.snapshot[s] = previous;
                }
                held += 1;
            }
            let valid = if held == v.wshards.len() {
                self.validate_inner(v, reads, foreign, true)
            } else {
                Ok(false)
            };
            if let Ok(true) = valid {
                return Ok(());
            }
            // A stale snapshot, a busy shard or a failed re-check: give
            // every held shard back. Nothing was written back, so the
            // bounce odd→same even published no data change — and the
            // waits for the holder below run with nothing held, so no
            // other committer can be waiting on this one.
            self.release_held(v, held, false);
            valid?;
            if let Some(s) = busy {
                // `validate` waits out `known` shards only.
                let mut wait = SpinWait::new();
                while self.load(s) & 1 != 0 {
                    sched::spin();
                    wait.spin();
                }
            }
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
    use crate::norec::NorecTx;
    use crate::stats::OpCounts;
    use crate::stm::Engine;
    use crate::telemetry::PhaseRecorder;
    use std::sync::atomic::AtomicBool;
    #[cfg(feature = "shuttle")]
    use std::sync::Arc;
    use std::time::{Duration, Instant};

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

    /// A live phase recorder: `validate_ns` tells whether any validation
    /// round ran (the held pass over no foreign read shard marks nothing).
    fn recorded<'a>(heap: &'a Heap, clock: &'a ShardedClock) -> NorecTx<'a, ShardedClock> {
        let mut t = NorecTx::new(heap, clock);
        t.enable_spans(PhaseRecorder::enabled(Instant::now()));
        t.begin();
        t
    }

    #[test]
    fn begin_and_a_read_elsewhere_ignore_a_held_shard() {
        let (heap, clock) = setup();
        let a = heap.alloc_padded(1); // shard 0
        heap.store(a, 3);
        // A foreign committer holds shard 1 for the whole test. A begin
        // that sampled every shard would wait for it without end.
        assert!(clock.try_acquire(1, 0));
        let mut t = tx(&heap, &clock);
        let mut ops = OpCounts::default();
        assert_eq!(t.read(a, &mut ops).unwrap(), 3);
        t.write(a, 4);
        t.commit().expect("nothing read or written under shard 1");
        assert_eq!(heap.load(a), 4);
        assert_eq!(clock.load(0), 2);
        assert_eq!(clock.load(1), 1, "the foreign holder is undisturbed");
    }

    #[test]
    fn first_touch_waits_out_an_odd_shard() {
        let (heap, clock) = setup();
        let _a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        heap.store(b, 3);
        // A foreign commit is in the middle of its write-back on shard 1.
        assert!(clock.try_acquire(1, 0));
        clock.bump_epoch();
        let seen = AtomicU64::new(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut t = tx(&heap, &clock);
                let mut ops = OpCounts::default();
                let v = t.read(b, &mut ops).unwrap();
                seen.store(v as u64, Ordering::SeqCst);
            });
            let deadline = Instant::now() + Duration::from_millis(50);
            while Instant::now() < deadline {
                assert_eq!(seen.load(Ordering::SeqCst), 0, "read under a held shard");
            }
            heap.store(b, 9);
            clock.release(1, 2);
            let deadline = Instant::now() + Duration::from_secs(30);
            while seen.load(Ordering::SeqCst) == 0 {
                assert!(Instant::now() < deadline, "read did not return");
                std::thread::yield_now();
            }
        });
        assert_eq!(seen.load(Ordering::SeqCst), 9, "the holder's value");
    }

    #[test]
    fn blind_write_shard_needs_no_snapshot() {
        // A commit needing shards {0, 1} that read nothing: shard 1 moves
        // after `begin`, and it does not matter — there is no snapshot to
        // be stale. The commit lands in one acquire round, with no
        // give-back bounce on shard 0 and no revalidation, and `release`
        // counts on from the words the blind acquisition found.
        let (heap, clock) = setup();
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        let mut t = recorded(&heap, &clock);
        t.write(a, 1);
        t.write(b, 2);
        commit_write(&heap, &clock, b, 7);
        t.commit().expect("no reads: nothing to validate");
        assert!(
            t.phases().validate_ns().is_none(),
            "a second acquire round revalidates first"
        );
        assert_eq!(clock.load(0), 2, "previous + 2: one commit on shard 0");
        assert_eq!(clock.load(1), 4, "previous + 2: two commits on shard 1");
        assert_eq!(clock.epoch(), 2);
        assert_eq!(heap.load(a), 1);
        assert_eq!(heap.load(b), 2, "second commit overwrote the foreign 7");
    }

    #[test]
    fn sixty_four_shards_use_the_top_bit() {
        let clock = ShardedClock::new(64);
        let heap = Heap::new(LINE_WORDS * 64);
        let cells: Vec<Addr> = (0..64).map(|_| heap.alloc_padded(2)).collect();
        let (low, top) = (cells[0], cells[63]);
        assert_eq!((clock.shard_of(low), clock.shard_of(top)), (0, 63));
        heap.store(top, 5);
        let mut t = recorded(&heap, &clock);
        let mut ops = OpCounts::default();
        assert_eq!(t.read(top, &mut ops).unwrap(), 5);
        t.write(low, 1);
        t.write(top, 6);
        // Shard 63 moves under the reader; the word it read does not.
        commit_write(&heap, &clock, top.offset(1), 9);
        t.commit().expect("the entry under shard 63 still holds");
        assert!(
            t.phases().validate_ns().is_some(),
            "shard 63 was re-checked"
        );
        assert_eq!((heap.load(low), heap.load(top)), (1, 6));
        assert_eq!((clock.load(0), clock.load(63)), (2, 4));
        assert!((1..63).all(|s| clock.load(s) == 0), "no other shard moved");
        // And a changed word under the top shard is still a conflict.
        let mut t = tx(&heap, &clock);
        assert_eq!(t.read(top, &mut ops).unwrap(), 6);
        commit_write(&heap, &clock, top, 7);
        t.write(low, 2);
        assert_eq!(t.commit(), Err(Abort::validation()));
        assert_eq!(heap.load(low), 1);
    }

    /// A foreign commit on `{0, 1}` driven from the reader's own schedule
    /// points: it acquires and bumps at the reader's first `ScNorecRead`
    /// (after the first touch, before the data load) and stores and
    /// releases when the reader first waits.
    #[cfg(feature = "shuttle")]
    struct StraddlingCommit {
        heap: Arc<Heap>,
        clock: Arc<ShardedClock>,
        cells: [Addr; 2],
        /// 0 = not begun, 1 = shards held and epoch bumped, 2 = done.
        step: AtomicU64,
    }

    #[cfg(feature = "shuttle")]
    impl sched::SchedHook for StraddlingCommit {
        fn point(&self, kind: PointKind) {
            if kind == PointKind::ScNorecRead && self.step.load(Ordering::SeqCst) == 0 {
                assert!(self.clock.try_acquire(0, 0) && self.clock.try_acquire(1, 0));
                self.clock.bump_epoch();
                self.step.store(1, Ordering::SeqCst);
            }
        }
        fn spin(&self) {
            if self.step.load(Ordering::SeqCst) == 1 {
                self.heap.store(self.cells[0], 10);
                self.heap.store(self.cells[1], 20);
                self.clock.release(0, 2);
                self.clock.release(1, 2);
                self.step.store(2, Ordering::SeqCst);
            }
        }
    }

    /// The view a thread parks may last have run on another `Stm`, whose
    /// epoch says nothing about this clock's: here it equals the value
    /// this clock's epoch takes *after* a commit that begins between the
    /// reader's first touch and its data load. Trusting it would return
    /// the old `x`, and then the new `y`.
    #[cfg(feature = "shuttle")]
    #[test]
    fn first_touch_samples_this_clocks_epoch() {
        let mut ops = OpCounts::default();
        // Park a view whose epoch is 1.
        let (other_heap, other) = setup();
        let cell = other_heap.alloc_padded(1);
        commit_write(&other_heap, &other, cell, 5);
        assert_eq!(tx(&other_heap, &other).read(cell, &mut ops).unwrap(), 5);
        assert_eq!(other.epoch(), 1);

        let heap = Arc::new(Heap::new(LINE_WORDS * 16));
        let clock = Arc::new(ShardedClock::new(4));
        let (x, y) = (heap.alloc_padded(1), heap.alloc_padded(1)); // shards 0, 1
        heap.store(x, 1);
        heap.store(y, 2);
        let writer = Arc::new(StraddlingCommit {
            heap: heap.clone(),
            clock: clock.clone(),
            cells: [x, y],
            step: AtomicU64::new(0),
        });
        let mut t = tx(&heap, &*clock);
        sched::install_hook(writer.clone());
        let seen = (t.read(x, &mut ops).unwrap(), t.read(y, &mut ops).unwrap());
        sched::clear_hook();
        assert_eq!(writer.step.load(Ordering::SeqCst), 2, "the commit ran");
        assert_eq!(seen, (10, 20), "old x with new y is no state of the heap");
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

    #[test]
    fn blind_acquire_of_a_busy_shard_gives_back_and_lands() {
        // The same, with the busy shard a write-only one: the blind
        // `fetch_or` finds it odd and leaves it as it was.
        let (heap, clock) = setup();
        let a = heap.alloc_padded(1); // shard 0
        let b = heap.alloc_padded(1); // shard 1
        let mut t = tx(&heap, &clock);
        t.write(a, 1);
        t.write(b, 2);
        assert!(clock.try_acquire(1, 0));
        let committed = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                t.commit().unwrap();
                committed.store(true, Ordering::SeqCst);
            });
            let deadline = Instant::now() + Duration::from_millis(50);
            while Instant::now() < deadline {
                assert!(clock.load(0) <= 1, "shard 0 never advances");
                assert_eq!(clock.load(1), 1, "the holder's word is untouched");
                assert_eq!(clock.epoch(), 0, "a given-back acquisition never bumps");
                assert_eq!(heap.load(a), 0, "nothing is written back");
                assert!(!committed.load(Ordering::SeqCst));
            }
            clock.release(1, 0);
            let deadline = Instant::now() + Duration::from_secs(30);
            while !committed.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "commit did not land");
                std::thread::yield_now();
            }
        });
        assert_eq!((heap.load(a), heap.load(b)), (1, 2));
        assert_eq!((clock.load(0), clock.load(1)), (2, 2));
        assert_eq!(clock.epoch(), 1);
    }
}
