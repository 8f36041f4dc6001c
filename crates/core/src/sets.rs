//! Transaction-local metadata: the semantic read-set, the overloaded
//! write-set, and (for S-TL2) the compare-set.
//!
//! * The **read-set** stores `(address, operator, operand)` triples. A
//!   plain `TM_READ` is recorded as a semantic `EQ` entry (Algorithm 6,
//!   §4.1), which makes NOrec's value-based validation the special case of
//!   semantic validation where every operator is `EQ`.
//! * The **write-set** is NOrec's write-set "overloaded" with a flag per
//!   entry indicating a standard write or an increment (§4.1).
//! * The **compare-set** of S-TL2 reuses the same entry representation as
//!   the read-set; only its validation rule differs (module [`crate::tl2`]).
//! * The **attempt scratch** (`Scratch`) holds all of the above, and the
//!   engines' other growable buffers, per thread: a transaction takes it
//!   when its engine is built and hands it back when it ends, so a warm
//!   thread runs transactions without calling the allocator
//!   (DESIGN.md §3.1.1).

use crate::error::Abort;
use crate::heap::{Addr, Heap};
use crate::ops::CmpOp;
use crate::sched;
use crate::sclock::ShardView;
use crate::telemetry::PhaseRecorder;
use crate::tl2::orec::OrecWord;
use crate::wal::CommitLog;
use std::cell::Cell;

/// One recorded semantic read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadEntry {
    /// `*addr OP operand` held when recorded (address–value form; plain
    /// reads are `op == Eq, operand == value read`).
    Val {
        /// Compared address.
        addr: Addr,
        /// Relation that held (or the inverse of the requested one, if the
        /// comparison came out false).
        op: CmpOp,
        /// The constant operand.
        operand: i64,
    },
    /// `*a OP *b` held when recorded (address–address form, `_ITM_S2R`).
    Pair {
        /// Left-hand address.
        a: Addr,
        /// Relation that held.
        op: CmpOp,
        /// Right-hand address.
        b: Addr,
    },
}

// A push onto the read-set — every read barrier's last step — is two stores.
const _: () = assert!(std::mem::size_of::<ReadEntry>() == 16);
// The boxed scratch keeps its size: where glibc places it decides the
// benchmark's `setup_s` / `peak_rss_mb` mode (see `ScratchBox`).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Scratch>() == 264);

impl ReadEntry {
    /// Re-evaluate the recorded relation against current memory — the
    /// semantic validation step (Algorithm 6, line 5).
    #[inline]
    pub fn holds(&self, heap: &Heap) -> bool {
        match *self {
            ReadEntry::Val { addr, op, operand } => op.eval(heap.tm_load(addr), operand),
            ReadEntry::Pair { a, op, b } => op.eval(heap.tm_load(a), heap.tm_load(b)),
        }
    }

    /// Addresses this entry depends on (1 or 2).
    pub fn addrs(&self) -> (Addr, Option<Addr>) {
        match *self {
            ReadEntry::Val { addr, .. } => (addr, None),
            ReadEntry::Pair { a, b, .. } => (a, Some(b)),
        }
    }
}

/// Whether a write-set entry is a buffered store or a deferred increment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteKind {
    /// A standard buffered `TM_WRITE`; `value` is the value to store.
    Store,
    /// A deferred `TM_INC`; `value` is the accumulated delta, applied to
    /// the live memory value at commit time.
    Increment,
}

/// A write-set entry: value-or-delta plus the kind flag (§4.1: "a flag is
/// added to each write-set entry to indicate whether it stores a standard
/// write or an increment").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteEntry {
    /// Buffered value (`Store`) or accumulated delta (`Increment`).
    pub value: i64,
    /// Entry kind.
    pub kind: WriteKind,
}

impl WriteEntry {
    /// The absolute value this entry stores at `addr`: deferred
    /// increments are materialised against live memory (valid only under
    /// the commit locks, after validation).
    #[inline]
    fn resolve(self, heap: &Heap, addr: Addr) -> i64 {
        match self.kind {
            WriteKind::Store => self.value,
            WriteKind::Increment => heap.tm_load(addr).wrapping_add(self.value),
        }
    }
}

/// One buffered address: the public `(Addr, WriteEntry)` pair plus the
/// index slot that names it.
#[derive(Clone, Copy)]
struct Buffered {
    addr: Addr,
    /// The `index` slot holding this entry's position, so that `clear`
    /// frees exactly the slots in use without hashing again.
    slot: u32,
    entry: WriteEntry,
}

/// The transaction write-set, preserving insertion order for deterministic
/// write-back.
///
/// Entries live **inline** in the insertion-order vec; `index` is an
/// open-addressed (linear probing, load ≤ ½) table of positions into it.
/// Lookups (`get`, the `write`/`inc` upsert, `promote`) pay one hash and
/// one probe sequence, and [`WriteSet::iter`] — the commit write-back and
/// WAL record-construction path, executed while the commit locks are
/// held — is a linear scan with no per-entry hashing. Both vectors keep
/// their capacity across [`WriteSet::clear`], which costs O(entries), not
/// O(capacity).
#[derive(Default)]
pub struct WriteSet {
    /// Power-of-two table (or empty before the first write): 0 is a free
    /// slot, anything else a position in `entries` plus one.
    index: Vec<u32>,
    entries: Vec<Buffered>,
}

/// Smallest non-empty index.
const MIN_SLOTS: usize = 16;

/// Fibonacci hashing: one multiply, whose top bits pick the home slot.
#[inline]
fn spread(addr: Addr) -> u64 {
    (addr.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl WriteSet {
    /// Where `addr` is buffered (`Ok(position)`), or the free slot its
    /// probe sequence ends at (`Err(slot)`). The index must be non-empty.
    #[inline]
    fn find(&self, addr: Addr) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut slot = spread(addr) >> (64 - self.index.len().trailing_zeros());
        loop {
            let s = slot as usize & mask;
            match self.index[s] as usize {
                0 => return Err(s),
                named => {
                    if self.entries[named - 1].addr == addr {
                        return Ok(named - 1);
                    }
                }
            }
            slot += 1;
        }
    }

    /// [`WriteSet::find`] for an upsert: makes room for one more entry
    /// first, so an `Err(slot)` stays valid for [`WriteSet::insert`].
    #[inline]
    fn find_or_slot(&mut self, addr: Addr) -> Result<usize, usize> {
        if (self.entries.len() + 1) * 2 > self.index.len() {
            self.grow();
        }
        self.find(addr)
    }

    /// Double the index and re-place every entry.
    #[cold]
    fn grow(&mut self) {
        let slots = (self.index.len() * 2).max(MIN_SLOTS);
        self.index.clear();
        self.index.resize(slots, 0);
        for at in 0..self.entries.len() {
            let slot = self
                .find(self.entries[at].addr)
                .expect_err("one entry per address");
            self.index[slot] = at as u32 + 1;
            self.entries[at].slot = slot as u32;
        }
    }

    #[inline]
    fn insert(&mut self, slot: usize, addr: Addr, entry: WriteEntry) {
        self.entries.push(Buffered {
            addr,
            slot: slot as u32,
            entry,
        });
        self.index[slot] = self.entries.len() as u32;
    }

    /// Where `addr` is buffered, if it is. An empty set answers before
    /// hashing (and may have no index yet).
    #[inline]
    fn position(&self, addr: Addr) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        self.find(addr).ok()
    }

    /// Look up the buffered entry for `addr`.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<WriteEntry> {
        self.position(addr).map(|at| self.entries[at].entry)
    }

    /// Record a `TM_WRITE`: overwrites any previous entry and resets the
    /// kind to `Store` (Algorithm 6, line 51).
    #[inline]
    pub fn write(&mut self, addr: Addr, value: i64) {
        let entry = WriteEntry {
            value,
            kind: WriteKind::Store,
        };
        match self.find_or_slot(addr) {
            Ok(at) => self.entries[at].entry = entry,
            Err(slot) => self.insert(slot, addr, entry),
        }
    }

    /// Record a `TM_INC`: accumulates the delta onto the existing entry
    /// *without changing its kind* (Algorithm 6, line 46), or creates a
    /// fresh `Increment` entry (line 48).
    #[inline]
    pub fn inc(&mut self, addr: Addr, delta: i64) {
        match self.find_or_slot(addr) {
            Ok(at) => {
                let e = &mut self.entries[at].entry;
                e.value = e.value.wrapping_add(delta);
            }
            Err(slot) => self.insert(
                slot,
                addr,
                WriteEntry {
                    value: delta,
                    kind: WriteKind::Increment,
                },
            ),
        }
    }

    /// Promote an `Increment` entry to a `Store` after observing the
    /// current memory value `observed` (Algorithm 6, lines 19–22).
    /// Returns the promoted value. Panics if the entry is not an
    /// increment — callers must check the kind first.
    pub fn promote(&mut self, addr: Addr, observed: i64) -> i64 {
        let at = self
            .position(addr)
            .expect("promote of address not in write-set");
        let e = &mut self.entries[at].entry;
        assert_eq!(e.kind, WriteKind::Increment, "promote of a Store entry");
        e.value = e.value.wrapping_add(observed);
        e.kind = WriteKind::Store;
        e.value
    }

    /// Iterate entries in insertion order (a plain slice walk — the
    /// commit-path fast iteration this layout exists for).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, WriteEntry)> + '_ {
        self.entries.iter().map(|e| (e.addr, e.entry))
    }

    /// The commit tail every engine shares, entered with the commit locks
    /// held and validation passed: resolve deferred increments against
    /// live memory, append the resolved record to `wal` (replay cannot
    /// re-run increments, so resolution precedes the append), write back,
    /// release, and ack only once durable. `resolved` is the attempt
    /// scratch's buffer for that record.
    ///
    /// `before_stores` is the engine's last step ahead of the first data
    /// store — its write-back schedule point, so the store loop plus
    /// `release(true)` stay one atomic step of the virtual schedule.
    /// `release(false)` undoes the acquisition after a refused append:
    /// nothing was written back, so the abort is clean.
    pub(crate) fn write_back(
        &self,
        heap: &Heap,
        wal: Option<&CommitLog>,
        resolved: &mut Vec<(Addr, i64)>,
        phases: &mut PhaseRecorder,
        before_stores: impl FnOnce(),
        release: impl FnOnce(bool),
    ) -> Result<(), Abort> {
        let mut ticket = None;
        if let Some(log) = wal {
            resolved.clear();
            resolved.extend(self.iter().map(|(addr, e)| (addr, e.resolve(heap, addr))));
            sched::point(sched::PointKind::WalAppend);
            match log.append(resolved) {
                Ok(t) => ticket = Some((log, t)),
                Err(_) => {
                    release(false);
                    return Err(Abort::durability());
                }
            }
        }
        before_stores();
        phases.mark_writeback();
        if ticket.is_some() {
            // What the log recorded is what memory gets.
            for &(addr, value) in resolved.iter() {
                heap.tm_store(addr, value);
            }
        } else {
            for (addr, e) in self.iter() {
                heap.tm_store(addr, e.resolve(heap, addr));
            }
        }
        release(true);
        if let Some((log, t)) = ticket {
            // Fail stop on a flush failure: the in-memory commit is
            // already visible and cannot be retried (increments would
            // double-apply).
            if let Err(e) = log.wait_durable(t) {
                panic!(
                    "commit {} is applied but cannot be made durable: {e}",
                    t.seq()
                );
            }
        }
        Ok(())
    }

    /// Number of distinct addresses written.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no writes are buffered (read-only transaction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop all entries, keeping allocations for the next attempt. Frees
    /// the entries' own index slots — O(entries), whatever the capacity.
    #[inline]
    pub fn clear(&mut self) {
        for e in &self.entries {
            self.index[e.slot as usize] = 0;
        }
        self.entries.clear();
    }
}

/// The most entries any scratch buffer keeps between transactions: one
/// oversized transaction must not pin its buffers on the thread for the
/// process's life (at this bound the read-set retains 256 KiB, the
/// write-set 384 KiB plus a 128 KiB index).
pub(crate) const RETAINED_ENTRIES: usize = 1 << 14;

/// Cut `buffer` down to `most` entries if it outgrew them (what is left
/// in it is stale either way).
fn bound<T>(buffer: &mut Vec<T>, most: usize) {
    buffer.truncate(most);
    buffer.shrink_to(most);
}

/// Every growable buffer an attempt uses, whichever engine runs it. A
/// thread keeps one between its transactions so that, once warm, neither
/// begin, a barrier, commit nor abort allocates. Each engine clears what
/// it uses in `begin`; nothing here is meaningful across transactions.
#[derive(Default)]
pub(crate) struct Scratch {
    /// The NOrec family's read-set; the TL2 family's compare-set.
    pub(crate) entries: Vec<ReadEntry>,
    pub(crate) writes: WriteSet,
    /// The resolved record [`WriteSet::write_back`] hands the log.
    pub(crate) resolved: Vec<(Addr, i64)>,
    /// TL2's read-set (Algorithm 7 line 48 stores orecs, not addresses).
    pub(crate) orecs: Vec<usize>,
    /// TL2 commit: the distinct write-set orecs, ascending.
    pub(crate) targets: Vec<usize>,
    /// TL2 commit: orecs locked so far, with their pre-lock words.
    pub(crate) locked: Vec<(usize, OrecWord)>,
    /// The sharded clock's view, parked here between transactions.
    pub(crate) shards: ShardView,
}

impl Scratch {
    fn bound(&mut self) {
        bound(&mut self.entries, RETAINED_ENTRIES);
        // An empty write-set's index is all free slots, so it can be cut
        // to any power of two.
        self.writes.clear();
        bound(&mut self.writes.entries, RETAINED_ENTRIES);
        bound(&mut self.writes.index, 2 * RETAINED_ENTRIES);
        bound(&mut self.resolved, RETAINED_ENTRIES);
        bound(&mut self.orecs, RETAINED_ENTRIES);
        bound(&mut self.targets, RETAINED_ENTRIES);
        bound(&mut self.locked, RETAINED_ENTRIES);
    }

    /// Largest capacity of any buffer, in entries.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        [
            self.entries.capacity(),
            self.writes.entries.capacity(),
            self.writes.index.capacity(),
            self.resolved.capacity(),
            self.orecs.capacity(),
            self.targets.capacity(),
            self.locked.capacity(),
        ]
        .into_iter()
        .max()
        .unwrap_or(0)
    }
}

thread_local! {
    /// This thread's scratch while no transaction holds it. A slot, not a
    /// pool: a transaction nested in another's body finds it empty and
    /// runs on a fresh scratch of its own.
    static KEPT: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

/// The membership bit of an address in a [`ScratchBox`]'s write filter:
/// the top six bits of the hash the write-set's index takes its home
/// slot from.
#[inline]
fn filter_bit(addr: Addr) -> u64 {
    1 << (spread(addr) >> 58)
}

/// One transaction's hold on its thread's [`Scratch`]: taken from the
/// thread's slot when the engine is built, used in place through `Deref`,
/// and put back — trimmed to the retention bound — on drop.
///
/// It fronts the scratch's write-set with a one-word **membership
/// filter**. Most lookups miss — every read barrier asks, few addresses
/// are ever written — and the filter answers "not buffered" from the
/// hash alone: a multiply and a bit test, no index, no box. The word
/// lives here, in the engine's context on the stack, so a barrier that
/// misses dereferences the box once, for its push; and the boxed
/// `Scratch` keeps its size, on which the benchmark's `setup_s` and
/// `peak_rss_mb` turn out to depend (where glibc places the box decides
/// whether a dropped `Stm`'s heap goes back to the OS; CHANGES.md, PR 23).
pub(crate) struct ScratchBox {
    /// `Some` until drop.
    kept: Option<Box<Scratch>>,
    /// The union of [`filter_bit`] over the addresses `writes` buffers —
    /// a superset is sound, a missing bit is a lost write. Kept by routing
    /// every insertion and the clear through the methods below; lookups
    /// and `promote`, which add no address, go to `writes` directly.
    written: u64,
}

impl ScratchBox {
    /// The thread's kept scratch, or a fresh one when the slot is empty
    /// (first transaction, nested transaction) or already destroyed (a
    /// transaction run from another thread-local's destructor).
    pub(crate) fn take() -> ScratchBox {
        let kept = KEPT.try_with(Cell::take).ok().flatten();
        // A kept scratch was put back with its write-set cleared.
        ScratchBox {
            kept: Some(kept.unwrap_or_default()),
            written: 0,
        }
    }

    /// Whether the write-set can hold `addr`: `false` is exact, `true`
    /// means look it up.
    #[inline]
    pub(crate) fn may_hold(&self, addr: Addr) -> bool {
        let may = self.written & filter_bit(addr) != 0;
        debug_assert!(
            may || self.writes.get(addr).is_none(),
            "{addr:?} was buffered behind the filter's back"
        );
        may
    }

    /// Look up the buffered entry for `addr`, filter first.
    #[inline]
    pub(crate) fn get(&self, addr: Addr) -> Option<WriteEntry> {
        if !self.may_hold(addr) {
            return None;
        }
        self.writes.get(addr)
    }

    /// [`WriteSet::write`], seen by the filter.
    #[inline]
    pub(crate) fn write(&mut self, addr: Addr, value: i64) {
        self.written |= filter_bit(addr);
        self.writes.write(addr, value);
    }

    /// [`WriteSet::inc`], seen by the filter.
    #[inline]
    pub(crate) fn inc(&mut self, addr: Addr, delta: i64) {
        self.written |= filter_bit(addr);
        self.writes.inc(addr, delta);
    }

    /// [`WriteSet::clear`], seen by the filter.
    #[inline]
    pub(crate) fn clear_writes(&mut self) {
        self.written = 0;
        self.writes.clear();
    }

    /// Largest buffer capacity the calling thread keeps, in entries.
    #[cfg(test)]
    pub(crate) fn kept_capacity() -> usize {
        let kept = KEPT.take();
        let capacity = kept.as_ref().map_or(0, |s| s.capacity());
        KEPT.set(kept);
        capacity
    }
}

impl std::ops::Deref for ScratchBox {
    type Target = Scratch;
    #[inline]
    fn deref(&self) -> &Scratch {
        self.kept.as_deref().expect("held until drop")
    }
}

impl std::ops::DerefMut for ScratchBox {
    #[inline]
    fn deref_mut(&mut self) -> &mut Scratch {
        self.kept.as_deref_mut().expect("held until drop")
    }
}

impl Drop for ScratchBox {
    fn drop(&mut self) {
        if let Some(mut scratch) = self.kept.take() {
            scratch.bound();
            // A destroyed slot (thread exit) drops the scratch instead.
            let _ = KEPT.try_with(|slot| slot.set(Some(scratch)));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn heap_with(vals: &[i64]) -> (Heap, Vec<Addr>) {
        let h = Heap::new(vals.len().max(1));
        let addrs: Vec<Addr> = vals
            .iter()
            .map(|&v| {
                let a = h.alloc(1);
                h.store(a, v);
                a
            })
            .collect();
        (h, addrs)
    }

    #[test]
    fn read_entry_validation() {
        let (h, a) = heap_with(&[5, -1]);
        assert!(ReadEntry::Val {
            addr: a[0],
            op: CmpOp::Gt,
            operand: 0
        }
        .holds(&h));
        assert!(!ReadEntry::Val {
            addr: a[1],
            op: CmpOp::Gt,
            operand: 0
        }
        .holds(&h));
        assert!(ReadEntry::Pair {
            a: a[0],
            op: CmpOp::Gt,
            b: a[1]
        }
        .holds(&h));
    }

    #[test]
    fn write_after_write_overwrites_and_sets_store() {
        let mut ws = WriteSet::default();
        let a = Addr(3);
        ws.inc(a, 4);
        ws.write(a, 10);
        let e = ws.get(a).unwrap();
        assert_eq!(e.kind, WriteKind::Store);
        assert_eq!(e.value, 10);
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn inc_after_write_accumulates_onto_store() {
        // Algorithm 6 line 46: delta is added, kind stays Store.
        let mut ws = WriteSet::default();
        let a = Addr(0);
        ws.write(a, 10);
        ws.inc(a, -3);
        let e = ws.get(a).unwrap();
        assert_eq!(e.kind, WriteKind::Store);
        assert_eq!(e.value, 7);
    }

    #[test]
    fn inc_after_inc_accumulates_delta() {
        let mut ws = WriteSet::default();
        let a = Addr(1);
        ws.inc(a, 2);
        ws.inc(a, 5);
        let e = ws.get(a).unwrap();
        assert_eq!(e.kind, WriteKind::Increment);
        assert_eq!(e.value, 7);
    }

    #[test]
    fn promote_turns_increment_into_store() {
        let mut ws = WriteSet::default();
        let a = Addr(2);
        ws.inc(a, 2);
        let v = ws.promote(a, 40);
        assert_eq!(v, 42);
        let e = ws.get(a).unwrap();
        assert_eq!(e.kind, WriteKind::Store);
        assert_eq!(e.value, 42);
    }

    #[test]
    #[should_panic(expected = "Store")]
    fn promote_of_store_panics() {
        let mut ws = WriteSet::default();
        let a = Addr(2);
        ws.write(a, 1);
        let _ = ws.promote(a, 0);
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut ws = WriteSet::default();
        for i in [5u32, 1, 9, 3] {
            ws.write(Addr(i), i as i64);
        }
        let order: Vec<u32> = ws.iter().map(|(a, _)| a.0).collect();
        assert_eq!(order, vec![5, 1, 9, 3]);
    }

    #[test]
    fn iteration_order_survives_overwrites_incs_and_promotes() {
        // The inline-entry layout must keep one slot per address at its
        // *first* insertion position, with later writes/incs/promotes
        // updating in place — write-back order is first-touch order.
        let mut ws = WriteSet::default();
        ws.write(Addr(7), 70);
        ws.inc(Addr(2), 1);
        ws.write(Addr(4), 40);
        ws.write(Addr(7), 71); // overwrite: position 0 keeps its slot
        ws.inc(Addr(2), 2); // accumulate: still an Increment
        ws.inc(Addr(4), -5); // inc-after-write stays a Store
        let _ = ws.promote(Addr(2), 100); // promote in place
        let got: Vec<(u32, i64, WriteKind)> =
            ws.iter().map(|(a, e)| (a.0, e.value, e.kind)).collect();
        assert_eq!(
            got,
            vec![
                (7, 71, WriteKind::Store),
                (2, 103, WriteKind::Store),
                (4, 35, WriteKind::Store),
            ]
        );
        assert_eq!(ws.len(), 3);
    }

    /// The index behind its filter against a `BTreeMap` + first-touch-order
    /// model, checked after every step, across growth and across `clear`.
    #[test]
    fn index_agrees_with_a_map_model_deterministic() {
        use crate::heap::LINE_WORDS;
        use crate::util::SplitMix64;
        use std::collections::BTreeMap;

        // Addresses whose home slots fall in one 1/1024th of any index:
        // probe sequences hundreds of slots long.
        let colliding: Vec<Addr> = (0..u32::MAX)
            .map(Addr)
            .filter(|&a| spread(a) >> 54 == 0)
            .take(600)
            .collect();
        // Addresses that share one filter bit but spread over the index:
        // whatever is buffered, the filter passes every one of them, so
        // the probe alone must tell the buffered from the rest.
        let one_bit: Vec<Addr> = (0..u32::MAX)
            .map(Addr)
            .filter(|&a| filter_bit(a) == 1 << 17)
            .take(600)
            .collect();
        type AddrOf<'a> = &'a dyn Fn(usize) -> Addr;
        // (name, addresses, the address of each, filter bits they can set)
        let patterns: [(&str, usize, AddrOf<'_>, u32); 4] = [
            ("dense", 5_000, &|i| Addr(i as u32), 64),
            ("strided", 5_000, &|i| Addr((i * LINE_WORDS) as u32), 64),
            ("colliding", colliding.len(), &|i| colliding[i], 1),
            ("one filter bit", one_bit.len(), &|i| one_bit[i], 1),
        ];
        for (pattern, most, addr_of, bits) in patterns {
            let mut widest_filter = 0;
            let mut rng = SplitMix64::new(0x5E75 ^ most as u64);
            let mut ws = ScratchBox::take();
            // The model: entries in first-touch order, and where each
            // address sits in that order.
            let mut model: Vec<(Addr, WriteEntry)> = Vec::new();
            let mut place: BTreeMap<Addr, usize> = BTreeMap::new();
            let mut universe = 1 + rng.index(most);
            for step in 0..=10_000 {
                // Epochs of 1 500, 100, 4 400 and 4 000 steps, each over a
                // new universe: nothing of the old one may show through.
                if [1_500, 1_600, 6_000, 10_000].contains(&step) {
                    // The whole pattern, not two samples: every buffered
                    // address found, every other missed, and nothing
                    // found once the set is cleared.
                    widest_filter = widest_filter.max(ws.written.count_ones());
                    for a in (0..most).map(addr_of) {
                        let expect = place.get(&a).map(|&at| model[at].1);
                        assert_eq!(ws.get(a), expect, "{pattern} step {step}: {a:?}");
                    }
                    ws.clear_writes();
                    model.clear();
                    place.clear();
                    for a in (0..most).map(addr_of) {
                        assert_eq!(ws.get(a), None, "{pattern} step {step}: {a:?} cleared");
                    }
                    universe = 1 + rng.index(most);
                }
                if step == 10_000 {
                    break;
                }
                let addr = addr_of(rng.index(universe));
                let value = rng.next_u64() as i64 >> 40;
                let known = place.get(&addr).copied();
                let mut touch = |fresh: WriteEntry, update: &dyn Fn(&mut WriteEntry)| match known {
                    Some(at) => update(&mut model[at].1),
                    None => {
                        place.insert(addr, model.len());
                        model.push((addr, fresh));
                    }
                };
                match (rng.index(10), known) {
                    (0..4, _) => {
                        ws.write(addr, value);
                        let kind = WriteKind::Store;
                        touch(WriteEntry { value, kind }, &|e| {
                            *e = WriteEntry { value, kind };
                        });
                    }
                    (4..8, _) => {
                        ws.inc(addr, value);
                        let kind = WriteKind::Increment;
                        touch(WriteEntry { value, kind }, &|e| {
                            e.value = e.value.wrapping_add(value);
                        });
                    }
                    (8, Some(at)) if model[at].1.kind == WriteKind::Increment => {
                        let e = &mut model[at].1;
                        e.value = e.value.wrapping_add(value);
                        e.kind = WriteKind::Store;
                        assert_eq!(ws.writes.promote(addr, value), e.value);
                    }
                    _ => {}
                }
                let expect = |a: Addr| place.get(&a).map(|&at| model[at].1);
                let other = addr_of(rng.index(most));
                assert_eq!(ws.get(addr), expect(addr), "{pattern} step {step}");
                assert_eq!(ws.get(other), expect(other), "{pattern} step {step}");
                // The filter only ever hides what the index does not hold.
                assert_eq!(ws.writes.get(other), expect(other));
                assert_eq!(ws.writes.len(), model.len(), "{pattern} step {step}");
                assert_eq!(ws.writes.is_empty(), model.is_empty());
                assert!(
                    ws.writes.iter().eq(model.iter().copied()),
                    "{pattern} step {step}: iteration order or values"
                );
            }
            // Swept both where the filter rules nothing out (every bit
            // set, so at least 64 addresses buffered) and where one bit
            // stands for all that is buffered and all that is not.
            assert_eq!(widest_filter, bits, "{pattern}: filter bits at a sweep");
        }
    }

    #[test]
    fn filter_has_no_false_negatives_and_resets() {
        let mut ws = ScratchBox::take();
        assert!(!ws.may_hold(Addr(0)), "an empty set holds nothing");
        for i in 0..200u32 {
            // Alternate the two insert paths.
            if i % 2 == 0 {
                ws.write(Addr(i * 7), 1);
            } else {
                ws.inc(Addr(i * 7), 1);
            }
            assert!((0..=i).all(|j| ws.may_hold(Addr(j * 7))), "after {i}");
        }
        ws.clear_writes();
        assert_eq!(ws.written, 0);
        assert!((0..200).all(|j| !ws.may_hold(Addr(j * 7))));
    }

    /// Whether one filter bit stands for both addresses: buffering either
    /// sends a barrier on the other past the filter, into the index.
    pub(crate) fn filter_twins(a: Addr, b: Addr) -> bool {
        filter_bit(a) == filter_bit(b)
    }

    #[test]
    fn clear_does_not_resurrect_entries_at_reused_positions() {
        // `clear` frees slots entry by entry; positions 0..n are filled
        // again by the next attempt, under other addresses.
        let mut ws = WriteSet::default();
        for round in 0..50u32 {
            for i in 0..40 {
                ws.write(Addr(round * 1_000 + i), round as i64);
            }
            for old in 0..round {
                assert_eq!(ws.get(Addr(old * 1_000 + 7)), None, "round {round}");
            }
            assert_eq!(ws.len(), 40);
            assert_eq!(
                ws.get(Addr(round * 1_000 + 39)).unwrap().value,
                round as i64
            );
            ws.clear();
            assert_eq!(ws.get(Addr(round * 1_000)), None);
        }
    }

    #[test]
    fn clear_resets_but_reuses() {
        let mut ws = WriteSet::default();
        ws.write(Addr(1), 1);
        ws.clear();
        assert!(ws.is_empty());
        assert_eq!(ws.get(Addr(1)), None);
    }
}
