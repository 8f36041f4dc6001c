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

use crate::error::Abort;
use crate::heap::{Addr, Heap};
use crate::ops::CmpOp;
use crate::sched;
use crate::telemetry::PhaseRecorder;
use crate::util::hash_u32;
use crate::wal::CommitLog;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

#[derive(Default)]
struct IdentityU64 {
    h: u64,
}

impl Hasher for IdentityU64 {
    fn finish(&self) -> u64 {
        self.h
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("only u32 keys are hashed");
    }
    fn write_u32(&mut self, v: u32) {
        self.h = hash_u32(v);
    }
}

type AddrMap<V> = HashMap<u32, V, BuildHasherDefault<IdentityU64>>;

/// The transaction write-set, preserving insertion order for deterministic
/// write-back.
///
/// Entries live **inline** in the insertion-order vec; the hash map only
/// holds indices into it. Lookups (`get`, the `write`/`inc` upsert,
/// `promote`) pay one hash probe as before, but [`WriteSet::iter`] — the
/// commit write-back and WAL record-construction path, executed while the
/// commit locks are held — is a linear scan with no per-entry hashing.
#[derive(Default)]
pub struct WriteSet {
    map: AddrMap<u32>,
    entries: Vec<(Addr, WriteEntry)>,
}

impl WriteSet {
    /// Look up the buffered entry for `addr`.
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<WriteEntry> {
        self.map.get(&addr.0).map(|&i| self.entries[i as usize].1)
    }

    /// Record a `TM_WRITE`: overwrites any previous entry and resets the
    /// kind to `Store` (Algorithm 6, line 51).
    pub fn write(&mut self, addr: Addr, value: i64) {
        let entry = WriteEntry {
            value,
            kind: WriteKind::Store,
        };
        match self.map.get(&addr.0) {
            Some(&i) => self.entries[i as usize].1 = entry,
            None => {
                self.map.insert(addr.0, self.entries.len() as u32);
                self.entries.push((addr, entry));
            }
        }
    }

    /// Record a `TM_INC`: accumulates the delta onto the existing entry
    /// *without changing its kind* (Algorithm 6, line 46), or creates a
    /// fresh `Increment` entry (line 48).
    pub fn inc(&mut self, addr: Addr, delta: i64) {
        match self.map.get(&addr.0) {
            Some(&i) => {
                let e = &mut self.entries[i as usize].1;
                e.value = e.value.wrapping_add(delta);
            }
            None => {
                self.map.insert(addr.0, self.entries.len() as u32);
                self.entries.push((
                    addr,
                    WriteEntry {
                        value: delta,
                        kind: WriteKind::Increment,
                    },
                ));
            }
        }
    }

    /// Promote an `Increment` entry to a `Store` after observing the
    /// current memory value `observed` (Algorithm 6, lines 19–22).
    /// Returns the promoted value. Panics if the entry is not an
    /// increment — callers must check the kind first.
    pub fn promote(&mut self, addr: Addr, observed: i64) -> i64 {
        let i = *self
            .map
            .get(&addr.0)
            .expect("promote of address not in write-set");
        let e = &mut self.entries[i as usize].1;
        assert_eq!(e.kind, WriteKind::Increment, "promote of a Store entry");
        e.value = e.value.wrapping_add(observed);
        e.kind = WriteKind::Store;
        e.value
    }

    /// Iterate entries in insertion order (a plain slice walk — the
    /// commit-path fast iteration this layout exists for).
    pub fn iter(&self) -> impl Iterator<Item = (Addr, WriteEntry)> + '_ {
        self.entries.iter().copied()
    }

    /// The commit tail every engine shares, entered with the commit locks
    /// held and validation passed: resolve deferred increments against
    /// live memory, append the resolved record to `wal` (replay cannot
    /// re-run increments, so resolution precedes the append), write back,
    /// release, and ack only once durable.
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
        phases: &mut PhaseRecorder,
        before_stores: impl FnOnce(),
        release: impl FnOnce(bool),
    ) -> Result<(), Abort> {
        let mut ticket = None;
        if let Some(log) = wal {
            let resolved: Vec<(Addr, i64)> = self
                .iter()
                .map(|(addr, e)| (addr, e.resolve(heap, addr)))
                .collect();
            sched::point(sched::PointKind::WalAppend);
            match log.append(&resolved) {
                Ok(t) => ticket = Some((log, t)),
                Err(_) => {
                    release(false);
                    return Err(Abort::durability());
                }
            }
        }
        before_stores();
        phases.mark_writeback();
        for (addr, e) in self.iter() {
            heap.tm_store(addr, e.resolve(heap, addr));
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

    /// Drop all entries, keeping allocations for the next attempt.
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn clear_resets_but_reuses() {
        let mut ws = WriteSet::default();
        ws.write(Addr(1), 1);
        ws.clear();
        assert!(ws.is_empty());
        assert_eq!(ws.get(Addr(1)), None);
    }
}
