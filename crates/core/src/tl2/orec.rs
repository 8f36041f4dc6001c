//! The ownership-record (orec) table of the TL2 family.
//!
//! Each orec is one atomic word encoding either
//!
//! * `version << 1` — unlocked, last written at global time `version`; or
//! * `(owner << 1) | 1` — write-locked by the committer whose
//!   [thread token](crate::util::thread_token) is `owner`.
//!
//! Addresses map to orecs by masking the word index, so a table of `2^k`
//! orecs stripes the heap; distinct hot words in small structures get
//! distinct orecs, while unrelated words may alias (false conflicts are
//! allowed — they only cost precision, not safety).
//!
//! Like the heap's word array, the table is base-aligned to a 128-byte
//! cache line (over-allocate one line, index at a runtime offset — the
//! crate forbids `unsafe`, so no aligned-allocation tricks). Orec 0 then
//! starts a line, and together with [`crate::heap::Heap::alloc_padded`]
//! this keeps the orecs of unrelated padded nodes [`LINE_WORDS`] indices —
//! a full line — apart instead of packed into the same one.

use crate::heap::{zeroed_words, LINE_BYTES, LINE_WORDS};
use std::sync::atomic::{AtomicU64, Ordering};

/// An orec word value (snapshot of the atomic).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OrecWord(pub u64);

impl OrecWord {
    /// Is the lock bit set?
    #[inline]
    pub fn is_locked(self) -> bool {
        self.0 & 1 == 1
    }

    /// Owner token (valid only when locked).
    #[inline]
    pub fn owner(self) -> u64 {
        debug_assert!(self.is_locked());
        self.0 >> 1
    }

    /// Version (valid only when unlocked).
    #[inline]
    pub fn version(self) -> u64 {
        debug_assert!(!self.is_locked());
        self.0 >> 1
    }

    /// Locked by someone other than `me`?
    #[inline]
    pub fn locked_by_other(self, me: u64) -> bool {
        self.is_locked() && self.owner() != me
    }

    /// Encode an unlocked word at `version`.
    #[inline]
    pub fn unlocked(version: u64) -> OrecWord {
        OrecWord(version << 1)
    }

    /// Encode a locked word owned by `owner`.
    #[inline]
    pub fn locked(owner: u64) -> OrecWord {
        OrecWord((owner << 1) | 1)
    }
}

/// The shared orec table.
pub struct OrecTable {
    /// Backing store, over-allocated by `LINE_WORDS - 1`; orec `i` lives
    /// at `orecs[base + i]`. Reserved like the heap's array
    /// ([`zeroed_words`]): a table above 128 KiB is a fresh mapping, and
    /// only the orecs of touched words become resident.
    orecs: Vec<AtomicU64>,
    /// Offset of orec 0, chosen so it starts a 128-byte line.
    base: usize,
    mask: usize,
}

impl OrecTable {
    /// Create a table with at least `count` orecs (rounded up to a power
    /// of two), orec 0 cache-line-aligned.
    pub fn new(count: usize) -> OrecTable {
        let n = count.max(2).next_power_of_two();
        let orecs = zeroed_words(n + LINE_WORDS - 1);
        let addr = orecs.as_ptr() as usize;
        let base = (LINE_BYTES - (addr % LINE_BYTES)) % LINE_BYTES / 8;
        OrecTable {
            orecs,
            base,
            mask: n - 1,
        }
    }

    /// The orec index covering heap word `word_index`.
    #[inline]
    pub fn index_of(&self, word_index: usize) -> usize {
        word_index & self.mask
    }

    /// Snapshot orec `i`.
    #[inline]
    pub fn load(&self, i: usize) -> OrecWord {
        OrecWord(self.orecs[self.base + i].load(Ordering::SeqCst))
    }

    /// Try to swing orec `i` from the unlocked word `expected` to locked
    /// by `owner`.
    #[inline]
    pub fn try_lock(&self, i: usize, expected: OrecWord, owner: u64) -> bool {
        debug_assert!(!expected.is_locked());
        self.orecs[self.base + i]
            .compare_exchange(
                expected.0,
                OrecWord::locked(owner).0,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
    }

    /// Store an arbitrary word into orec `i` (release with a new version,
    /// or roll back to the pre-lock word after a failed commit). A release
    /// store: a reader that loads the new version ([`OrecTable::load`])
    /// sees every write-back store under the orec.
    #[inline]
    pub fn store(&self, i: usize, word: OrecWord) {
        self.orecs[self.base + i].store(word.0, Ordering::Release);
    }

    /// Number of orecs in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.mask + 1
    }

    /// Whether the table is empty (never true in practice; for lint
    /// symmetry with `len`).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_encoding_roundtrip() {
        let u = OrecWord::unlocked(77);
        assert!(!u.is_locked());
        assert_eq!(u.version(), 77);
        let l = OrecWord::locked(5);
        assert!(l.is_locked());
        assert_eq!(l.owner(), 5);
        assert!(l.locked_by_other(4));
        assert!(!l.locked_by_other(5));
    }

    #[test]
    fn table_rounds_to_power_of_two_and_masks() {
        let t = OrecTable::new(100);
        assert_eq!(t.len(), 128);
        assert_eq!(t.index_of(128), 0);
        assert_eq!(t.index_of(129), 1);
        assert_eq!(t.index_of(127), 127);
    }

    #[test]
    fn orec_zero_is_line_aligned() {
        let t = OrecTable::new(64);
        let addr = t.orecs[t.base..].as_ptr() as usize;
        assert_eq!(addr % LINE_BYTES, 0, "orec 0 not on a 128-byte boundary");
    }

    #[test]
    fn lock_unlock_cycle() {
        let t = OrecTable::new(4);
        let w0 = t.load(0);
        assert_eq!(w0.version(), 0);
        assert!(t.try_lock(0, w0, 9));
        assert!(t.load(0).locked_by_other(1));
        assert!(!t.try_lock(0, OrecWord::unlocked(0), 1), "already locked");
        t.store(0, OrecWord::unlocked(3));
        assert_eq!(t.load(0).version(), 3);
    }
}
