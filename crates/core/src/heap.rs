//! The word-addressable transactional heap.
//!
//! All shared state accessed by transactions lives in a [`Heap`]: a flat,
//! pre-sized array of 64-bit words. An [`Addr`] is an index into that
//! array. This mirrors how the paper's STM algorithms (and RSTM / libitm)
//! treat memory: conflict detection happens at the granularity of machine
//! words identified by their address, with no knowledge of higher-level
//! types. The typed layer in [`crate::tvar`] is purely a convenience on
//! top.
//!
//! Allocation is a thread-safe CAS-reserved bump pointer (enough for the
//! STAMP-style workloads, which allocate nodes of a handful of distinct
//! sizes and recycle them through pools).
//!
//! # Cache-line discipline
//!
//! Word index 0 sits on a 128-byte boundary and every run of
//! [`LINE_WORDS`] consecutive indices shares one cache line (the crate is
//! `forbid(unsafe_code)`, so instead of an aligned allocation the backing
//! array is over-allocated by one line and indexed at a runtime base
//! offset — one integer add on the access path). On top of that,
//! [`Heap::alloc_padded`] reserves whole cache lines, so independently
//! allocated nodes never false-share a line; see DESIGN.md §8.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Bytes per padding unit: two 64-byte cache lines, matching the
/// `#[repr(align(128))]` stat shards in [`crate::telemetry`] (adjacent-line
/// prefetchers pull line pairs, so 128 is the safe stride).
pub const LINE_BYTES: usize = 128;

/// Heap words per padding unit ([`LINE_BYTES`] / 8).
pub const LINE_WORDS: usize = LINE_BYTES / 8;

/// Index of a 64-bit word in the transactional [`Heap`].
///
/// `Addr` is the "memory address" of the paper's `TM_READ(addr)` /
/// `TM_WRITE(addr)` / `TM_GT(addr, ..)` constructs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Addr(pub(crate) u32);

impl Addr {
    /// Address `self + i` — used for indexing into heap-allocated arrays.
    ///
    /// # Panics
    /// Panics if `self + i` overflows the address space (`u32`). The old
    /// unchecked form truncated `i` to 32 bits and wrapped the add in
    /// release builds, silently aliasing an unrelated heap word — which
    /// corrupts value-based conflict detection rather than failing.
    #[inline]
    pub fn offset(self, i: usize) -> Addr {
        let i = u32::try_from(i)
            .ok()
            .and_then(|i| self.0.checked_add(i))
            .unwrap_or_else(|| panic!("address offset out of range: {} + {}", self.0, i));
        Addr(i)
    }

    /// The raw word index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct an address from a raw word index.
    ///
    /// Intended for (de)serialising addresses across the IR boundary; the
    /// address must have been produced by an allocation on the same heap.
    ///
    /// # Panics
    /// Panics if `i` does not fit the 32-bit address space.
    #[inline]
    pub fn from_index(i: usize) -> Addr {
        Addr(u32::try_from(i).expect("heap address out of range"))
    }
}

/// A flat shared memory of 64-bit words.
///
/// Words hold `i64` values stored as raw bit patterns. Non-transactional
/// accessors (`load` / `store`) are provided for initialisation and for
/// checking results outside transactions; during concurrent execution all
/// accesses must go through a transaction.
pub struct Heap {
    /// Backing store, over-allocated by `LINE_WORDS - 1` words; logical
    /// word `i` lives at `words[base + i]`.
    words: Box<[AtomicU64]>,
    /// Offset of logical word 0, chosen so it starts a 128-byte line.
    base: usize,
    /// Logical capacity in words (what `alloc` may hand out).
    capacity: usize,
    next: AtomicUsize,
}

impl Heap {
    /// Create a heap with capacity for `capacity` words, all zeroed, with
    /// word 0 cache-line-aligned.
    ///
    /// # Panics
    /// Panics if `capacity` exceeds the 32-bit [`Addr`] space (checked
    /// before the backing array is allocated).
    pub fn new(capacity: usize) -> Heap {
        assert!(
            capacity <= u32::MAX as usize + 1,
            "heap capacity {capacity} words exceeds the 32-bit address space"
        );
        let mut v = Vec::with_capacity(capacity + LINE_WORDS - 1);
        v.resize_with(capacity + LINE_WORDS - 1, || AtomicU64::new(0));
        let words = v.into_boxed_slice();
        // `as usize` on a pointer is safe (no deref); AtomicU64 is 8-byte
        // aligned, so the distance to the next 128-byte boundary is a
        // whole number of words.
        let addr = words.as_ptr() as usize;
        let base = (LINE_BYTES - (addr % LINE_BYTES)) % LINE_BYTES / 8;
        Heap {
            words,
            base,
            capacity,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of words this heap can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of words allocated so far. A failed (panicking) allocation
    /// does not change this — reservation is a CAS that only succeeds
    /// when the block fits.
    #[inline]
    pub fn allocated(&self) -> usize {
        self.next.load(Ordering::Relaxed)
    }

    /// Reserve `n` words starting at `next` rounded up by `align_up`,
    /// retrying the CAS under contention. Returns the reserved start.
    fn reserve(&self, n: usize, align: usize) -> usize {
        assert!(n > 0, "zero-sized allocation");
        let mut cur = self.next.load(Ordering::Relaxed);
        loop {
            let start = cur.next_multiple_of(align);
            let end = start.saturating_add(n);
            assert!(
                end <= self.capacity,
                "transactional heap exhausted: capacity {} words, {} in use, requested {} more",
                self.capacity,
                cur,
                n
            );
            match self
                .next
                .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return start,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Allocate `n` contiguous words (zero-initialised at heap creation;
    /// reused blocks are *not* re-zeroed — callers that recycle memory
    /// through pools must initialise it).
    ///
    /// # Panics
    /// Panics if the heap is exhausted; the heap is a fixed-size arena by
    /// design (matching the static memory model of conflict detection —
    /// addresses stay meaningful for the lifetime of the `Stm`). A failed
    /// allocation leaves the heap unchanged: the reservation is a CAS
    /// loop, not a blind `fetch_add`, so racing allocators cannot leak
    /// reservations past the arena.
    pub fn alloc(&self, n: usize) -> Addr {
        Addr::from_index(self.reserve(n, 1))
    }

    /// Allocate `n` contiguous words on a fresh cache line, consuming a
    /// whole number of lines so the *next* allocation (padded or not)
    /// starts on a different line. Opt-in layout mode for workload node
    /// pools: nodes allocated this way never false-share, at a cost of
    /// up to `LINE_WORDS - 1` words of slack per allocation.
    ///
    /// # Panics
    /// As [`Heap::alloc`].
    pub fn alloc_padded(&self, n: usize) -> Addr {
        assert!(n > 0, "zero-sized allocation");
        let lines = n.div_ceil(LINE_WORDS);
        Addr::from_index(self.reserve(lines * LINE_WORDS, LINE_WORDS))
    }

    /// Non-transactional (racy w.r.t. running transactions) word load.
    ///
    /// `SeqCst`, unlike `Heap::tm_store`'s `Release`: a non-transactional
    /// access holds no lock whose release or acquisition it could pair
    /// with, so it keeps the strongest ordering. Reading a word a
    /// committed transaction wrote back is still an acquire of that store
    /// (the publication edge, DESIGN.md §8.5).
    #[inline]
    pub fn load(&self, a: Addr) -> i64 {
        self.words[self.base + a.0 as usize].load(Ordering::SeqCst) as i64
    }

    /// Non-transactional word store. Only safe for program logic when no
    /// transaction is concurrently running (setup / teardown phases).
    /// `SeqCst` for the reason [`Heap::load`] is: there is no lock here
    /// to pair with.
    #[inline]
    pub fn store(&self, a: Addr, v: i64) {
        self.words[self.base + a.0 as usize].store(v as u64, Ordering::SeqCst);
    }

    /// Word load used by the STM algorithms themselves. `SeqCst` (so at
    /// least `Acquire`): it pairs with [`Heap::tm_store`].
    #[inline]
    pub(crate) fn tm_load(&self, a: Addr) -> i64 {
        self.words[self.base + a.0 as usize].load(Ordering::SeqCst) as i64
    }

    /// Word store used by the STM algorithms at write-back (caller must
    /// hold the appropriate lock: the NOrec sequence lock, its clock
    /// shards, or the TL2 orec).
    ///
    /// `Release`: a reader whose [`Heap::tm_load`] (an acquire) returns
    /// this value also sees the odd clock / shard word or locked orec, and
    /// the epoch bump, that the committer wrote before it — so its next
    /// clock or orec check rejects a torn snapshot (DESIGN.md §8.5).
    /// Nothing the committer does after the store depends on it being
    /// ordered before a later load, so the full fence of a `SeqCst` store
    /// (`xchg` on x86) buys nothing.
    #[inline]
    pub(crate) fn tm_store(&self, a: Addr, v: i64) {
        self.words[self.base + a.0 as usize].store(v as u64, Ordering::Release);
    }
}

impl std::fmt::Debug for Heap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heap")
            .field("capacity", &self.capacity())
            .field("allocated", &self.allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_contiguous_and_monotonic() {
        let h = Heap::new(16);
        let a = h.alloc(4);
        let b = h.alloc(2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 4);
        assert_eq!(a.offset(3).index(), 3);
        assert_eq!(h.allocated(), 6);
    }

    #[test]
    fn load_store_roundtrip_negative() {
        let h = Heap::new(4);
        let a = h.alloc(1);
        h.store(a, -123456789);
        assert_eq!(h.load(a), -123456789);
        h.store(a, i64::MIN);
        assert_eq!(h.load(a), i64::MIN);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_past_capacity_panics() {
        let h = Heap::new(2);
        let _ = h.alloc(3);
    }

    #[test]
    #[should_panic(expected = "offset out of range")]
    fn offset_overflow_panics() {
        // The old `self.0 + i as u32` truncated this offset to 0 in a
        // release build and returned the *same* address.
        let _ = Addr(1).offset(1 << 32);
    }

    #[test]
    #[should_panic(expected = "offset out of range")]
    fn offset_add_wrap_panics() {
        let _ = Addr(u32::MAX).offset(1);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit address space")]
    fn oversized_arena_rejected_up_front() {
        // Checked before the backing array is allocated, so this does not
        // try to reserve 32 GiB — and `alloc` can never hand out an index
        // that `Addr::from_index` would truncate.
        let _ = Heap::new((u32::MAX as usize) + 2);
    }

    #[test]
    fn failed_alloc_leaves_allocated_consistent() {
        let h = Heap::new(8);
        let _ = h.alloc(6);
        // The old fetch-add-then-assert bumped `next` to 10 here and
        // `allocated()` clamped over it; now the reservation never lands.
        assert!(std::panic::catch_unwind(|| h.alloc(4)).is_err());
        assert_eq!(h.allocated(), 6);
        // A fitting retry still succeeds.
        let a = h.alloc(2);
        assert_eq!(a.index(), 6);
        assert_eq!(h.allocated(), 8);
    }

    #[test]
    fn word_zero_is_line_aligned() {
        let h = Heap::new(64);
        let addr = h.words[h.base..].as_ptr() as usize;
        assert_eq!(addr % LINE_BYTES, 0, "word 0 not on a 128-byte boundary");
    }

    #[test]
    fn padded_allocs_land_on_distinct_lines() {
        let h = Heap::new(LINE_WORDS * 8);
        let a = h.alloc_padded(1);
        let b = h.alloc_padded(LINE_WORDS + 1);
        let c = h.alloc(1);
        assert_eq!(a.index() % LINE_WORDS, 0);
        assert_eq!(b.index() % LINE_WORDS, 0);
        assert_eq!(b.index(), LINE_WORDS);
        // A two-line node consumes both of its lines.
        assert_eq!(c.index(), 3 * LINE_WORDS);
        assert_eq!(h.allocated(), 3 * LINE_WORDS + 1);
    }

    #[test]
    fn padded_alloc_after_unpadded_skips_to_boundary() {
        let h = Heap::new(LINE_WORDS * 4);
        let _ = h.alloc(3);
        let a = h.alloc_padded(2);
        assert_eq!(a.index(), LINE_WORDS);
    }

    #[test]
    fn concurrent_alloc_never_overlaps() {
        let h = std::sync::Arc::new(Heap::new(4096));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let h = h.clone();
            handles.push(std::thread::spawn(move || {
                (0..64).map(|_| h.alloc(4).index()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|j| j.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4 * 64, "allocations overlapped");
    }
}
