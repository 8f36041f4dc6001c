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
//! # Reserved versus resident words
//!
//! Capacity costs address space, not memory: like the process memory the
//! paper's runtimes instrument, a heap makes resident only the words that
//! are touched. A heap array larger than 128 KiB (glibc's default
//! `M_MMAP_THRESHOLD`) is requested as one zeroed block of at least
//! 32 MiB + 1 word, above the highest value glibc's dynamic mmap
//! threshold can take (`DEFAULT_MMAP_THRESHOLD_MAX` on 64-bit). The
//! allocator therefore always serves it with a fresh private mapping:
//! its pages are zero without being cleared, untouched words never
//! become resident, and dropping the heap unmaps it, so no later
//! allocation has to clear what it leaves behind. (Sized exactly, a heap
//! freed after the threshold has risen lands in the arena, and the next
//! heap of that size is recycled arena memory that `calloc` clears page
//! by page.) Smaller arrays keep their exact size: clearing one costs
//! little, and a debug build, where the zeroed allocation is not folded
//! (see `zeroed_words`), writes every reserved word, so a floor on every
//! small test heap would make debug test binaries many times slower.
//! Words past the logical length stay out of reach: every access
//! bounds-checks against it, not against the reservation. The TL2 orec
//! table (`tl2::orec`) is reserved by the same rule: a table above
//! 128 KiB costs one mapping to build, and only the orecs of touched
//! words become resident.
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
/// `#[repr(align(128))]` attempt records in [`crate::stats`] (adjacent-line
/// prefetchers pull line pairs, so 128 is the safe stride).
pub const LINE_BYTES: usize = 128;

/// Heap words per padding unit ([`LINE_BYTES`] / 8).
pub const LINE_WORDS: usize = LINE_BYTES / 8;

/// Largest heap array reserved at its exact size: 128 KiB of words,
/// glibc's default `M_MMAP_THRESHOLD` (module docs).
const EXACT_MAX_WORDS: usize = (128 << 10) / 8;

/// Smallest reservation of a larger array: 32 MiB + 1 word, above glibc's
/// `DEFAULT_MMAP_THRESHOLD_MAX` on 64-bit, the highest its dynamic mmap
/// threshold rises to, so the block is always a fresh mapping.
const FRESH_MAPPING_WORDS: usize = (32 << 20) / 8 + 1;

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
    /// word `i` lives at `words[base + i]`. Its spare capacity is the
    /// untouched tail of the reservation (module docs), never indexed.
    words: Vec<AtomicU64>,
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
    /// The array (`capacity + LINE_WORDS - 1` words) is reserved as one
    /// zeroed block by `zeroed_words`: at its exact size up to 128 KiB,
    /// and otherwise at least 32 MiB + 1 word, which the allocator always
    /// serves with a fresh mapping (module docs). Only the words a program
    /// touches become resident.
    ///
    /// # Panics
    /// Panics if `capacity` exceeds the 32-bit [`Addr`] space (checked
    /// before the backing array is allocated).
    pub fn new(capacity: usize) -> Heap {
        assert!(
            capacity <= u32::MAX as usize + 1,
            "heap capacity {capacity} words exceeds the 32-bit address space"
        );
        let words = zeroed_words(capacity + LINE_WORDS - 1);
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

    /// Initialise `count` words of a freshly allocated block, `stride`
    /// words apart from `start`, to `v` (non-transactionally).
    ///
    /// `Release`, not [`Heap::store`]'s `SeqCst` (an `xchg` per word on
    /// x86): the block was just reserved and no other thread holds its
    /// address yet. Whatever hands the address over — a transaction's
    /// write-back ([`Heap::tm_store`], a release), a `SeqCst`
    /// [`Heap::store`], a thread spawn — is ordered after these stores,
    /// so a thread that learns the address through it also sees the
    /// initial values (DESIGN.md §8.5).
    pub(crate) fn init_block(&self, start: Addr, count: usize, stride: usize, v: i64) {
        let first = self.base + start.index();
        for i in 0..count {
            self.words[first + i * stride].store(v as u64, Ordering::Release);
        }
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

/// `len` zeroed atomic words, reserved as one block: at its exact size
/// up to 128 KiB, and otherwise at least 32 MiB + 1 word, which the
/// allocator always serves with a fresh mapping (module docs), so only
/// the words a program touches become resident. The heap's array and
/// the TL2 orec table are both reserved this way. In an optimised build
/// the `with_capacity` + `resize_with` pair below compiles to one
/// `__rust_alloc_zeroed` (glibc `calloc`, which does not clear a fresh
/// mapping); a debug build writes every reserved word.
pub(crate) fn zeroed_words(len: usize) -> Vec<AtomicU64> {
    let reserve = if len > EXACT_MAX_WORDS {
        len.max(FRESH_MAPPING_WORDS)
    } else {
        len
    };
    let mut words = Vec::with_capacity(reserve);
    words.resize_with(reserve, || AtomicU64::new(0));
    // Indexing checks the length, so the tail past `len` is reserved,
    // never reachable.
    words.truncate(len);
    words
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
        // Exact-size and reserved (fresh-mapping) backing alike.
        for capacity in [64, 1 << 20] {
            let h = Heap::new(capacity);
            let addr = h.words[h.base..].as_ptr() as usize;
            assert_eq!(addr % LINE_BYTES, 0, "{capacity}: word 0 not line-aligned");
        }
    }

    #[test]
    fn only_large_arrays_are_reserved_past_their_length() {
        let small = Heap::new(1 << 12);
        assert_eq!(small.words.capacity(), (1 << 12) + LINE_WORDS - 1);
        let large = Heap::new(1 << 20);
        assert_eq!(large.words.len(), (1 << 20) + LINE_WORDS - 1);
        assert!(large.words.capacity() >= FRESH_MAPPING_WORDS);
    }

    #[test]
    fn the_reserved_tail_is_out_of_bounds() {
        // Both addresses are inside the reservation of a 1 Mi-word heap
        // (32 MiB + 1 word) but past its array, so they must panic as
        // they did when the array was sized exactly.
        let h = Heap::new(1 << 20);
        for i in [h.capacity() + LINE_WORDS, 2 * h.capacity()] {
            let a = Addr::from_index(i);
            assert!(std::panic::catch_unwind(|| h.load(a)).is_err(), "load {i}");
            assert!(
                std::panic::catch_unwind(|| h.store(a, 1)).is_err(),
                "store {i}"
            );
        }
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
