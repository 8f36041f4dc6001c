//! Small self-contained utilities: deterministic PRNG, spin-wait helper,
//! per-thread tokens and record leases, and a fast integer hasher.
//!
//! We deliberately avoid external RNG crates in the runtime and workloads
//! so that experiments are bit-reproducible across runs and machines.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// SplitMix64 — tiny, fast, statistically decent PRNG for workload
/// generation and contention-manager jitter. Deterministic per seed.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire's multiply-shift rejection-free approximation is fine for
        // workload generation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Bernoulli trial with probability `pct / 100`.
    #[inline]
    pub fn chance(&mut self, pct: u32) -> bool {
        self.below(100) < pct as u64
    }
}

/// Spin-wait helper that yields the OS thread periodically — essential
/// on machines with fewer cores than threads, where pure spinning can
/// starve the lock holder for a whole scheduler quantum.
#[derive(Default)]
pub struct SpinWait {
    count: u32,
}

impl SpinWait {
    /// Create a fresh spin-wait state.
    pub fn new() -> SpinWait {
        SpinWait::default()
    }

    /// One wait step: cheap CPU hint at first, a `yield_now` every 64th
    /// step so a preempted writer can run.
    #[inline]
    pub fn spin(&mut self) {
        self.count = self.count.wrapping_add(1);
        if self.count.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

thread_local! {
    static THREAD_SEED: Cell<u64> = const { Cell::new(0) };
    static LEASE: HeldLease = const { HeldLease(Cell::new(LEASES)) };
}

/// A per-thread unique small integer, used to seed contention-manager
/// jitter and as the TL2 lock-owner token. Never reused: the millionth
/// thread started gets token one million, whatever exited before it.
pub fn thread_token() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    THREAD_SEED.with(|c| {
        let v = c.get();
        if v != 0 {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            c.set(v);
            v
        }
    })
}

/// How many threads can hold a record lease at once. A thread takes the
/// lowest free lease on its first transaction and returns it when it
/// exits; every runtime keeps one attempt record per lease, written only
/// by the lease holder, and one overflow record that threads without a
/// lease share.
pub const LEASES: usize = 64;

/// Bit `i` set: lease `i` is held by a live thread.
static TAKEN: AtomicU64 = AtomicU64::new(0);

const _: () = assert!(LEASES == u64::BITS as usize, "one bit of TAKEN per lease");

/// Which attempt record of a runtime the calling thread writes: the one
/// its lease numbers, which no other live thread writes, or the overflow
/// record, which every thread without a lease shares.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Lease(usize);

impl Lease {
    /// The overflow record's lease.
    pub(crate) const OVERFLOW: Lease = Lease(LEASES);

    /// The record's index: `0..LEASES`, or `LEASES` for the overflow.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// The lease a thread holds, `LEASES` while it holds none. Dropping it
/// at thread exit returns the lease.
struct HeldLease(Cell<usize>);

impl Drop for HeldLease {
    fn drop(&mut self) {
        let held = self.0.get();
        if held < LEASES {
            // Release: whoever takes the lease next (an `Acquire` RMW in
            // `take_lease`) sees every counter this thread stored.
            TAKEN.fetch_and(!(1 << held), Ordering::Release);
        }
    }
}

/// Take the lowest free lease, or `None` while all are held.
fn take_lease() -> Option<usize> {
    let mut taken = TAKEN.load(Ordering::Relaxed);
    while taken != u64::MAX {
        let free = (!taken).trailing_zeros();
        match TAKEN.compare_exchange_weak(
            taken,
            taken | 1 << free,
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => return Some(free as usize),
            Err(now) => taken = now,
        }
    }
    None
}

/// The calling thread's lease. Taken on the thread's first call and
/// kept until it exits, when a thread-local destructor returns it; a
/// thread that found none free asks again on its next call. A thread
/// whose lease was already returned (a transaction run from another
/// thread-local's destructor) gets [`Lease::OVERFLOW`].
#[inline]
pub(crate) fn thread_lease() -> Lease {
    LEASE
        .try_with(|held| {
            if held.0.get() == LEASES {
                if let Some(lease) = take_lease() {
                    held.0.set(lease);
                }
            }
            Lease(held.0.get())
        })
        .unwrap_or(Lease::OVERFLOW)
}

/// Multiply-based avalanche for word-index keys (FxHash-style): the
/// bucket hash of the workloads' tables and the benchmark's key streams.
#[inline]
pub fn hash_u32(x: u32) -> u64 {
    let mut h = x as u64;
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut r = SplitMix64::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some buckets never hit: {seen:?}");
    }

    #[test]
    fn thread_tokens_are_unique_per_thread() {
        let t0 = thread_token();
        assert_eq!(t0, thread_token(), "stable within a thread");
        let other = std::thread::spawn(thread_token).join().unwrap();
        assert_ne!(t0, other);
    }

    #[test]
    fn hash_spreads_consecutive_keys() {
        let h: Vec<u64> = (0..64u32).map(|i| hash_u32(i) % 64).collect();
        let distinct: std::collections::HashSet<_> = h.iter().collect();
        assert!(distinct.len() > 32, "hash clusters too much: {distinct:?}");
    }
}
