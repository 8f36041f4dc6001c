//! Steady-state transactions never call the allocator.
//!
//! The paper's runtimes (RSTM, libitm) keep one transaction descriptor
//! per thread for the thread's life, so a barrier costs a barrier. Here
//! the per-thread attempt scratch plays that part: after a thread's first
//! transactions no engine allocates on begin, on any barrier, on commit
//! or on abort. The count is exact — a `#[global_allocator]` that bumps a
//! per-thread counter on every `alloc` / `realloc` — so the assertion is
//! `== 0`, not "small".

use semtm::core::util::SplitMix64;
use semtm::{Abort, Addr, Algorithm, Stm, StmConfig, TelemetryLevel, Tx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

thread_local! {
    /// Allocator calls made by this thread (no destructor, so it stays
    /// reachable while the thread's other locals are torn down).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter bump touches
// only a `Cell<u64>` thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls the calling thread makes inside `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const CELLS: usize = 1024;

/// The five engine cells of the assertion, at `Counters`.
fn engines() -> Vec<(&'static str, Stm)> {
    let config = |alg| {
        StmConfig::new(alg)
            .heap_words(1 << 16)
            .orec_count(1 << 10)
            .telemetry(TelemetryLevel::Counters)
    };
    vec![
        ("snorec", Stm::new(config(Algorithm::SNOrec))),
        (
            "snorec/16",
            Stm::new(config(Algorithm::SNOrec).clock_shards(16)),
        ),
        ("stl2", Stm::new(config(Algorithm::STl2))),
        ("norec", Stm::new(config(Algorithm::NOrec))),
        ("tl2", Stm::new(config(Algorithm::Tl2))),
    ]
}

/// `bank-transfer`'s transaction: 10 guarded transfers, 1 cmp + 2 inc.
fn bank(tx: &mut Tx<'_>, base: Addr, rng: &mut SplitMix64) -> Result<(), Abort> {
    for _ in 0..10 {
        let from = base.offset(rng.index(CELLS));
        let to = base.offset(rng.index(CELLS));
        if tx.gte(from, 1)? {
            tx.dec(from, 1)?;
            tx.inc(to, 1)?;
        }
    }
    Ok(())
}

/// `scan-audit`'s transaction: 64 plain reads, every 7th also an inc.
fn scan(tx: &mut Tx<'_>, base: Addr, rng: &mut SplitMix64, nth: u64) -> Result<(), Abort> {
    let mut sum = 0i64;
    for _ in 0..64 {
        sum = sum.wrapping_add(tx.read(base.offset(rng.index(CELLS)))?);
    }
    std::hint::black_box(sum);
    if nth.is_multiple_of(7) {
        tx.inc(base.offset(rng.index(CELLS)), 1)?;
    }
    Ok(())
}

/// 8 buffered updates (stores and increments alternating) and 8 reads of
/// the same cells: the read-after-write and promote paths both run.
fn write(tx: &mut Tx<'_>, base: Addr, rng: &mut SplitMix64) -> Result<(), Abort> {
    let first = rng.index(CELLS - 8);
    for i in 0..8 {
        let cell = base.offset(first + i);
        if i % 2 == 0 {
            tx.write(cell, i as i64)?;
        } else {
            tx.inc(cell, 1)?;
        }
    }
    for i in 0..8 {
        std::hint::black_box(tx.read(base.offset(first + i))?);
    }
    Ok(())
}

/// One transaction of `shape`; with `aborting`, every third goes through
/// `try_atomic` and gives up with an explicit abort after its body ran.
fn one(stm: &Stm, base: Addr, rng: &mut SplitMix64, shape: usize, nth: u64, aborting: bool) {
    let mut body = |tx: &mut Tx<'_>| match shape {
        0 => bank(tx, base, &mut *rng),
        1 => scan(tx, base, &mut *rng, nth),
        _ => write(tx, base, &mut *rng),
    };
    if aborting && nth.is_multiple_of(3) {
        let gave_up = stm.try_atomic(|tx| {
            body(tx)?;
            Err::<(), _>(Abort::explicit())
        });
        assert_eq!(gave_up, Err(Abort::explicit()));
    } else {
        stm.atomic(body);
    }
}

const SHAPES: [&str; 3] = ["bank", "scan", "write"];

#[test]
fn steady_state_transactions_allocate_nothing() {
    let mut table = Vec::new();
    for (name, stm) in engines() {
        let base = stm.alloc_array(CELLS, 1_000i64);
        let mut rng = SplitMix64::new(0xA110C);
        for nth in 0..100 {
            for shape in 0..SHAPES.len() {
                one(&stm, base, &mut rng, shape, nth, true);
            }
        }
        for aborting in [false, true] {
            for (shape, shape_name) in SHAPES.iter().enumerate() {
                let count = allocations(|| {
                    for nth in 0..1_000 {
                        one(&stm, base, &mut rng, shape, nth, aborting);
                    }
                });
                table.push((name, *shape_name, aborting, count));
            }
        }
        let s = stm.stats();
        assert_eq!(s.commits + s.aborts_explicit, 300 + 6_000, "{name}");
        assert_eq!(s.aborts_explicit, 3 * 34 + 3 * 334, "{name}");
    }
    for (engine, shape, aborting, count) in &table {
        println!("alloc_free: {engine:<10} {shape:<6} aborting={aborting:<5} {count}");
    }
    let leaks: Vec<_> = table.iter().filter(|row| row.3 != 0).collect();
    assert!(
        leaks.is_empty(),
        "allocator calls per 1 000 transactions, expected 0: {leaks:?}"
    );
}

/// One oversized transaction must neither pin its buffers on the thread
/// nor leave later small transactions paying for them.
#[test]
fn an_oversized_transaction_leaves_small_ones_allocation_free_and_fast() {
    const READS: usize = 200_000;
    const WRITES: usize = 50_000;
    let make = || {
        let stm = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(1 << 18));
        let cells = stm.alloc_array(READS, 1i64);
        (stm, cells)
    };
    // Best of five batches: a time-slice lost to another process lands in
    // one batch, not in all of them.
    let small_batch = |stm: &Stm, cell: Addr| -> (u64, Duration) {
        let mut best = Duration::MAX;
        let count = allocations(|| {
            for _ in 0..5 {
                let t0 = Instant::now();
                for _ in 0..1_000 {
                    stm.atomic(|tx| tx.inc(cell, 1));
                }
                best = best.min(t0.elapsed());
            }
        });
        (count, best)
    };

    let fresh = std::thread::spawn(move || {
        let (stm, cells) = make();
        stm.atomic(|tx| tx.inc(cells, 1)); // first use builds the scratch
        small_batch(&stm, cells).1
    })
    .join()
    .expect("fresh thread");

    let (stm, cells) = make();
    stm.atomic(|tx| {
        for i in 0..READS {
            tx.read(cells.offset(i))?;
        }
        for i in 0..WRITES {
            tx.write(cells.offset(i), 2)?;
        }
        Ok(())
    });
    assert_eq!(stm.read_now(cells.offset(WRITES - 1)), 2);
    let (count, after_big) = small_batch(&stm, cells);
    assert_eq!(count, 0, "small transactions after the oversized one");
    assert!(
        after_big <= fresh * 2 + Duration::from_micros(50),
        "1 000 one-inc transactions: {after_big:?} after the oversized one, {fresh:?} fresh"
    );
}
