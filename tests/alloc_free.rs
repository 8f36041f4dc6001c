//! Steady-state transactions never call the allocator.
//!
//! The paper's runtimes (RSTM, libitm) keep one transaction descriptor
//! per thread for the thread's life, so a barrier costs a barrier. Here
//! the per-thread attempt scratch plays that part: after a thread's first
//! transactions no engine allocates on begin, on any barrier, on commit
//! or on abort. The count is exact — a `#[global_allocator]` that bumps a
//! per-thread counter on every `alloc` / `realloc` — so the assertion is
//! `== 0`, not "small".
//!
//! The same holds one layer up: a compiled region (`semtm-ir`'s
//! interpreter, tree-walking or lowered) runs on a register frame its
//! thread keeps between calls, so the three shipped kernels never call
//! the allocator either — and a thread does not keep a huge frame.

use semtm::core::util::{hash_u32, SplitMix64};
use semtm::ir::interp::FRAME_RETAINED_WORDS;
use semtm::ir::{lower, parse_function, programs, run_tm_passes, Block, Function, Inst, Interp};
use semtm::{Abort, AbortReason, Addr, Algorithm, Stm, StmConfig, TelemetryLevel, Tx};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::{Duration, Instant};

thread_local! {
    /// Allocator calls made by this thread (no destructor, so it stays
    /// reachable while the thread's other locals are torn down).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn live(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter bump touches
// only `Cell` thread-locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        live(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        live(layout.size() as i64);
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
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
        let explicit = s.aborts(AbortReason::Explicit);
        assert_eq!(s.commits + explicit, 300 + 6_000, "{name}");
        assert_eq!(explicit, 3 * 34 + 3 * 334, "{name}");
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

// --- compiled regions (`semtm-ir`) ---

const HT_CAPACITY: usize = 1 << 12;
const HT_KEYS: usize = HT_CAPACITY / 2;
const OFFERS: usize = 64;
const OFFER_WINDOW: usize = 16;

/// The three shipped kernels after the TM passes, and a function with no
/// atomic region (`ret *r0 + 1` on direct heap accesses).
fn compiled() -> Vec<Function> {
    let mut kernels: Vec<Function> = [
        programs::HASHTABLE_OP_SRC,
        programs::BANK_TRANSFER_SRC,
        programs::VACATION_RESERVE_SRC,
    ]
    .iter()
    .map(|src| {
        let mut f = parse_function(src).expect("shipped kernel parses");
        run_tm_passes(&mut f);
        f
    })
    .collect();
    let no_region = "func peek(1) {\nentry:\n  r1 = tmload r0\n  r2 = add r1, 1\n  ret r2\n}";
    kernels.push(parse_function(no_region).expect("parses"));
    kernels
}

/// How a form runs compiled function `k` with `args`.
type Run<'r> = &'r dyn Fn(&Interp<'_>, usize, &[i64]) -> Option<i64>;

/// `ir-kernels`' heap (benchmark/src/cells.rs): a half-full hash table,
/// the accounts (`base`, reused) and the offer table.
struct IrHeap {
    universe: Vec<i64>,
    states: Addr,
    keys: Addr,
    accounts: Addr,
    offers: Addr,
}

impl IrHeap {
    fn new(stm: &Stm, ht_op: &Function) -> IrHeap {
        let mut seen = std::collections::HashSet::new();
        let universe = (0..)
            .map(|j| 1 + (hash_u32(j) & 0xF_FFFF) as i64)
            .filter(|&key| seen.insert(key))
            .take(HT_KEYS)
            .collect();
        let heap = IrHeap {
            universe,
            states: stm.alloc_array(HT_CAPACITY, 0i64),
            keys: stm.alloc_array(HT_CAPACITY, 0i64),
            accounts: stm.alloc_array(CELLS, 1_000i64),
            offers: stm.alloc(OFFERS * 5),
        };
        let interp = Interp::new(stm);
        for &key in &heap.universe {
            assert_eq!(interp.execute(ht_op, &heap.ht_args(key, 1)), Ok(Some(2)));
        }
        for i in 0..OFFERS {
            let rec = heap.offers.offset(i * 5);
            stm.write_now(rec.offset(2), 1 << 40);
            stm.write_now(rec.offset(3), 1 << 40);
            stm.write_now(rec.offset(4), 100 + (i as i64 * 37) % 400);
        }
        heap
    }

    fn ht_args(&self, key: i64, op: i64) -> [i64; 5] {
        let (states, keys) = (self.states.index() as i64, self.keys.index() as i64);
        [states, keys, HT_CAPACITY as i64 - 1, key, op]
    }

    /// One `ir-kernels` operation — a fresh interpreter, the three
    /// kernels, one region each — then the region-less function.
    fn round(&self, stm: &Stm, rng: &mut SplitMix64, run: Run<'_>) {
        let interp = Interp::new(stm);
        let key = self.universe[rng.index(HT_KEYS)];
        let found = run(&interp, 0, &self.ht_args(key, i64::from(rng.chance(20))));
        assert_eq!(found, Some(1));
        let account = |i| self.accounts.offset(i).index() as i64;
        let (src, dst) = (rng.index(CELLS - 1), CELLS - 1);
        let amount = 1 + rng.below(100) as i64;
        let moved = run(&interp, 1, &[account(src), account(dst), amount]);
        assert!(matches!(moved, Some(0 | 1)));
        let first = self.offers.offset(rng.index(OFFERS - OFFER_WINDOW + 1) * 5);
        let booked = run(&interp, 2, &[first.index() as i64, OFFER_WINDOW as i64]);
        assert!(booked >= Some(self.offers.index() as i64));
        assert!(run(&interp, 3, &[account(src)]).is_some());
        assert_eq!(interp.counters.region_attempts(), 3);
    }
}

#[test]
fn compiled_regions_allocate_nothing() {
    let tree = compiled();
    let lowered: Vec<_> = tree.iter().map(|f| lower(f).expect("lowers")).collect();
    let forms: [(&str, Run<'_>); 2] = [
        ("lowered", &|interp, k, args| {
            interp.execute_lowered(&lowered[k], args).expect("runs")
        }),
        ("tree", &|interp, k, args| {
            interp.execute(&tree[k], args).expect("runs")
        }),
    ];
    let mut table = Vec::new();
    for (name, stm) in engines() {
        let heap = IrHeap::new(&stm, &tree[0]);
        let mut rng = SplitMix64::new(0x1247A);
        for (form, run) in forms {
            for _ in 0..100 {
                heap.round(&stm, &mut rng, run);
            }
            let count = allocations(|| {
                for _ in 0..1_000 {
                    heap.round(&stm, &mut rng, run);
                }
            });
            table.push((name, form, count));
        }
    }
    for (engine, form, count) in &table {
        println!("alloc_free: {engine:<10} ir {form:<8} {count}");
    }
    let leaks: Vec<_> = table.iter().filter(|row| row.2 != 0).collect();
    assert!(
        leaks.is_empty(),
        "allocator calls per 1 000 rounds of the three kernels, expected 0: {leaks:?}"
    );
}

/// A function that only returns, with `num_regs` registers.
fn wide(num_regs: u32) -> Function {
    Function {
        name: "wide".into(),
        num_args: 0,
        num_regs,
        blocks: vec![Block {
            label: "entry".into(),
            insts: vec![Inst::Ret { val: None }],
        }],
    }
}

#[test]
fn a_huge_register_file_is_not_kept_by_the_thread() {
    let stm = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(1 << 8));
    let interp = Interp::new(&stm);
    let (small, huge) = (wide(8), wide(1 << 20));
    let (small_lowered, huge_lowered) = (lower(&small).unwrap(), lower(&huge).unwrap());
    assert_eq!(interp.execute(&small, &[]), Ok(None));
    let kept_before = LIVE.with(Cell::get);
    for lowered in [false, true] {
        let ran = if lowered {
            interp.execute_lowered(&huge_lowered, &[])
        } else {
            interp.execute(&huge, &[])
        };
        assert_eq!(ran, Ok(None));
        let kept = LIVE.with(Cell::get) - kept_before;
        assert!(
            kept <= (FRAME_RETAINED_WORDS * 8) as i64,
            "the thread keeps {kept} bytes after a 2^20-register call (lowered: {lowered})"
        );
        let count = allocations(|| {
            for _ in 0..10 {
                assert_eq!(interp.execute(&small, &[]), Ok(None));
                assert_eq!(interp.execute_lowered(&small_lowered, &[]), Ok(None));
            }
        });
        assert_eq!(count, 0, "small calls after the huge one");
    }
}

/// Same shape as `core::stm::tests::transaction_in_a_thread_local_destructor_runs_at_thread_exit`.
#[test]
fn compiled_region_in_a_thread_local_destructor_runs_at_thread_exit() {
    struct AtExit(Arc<Stm>, Arc<Vec<Function>>, [i64; 3]);
    impl Drop for AtExit {
        fn drop(&mut self) {
            let interp = Interp::new(&self.0);
            let bank = &self.1[1];
            assert_eq!(interp.execute(bank, &self.2), Ok(Some(1)));
            let flat = lower(bank).expect("lowers");
            assert_eq!(interp.execute_lowered(&flat, &self.2), Ok(Some(1)));
        }
    }
    thread_local! {
        static LAST: RefCell<Option<AtExit>> = const { RefCell::new(None) };
    }
    let kernels = Arc::new(compiled());
    // Thread-local destructors run in reverse order of first use, so the
    // two orders cover both sides: the frame slot still alive when `LAST`
    // drops, and already destroyed (a fresh buffer, dropped afterwards).
    for frame_first in [true, false] {
        let stm = Arc::new(Stm::new(
            StmConfig::new(Algorithm::SNOrec).heap_words(1 << 8),
        ));
        let accounts = stm.alloc_array(2, 100i64);
        let (a, b) = (accounts.index() as i64, accounts.offset(1).index() as i64);
        let worker = {
            let (stm, kernels) = (stm.clone(), kernels.clone());
            std::thread::spawn(move || {
                let transfer = || {
                    let moved = Interp::new(&stm).execute(&kernels[1], &[a, b, 10]);
                    assert_eq!(moved, Ok(Some(1)));
                };
                if frame_first {
                    transfer();
                }
                LAST.with(|l| {
                    *l.borrow_mut() = Some(AtExit(stm.clone(), kernels.clone(), [a, b, 1]));
                });
                if !frame_first {
                    transfer();
                }
            })
        };
        worker.join().expect("worker, including its destructors");
        assert_eq!(stm.read_now(accounts), 100 - 10 - 2);
        assert_eq!(stm.read_now(accounts.offset(1)), 100 + 10 + 2);
    }
}
