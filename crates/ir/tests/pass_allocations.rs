//! The allocator calls of the TM pass pipeline and of the linter,
//! pinned per kernel.
//!
//! `run_tm_passes` builds the CFG once (the verifier, run four times,
//! reuses it while no pass has rewritten a terminator), reaching
//! definitions, the abstract interpreter, the region walk and one
//! liveness solution per `tm_optimize` round; most of its cost is the
//! facts those analyses clone. Wall-clock on a shared host moves by
//! tens of percent between runs, an allocation count does not: a
//! `#[global_allocator]` bumps a per-thread counter on every `alloc` /
//! `alloc_zeroed` / `realloc` (as in the root package's
//! `tests/alloc_free.rs`), and the count for each shipped
//! `programs/*.ir` kernel is an exact integer. A change that makes a
//! solver clone a fact per step again, or an analysis run twice, moves
//! a row here. `lint_function` is pinned the same way: it builds the
//! CFG once too, for the verifier and for its own analyses.

use semtm_ir::{lint_function, parse_function, run_tm_passes};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

thread_local! {
    /// Allocator calls made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter bump touches
// only a `Cell` thread-local that never allocates.
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

/// Allocator calls of one `run_tm_passes` and of one `lint_function`
/// per shipped kernel.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("bank_transfer.ir", 147, 309),
    ("cross_block_guard.ir", 159, 127),
    ("ht_op.ir", 218, 500),
    ("range_gate.ir", 167, 126),
    ("vac_reserve.ir", 234, 538),
];

/// The calls `f` makes, checked to repeat.
fn repeated(name: &str, f: impl Fn() -> u64) -> u64 {
    let first = f();
    assert_eq!(f(), first, "{name}: the count repeats");
    first
}

#[test]
fn pass_pipeline_allocations_are_pinned() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../programs");
    let mut kernels: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("programs/ exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ir"))
        .collect();
    kernels.sort();
    let mut got: Vec<(String, u64, u64)> = Vec::new();
    for path in kernels {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("readable kernel");
        let parsed = parse_function(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let passes = repeated(&name, || {
            let mut f = parsed.clone();
            allocations(|| {
                run_tm_passes(&mut f);
            })
        });
        let lint = repeated(&name, || {
            allocations(|| {
                lint_function(&parsed, None);
            })
        });
        println!("{name:24} {passes:6} {lint:6}");
        got.push((name, passes, lint));
    }
    let expected: Vec<(String, u64, u64)> =
        EXPECTED.iter().map(|&(n, p, l)| (n.into(), p, l)).collect();
    assert_eq!(
        got, expected,
        "allocator calls of run_tm_passes or lint_function moved. If the \
         change means it, re-derive the table from this run (`cargo test -p \
         semtm-ir --test pass_allocations -- --nocapture` prints it) and \
         explain every row"
    );
}
