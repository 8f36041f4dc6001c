//! A heap costs only the words it touches.
//!
//! `benchmark/` builds three `Stm`s of 1 Mi heap words per set-up, fills a
//! few thousand words of each, and drops them again, 32 times in a run. A
//! heap array sized exactly (8 MiB) is a fresh mapping only until glibc's
//! dynamic mmap threshold rises past it, which the first dropped heap
//! does; from then on the heaps come out of the arena, a small allocation
//! made later keeps the arena from being trimmed, and every later heap is
//! recycled memory that `calloc` clears page by page: 24 MiB resident per
//! set-up. `Heap::new` reserves such an array as a block above the
//! highest threshold glibc can set, so it is always a fresh mapping that
//! only the touched words make resident, unmapped when the heap drops.
//!
//! The replay below pins that: the process's peak resident set may not
//! grow by 4 MiB over 32 set-ups. The same binary counts allocator calls
//! to pin how the array is asked for. Both facts are about the optimised
//! build: a debug build does not fold the zeroed allocation into one
//! `alloc_zeroed` and writes every reserved word, so there the test is
//! ignored (`scripts/tier1.sh` runs it with `--release`).

#![cfg(target_os = "linux")]

use semtm::core::heap::LINE_WORDS;
use semtm::{Algorithm, Heap, Stm, StmConfig, TelemetryLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocator calls this thread made, by kind, with the bytes asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Calls {
    alloc: u64,
    alloc_bytes: usize,
    zeroed: u64,
    zeroed_bytes: usize,
    realloc: u64,
}

thread_local! {
    static CALLS: Cell<Calls> = const {
        Cell::new(Calls { alloc: 0, alloc_bytes: 0, zeroed: 0, zeroed_bytes: 0, realloc: 0 })
    };
}

fn count(f: impl FnOnce(&mut Calls)) {
    let _ = CALLS.try_with(|c| {
        let mut calls = c.get();
        f(&mut calls);
        c.set(calls);
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// `Cell` thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(|c| {
            c.alloc += 1;
            c.alloc_bytes += layout.size();
        });
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(|c| {
            c.zeroed += 1;
            c.zeroed_bytes += layout.size();
        });
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(|c| c.realloc += 1);
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

/// Allocator calls the calling thread makes while building one heap.
fn calls_of_heap_new(capacity: usize) -> Calls {
    CALLS.with(|c| c.set(Calls::default()));
    let heap = Heap::new(capacity);
    let calls = CALLS.with(Cell::get);
    drop(heap);
    calls
}

/// The process's peak resident set (`VmHWM`), in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// The benchmark's three engine cells.
fn cells() -> [StmConfig; 3] {
    let cell = |algorithm, shards| {
        StmConfig::new(algorithm)
            .clock_shards(shards)
            .telemetry(TelemetryLevel::Counters)
            .heap_words(1 << 20)
            .orec_count(1 << 14)
    };
    [
        cell(Algorithm::SNOrec, 1),
        cell(Algorithm::SNOrec, 16),
        cell(Algorithm::STl2, 1),
    ]
}

const ROUNDS: usize = 32;
const POPULATED_WORDS: usize = 2_000;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a debug build writes every reserved heap word; run with --release"
)]
fn heaps_cost_the_words_they_touch() {
    let mut pins: Vec<Vec<u64>> = Vec::with_capacity(ROUNDS);
    let before = peak_rss_kib();
    for round in 0..ROUNDS {
        let stms: Vec<Stm> = cells().into_iter().map(Stm::new).collect();
        for stm in &stms {
            let words = stm.alloc_array(POPULATED_WORDS, round as i64 + 1);
            stm.atomic(|tx| tx.inc(words, 1));
        }
        // Allocated above the heaps and kept: the arena cannot shrink
        // back over memory a dropped heap leaves in it.
        pins.push(vec![round as u64; 4]);
        drop(stms);
    }
    let grown = peak_rss_kib() - before;
    eprintln!("peak RSS grew by {grown} KiB over {ROUNDS} set-ups");
    assert_eq!(pins.len(), ROUNDS);
    assert!(
        grown < 4 << 10,
        "peak RSS grew by {grown} KiB over {ROUNDS} set-ups of three 1 Mi-word heaps"
    );

    let large = calls_of_heap_new(1 << 20);
    assert_eq!(
        (large.zeroed, large.alloc, large.realloc),
        (1, 0, 0),
        "Heap::new(1 << 20) must be one alloc_zeroed: {large:?}"
    );
    assert!(
        large.zeroed_bytes > 32 << 20,
        "Heap::new(1 << 20) must reserve above 32 MiB: {large:?}"
    );
    let small = calls_of_heap_new(1 << 12);
    assert_eq!(
        small,
        Calls {
            zeroed: 1,
            zeroed_bytes: ((1 << 12) + LINE_WORDS - 1) * 8,
            ..Calls::default()
        },
        "Heap::new(1 << 12) keeps its exact size"
    );
}
