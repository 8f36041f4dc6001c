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
//!
//! A runtime also builds only the metadata its configuration can reach:
//! no TL2 orec table unless a TL2 mode runs (built at construction, or
//! by the first switch into TL2, and above 128 KiB reserved like a large
//! heap), no histograms below `TelemetryLevel::Histograms`, no span rings
//! below `Trace`. The second test pins the allocator calls and bytes of
//! each benchmark cell's `Stm::new`, of one cell at the two higher
//! tiers, and of the switches that build and then reuse the orec table.

#![cfg(target_os = "linux")]

use semtm::core::heap::LINE_WORDS;
use semtm::core::telemetry::{SpanEvent, HISTOGRAM_BUCKETS, SHARDS};
use semtm::core::util::LEASES;
use semtm::{Algorithm, Heap, Mode, Stm, StmConfig, TelemetryLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

/// Allocator calls this thread made, by kind, with the bytes asked for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Calls {
    alloc: u64,
    alloc_bytes: usize,
    zeroed: u64,
    zeroed_bytes: usize,
    realloc: u64,
}

impl Calls {
    /// Requests of every kind.
    fn requests(&self) -> u64 {
        self.alloc + self.zeroed + self.realloc
    }
}

/// How many request sizes [`SIZES`] keeps.
const LOGGED: usize = 16;

thread_local! {
    static CALLS: Cell<Calls> = const {
        Cell::new(Calls { alloc: 0, alloc_bytes: 0, zeroed: 0, zeroed_bytes: 0, realloc: 0 })
    };
    /// The sizes of this thread's first `LOGGED` requests since the last
    /// reset (the rest are counted, not logged).
    static SIZES: Cell<[usize; LOGGED]> = const { Cell::new([0; LOGGED]) };
}

fn count(size: usize, f: impl FnOnce(&mut Calls)) {
    let _ = CALLS.try_with(|c| {
        let mut calls = c.get();
        let nth = calls.requests() as usize;
        f(&mut calls);
        c.set(calls);
        if nth < LOGGED {
            let _ = SIZES.try_with(|s| {
                let mut sizes = s.get();
                sizes[nth] = size;
                s.set(sizes);
            });
        }
    });
}

/// The allocator calls the calling thread makes inside `f`, and the
/// sizes of the first `LOGGED` of them. `f`'s result is dropped after
/// the count.
fn calls_of<T>(f: impl FnOnce() -> T) -> (Calls, Vec<usize>) {
    CALLS.with(|c| c.set(Calls::default()));
    let out = f();
    let calls = CALLS.with(Cell::get);
    let sizes = SIZES.with(Cell::get);
    drop(out);
    let logged = (calls.requests() as usize).min(LOGGED);
    (calls, sizes[..logged].to_vec())
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only a
// `Cell` thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), |c| {
            c.alloc += 1;
            c.alloc_bytes += layout.size();
        });
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), |c| {
            c.zeroed += 1;
            c.zeroed_bytes += layout.size();
        });
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, |c| c.realloc += 1);
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
    calls_of(|| Heap::new(capacity)).0
}

/// The two tests run one at a time: the peak-RSS replay must not see the
/// other test's runtimes.
static SERIAL: Mutex<()> = Mutex::new(());

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
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
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

/// The block any array above 128 KiB is reserved as, a 1 Mi-word heap
/// and the benchmark cells' 2¹⁴-orec table alike (`heap::zeroed_words`).
const FRESH_MAPPING_BYTES: usize = (32 << 20) + 8;
/// One commit-clock shard, one histogram's bucket array, one span ring
/// at the default `trace_capacity`.
const CLOCK_SHARD_BYTES: usize = 128;
const HISTOGRAM_BYTES: usize = HISTOGRAM_BUCKETS * 8;
const RING_BYTES: usize = 1024 * std::mem::size_of::<SpanEvent>();
/// The attempt records: one per lease and the overflow record, each
/// holding a thread's presence count and its counters.
const RECORDS_BYTES: usize = (LEASES + 1) * 256;

/// Allocator requests and bytes per construction step, in this order:
/// `Stm::new` of the three benchmark cells at `Counters`, of the S-NOrec
/// cell at `Histograms` and at `Trace`, then the S-NOrec cell's first
/// switch into S-TL2, the switch back and the second switch into S-TL2.
const EXPECTED: &[(&str, u64, usize)] = &[
    ("new snorec counters", 3, 33571208),
    ("new scnorec counters", 3, 33573128),
    ("new stl2 counters", 4, 67125648),
    ("new snorec histograms", 8, 33591048),
    ("new snorec trace", 73, 41983240),
    ("switch snorec -> stl2", 1, 33554440),
    ("switch stl2 -> snorec", 0, 0),
    ("switch snorec -> stl2 again", 0, 0),
];

#[test]
fn runtimes_allocate_only_what_their_configuration_reaches() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let [snorec, scnorec, stl2] = cells();
    let at = |level| snorec.clone().telemetry(level);
    let mut got: Vec<(String, u64, usize)> = Vec::new();
    let mut sizes: Vec<Vec<usize>> = Vec::new();
    let mut row = |label: &str, (calls, logged): (Calls, Vec<usize>)| {
        assert_eq!(calls.realloc, 0, "{label}: no request grows a block");
        println!("{label}: request sizes {logged:?}");
        got.push((
            label.into(),
            calls.requests(),
            calls.alloc_bytes + calls.zeroed_bytes,
        ));
        sizes.push(logged);
    };
    row("new snorec counters", calls_of(|| Stm::new(snorec.clone())));
    row("new scnorec counters", calls_of(|| Stm::new(scnorec)));
    row("new stl2 counters", calls_of(|| Stm::new(stl2)));
    row(
        "new snorec histograms",
        calls_of(|| Stm::new(at(TelemetryLevel::Histograms))),
    );
    row(
        "new snorec trace",
        calls_of(|| Stm::new(at(TelemetryLevel::Trace))),
    );
    let stm = Stm::new(snorec.clone());
    let to = |alg| calls_of(|| stm.switch_to(Mode::new(alg)).expect("switch"));
    row("switch snorec -> stl2", to(Algorithm::STl2));
    row("switch stl2 -> snorec", to(Algorithm::SNOrec));
    row("switch snorec -> stl2 again", to(Algorithm::STl2));
    for (label, requests, bytes) in &got {
        println!("    (\"{label}\", {requests}, {bytes}),");
    }
    let expected: Vec<(String, u64, usize)> =
        EXPECTED.iter().map(|&(l, n, b)| (l.into(), n, b)).collect();
    assert_eq!(
        got, expected,
        "allocator calls of Stm construction moved. If the change means it, \
         re-derive the table from this run (`cargo test --release --test \
         heap_footprint -- --nocapture` prints it) and explain every row"
    );

    // What the table is made of, request by request. An S-NOrec runtime
    // at `Counters` asks for its heap, its clock shards and the attempt
    // records: no orec table, no histogram, no span ring.
    let base = |clock_shards: usize| {
        vec![
            FRESH_MAPPING_BYTES,
            clock_shards * CLOCK_SHARD_BYTES,
            RECORDS_BYTES,
        ]
    };
    assert_eq!(sizes[0], base(1), "S-NOrec");
    assert_eq!(sizes[1], base(16), "S-NOrec over 16 clock shards");
    let with_orecs = [base(1), vec![FRESH_MAPPING_BYTES]].concat();
    assert_eq!(sizes[2], with_orecs, "S-TL2 adds its orec table, once");
    let histograms = [base(1), vec![HISTOGRAM_BYTES; 5]].concat();
    assert_eq!(sizes[3], histograms, "Histograms adds five histograms");
    let ring_set = SHARDS * std::mem::size_of::<Mutex<semtm::core::ring::EventRing<SpanEvent>>>();
    assert_eq!(
        &sizes[4][3..5],
        [ring_set, RING_BYTES],
        "Trace adds the ring set, then its rings"
    );
    assert_eq!(
        (got[4].1 - got[3].1, got[4].2 - got[3].2),
        (1 + SHARDS as u64, ring_set + SHARDS * RING_BYTES),
        "Trace adds the ring set and one ring per shard to Histograms"
    );
    assert_eq!(
        sizes[5],
        [FRESH_MAPPING_BYTES],
        "the first switch into TL2 builds the table"
    );
    assert!(
        sizes[6].is_empty() && sizes[7].is_empty(),
        "later switches request nothing"
    );
}
