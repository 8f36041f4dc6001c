//! A counting and timing decorator around a commit log's storage.
//!
//! The library exposes the `LogStorage` trait, so the benchmark can see
//! every append and every `sync` from outside: how many there are, how
//! long a `sync` takes, and — for the restart check — how many bytes the
//! last successful `sync` covered.

use crate::hist::Hist;
use crate::probe::{Span, FLUSHER_TRACK};
use semtm_core::LogStorage;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Flusher spans kept per quarter second of a log's life, so that the
/// trace covers the whole run whatever the flusher's pace.
const SPANS_PER_WINDOW: usize = 256;
const WINDOW_NS: u64 = 250_000_000;

#[derive(Default)]
pub struct FlusherSpans {
    pub spans: Vec<Span>,
    window: u64,
    in_window: usize,
}

/// What the decorator has seen; shared with the benchmark's main thread.
pub struct MeterState {
    pub appended_bytes: AtomicU64,
    pub syncs: AtomicU64,
    /// Log length covered by the last successful `sync`.
    pub synced_len: AtomicU64,
    pub sync_ns: Mutex<Hist>,
    /// `wal.append` / `wal.sync` spans, when the run is traced.
    pub spans: Option<Mutex<FlusherSpans>>,
    epoch: Instant,
    cell: u32,
}

impl MeterState {
    pub fn new(epoch: Instant, cell: u32, traced: bool) -> Arc<MeterState> {
        Arc::new(MeterState {
            appended_bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            synced_len: AtomicU64::new(0),
            sync_ns: Mutex::new(Hist::new()),
            spans: traced.then(|| Mutex::new(FlusherSpans::default())),
            epoch,
            cell,
        })
    }

    fn span(&self, name: &'static str, start: Instant, end: Instant) {
        let Some(spans) = &self.spans else { return };
        let mut buf = spans.lock().expect("span buffer poisoned");
        let start_ns = (start - self.epoch).as_nanos() as u64;
        if start_ns / WINDOW_NS != buf.window {
            buf.window = start_ns / WINDOW_NS;
            buf.in_window = 0;
        }
        if buf.in_window < SPANS_PER_WINDOW {
            buf.in_window += 1;
            let id = buf.spans.len() as u32 + 1;
            buf.spans.push(Span {
                name,
                cell: self.cell,
                track: FLUSHER_TRACK,
                start_ns,
                end_ns: (end - self.epoch).as_nanos() as u64,
                id,
                parent: 0,
                op: 0,
            });
        }
    }
}

/// The decorator: every call goes to `inner` and is counted and timed.
pub struct Meter<S> {
    inner: S,
    state: Arc<MeterState>,
}

impl<S: LogStorage> Meter<S> {
    pub fn new(inner: S, state: Arc<MeterState>) -> Meter<S> {
        Meter { inner, state }
    }
}

impl<S: LogStorage> LogStorage for Meter<S> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        self.inner.append(bytes)?;
        self.state.span("wal.append", start, Instant::now());
        self.state
            .appended_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let start = Instant::now();
        self.inner.sync()?;
        let end = Instant::now();
        // Appends and syncs of one log are serialised by the log's
        // storage lock, so every byte appended so far is now durable.
        // `Release` pairs with the `Acquire` load of the restart check.
        self.state.synced_len.store(
            self.state.appended_bytes.load(Ordering::Relaxed),
            Ordering::Release,
        );
        self.state.syncs.fetch_add(1, Ordering::Relaxed);
        self.state
            .sync_ns
            .lock()
            .expect("sync histogram poisoned")
            .record((end - start).as_nanos() as u64);
        self.state.span("wal.sync", start, end);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::SimStorage;

    #[test]
    fn synced_length_follows_successful_syncs_only() {
        let (sim, handle) = SimStorage::new();
        let state = MeterState::new(Instant::now(), 0, true);
        let mut m = Meter::new(sim, state.clone());
        m.append(&[1, 2, 3]).unwrap();
        assert_eq!(state.synced_len.load(Ordering::Acquire), 0);
        m.sync().unwrap();
        m.append(&[4, 5]).unwrap();
        assert_eq!(state.synced_len.load(Ordering::Acquire), 3);
        assert_eq!(state.appended_bytes.load(Ordering::Relaxed), 5);
        assert_eq!(handle.watermarks(), (5, 3));
        assert_eq!(state.syncs.load(Ordering::Relaxed), 1);
        assert_eq!(state.sync_ns.lock().unwrap().count(), 1);
        let buf = state.spans.as_ref().unwrap().lock().unwrap();
        let names: Vec<_> = buf.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["wal.append", "wal.sync", "wal.append"]);
    }
}
