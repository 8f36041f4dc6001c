//! Write-ahead commit log, group commit, and recovery (DESIGN.md §9).
//!
//! Durability for the STM: a committing writer appends one CRC-framed
//! record of its **resolved** write set (absolute `(addr, value)` pairs —
//! deferred increments are materialised under the commit locks) to a
//! [`CommitLog`] *after* validation and *before* the first data
//! write-back. Because the append happens while the commit locks are
//! held, the log's sequence order is consistent with the conflict
//! serialisation order: two records that touch a common address appear
//! in the order their commits serialised, and records of disjoint
//! commits commute under replay. Recovery ([`replay`]) therefore
//! reconstructs, from any durable log prefix, the exact memory state of
//! a causally-closed prefix of the commit history — transactions are
//! recovered whole or not at all.
//!
//! Three flush disciplines ([`DurabilityMode`]):
//!
//! * **Sync** — the committer flushes (append + fsync) its own record
//!   inline in [`CommitLog::wait_durable`], after releasing its commit
//!   locks. One fsync per commit: the honest upper bound on commit-side
//!   cost.
//! * **Group** — a dedicated flush thread drains the pending buffer and
//!   issues one fsync per *batch*; committers block in `wait_durable`
//!   only until their record's batch is durable. The hot path (locks
//!   held) never waits on I/O.
//! * **Manual** — nobody flushes implicitly; a test harness drives
//!   [`CommitLog::flush_step`] explicitly (the crash-schedule sweeps in
//!   `semtm-check` run the flusher as a scheduled virtual thread).
//!
//! The privatization-safety framing (Khyzha/Attiya/Gotsman, PAPERS.md):
//! the flush thread reads committed state non-transactionally. That is
//! sound here because it never reads the heap at all — committers hand
//! it fully-resolved byte records through the pending buffer *before*
//! publishing the corresponding heap state, so the flusher observes a
//! private, immutable copy and no transactional data races with it.
//!
//! I/O errors **poison** the log (fail-stop, fsyncgate-style): an append
//! that finds the log poisoned aborts the transaction cleanly (nothing
//! was written back); a flush failure after a transaction's in-memory
//! write-back cannot be rolled back — `wait_durable` surfaces the error
//! and the runtime panics rather than silently acking a commit it
//! cannot make durable (retrying would double-apply increments).

use crate::error::Abort;
use crate::fault;
use crate::heap::{Addr, Heap};
use crate::sched;
use std::io::{self, Write as _};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

// --- CRC32 ----------------------------------------------------------------

/// IEEE CRC-32 table (reflected, polynomial 0xEDB88320), built at
/// compile time — the workspace is offline, so no crc crate.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of `bytes` (the checksum framing every log record).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- record codec ---------------------------------------------------------

/// Fixed per-record overhead: `seq:u64 + count:u32 + crc:u32` (the
/// `len:u32` prefix is not counted by `len` itself).
const RECORD_FIXED: usize = 8 + 4 + 4;
/// Bytes per `(addr:u32, value:i64)` write entry.
const ENTRY_BYTES: usize = 4 + 8;
/// Sanity bound on entries per record — a `len` implying more than this
/// is treated as corruption, not as a 48-GiB allocation request.
const MAX_ENTRIES: usize = 1 << 24;

/// One decoded log record: a committed transaction's resolved writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Commit sequence number (contiguous from 1).
    pub seq: u64,
    /// Absolute `(address, value)` stores, in write-set order.
    pub writes: Vec<(u32, i64)>,
}

/// Append one encoded record to `out`.
///
/// Layout (all little-endian):
/// `len:u32 | seq:u64 | count:u32 | (addr:u32, value:i64)* | crc:u32`
/// where `len` counts everything after itself and `crc` covers
/// `seq..entries` (everything between `len` and `crc`).
pub fn encode_record(out: &mut Vec<u8>, seq: u64, writes: &[(Addr, i64)]) {
    assert!(writes.len() <= MAX_ENTRIES, "write set too large for WAL");
    let len = RECORD_FIXED + writes.len() * ENTRY_BYTES;
    out.reserve(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    let body_start = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(writes.len() as u32).to_le_bytes());
    for &(addr, value) in writes {
        out.extend_from_slice(&(addr.index() as u32).to_le_bytes());
        out.extend_from_slice(&value.to_le_bytes());
    }
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Why the log reader stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The byte stream ended exactly at a record boundary.
    CleanEnd,
    /// Fewer than 4 trailing bytes: a torn `len` prefix.
    TornHeader,
    /// The final record's body is shorter than its `len` promised.
    TornRecord,
    /// A `len` outside the representable record sizes (corruption).
    BadLength,
    /// A record failed its CRC check.
    BadCrc,
    /// A CRC-valid record carried a non-contiguous sequence number.
    BadSequence,
}

impl StopReason {
    /// Whether this stop is an expected end-of-log (clean or torn tail)
    /// rather than mid-stream corruption. Recovery accepts both — a
    /// crash can tear the tail — but diagnostics distinguish them.
    pub fn is_tail(self) -> bool {
        matches!(
            self,
            StopReason::CleanEnd | StopReason::TornHeader | StopReason::TornRecord
        )
    }
}

/// Decode the longest valid record prefix of `bytes`.
///
/// Returns the decoded records, the number of bytes consumed (always a
/// record boundary) and why decoding stopped. Never panics on arbitrary
/// input: a torn or corrupt tail simply truncates the result at the
/// last fully-valid record.
pub fn read_records(bytes: &[u8]) -> (Vec<WalRecord>, usize, StopReason) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut expected_seq = 1u64;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return (records, pos, StopReason::CleanEnd);
        }
        if rest.len() < 4 {
            return (records, pos, StopReason::TornHeader);
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if len < RECORD_FIXED
            || !(len - RECORD_FIXED).is_multiple_of(ENTRY_BYTES)
            || (len - RECORD_FIXED) / ENTRY_BYTES > MAX_ENTRIES
        {
            return (records, pos, StopReason::BadLength);
        }
        if rest.len() - 4 < len {
            return (records, pos, StopReason::TornRecord);
        }
        let body = &rest[4..4 + len - 4];
        let crc_stored = u32::from_le_bytes(rest[4 + len - 4..4 + len].try_into().unwrap());
        if crc32(body) != crc_stored {
            return (records, pos, StopReason::BadCrc);
        }
        let seq = u64::from_le_bytes(body[..8].try_into().unwrap());
        let count = u32::from_le_bytes(body[8..12].try_into().unwrap()) as usize;
        if count * ENTRY_BYTES != body.len() - 12 {
            // `count` disagrees with `len`; CRC matched, so the record
            // was written this way — treat as corruption all the same.
            return (records, pos, StopReason::BadLength);
        }
        if seq != expected_seq {
            return (records, pos, StopReason::BadSequence);
        }
        let mut writes = Vec::with_capacity(count);
        for i in 0..count {
            let off = 12 + i * ENTRY_BYTES;
            let addr = u32::from_le_bytes(body[off..off + 4].try_into().unwrap());
            let value = i64::from_le_bytes(body[off + 4..off + 12].try_into().unwrap());
            writes.push((addr, value));
        }
        records.push(WalRecord { seq, writes });
        expected_seq += 1;
        pos += 4 + len;
    }
}

/// What [`replay`] reconstructed.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Number of whole records replayed.
    pub records: u64,
    /// Sequence number of the last replayed record (0 if none).
    pub last_seq: u64,
    /// Bytes of the input consumed (always a record boundary).
    pub bytes_consumed: usize,
    /// Why the reader stopped.
    pub stopped: StopReason,
}

/// Replay the valid prefix of a log byte stream into `heap`.
///
/// Records hold absolute resolved values, so replay is **idempotent**:
/// replaying the same prefix any number of times yields the same heap.
///
/// # Panics
/// Panics if a CRC-valid record addresses a word outside `heap` — that
/// is a configuration error (recovering into a smaller heap than the
/// one that wrote the log), not log corruption.
pub fn replay(bytes: &[u8], heap: &Heap) -> RecoveryReport {
    let (records, consumed, stopped) = read_records(bytes);
    let mut last_seq = 0;
    for r in &records {
        for &(addr, value) in &r.writes {
            assert!(
                (addr as usize) < heap.capacity(),
                "WAL record {} addresses word {} beyond heap capacity {}",
                r.seq,
                addr,
                heap.capacity()
            );
            heap.store(Addr::from_index(addr as usize), value);
        }
        last_seq = r.seq;
    }
    RecoveryReport {
        records: records.len() as u64,
        last_seq,
        bytes_consumed: consumed,
        stopped,
    }
}

// --- storage backends -----------------------------------------------------

/// Byte-level log storage: append and make-durable. Implementations
/// must be append-only — recovery assumes the byte stream only grows.
pub trait LogStorage: Send {
    /// Append `bytes` at the end of the log.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Make every appended byte durable (fsync or simulated watermark).
    fn sync(&mut self) -> io::Result<()>;
}

/// File-backed storage: real `write_all` + `sync_data`.
pub struct FileStorage {
    file: std::fs::File,
}

impl FileStorage {
    /// Create (truncating) the log file at `path`.
    pub fn create(path: &std::path::Path) -> io::Result<FileStorage> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStorage { file })
    }
}

impl LogStorage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

struct SimState {
    bytes: Vec<u8>,
    durable: usize,
}

/// In-memory storage that models the two crash-relevant watermarks:
/// bytes **written** (handed to the OS) and bytes **durable** (fsynced).
/// A process kill preserves everything written; a power loss preserves
/// only the durable prefix, with the written-but-unsynced tail possibly
/// torn. The crash harness reconstructs both images from one run.
///
/// Honours the [`fault::WAL_APPEND_IO_ERROR`] /
/// [`fault::WAL_FSYNC_IO_ERROR`] bits when the `fault-injection`
/// feature is compiled in.
pub struct SimStorage {
    state: Arc<Mutex<SimState>>,
}

/// Observer handle onto a [`SimStorage`]'s byte stream (cloneable;
/// usable while the storage itself is owned by a [`CommitLog`]).
#[derive(Clone)]
pub struct SimHandle {
    state: Arc<Mutex<SimState>>,
}

impl SimStorage {
    /// A fresh empty simulated log plus its observer handle.
    pub fn new() -> (SimStorage, SimHandle) {
        let state = Arc::new(Mutex::new(SimState {
            bytes: Vec::new(),
            durable: 0,
        }));
        (
            SimStorage {
                state: state.clone(),
            },
            SimHandle { state },
        )
    }
}

impl LogStorage for SimStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        if fault::active(fault::WAL_APPEND_IO_ERROR) {
            return Err(io::Error::other("injected WAL append failure"));
        }
        self.state.lock().unwrap().bytes.extend_from_slice(bytes);
        Ok(())
    }
    fn sync(&mut self) -> io::Result<()> {
        if fault::active(fault::WAL_FSYNC_IO_ERROR) {
            return Err(io::Error::other("injected WAL fsync failure"));
        }
        let mut st = self.state.lock().unwrap();
        st.durable = st.bytes.len();
        Ok(())
    }
}

impl SimHandle {
    /// `(written, durable)` byte watermarks at this instant.
    pub fn watermarks(&self) -> (usize, usize) {
        let st = self.state.lock().unwrap();
        (st.bytes.len(), st.durable)
    }

    /// A copy of the full written byte stream.
    pub fn bytes(&self) -> Vec<u8> {
        self.state.lock().unwrap().bytes.clone()
    }
}

// --- the commit log -------------------------------------------------------

/// Who performs the flush (append + fsync) of buffered records.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DurabilityMode {
    /// Committers flush their own record inline in `wait_durable`
    /// (one fsync per commit — the ablation's honest baseline).
    Sync,
    /// A dedicated group-commit thread batches appends and fsyncs; a
    /// commit is acked when its batch is durable.
    Group,
    /// No implicit flushing: a harness drives [`CommitLog::flush_step`]
    /// (the deterministic crash sweeps schedule the flusher explicitly).
    Manual,
}

/// A durability failure surfaced to a committer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WalError {
    /// The storage backend rejected an append.
    Append(io::ErrorKind),
    /// The storage backend rejected a sync.
    Sync(io::ErrorKind),
    /// The log was already poisoned by an earlier I/O failure.
    Poisoned,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Append(k) => write!(f, "WAL append failed: {k}"),
            WalError::Sync(k) => write!(f, "WAL fsync failed: {k}"),
            WalError::Poisoned => write!(f, "WAL poisoned by an earlier I/O failure"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<WalError> for Abort {
    fn from(_: WalError) -> Abort {
        Abort::durability()
    }
}

/// A committer's claim on one appended record: redeemed by
/// [`CommitLog::wait_durable`].
#[derive(Clone, Copy, Debug)]
pub struct Ticket {
    seq: u64,
}

impl Ticket {
    /// The record's commit sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

struct LogState {
    /// Encoded records not yet handed to storage. Appends happen under
    /// the engines' commit locks, so buffer order == sequence order ==
    /// conflict serialisation order.
    pending: Vec<u8>,
    /// Last sequence number sitting in `pending` (0 when empty).
    pending_end_seq: u64,
    /// Next sequence number to assign (starts at 1).
    next_seq: u64,
    /// First I/O failure; once set, the log accepts no more appends.
    poison: Option<WalError>,
    /// Acked sequence numbers in ack order (only when tracking is on).
    acks: Vec<u64>,
    track_acks: bool,
}

struct LogShared {
    state: Mutex<LogState>,
    cv: Condvar,
    /// Held for the full duration of one flush step, serialising flushes
    /// so batches reach storage in buffer (= sequence) order. Separate
    /// from `state` so committers can keep appending during an fsync.
    storage: Mutex<Box<dyn LogStorage>>,
    /// Highest sequence number known durable.
    durable_seq: AtomicU64,
    poisoned: AtomicBool,
    shutdown: AtomicBool,
}

impl LogShared {
    fn poison(&self, e: WalError) -> WalError {
        let mut st = self.state.lock().unwrap();
        let first = *st.poison.get_or_insert(e);
        self.poisoned.store(true, Ordering::SeqCst);
        self.cv.notify_all();
        first
    }

    /// One flush step: drain the pending buffer, append it, fsync it,
    /// publish the new durable watermark. Returns whether any work was
    /// done. An I/O error poisons the log and is returned.
    fn flush_step(&self) -> Result<bool, WalError> {
        // A poisoned log never flushes again: the storage suffix past
        // the last durable record is untrustworthy. Report the original
        // I/O error, like `append` does.
        if self.poisoned.load(Ordering::SeqCst) {
            let st = self.state.lock().unwrap();
            return Err(st.poison.unwrap_or(WalError::Poisoned));
        }
        let mut storage = self.storage.lock().unwrap();
        sched::point(sched::PointKind::WalFlush);
        let (batch, end_seq) = {
            let mut st = self.state.lock().unwrap();
            if st.pending.is_empty() {
                return Ok(false);
            }
            (std::mem::take(&mut st.pending), st.pending_end_seq)
        };
        if let Err(e) = storage.append(&batch) {
            // The batch left the pending buffer and may be partially
            // written: the log is no longer trustworthy past the last
            // durable record. Fail stop.
            return Err(self.poison(WalError::Append(e.kind())));
        }
        sched::point(sched::PointKind::WalFsync);
        if let Err(e) = storage.sync() {
            return Err(self.poison(WalError::Sync(e.kind())));
        }
        self.durable_seq.fetch_max(end_seq, Ordering::SeqCst);
        drop(storage);
        // Wake committers parked in `wait_durable`.
        let _st = self.state.lock().unwrap();
        self.cv.notify_all();
        Ok(true)
    }
}

/// The write-ahead commit log shared by all transactions of one
/// [`crate::Stm`]. See the module docs for the protocol.
pub struct CommitLog {
    shared: Arc<LogShared>,
    mode: DurabilityMode,
    flusher: Option<std::thread::JoinHandle<()>>,
}

impl CommitLog {
    /// A commit log over `storage`, flushing per `mode` (spawns the
    /// group-commit thread when `mode` is [`DurabilityMode::Group`]).
    pub fn new(storage: Box<dyn LogStorage>, mode: DurabilityMode) -> CommitLog {
        let shared = Arc::new(LogShared {
            state: Mutex::new(LogState {
                pending: Vec::new(),
                pending_end_seq: 0,
                next_seq: 1,
                poison: None,
                acks: Vec::new(),
                track_acks: false,
            }),
            cv: Condvar::new(),
            storage: Mutex::new(storage),
            durable_seq: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let flusher = if mode == DurabilityMode::Group {
            let s = shared.clone();
            Some(
                std::thread::Builder::new()
                    .name("semtm-wal-flush".into())
                    .spawn(move || flusher_loop(&s))
                    .expect("spawning the WAL flush thread"),
            )
        } else {
            None
        };
        CommitLog {
            shared,
            mode,
            flusher,
        }
    }

    /// The flush discipline this log runs.
    pub fn mode(&self) -> DurabilityMode {
        self.mode
    }

    /// Record acked sequence numbers (crash-harness bookkeeping; off by
    /// default — it is one `Vec` push per commit under the state lock).
    pub fn track_acks(&self, on: bool) {
        self.shared.state.lock().unwrap().track_acks = on;
    }

    /// Append a committed transaction's resolved writes. **Must** be
    /// called with the transaction's commit locks held and before its
    /// first heap write-back — that lock context is what makes sequence
    /// order consistent with conflict order. Fails (cleanly — nothing
    /// was written back yet) if the log is poisoned.
    pub fn append(&self, writes: &[(Addr, i64)]) -> Result<Ticket, WalError> {
        let mut st = self.shared.state.lock().unwrap();
        if let Some(e) = st.poison {
            return Err(e);
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        let mut pending = std::mem::take(&mut st.pending);
        encode_record(&mut pending, seq, writes);
        st.pending = pending;
        st.pending_end_seq = seq;
        self.shared.cv.notify_all();
        Ok(Ticket { seq })
    }

    /// One explicit flush step (Manual mode and tests); see
    /// `LogShared::flush_step`.
    pub fn flush_step(&self) -> Result<bool, WalError> {
        self.shared.flush_step()
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.shared.durable_seq.load(Ordering::SeqCst)
    }

    /// Whether an I/O failure has poisoned the log.
    pub fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::SeqCst)
    }

    /// Number of commits acked so far (requires [`CommitLog::track_acks`]).
    pub fn acked_count(&self) -> usize {
        self.shared.state.lock().unwrap().acks.len()
    }

    /// Acked sequence numbers in ack order (requires
    /// [`CommitLog::track_acks`]).
    pub fn acked_seqs(&self) -> Vec<u64> {
        self.shared.state.lock().unwrap().acks.clone()
    }

    /// Block until the ticket's record is durable (the commit ack), or
    /// surface the I/O failure that prevents it. Call only **after**
    /// releasing the commit locks — waiting under them would hold up
    /// every other committer for the fsync latency this design exists
    /// to amortise.
    pub fn wait_durable(&self, ticket: Ticket) -> Result<(), WalError> {
        loop {
            if self.shared.durable_seq.load(Ordering::SeqCst) >= ticket.seq {
                let mut st = self.shared.state.lock().unwrap();
                if st.track_acks {
                    st.acks.push(ticket.seq);
                }
                return Ok(());
            }
            if self.shared.poisoned.load(Ordering::SeqCst) {
                let st = self.shared.state.lock().unwrap();
                return Err(st.poison.unwrap_or(WalError::Poisoned));
            }
            match self.mode {
                DurabilityMode::Sync => {
                    // Flush our own record (and anything batched with it).
                    self.shared.flush_step()?;
                }
                DurabilityMode::Group | DurabilityMode::Manual => {
                    // Under the deterministic scheduler this is a futile
                    // wait: only the (scheduled) flusher can advance the
                    // durable watermark, so report a spin point. In a
                    // plain shuttle-less build it parks on the condvar.
                    #[cfg(feature = "shuttle")]
                    {
                        sched::spin();
                        std::thread::yield_now();
                    }
                    #[cfg(not(feature = "shuttle"))]
                    {
                        let st = self.shared.state.lock().unwrap();
                        let _unused = self
                            .shared
                            .cv
                            .wait_timeout(st, Duration::from_millis(1))
                            .unwrap();
                    }
                }
            }
        }
    }
}

impl Drop for CommitLog {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        } else if !self.is_poisoned() {
            // Best-effort final flush so a cleanly dropped Sync/Manual
            // log leaves no buffered records behind.
            let _ = self.shared.flush_step();
        }
    }
}

/// Group-commit thread: drain-and-fsync whole batches until shutdown
/// (flushing any remainder first) or poisoning.
fn flusher_loop(shared: &LogShared) {
    loop {
        {
            let mut st = shared.state.lock().unwrap();
            while st.pending.is_empty()
                && !shared.shutdown.load(Ordering::SeqCst)
                && st.poison.is_none()
            {
                let (guard, _timeout) = shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(10))
                    .unwrap();
                st = guard;
            }
            if st.poison.is_some() {
                return;
            }
            if st.pending.is_empty() && shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
        if shared.flush_step().is_err() {
            // Poisoned: committers have been woken with the error;
            // nothing further can be made durable.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, writes: &[(u32, i64)]) -> Vec<u8> {
        let mut out = Vec::new();
        let addrs: Vec<(Addr, i64)> = writes
            .iter()
            .map(|&(a, v)| (Addr::from_index(a as usize), v))
            .collect();
        encode_record(&mut out, seq, &addrs);
        out
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut bytes = rec(1, &[(3, -7), (9, i64::MAX)]);
        bytes.extend(rec(2, &[]));
        bytes.extend(rec(3, &[(0, i64::MIN)]));
        let (records, consumed, stop) = read_records(&bytes);
        assert_eq!(stop, StopReason::CleanEnd);
        assert_eq!(consumed, bytes.len());
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].writes, vec![(3, -7), (9, i64::MAX)]);
        assert_eq!(records[1].writes, vec![]);
        assert_eq!(records[2].seq, 3);
    }

    #[test]
    fn truncated_tail_stops_cleanly() {
        let bytes = rec(1, &[(1, 10), (2, 20)]);
        for cut in 0..bytes.len() {
            let (records, consumed, stop) = read_records(&bytes[..cut]);
            assert!(records.is_empty(), "cut {cut}");
            assert_eq!(consumed, 0);
            assert!(stop.is_tail(), "cut {cut}: {stop:?}");
        }
    }

    #[test]
    fn non_contiguous_sequence_rejected() {
        let mut bytes = rec(1, &[(1, 1)]);
        bytes.extend(rec(3, &[(2, 2)]));
        let (records, _, stop) = read_records(&bytes);
        assert_eq!(records.len(), 1);
        assert_eq!(stop, StopReason::BadSequence);
    }

    #[test]
    fn sim_storage_tracks_watermarks() {
        let (mut sim, handle) = SimStorage::new();
        sim.append(b"abcd").unwrap();
        assert_eq!(handle.watermarks(), (4, 0));
        sim.sync().unwrap();
        assert_eq!(handle.watermarks(), (4, 4));
        sim.append(b"ef").unwrap();
        assert_eq!(handle.watermarks(), (6, 4));
        assert_eq!(handle.bytes(), b"abcdef");
    }

    #[test]
    fn commit_log_sync_mode_acks_after_fsync() {
        let (sim, handle) = SimStorage::new();
        let log = CommitLog::new(Box::new(sim), DurabilityMode::Sync);
        log.track_acks(true);
        let t = log.append(&[(Addr::from_index(5), 42)]).unwrap();
        assert_eq!(log.durable_seq(), 0, "append alone is not durable");
        log.wait_durable(t).unwrap();
        assert_eq!(log.durable_seq(), 1);
        assert_eq!(log.acked_seqs(), vec![1]);
        let (written, durable) = handle.watermarks();
        assert_eq!(written, durable);
        let (records, _, stop) = read_records(&handle.bytes());
        assert_eq!(stop, StopReason::CleanEnd);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].writes, vec![(5, 42)]);
    }

    #[test]
    fn group_mode_flushes_in_background() {
        let (sim, handle) = SimStorage::new();
        let log = CommitLog::new(Box::new(sim), DurabilityMode::Group);
        let mut tickets = Vec::new();
        for i in 0..10 {
            tickets.push(log.append(&[(Addr::from_index(i), i as i64)]).unwrap());
        }
        for t in tickets {
            log.wait_durable(t).unwrap();
        }
        drop(log);
        let (records, _, stop) = read_records(&handle.bytes());
        assert_eq!(stop, StopReason::CleanEnd);
        assert_eq!(records.len(), 10);
    }

    #[test]
    fn manual_mode_needs_explicit_flush() {
        let (sim, handle) = SimStorage::new();
        let log = CommitLog::new(Box::new(sim), DurabilityMode::Manual);
        let t = log.append(&[(Addr::from_index(1), 7)]).unwrap();
        assert_eq!(handle.watermarks(), (0, 0));
        assert!(log.flush_step().unwrap());
        assert!(!log.flush_step().unwrap(), "nothing left to flush");
        log.wait_durable(t).unwrap();
        assert_eq!(log.durable_seq(), 1);
    }

    #[test]
    fn replay_is_idempotent() {
        let mut bytes = rec(1, &[(0, 5), (1, 6)]);
        bytes.extend(rec(2, &[(1, 60)]));
        let heap = Heap::new(8);
        let r1 = replay(&bytes, &heap);
        assert_eq!(r1.records, 2);
        assert_eq!(r1.last_seq, 2);
        let snap1: Vec<i64> = (0..8).map(|i| heap.load(Addr::from_index(i))).collect();
        let r2 = replay(&bytes, &heap);
        assert_eq!(r2.records, 2);
        let snap2: Vec<i64> = (0..8).map(|i| heap.load(Addr::from_index(i))).collect();
        assert_eq!(snap1, snap2);
        assert_eq!(heap.load(Addr::from_index(0)), 5);
        assert_eq!(heap.load(Addr::from_index(1)), 60, "later record wins");
    }

    #[test]
    #[should_panic(expected = "beyond heap capacity")]
    fn replay_into_too_small_heap_panics() {
        let bytes = rec(1, &[(100, 1)]);
        let heap = Heap::new(4);
        let _ = replay(&bytes, &heap);
    }
}
