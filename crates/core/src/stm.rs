//! The runtime front object: [`Stm`] owns the heap, the algorithm's global
//! state and the statistics; [`Stm::atomic`] runs a closure as a
//! transaction with automatic retry; [`Tx`] exposes the extended TM API of
//! the paper's Table 1 (`read`, `write`, `cmp`, `cmp_addr`, `inc`).
//!
//! For non-semantic algorithms (`NOrec`, `Tl2`) the semantic entry points
//! **delegate**: `cmp` becomes a plain read plus a local comparison and
//! `inc` becomes read + write — exactly how the unmodified TM algorithms
//! in libitm implement the new ABI calls (paper §6). This keeps every
//! workload source-identical across all four algorithms, which is what
//! makes the base-vs-semantic columns of Table 3 and the figure legends
//! directly comparable.

use crate::adapt::{self, Controller, Mode, ModeMachine, SwitchError, SwitchReport};
use crate::cm::ContentionManager;
use crate::config::{Algorithm, StmConfig};
use crate::error::{Abort, AbortReason, Conflict};
use crate::heap::{Addr, Heap};
use crate::norec::{CommitClock, GlobalClock, NorecTx};
use crate::ops::CmpOp;
use crate::sclock::ShardedClock;
use crate::sets::{ScratchBox, WriteEntry, WriteKind};
use crate::stats::{OpCounts, StatShard, StatsSnapshot};
use crate::telemetry::{PhaseRecorder, SpanEvent, Telemetry, TelemetryLevel};
use crate::tl2::{Tl2Global, Tl2Tx};
use crate::util::thread_token;
use crate::value::Word;
use crate::wal::{CommitLog, LogStorage};
use std::convert::Infallible;
use std::sync::Mutex;
use std::time::Instant;

/// A shared software-transactional-memory instance.
///
/// Create one per experiment; share it across threads by reference (it is
/// `Sync`). All transactional data must be allocated from this instance's
/// heap.
pub struct Stm {
    config: StmConfig,
    heap: Heap,
    norec: GlobalClock,
    sclock: ShardedClock,
    tl2: Tl2Global,
    telemetry: Telemetry,
    wal: Option<CommitLog>,
    /// The adaptive mode word + epoch slots ([`crate::adapt`]): which
    /// engine attempts dispatch on, and the quiesce protocol that lets
    /// [`Stm::switch_to`] change it on a live runtime.
    machine: ModeMachine,
    /// The telemetry-driven controller, when [`StmConfig::adaptive`]
    /// attached one. Locked only inside [`Stm::adapt_tick`].
    controller: Option<Mutex<Controller>>,
}

impl Stm {
    /// Create a runtime from a configuration.
    pub fn new(config: StmConfig) -> Stm {
        Stm {
            heap: Heap::new(config.heap_words),
            norec: GlobalClock::default(),
            sclock: ShardedClock::new(config.clock_shards),
            tl2: Tl2Global::new(config.orec_count),
            telemetry: Telemetry::new(config.telemetry, config.algorithm, config.trace_capacity),
            wal: None,
            machine: ModeMachine::new(Mode::initial(&config)),
            controller: config.adaptive.map(|p| Mutex::new(Controller::new(p))),
            config,
        }
    }

    /// Create a **durable** runtime: every commit's resolved write set
    /// is appended to a write-ahead log over `storage` (flushed per
    /// [`StmConfig::durability`]) before the commit is acknowledged, and
    /// [`crate::wal::replay`] can rebuild the heap from the log prefix
    /// after a crash. See [`crate::wal`] for the protocol and the
    /// fail-stop policy on I/O errors.
    pub fn with_wal(config: StmConfig, storage: Box<dyn LogStorage>) -> Stm {
        let mode = config.durability;
        let mut stm = Stm::new(config);
        stm.wal = Some(CommitLog::new(storage, mode));
        stm
    }

    /// The attached commit log, if this runtime is durable.
    #[inline]
    pub fn wal(&self) -> Option<&CommitLog> {
        self.wal.as_ref()
    }

    /// The algorithm this instance runs.
    #[inline]
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm
    }

    /// The underlying heap (for allocation and non-transactional setup).
    #[inline]
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Allocate `n` contiguous words. With the
    /// [`padded_alloc`](StmConfig::padded_alloc) knob on, the block is
    /// placed on its own cache line(s) — see
    /// [`Heap::alloc_padded`](crate::heap::Heap::alloc_padded).
    pub fn alloc(&self, n: usize) -> Addr {
        if self.config.padded_alloc {
            self.heap.alloc_padded(n)
        } else {
            self.heap.alloc(n)
        }
    }

    /// Allocate `n` contiguous words on their own cache line(s),
    /// regardless of the `padded_alloc` knob (per-pool opt-in).
    pub fn alloc_padded(&self, n: usize) -> Addr {
        self.heap.alloc_padded(n)
    }

    /// Allocate one word holding `init` (non-transactionally).
    pub fn alloc_cell<T: Word>(&self, init: T) -> Addr {
        let a = self.alloc(1);
        self.heap.store(a, init.to_word());
        a
    }

    /// Allocate an array of `n` words, all holding `init`.
    pub fn alloc_array<T: Word>(&self, n: usize, init: T) -> Addr {
        let a = self.alloc(n);
        for i in 0..n {
            self.heap.store(a.offset(i), init.to_word());
        }
        a
    }

    /// Non-transactional read (setup / teardown / assertions only).
    pub fn read_now(&self, a: Addr) -> i64 {
        self.heap.load(a)
    }

    /// Non-transactional write (setup / teardown only).
    pub fn write_now(&self, a: Addr, v: i64) {
        self.heap.store(a, v);
    }

    /// Statistics snapshot (merged across all telemetry shards).
    pub fn stats(&self) -> StatsSnapshot {
        self.telemetry.snapshot()
    }

    /// The full telemetry state: histograms, abort traces, shard access.
    #[inline]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine mode attempts currently dispatch on. During a switch's
    /// drain window this still reports the old mode (the one in-flight
    /// attempts run).
    pub fn mode(&self) -> Mode {
        self.machine.mode()
    }

    /// Completed mode switches over this runtime's lifetime.
    pub fn switch_count(&self) -> u64 {
        self.machine.switch_count()
    }

    /// Hot-swap the runtime to `target`: publish `Draining`, wait for
    /// in-flight attempts to retire (at most one quiesce epoch — an
    /// attempt, including its WAL durability ack), reseed the engine
    /// metadata clocks, publish the new mode. Concurrent transactions
    /// keep running: attempts that began before the switch complete
    /// under the old mode; attempts that begin during the drain wait for
    /// the handoff and run the new one.
    ///
    /// Returns the drain/latency report (a no-op report when `target`
    /// is already running). Must not be called from inside a transaction
    /// body on this runtime — the drain would wait for the caller's own
    /// attempt, deadlocking.
    ///
    /// Fails with [`SwitchError::Unavailable`] if `target` needs the
    /// sharded clock and this runtime was built with `clock_shards = 1`
    /// (or a sharded TL2 mode was requested — that variant does not
    /// exist).
    pub fn switch_to(&self, target: Mode) -> Result<SwitchReport, SwitchError> {
        if !target.available_under(&self.config) {
            return Err(SwitchError::Unavailable(target));
        }
        Ok(self.machine.switch(target, || {
            // Quiescent: no commit lock held, no write-back in flight.
            // Bump every engine's clock one era forward (never rewound)
            // so no snapshot taken before the switch can validate as
            // current after it — the new engine starts from a heap that
            // is just initial state to it. See DESIGN.md §10.
            self.norec.reseed();
            self.sclock.reseed();
            self.tl2.reseed();
        }))
    }

    /// One controller tick: fold the newest telemetry window into the
    /// rate EWMAs, ask the [`Controller`] for a mode proposal, and apply
    /// it via [`Stm::switch_to`]. Returns the switch report when a
    /// switch happened. No-op (and free) without
    /// [`StmConfig::adaptive`]; call from a sampler/ticker thread, never
    /// from inside a transaction body.
    pub fn adapt_tick(&self) -> Option<SwitchReport> {
        let controller = self.controller.as_ref()?;
        let mut ctl = controller.lock().expect("controller poisoned");
        let rates = self.telemetry.rates(ctl.policy().sample_alpha);
        let target = ctl.decide(self.mode(), &rates, self.config.clock_shards)?;
        match self.switch_to(target) {
            Ok(report) if report.changed() => {
                ctl.note_switched();
                Some(report)
            }
            _ => None,
        }
    }

    /// Run `body` as a transaction, retrying on aborts with randomised
    /// exponential backoff until it commits. Returns the body's value.
    ///
    /// The body must route **every** shared access through the provided
    /// [`Tx`] and must be safe to re-execute (it runs once per attempt).
    pub fn atomic<T>(&self, mut body: impl FnMut(&mut Tx<'_>) -> Result<T, Abort>) -> T {
        match self.atomic_or_err(|tx| body(tx).map(Ok::<T, Infallible>)) {
            Ok(v) => v,
            Err(never) => match never {},
        }
    }

    /// [`Stm::atomic`] for a body that can fail for a reason of its own:
    /// `Err(abort)` from a barrier is retried as usual, while `Ok(Err(e))`
    /// gives the transaction up — the attempt is rolled back, counted as
    /// an explicit abort, never retried, and `Err(e)` is returned. This
    /// is the exit a caller needs whose failure must not commit partial
    /// effects (the IR interpreter's step budget, a bad address).
    pub fn atomic_or_err<T, E>(
        &self,
        body: impl FnMut(&mut Tx<'_>) -> Result<Result<T, E>, Abort>,
    ) -> Result<T, E> {
        self.run(body, |_| None)
    }

    /// Run `body` as a transaction **once**, returning the abort instead
    /// of retrying. Useful for tests that assert on specific conflicts,
    /// and the non-panicking probe of a failed commit log.
    pub fn try_atomic<T>(
        &self,
        body: impl FnOnce(&mut Tx<'_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        let mut body = Some(body);
        self.run(
            |tx| {
                let body = body.take().expect("the first abort ends the transaction");
                body(tx).map(Ok)
            },
            Some,
        )
    }

    /// The transaction driver — the only attempt loop in the runtime,
    /// behind every entry point above. Runs [`Stm::attempt`] until the
    /// body commits or gives up; after an abort, `ends(abort)` may end
    /// the transaction with an error instead of retrying.
    fn run<T, E>(
        &self,
        mut body: impl FnMut(&mut Tx<'_>) -> Result<Result<T, E>, Abort>,
        ends: impl Fn(Abort) -> Option<E>,
    ) -> Result<T, E> {
        // The one thread-token read of the transaction: everything keyed
        // by the thread — backoff jitter, epoch slot, counter shard, TL2
        // lock owner — is handed it.
        let token = thread_token();
        let slot = adapt::slot_of(token);
        let mut cm = ContentionManager::new(token.wrapping_mul(0x9E37_79B9));
        // Enter the adaptive epoch before building the attempt context:
        // the entered word pins the engine this attempt dispatches on,
        // and retiring the slot (the `Attempt` guard) is what a switch's
        // drain barrier waits for. The common case — no switch between
        // attempts — keeps one Tx alive across the whole retry loop; its
        // engine runs on the calling thread's attempt scratch, so
        // building it allocates nothing once the thread is warm. Nothing
        // between an `enter` and the guard that adopts its slot can
        // unwind.
        let mut entered = self.machine.enter(slot);
        let mut mode = adapt::word_mode(entered);
        let mut tx = Tx::new(self, mode, token);
        // Looked up once per transaction, not per event: the shard
        // reference stays hot in a register across retries.
        let shard = self.telemetry.shard_of(token);
        let histograms = self.telemetry.level() >= TelemetryLevel::Histograms;
        let started = histograms.then(Instant::now);
        let mut conflicts: u32 = 0;
        let mut nth: u64 = 1;
        loop {
            let abort = match self.attempt(&mut tx, slot, shard, started, nth, &mut body) {
                Ok(done) => return done,
                Err(abort) => abort,
            };
            if let Some(e) = ends(abort) {
                return Err(e);
            }
            // Fail stop on durability failures: the rollback was clean
            // (the append is refused before any heap write-back), but
            // retrying against a poisoned log can never succeed and
            // pretending to commit without durability would break the
            // ack contract. Surface loudly; `try_atomic` is the
            // non-panicking probe.
            if abort.reason == AbortReason::Durability {
                panic!("commit log I/O failure: {abort} — aborting (fail-stop durability)");
            }
            let spins = cm.pause(conflicts, abort.reason);
            if histograms {
                self.telemetry.record_backoff(spins);
            }
            // Under the deterministic scheduler, retrying after an abort
            // is a futile-wait iteration (the conflicting transaction
            // must be scheduled for the retry to fare better), so report
            // it as a spin — otherwise a default-continue explorer
            // replays the aborting thread forever.
            crate::sched::spin();
            if abort.reason != AbortReason::Explicit {
                conflicts = conflicts.saturating_add(1);
            }
            nth += 1;
            // Re-enter for the retry. A switch may have landed while we
            // were out (backoff): rebuild the attempt context only when
            // the engine actually changed — an epoch bump alone keeps
            // the hot buffers.
            let word = self.machine.enter(slot);
            if word != entered {
                let next = adapt::word_mode(word);
                if next != mode {
                    // Old context first: its drop hands the thread's
                    // scratch back, so the new engine inherits the
                    // buffers instead of growing a second set.
                    drop(tx);
                    tx = Tx::new(self, next, token);
                    mode = next;
                }
                entered = word;
            }
        }
    }

    /// One attempt, the `nth` of its transaction, on the epoch `slot` the
    /// caller entered: begin, body, commit, retire the slot, record.
    /// Every statistic an attempt leaves — counters, commit profile,
    /// abort event, span, conflict attribution — is written here and
    /// nowhere else, so all entry points are observed alike.
    #[inline]
    fn attempt<T, E>(
        &self,
        tx: &mut Tx<'_>,
        slot: usize,
        shard: &StatShard,
        started: Option<Instant>,
        nth: u64,
        body: impl FnOnce(&mut Tx<'_>) -> Result<Result<T, E>, Abort>,
    ) -> Result<Result<T, E>, Abort> {
        // Every per-attempt flight-recorder cost sits behind the `spans`
        // guard; at lower levels an attempt reads no clock of its own.
        let spans = self.telemetry.level() >= TelemetryLevel::Spans;
        let attempt_start = if spans {
            self.telemetry.elapsed_ns()
        } else {
            0
        };
        let guard = Attempt {
            machine: &self.machine,
            slot,
            tx: &mut *tx,
        };
        guard.tx.begin();
        let outcome = match body(guard.tx) {
            Ok(Ok(v)) => guard.tx.commit().map(|()| Ok(v)),
            gave_up_or_aborted => gave_up_or_aborted,
        };
        // Roll back and retire from the epoch first: commit (including
        // its WAL durability ack) is done or refused, so a draining
        // switch need not wait out the recording below, nor the caller's
        // backoff pause. The set sizes survive until the next `begin`.
        drop(guard);
        let abort = match &outcome {
            Ok(Ok(_)) => None,
            Ok(Err(_)) => Some(Abort::explicit()),
            Err(abort) => Some(*abort),
        };
        match abort {
            None => {
                shard.record_commit(&tx.ops);
                if let Some(t0) = started {
                    self.telemetry.record_commit_profile(
                        t0.elapsed().as_nanos() as u64,
                        nth,
                        tx.read_set_len(),
                        tx.compare_set_len(),
                    );
                }
            }
            Some(abort) => {
                shard.record_abort(abort.reason, &tx.ops);
                if self.telemetry.level() >= TelemetryLevel::Trace {
                    self.telemetry.record_abort_event(
                        abort.reason,
                        abort.conflict(),
                        nth as u32,
                        tx.read_set_len(),
                        tx.compare_set_len(),
                    );
                }
            }
        }
        if spans {
            let span = tx.span(
                attempt_start,
                self.telemetry.elapsed_ns(),
                nth as u32,
                abort.map(|a| (a.reason, a.conflict())),
            );
            if let Some(abort) = abort {
                self.telemetry
                    .record_conflict(span.thread, abort.conflict());
            }
            self.telemetry.record_span(span);
        }
        outcome
    }
}

/// One attempt's hold on its epoch slot. Dropping it releases whatever
/// engine metadata the attempt still holds, then retires the slot — on
/// the explicit paths, and equally when a panic in the body (or the
/// fail-stop panic inside `commit`) unwinds through the attempt: a slot
/// that stayed counted would make every later [`Stm::switch_to`] drain
/// forever, and every `enter` spin behind it.
struct Attempt<'s, 't, 'a> {
    machine: &'s ModeMachine,
    /// The epoch slot entered for this attempt.
    slot: usize,
    tx: &'t mut Tx<'a>,
}

impl Drop for Attempt<'_, '_, '_> {
    fn drop(&mut self) {
        self.tx.rollback();
        self.machine.exit(self.slot);
    }
}

/// The engine ABI: the closed set of primitives [`Tx`] forwards to,
/// implemented once by the NOrec engine (over either clock) and once by
/// TL2. `ops` is the attempt's operation tally, touched only to count
/// promotions.
///
/// What the write-set does to a barrier is the same under every engine
/// and is written here once: the barriers are provided methods that put
/// the write filter and the read-after-write rules (Algorithm 6 `RAW`,
/// lines 17–23; §4.1) in front of the engine's three reads of *live*
/// memory. They are `#[inline(always)]` down to the entry push — [`Tx`]
/// inlines them per arm, so a public barrier is one function — and what
/// is rare (the filter passes the address, the clock moved, an orec is
/// locked, an abort is built) is a `#[cold]` call out of that line.
pub(crate) trait Engine<'a> {
    /// Make writer commits durable: append the resolved write set to
    /// `log` post-validation/pre-write-back and ack only once durable.
    fn enable_wal(&mut self, log: &'a CommitLog);
    /// Turn the flight recorder on for this context: install a live
    /// phase recorder and enable committer stamping/attribution.
    fn enable_spans(&mut self, recorder: PhaseRecorder);
    /// Current phase marks (read back by the span recorder).
    fn phases(&self) -> PhaseRecorder;
    /// Begin (or re-begin after an abort): clear the sets, take a snapshot.
    fn begin(&mut self);
    /// The attempt's scratch, whose filter fronts the write-set.
    fn scratch(&mut self) -> &mut ScratchBox;
    /// `TM_READ` of an address the write-set does not hold: a consistent
    /// load, recorded in the read-set.
    fn read_live(&mut self, addr: Addr) -> Result<i64, Abort>;
    /// `*addr OP operand` on an address the write-set does not hold; the
    /// relation that held is recorded (the inverse, for a false outcome).
    fn cmp_live(&mut self, addr: Addr, op: CmpOp, operand: i64) -> Result<bool, Abort>;
    /// `*a OP *b` with neither side held by the write-set: both words
    /// read consistently, the relation recorded as one `Pair` entry.
    fn cmp_pair_live(&mut self, a: Addr, op: CmpOp, b: Addr) -> Result<bool, Abort>;

    /// Read-after-write resolution for an address the filter does not
    /// rule out: the value the transaction would observe for `addr` if
    /// it is buffered. An `Increment` entry is promoted — its read can no
    /// longer be deferred — to a plain read plus a store.
    #[cold]
    fn raw(&mut self, addr: Addr, ops: &mut OpCounts) -> Result<Option<i64>, Abort> {
        match self.scratch().get(addr) {
            None => Ok(None),
            Some(WriteEntry {
                kind: WriteKind::Store,
                value,
            }) => Ok(Some(value)),
            Some(WriteEntry {
                kind: WriteKind::Increment,
                ..
            }) => {
                let observed = self.read_live(addr)?;
                ops.promotes += 1;
                Ok(Some(self.scratch().writes.promote(addr, observed)))
            }
        }
    }

    /// `TM_READ`.
    #[inline(always)]
    fn read(&mut self, addr: Addr, ops: &mut OpCounts) -> Result<i64, Abort> {
        if self.scratch().may_hold(addr) {
            if let Some(v) = self.raw(addr, ops)? {
                return Ok(v);
            }
        }
        self.read_live(addr)
    }

    /// `TM_WRITE` (buffered).
    #[inline(always)]
    fn write(&mut self, addr: Addr, value: i64) {
        self.scratch().write(addr, value);
    }

    /// Semantic compare, address–value form.
    #[inline(always)]
    fn cmp(
        &mut self,
        addr: Addr,
        op: CmpOp,
        operand: i64,
        ops: &mut OpCounts,
    ) -> Result<bool, Abort> {
        if self.scratch().may_hold(addr) {
            if let Some(v) = self.raw(addr, ops)? {
                return Ok(op.eval(v, operand));
            }
        }
        self.cmp_live(addr, op, operand)
    }

    /// Semantic compare, address–address form (`_ITM_S2R`).
    #[inline(always)]
    fn cmp_addr(&mut self, a: Addr, op: CmpOp, b: Addr, ops: &mut OpCounts) -> Result<bool, Abort> {
        if self.scratch().may_hold(a) || self.scratch().may_hold(b) {
            return self.cmp_pair_buffered(a, op, b, ops);
        }
        self.cmp_pair_live(a, op, b)
    }

    /// The address–address compare when the filter rules out neither
    /// side: those the write-set pins collapse to the address–value form.
    #[cold]
    fn cmp_pair_buffered(
        &mut self,
        a: Addr,
        op: CmpOp,
        b: Addr,
        ops: &mut OpCounts,
    ) -> Result<bool, Abort> {
        let wa = self.raw(a, ops)?;
        let wb = self.raw(b, ops)?;
        match (wa, wb) {
            (Some(va), Some(vb)) => Ok(op.eval(va, vb)),
            (Some(va), None) => self.cmp_live(b, op.swap(), va),
            (None, Some(vb)) => self.cmp_live(a, op, vb),
            (None, None) => self.cmp_pair_live(a, op, b),
        }
    }

    /// `TM_INC`: pure write-set bookkeeping; the read is deferred to
    /// commit time, under the engine's locks (Algorithm 6 `Increment`,
    /// lines 44–49).
    #[inline(always)]
    fn inc(&mut self, addr: Addr, delta: i64) {
        self.scratch().inc(addr, delta);
    }

    /// Validate, write back, release; on `Err` nothing was written.
    fn commit(&mut self) -> Result<(), Abort>;
    /// Release any metadata an abandoned attempt still holds.
    fn rollback(&mut self);
    /// Read-set entries buffered so far.
    fn read_set_len(&self) -> usize;
    /// Compare-set entries buffered so far.
    fn compare_set_len(&self) -> usize;
    /// Write-set entries buffered so far.
    fn write_set_len(&self) -> usize;
}

enum TxInner<'a> {
    Global(NorecTx<'a, GlobalClock>),
    Sharded(NorecTx<'a, ShardedClock>),
    Tl2(Tl2Tx<'a>),
}

/// Static dispatch onto the attempt's engine: `$e` is monomorphised per
/// arm against the [`Engine`] ABI.
macro_rules! dispatch {
    ($inner:expr, $t:ident => $e:expr) => {
        match $inner {
            TxInner::Global($t) => $e,
            TxInner::Sharded($t) => $e,
            TxInner::Tl2($t) => $e,
        }
    };
}

/// An in-flight transaction. Obtained through [`Stm::atomic`],
/// [`Stm::atomic_or_err`] or [`Stm::try_atomic`]; all barriers return
/// `Result<_, Abort>` and the body should propagate aborts with `?`.
pub struct Tx<'a> {
    inner: TxInner<'a>,
    semantic: bool,
    ops: OpCounts,
}

impl<'a> Tx<'a> {
    /// A context on `mode`'s engine for the thread whose token is `token`.
    fn new(stm: &'a Stm, mode: Mode, token: u64) -> Tx<'a> {
        // Dispatch on the *mode*, not the construction-time algorithm:
        // all engine globals coexist in the Stm, so an adaptive switch
        // is just a different arm here on the next attempt.
        // (`Mode::initial` maps `clock_shards > 1` to the sharded clock.)
        let inner = match (mode.algorithm.baseline(), mode.sharded) {
            (Algorithm::NOrec, true) => TxInner::Sharded(NorecTx::new(&stm.heap, &stm.sclock)),
            (Algorithm::NOrec, false) => TxInner::Global(NorecTx::new(&stm.heap, &stm.norec)),
            (Algorithm::Tl2, _) => TxInner::Tl2(Tl2Tx::new(
                &stm.heap,
                &stm.tl2,
                token,
                stm.config.lock_wait_spins,
                stm.config.stl2_snapshot_extension,
            )),
            _ => unreachable!("baseline() returns a baseline"),
        };
        let mut tx = Tx {
            inner,
            semantic: mode.algorithm.is_semantic(),
            ops: OpCounts::default(),
        };
        // At Spans the recorder is live (its epoch is the telemetry
        // clock); below, this installs the inert recorder — the no-op
        // marks inside the algorithms stay behind its `None` check.
        let recorder = stm.telemetry.phase_recorder();
        if recorder.is_enabled() {
            dispatch!(&mut tx.inner, t => t.enable_spans(recorder));
        }
        if let Some(log) = &stm.wal {
            dispatch!(&mut tx.inner, t => t.enable_wal(log));
        }
        tx
    }

    fn begin(&mut self) {
        self.ops.clear();
        dispatch!(&mut self.inner, t => t.begin())
    }

    fn commit(&mut self) -> Result<(), Abort> {
        dispatch!(&mut self.inner, t => t.commit())
    }

    fn rollback(&mut self) {
        dispatch!(&mut self.inner, t => t.rollback())
    }

    /// `TM_READ` — transactional read of one word (as `i64`).
    ///
    /// Like every barrier below, one call deep: the engine's barrier is
    /// inlined here per arm, and what it does rarely (a write-set hit,
    /// revalidation, waiting, building an abort) is a cold call from it.
    pub fn read(&mut self, addr: Addr) -> Result<i64, Abort> {
        self.read_word(addr)
    }

    /// [`Tx::read`], inlined into the barriers a baseline delegates to it.
    #[inline(always)]
    fn read_word(&mut self, addr: Addr) -> Result<i64, Abort> {
        self.ops.reads += 1;
        dispatch!(&mut self.inner, t => t.read(addr, &mut self.ops))
    }

    /// `TM_WRITE` — transactional (buffered) write of one word.
    pub fn write(&mut self, addr: Addr, value: i64) -> Result<(), Abort> {
        self.ops.writes += 1;
        dispatch!(&mut self.inner, t => t.write(addr, value));
        Ok(())
    }

    /// Semantic comparison against a constant — the paper's
    /// `TM_GT/GTE/LT/LTE/EQ/NEQ(address, value)` (ABI `_ITM_S1R`).
    ///
    /// Under a semantic algorithm, records the boolean outcome for
    /// semantic validation; under a baseline, delegates to [`Tx::read`].
    pub fn cmp(&mut self, addr: Addr, op: CmpOp, operand: i64) -> Result<bool, Abort> {
        if !self.semantic {
            let v = self.read_word(addr)?;
            return Ok(op.eval(v, operand));
        }
        self.ops.cmps += 1;
        dispatch!(&mut self.inner, t => t.cmp(addr, op, operand, &mut self.ops))
    }

    /// Semantic comparison between two addresses — the paper's
    /// `TM_*(address, address)` form (ABI `_ITM_S2R`).
    pub fn cmp_addr(&mut self, a: Addr, op: CmpOp, b: Addr) -> Result<bool, Abort> {
        if !self.semantic {
            let va = self.read_word(a)?;
            let vb = self.read_word(b)?;
            return Ok(op.eval(va, vb));
        }
        self.ops.cmp_pairs += 1;
        dispatch!(&mut self.inner, t => t.cmp_addr(a, op, b, &mut self.ops))
    }

    /// Semantic increment — the paper's `TM_INC(address, delta)`
    /// (`TM_DEC` is a negative delta; ABI `_ITM_SW`).
    ///
    /// Under a semantic algorithm the read half is deferred to commit
    /// time; under a baseline, delegates to read + write.
    pub fn inc(&mut self, addr: Addr, delta: i64) -> Result<(), Abort> {
        if !self.semantic {
            let v = self.read_word(addr)?;
            return self.write(addr, v.wrapping_add(delta));
        }
        self.ops.incs += 1;
        dispatch!(&mut self.inner, t => t.inc(addr, delta));
        Ok(())
    }

    // --- convenience shorthands matching Table 1 ---

    /// `TM_GT(addr, value)`.
    pub fn gt(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Gt, v)
    }
    /// `TM_GTE(addr, value)`.
    pub fn gte(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Gte, v)
    }
    /// `TM_LT(addr, value)`.
    pub fn lt(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Lt, v)
    }
    /// `TM_LTE(addr, value)`.
    pub fn lte(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Lte, v)
    }
    /// `TM_EQ(addr, value)`.
    pub fn eq(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Eq, v)
    }
    /// `TM_NEQ(addr, value)`.
    pub fn neq(&mut self, addr: Addr, v: i64) -> Result<bool, Abort> {
        self.cmp(addr, CmpOp::Neq, v)
    }
    /// `TM_DEC(addr, delta)`: `*addr -= delta`, wrapping like `inc` (so
    /// `delta == i64::MIN` is defined, and equals adding it).
    pub fn dec(&mut self, addr: Addr, delta: i64) -> Result<(), Abort> {
        self.inc(addr, delta.wrapping_neg())
    }

    /// Diagnostics: size of the semantic metadata (read-set entries for
    /// NOrec-family; read-set + compare-set for TL2-family).
    pub fn metadata_len(&self) -> usize {
        self.read_set_len() + self.compare_set_len()
    }

    /// Diagnostics: read-set entries buffered so far.
    pub fn read_set_len(&self) -> usize {
        dispatch!(&self.inner, t => t.read_set_len())
    }

    /// Diagnostics: compare-set entries buffered so far (always 0 for
    /// the NOrec family, whose cmp outcomes live in the read-set).
    pub fn compare_set_len(&self) -> usize {
        dispatch!(&self.inner, t => t.compare_set_len())
    }

    /// Diagnostics: whether the transaction buffered any write.
    pub fn is_writer(&self) -> bool {
        self.write_set_len() != 0
    }

    fn write_set_len(&self) -> usize {
        dispatch!(&self.inner, t => t.write_set_len())
    }

    /// Snapshot this attempt as a flight-recorder span. Must run before
    /// the next `begin` (the set sizes and phase marks are still live) —
    /// `Stm::attempt` is the only caller.
    fn span(
        &self,
        start_ns: u64,
        end_ns: u64,
        attempt: u32,
        abort: Option<(AbortReason, Conflict)>,
    ) -> SpanEvent {
        let phases = dispatch!(&self.inner, t => t.phases());
        SpanEvent {
            thread: thread_token(),
            start_ns,
            end_ns,
            validate_ns: phases.validate_ns(),
            lock_ns: phases.lock_ns(),
            writeback_ns: phases.writeback_ns(),
            attempt,
            read_set: self.read_set_len(),
            write_set: self.write_set_len(),
            compare_set: self.compare_set_len(),
            abort,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_algorithms() -> impl Iterator<Item = Stm> {
        Algorithm::ALL
            .into_iter()
            .map(|a| Stm::new(StmConfig::new(a).heap_words(1 << 12).orec_count(1 << 8)))
    }

    #[test]
    fn atomic_commits_and_returns_value() {
        for stm in all_algorithms() {
            let a = stm.alloc_cell(1i64);
            let got = stm.atomic(|tx| {
                let v = tx.read(a)?;
                tx.write(a, v * 10)?;
                Ok(v)
            });
            assert_eq!(got, 1);
            assert_eq!(stm.read_now(a), 10, "{}", stm.algorithm());
            assert_eq!(stm.stats().commits, 1);
        }
    }

    #[test]
    fn semantic_api_works_on_all_algorithms() {
        for stm in all_algorithms() {
            let x = stm.alloc_cell(5i64);
            let y = stm.alloc_cell(5i64);
            let ok = stm.atomic(|tx| {
                let c = tx.gt(x, 0)? || tx.gt(y, 0)?;
                if c {
                    tx.inc(x, 1)?;
                    tx.dec(y, 1)?;
                }
                Ok(c)
            });
            assert!(ok);
            assert_eq!(stm.read_now(x), 6, "{}", stm.algorithm());
            assert_eq!(stm.read_now(y), 4, "{}", stm.algorithm());
        }
    }

    #[test]
    fn dec_by_i64_min_wraps_like_subtraction() {
        for stm in all_algorithms() {
            let x = stm.alloc_cell(5i64);
            stm.atomic(|tx| tx.dec(x, i64::MIN));
            let wrapped = 5i64.wrapping_sub(i64::MIN);
            assert_eq!(stm.read_now(x), wrapped, "{}", stm.algorithm());
        }
    }

    #[test]
    fn delegation_counts_reads_writes_on_baselines() {
        let stm = Stm::new(StmConfig::new(Algorithm::NOrec).heap_words(64));
        let x = stm.alloc_cell(5i64);
        stm.atomic(|tx| {
            let _ = tx.gt(x, 0)?;
            tx.inc(x, 1)
        });
        let s = stm.stats().committed;
        assert_eq!(s.reads, 2, "cmp and inc each delegate to a read");
        assert_eq!(s.writes, 1, "inc delegates to a write");
        assert_eq!(s.cmps, 0);
        assert_eq!(s.incs, 0);
    }

    #[test]
    fn semantic_counts_cmps_incs_on_extensions() {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let stm = Stm::new(StmConfig::new(alg).heap_words(64));
            let x = stm.alloc_cell(5i64);
            let y = stm.alloc_cell(3i64);
            stm.atomic(|tx| {
                let _ = tx.gt(x, 0)?;
                let _ = tx.cmp_addr(x, CmpOp::Gt, y)?;
                tx.inc(x, 1)
            });
            let s = stm.stats().committed;
            assert_eq!(s.reads, 0, "{alg}");
            assert_eq!(s.writes, 0, "{alg}");
            assert_eq!(s.cmps, 1, "{alg}");
            assert_eq!(s.cmp_pairs, 1, "{alg}");
            assert_eq!(s.incs, 1, "{alg}");
        }
    }

    #[test]
    fn try_atomic_surfaces_explicit_abort() {
        let stm = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(64));
        let r = stm.try_atomic(|_tx| -> Result<(), Abort> { Err(Abort::explicit()) });
        assert_eq!(r, Err(Abort::explicit()));
        assert_eq!(stm.stats().aborts(AbortReason::Explicit), 1);
        assert_eq!(stm.stats().commits, 0);
    }

    #[test]
    fn spans_level_records_a_span_per_attempt() {
        for alg in Algorithm::ALL {
            let stm = Stm::new(
                StmConfig::new(alg)
                    .heap_words(64)
                    .orec_count(16)
                    .telemetry(TelemetryLevel::Spans),
            );
            let a = stm.alloc_cell(1i64);
            stm.atomic(|tx| {
                let v = tx.read(a)?;
                tx.write(a, v + 1)
            });
            let spans = stm.telemetry().span_events();
            assert_eq!(spans.len(), 1, "{alg}");
            let s = &spans[0];
            assert!(s.committed(), "{alg}");
            assert!(s.end_ns >= s.start_ns, "{alg}");
            assert_eq!(s.attempt, 1, "{alg}");
            assert_eq!(s.write_set, 1, "{alg}");
            assert!(s.lock_ns.is_some(), "{alg}: writer must mark lock phase");
            assert!(
                s.writeback_ns.is_some(),
                "{alg}: writer must mark writeback"
            );
        }
    }

    #[test]
    fn aborted_attempts_record_abort_spans() {
        let stm = Stm::new(
            StmConfig::new(Algorithm::SNOrec)
                .heap_words(64)
                .telemetry(TelemetryLevel::Spans),
        );
        let a = stm.alloc_cell(0i64);
        let mut first = true;
        stm.atomic(|tx| {
            tx.inc(a, 1)?;
            if first {
                first = false;
                return Err(Abort::explicit());
            }
            Ok(())
        });
        let spans = stm.telemetry().span_events();
        assert_eq!(spans.len(), 2, "one span per attempt");
        let aborted = spans.iter().find(|s| !s.committed()).unwrap();
        assert_eq!(aborted.abort.unwrap().0, AbortReason::Explicit);
        assert_eq!(aborted.attempt, 1);
        let committed = spans.iter().find(|s| s.committed()).unwrap();
        assert_eq!(committed.attempt, 2);
    }

    #[test]
    fn every_entry_point_is_recorded_alike() {
        // One conflicting attempt through each entry point: a nested
        // writer commits to `x` between the outer body's two reads.
        let observe = |entry: &str| {
            let stm = Stm::new(
                StmConfig::new(Algorithm::SNOrec)
                    .heap_words(64)
                    .telemetry(TelemetryLevel::Spans),
            );
            let x = stm.alloc_cell(0i64);
            let mut first = true;
            let mut body = |tx: &mut Tx<'_>| {
                let before = tx.read(x)?;
                if std::mem::take(&mut first) {
                    stm.atomic(|writer| writer.write(x, before + 1));
                }
                tx.read(x)
            };
            let retried = entry != "try_atomic";
            let got = match entry {
                "atomic" => Ok(stm.atomic(&mut body)),
                "atomic_or_err" => stm.atomic_or_err(|tx| body(tx).map(Ok::<_, AbortReason>)),
                _ => stm.try_atomic(&mut body).map_err(|abort| abort.reason),
            };
            let expected = if retried {
                Ok(1)
            } else {
                Err(AbortReason::Validation)
            };
            assert_eq!(got, expected, "{entry}");
            let t = stm.telemetry();
            let spans = t.span_events();
            let attempts = 1 + retried as usize;
            assert_eq!(spans.len(), 1 + attempts, "{entry}: writer + attempts");
            let commits = spans.iter().filter(|s| s.committed()).count();
            assert_eq!(t.commit_latency_ns().count(), commits as u64, "{entry}");
            assert_eq!(t.trace_events().len(), 1, "{entry}");
            let aborted = spans
                .iter()
                .find(|s| !s.committed())
                .expect("one abort span");
            let (reason, conflict) = aborted.abort.unwrap();
            assert_eq!(conflict.addr(), Some(x), "{entry}");
            (
                reason,
                aborted.attempt,
                aborted.read_set,
                t.hot_addresses(),
                t.conflict_edges().len(),
                stm.stats().aborts(AbortReason::Validation),
            )
        };
        let by_atomic = observe("atomic");
        assert_eq!(by_atomic.3.len(), 1, "the sketch names the contended word");
        assert_eq!(by_atomic, observe("atomic_or_err"));
        assert_eq!(by_atomic, observe("try_atomic"));
    }

    #[test]
    fn giving_up_rolls_back_counts_an_explicit_abort_and_never_retries() {
        for stm in all_algorithms() {
            let a = stm.alloc_cell(1i64);
            let mut runs = 0;
            let r: Result<(), &str> = stm.atomic_or_err(|tx| {
                runs += 1;
                tx.write(a, 99)?;
                Ok(Err("gave up"))
            });
            assert_eq!(r, Err("gave up"));
            assert_eq!(runs, 1);
            assert_eq!(stm.read_now(a), 1, "{}", stm.algorithm());
            let s = stm.stats();
            assert_eq!((s.commits, s.aborts(AbortReason::Explicit)), (0, 1));
            // The runtime is left usable.
            assert_eq!(stm.atomic_or_err(|tx| tx.read(a).map(Ok::<_, ()>)), Ok(1));
        }
    }

    #[test]
    fn below_spans_no_span_is_recorded() {
        for level in [
            TelemetryLevel::Counters,
            TelemetryLevel::Histograms,
            TelemetryLevel::Trace,
        ] {
            let stm = Stm::new(
                StmConfig::new(Algorithm::STl2)
                    .heap_words(64)
                    .orec_count(16)
                    .telemetry(level),
            );
            let a = stm.alloc_cell(1i64);
            stm.atomic(|tx| tx.inc(a, 1));
            assert!(stm.telemetry().span_events().is_empty());
            assert!(stm.telemetry().hot_addresses().is_empty());
        }
    }

    // --- the per-thread attempt scratch ---

    /// Every engine cell: the four algorithms, and the sharded clock.
    fn all_cells() -> impl Iterator<Item = Stm> {
        let config = |a| StmConfig::new(a).heap_words(1 << 12).orec_count(1 << 8);
        all_algorithms().chain([Stm::new(config(Algorithm::SNOrec).clock_shards(4))])
    }

    #[test]
    fn transaction_in_a_thread_local_destructor_runs_at_thread_exit() {
        use std::cell::RefCell;
        use std::sync::Arc;
        struct AtExit(Arc<Stm>, Addr);
        impl Drop for AtExit {
            fn drop(&mut self) {
                let cell = self.1;
                self.0.atomic(|tx| {
                    let v = tx.read(cell)?;
                    tx.write(cell, v + 10)?;
                    tx.inc(cell, 1)
                });
            }
        }
        thread_local! {
            static LAST: RefCell<Option<AtExit>> = const { RefCell::new(None) };
        }
        // Thread-local destructors run in reverse order of first use, so
        // the two orders cover both sides: the scratch slot still alive
        // when `LAST` drops, and already destroyed (a fresh scratch,
        // dropped afterwards).
        for scratch_first in [true, false] {
            for stm in all_cells() {
                let stm = Arc::new(stm);
                let cell = stm.alloc_cell(0i64);
                let worker = {
                    let stm = stm.clone();
                    std::thread::spawn(move || {
                        if scratch_first {
                            stm.atomic(|tx| tx.inc(cell, 100));
                        }
                        LAST.with(|l| *l.borrow_mut() = Some(AtExit(stm.clone(), cell)));
                        if !scratch_first {
                            stm.atomic(|tx| tx.inc(cell, 100));
                        }
                    })
                };
                worker.join().expect("worker, including its destructors");
                assert_eq!(stm.read_now(cell), 111, "{}", stm.mode());
            }
        }
    }

    #[test]
    fn transactions_of_other_runtimes_nest_and_alternate_on_one_thread() {
        let config = |a| StmConfig::new(a).heap_words(1 << 12).orec_count(1 << 8);
        let four = Stm::new(config(Algorithm::SNOrec).clock_shards(4).padded_alloc(true));
        let sixteen = Stm::new(
            config(Algorithm::SNOrec)
                .clock_shards(16)
                .padded_alloc(true),
        );
        let tl2 = Stm::new(config(Algorithm::STl2));
        let cells = |stm: &Stm| -> Vec<Addr> { (0..24).map(|_| stm.alloc_cell(1i64)).collect() };
        let (a, b, c) = (cells(&four), cells(&sixteen), cells(&tl2));
        // Reads and writes over 24 lines: every shard of either clock.
        let sweep = |tx: &mut Tx<'_>, cells: &[Addr]| -> Result<i64, Abort> {
            let mut sum = 0;
            for &cell in cells {
                sum += tx.read(cell)?;
                tx.inc(cell, 1)?;
            }
            Ok(sum)
        };
        for round in 0..3 {
            // Nested: the inner transactions find the thread's slot empty.
            let sums = four.atomic(|outer| {
                let before = sweep(outer, &a)?;
                let inner = sixteen.atomic(|mid| {
                    let s = sweep(mid, &b)?;
                    Ok(s + tl2.atomic(|leaf| sweep(leaf, &c)))
                });
                Ok((before, inner))
            });
            assert_eq!(sums, (24 * (1 + 2 * round), 48 * (1 + 2 * round)));
            // Alternating: each inherits the vectors the other's view
            // left behind, sized for another shard count.
            assert_eq!(sixteen.atomic(|tx| sweep(tx, &b)), 24 * (2 + 2 * round));
            assert_eq!(four.atomic(|tx| sweep(tx, &a)), 24 * (2 + 2 * round));
            assert_eq!(tl2.atomic(|tx| sweep(tx, &c)), 24 * (2 + 2 * round));
        }
        for (stm, cells) in [(&four, &a), (&sixteen, &b), (&tl2, &c)] {
            assert!(cells.iter().all(|&cell| stm.read_now(cell) == 7));
            assert_eq!(stm.stats().commits, 6);
        }
    }

    #[test]
    fn transaction_after_a_caught_panic_starts_with_empty_sets() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        for stm in all_cells() {
            let cells: Vec<Addr> = (0..8).map(|_| stm.alloc_cell(1i64)).collect();
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                stm.atomic(|tx| -> Result<(), Abort> {
                    for &cell in &cells {
                        tx.read(cell)?;
                        tx.gt(cell, 0)?;
                        tx.write(cell, 99)?;
                    }
                    panic!("body panics with its sets full");
                })
            }));
            assert!(unwound.is_err());
            // Same thread, same scratch: nothing of the panicked attempt
            // is left in it.
            stm.atomic(|tx| {
                assert_eq!(tx.metadata_len(), 0, "{}", stm.mode());
                assert!(!tx.is_writer(), "{}", stm.mode());
                tx.inc(cells[0], 1)
            });
            assert_eq!(stm.read_now(cells[0]), 2, "{}", stm.mode());
            assert!(cells[1..].iter().all(|&cell| stm.read_now(cell) == 1));
        }
    }

    #[test]
    fn an_oversized_transaction_is_not_kept_by_its_thread() {
        use crate::sets::{ScratchBox, RETAINED_ENTRIES};
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let stm = Stm::new(StmConfig::new(alg).heap_words(1 << 18).orec_count(1 << 16));
            let cells = stm.alloc_array(200_000, 1i64);
            stm.atomic(|tx| {
                for i in 0..200_000 {
                    tx.read(cells.offset(i))?;
                }
                for i in 0..50_000 {
                    tx.write(cells.offset(i), 2)?;
                }
                Ok(())
            });
            assert_eq!(stm.read_now(cells.offset(49_999)), 2);
            // The write-set's index has two slots per entry.
            let kept = ScratchBox::kept_capacity();
            assert!(kept <= 2 * RETAINED_ENTRIES, "{alg}: keeps {kept} entries");
            assert!(kept > 0, "{alg}: the scratch itself is kept");
        }
    }

    #[test]
    fn sharded_clock_runs_the_full_api() {
        for alg in Algorithm::ALL {
            let stm = Stm::new(
                StmConfig::new(alg)
                    .heap_words(1 << 12)
                    .orec_count(1 << 8)
                    .clock_shards(4)
                    .padded_alloc(true),
            );
            let x = stm.alloc_cell(5i64);
            let y = stm.alloc_cell(5i64);
            let ok = stm.atomic(|tx| {
                let c = tx.gt(x, 0)? || tx.cmp_addr(x, CmpOp::Gt, y)?;
                if c {
                    tx.inc(x, 1)?;
                    tx.dec(y, 1)?;
                }
                Ok(c)
            });
            assert!(ok);
            assert_eq!(stm.read_now(x), 6, "{alg}");
            assert_eq!(stm.read_now(y), 4, "{alg}");
            assert_eq!(stm.stats().commits, 1, "{alg}");
        }
    }

    #[test]
    fn padded_alloc_knob_spreads_allocations_over_lines() {
        use crate::heap::LINE_WORDS;
        let stm = Stm::new(
            StmConfig::new(Algorithm::NOrec)
                .heap_words(1 << 12)
                .padded_alloc(true),
        );
        let a = stm.alloc_cell(1i64);
        let b = stm.alloc_cell(2i64);
        assert_eq!(a.index() % LINE_WORDS, 0);
        assert_eq!(b.index() % LINE_WORDS, 0);
        assert_ne!(a.index() / LINE_WORDS, b.index() / LINE_WORDS);
        assert_eq!(stm.read_now(a), 1);
        assert_eq!(stm.read_now(b), 2);
    }

    #[test]
    fn sharded_concurrent_increments_preserve_sum() {
        for shards in [2, 8] {
            let stm = std::sync::Arc::new(Stm::new(
                StmConfig::new(Algorithm::SNOrec)
                    .heap_words(1 << 12)
                    .clock_shards(shards)
                    .padded_alloc(true),
            ));
            let a = stm.alloc_cell(0i64);
            let b = stm.alloc_cell(0i64);
            let threads = 4i64;
            let per = 200i64;
            let mut joins = Vec::new();
            for t in 0..threads {
                let stm = stm.clone();
                joins.push(std::thread::spawn(move || {
                    for i in 0..per {
                        // Mix single- and cross-shard commits.
                        if (t + i) % 2 == 0 {
                            stm.atomic(|tx| tx.inc(a, 1));
                        } else {
                            stm.atomic(|tx| {
                                tx.inc(a, 1)?;
                                tx.inc(b, 1)
                            });
                        }
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            assert_eq!(stm.read_now(a), threads * per, "{shards} shards");
            assert_eq!(stm.read_now(b), threads * per / 2, "{shards} shards");
        }
    }

    #[test]
    fn concurrent_increments_preserve_sum() {
        for alg in Algorithm::ALL {
            let stm =
                std::sync::Arc::new(Stm::new(StmConfig::new(alg).heap_words(64).orec_count(64)));
            let a = stm.alloc_cell(0i64);
            let threads = 4i64;
            let per = 200i64;
            let mut joins = Vec::new();
            for _ in 0..threads {
                let stm = stm.clone();
                joins.push(std::thread::spawn(move || {
                    for _ in 0..per {
                        stm.atomic(|tx| tx.inc(a, 1));
                    }
                }));
            }
            for j in joins {
                j.join().unwrap();
            }
            assert_eq!(stm.read_now(a), threads * per, "{alg}");
            assert_eq!(stm.stats().commits, (threads * per) as u64, "{alg}");
        }
    }

    #[test]
    fn hot_swap_mid_run_preserves_sum() {
        // Worker threads increment two cells while a switcher thread
        // cycles the runtime through every engine family. Every commit
        // must land in exactly one engine era; the final sum proves no
        // increment was lost or double-applied across a handoff.
        let stm = std::sync::Arc::new(Stm::new(
            StmConfig::new(Algorithm::SNOrec)
                .heap_words(64)
                .orec_count(64)
                .clock_shards(4),
        ));
        let a = stm.alloc_cell(0i64);
        let b = stm.alloc_cell(0i64);
        let threads = 4i64;
        let per = 300i64;
        let mut joins = Vec::new();
        for _ in 0..threads {
            let stm = stm.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..per {
                    stm.atomic(|tx| {
                        tx.inc(a, 1)?;
                        if i % 2 == 0 {
                            let v = tx.read(b)?;
                            tx.write(b, v + 1)?;
                        }
                        Ok(())
                    });
                }
            }));
        }
        // Starts sharded S-NOrec (clock_shards > 1); every hop below
        // changes mode, including the wrap-around, so each of the 18
        // switch_to calls drains and republishes.
        let cycle = [
            Mode::new(Algorithm::STl2),
            Mode::sharded(Algorithm::SNOrec),
            Mode::new(Algorithm::NOrec),
            Mode::sharded(Algorithm::NOrec),
            Mode::new(Algorithm::Tl2),
            Mode::new(Algorithm::SNOrec),
        ];
        let switcher = {
            let stm = stm.clone();
            std::thread::spawn(move || {
                for target in cycle.into_iter().cycle().take(18) {
                    stm.switch_to(target).unwrap();
                    std::thread::yield_now();
                }
            })
        };
        for j in joins {
            j.join().unwrap();
        }
        switcher.join().unwrap();
        assert_eq!(stm.read_now(a), threads * per);
        assert_eq!(stm.read_now(b), threads * per / 2);
        assert_eq!(stm.stats().commits, (threads * per) as u64);
        assert_eq!(stm.switch_count(), 18);
    }

    #[test]
    fn switch_to_rejects_unavailable_mode() {
        let stm = Stm::new(StmConfig::new(Algorithm::SNOrec).heap_words(64));
        let err = stm.switch_to(Mode::sharded(Algorithm::SNOrec)).unwrap_err();
        assert_eq!(
            err,
            SwitchError::Unavailable(Mode::sharded(Algorithm::SNOrec))
        );
        // The runtime is untouched by a rejected switch.
        assert_eq!(stm.mode(), Mode::new(Algorithm::SNOrec));
        assert_eq!(stm.switch_count(), 0);
        // A no-op switch to the current mode succeeds without draining.
        let report = stm.switch_to(Mode::new(Algorithm::SNOrec)).unwrap();
        assert!(!report.changed());
        assert_eq!(stm.switch_count(), 0);
    }

    #[test]
    fn adapt_tick_switches_under_write_wide_profile() {
        // A multi-shard runtime starts on the sharded clock. A
        // write-wide profile (Bank-like: every commit touches many
        // words, so a sharded commit pays the multi-shard acquisition
        // on each one) makes the global clock cheaper; one controller
        // tick over the observed window should move the runtime there.
        let policy = crate::adapt::AdaptPolicy {
            min_commits: 32,
            dwell_ticks: 0,
            ..crate::adapt::AdaptPolicy::default()
        };
        let stm = Stm::new(
            StmConfig::new(Algorithm::SNOrec)
                .heap_words(256)
                .clock_shards(8)
                .adaptive(policy),
        );
        assert_eq!(stm.mode(), Mode::sharded(Algorithm::SNOrec));
        let arr: Vec<_> = (0..16).map(|_| stm.alloc_cell(1i64)).collect();
        for _ in 0..200 {
            stm.atomic(|tx| {
                for &c in &arr {
                    let v = tx.read(c)?;
                    tx.write(c, v + 1)?;
                }
                Ok(())
            });
        }
        let report = stm.adapt_tick();
        assert!(report.is_some_and(|r| r.changed()), "expected a switch");
        assert_eq!(stm.mode(), Mode::new(Algorithm::SNOrec));
        assert_eq!(stm.switch_count(), 1);
        // Semanticity is preserved by adaptation: still the S-family.
        assert!(stm.mode().algorithm.is_semantic());
        // A second tick right after: the window is near-empty, stay put.
        assert!(stm.adapt_tick().is_none());
    }
}
