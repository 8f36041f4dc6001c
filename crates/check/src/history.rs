//! History recording: every transactional operation of every attempt,
//! globally sequence-stamped, for the opacity checker — and
//! [`run_checked`], the one way to run a checked execution.
//!
//! The recorder rides inside the transaction bodies run under the
//! deterministic scheduler. Because scheduling is cooperative (exactly
//! one virtual thread runs between schedule points) and no schedule
//! point sits between a commit's write-back and its lock release, the
//! sequence stamps taken right after `Stm::atomic` returns order the
//! attempts exactly as their serialisation-relevant intervals occurred.

use crate::checker::check_history;
use crate::schedule::Driver;
use crate::tracedump::span_note;
use crate::vthread::{run_threads, Body};
use semtm_core::error::Abort;
use semtm_core::ops::CmpOp;
use semtm_core::{Addr, Stm, Tx};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Right-hand side of a recorded compare.
#[derive(Clone, Copy, Debug)]
pub enum CmpRhs {
    /// Address–value form: a constant operand.
    Const(i64),
    /// Address–address form: the other memory slot.
    Slot(Addr),
}

/// One recorded transactional operation, with its global sequence stamp.
#[derive(Clone, Copy, Debug)]
pub enum OpRec {
    /// A plain read observing `val`.
    Read {
        /// Address read.
        addr: Addr,
        /// Value the transaction observed.
        val: i64,
        /// Global stamp.
        seq: u64,
    },
    /// A semantic compare observing outcome `out`.
    Cmp {
        /// Left-hand address.
        a: Addr,
        /// Operator.
        op: CmpOp,
        /// Right-hand side.
        rhs: CmpRhs,
        /// Observed outcome.
        out: bool,
        /// Global stamp.
        seq: u64,
    },
    /// A buffered write of `val` (takes effect at commit).
    Write {
        /// Address written.
        addr: Addr,
        /// Value buffered.
        val: i64,
        /// Global stamp.
        seq: u64,
    },
    /// A deferred increment by `delta` (takes effect at commit).
    Inc {
        /// Address incremented.
        addr: Addr,
        /// Signed delta.
        delta: i64,
        /// Global stamp.
        seq: u64,
    },
}

impl OpRec {
    /// The op's global sequence stamp.
    pub fn seq(&self) -> u64 {
        match *self {
            OpRec::Read { seq, .. }
            | OpRec::Cmp { seq, .. }
            | OpRec::Write { seq, .. }
            | OpRec::Inc { seq, .. } => seq,
        }
    }
}

/// One transaction attempt (committed or aborted) with its op log.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// Virtual thread that ran the attempt.
    pub thread: usize,
    /// Stamp taken when the attempt's body first ran.
    pub begin_seq: u64,
    /// Stamp taken right after the attempt committed or aborted.
    pub end_seq: u64,
    /// Whether the attempt committed.
    pub committed: bool,
    /// Operations in program order.
    pub ops: Vec<OpRec>,
}

/// Collects attempts from all virtual threads of one execution.
#[derive(Default)]
struct Recorder {
    seq: AtomicU64,
    attempts: Mutex<Vec<Attempt>>,
}

impl Recorder {
    fn stamp(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst)
    }
}

/// A recording wrapper over [`Tx`]: forwards each operation and logs it.
pub struct RecTx<'a, 'stm> {
    tx: &'a mut Tx<'stm>,
    rec: &'a Recorder,
    ops: &'a RefCell<Vec<OpRec>>,
}

impl RecTx<'_, '_> {
    /// Transactional read.
    pub fn read(&mut self, addr: Addr) -> Result<i64, Abort> {
        let val = self.tx.read(addr)?;
        let seq = self.rec.stamp();
        self.ops.borrow_mut().push(OpRec::Read { addr, val, seq });
        Ok(val)
    }

    /// Transactional buffered write.
    pub fn write(&mut self, addr: Addr, val: i64) -> Result<(), Abort> {
        self.tx.write(addr, val)?;
        let seq = self.rec.stamp();
        self.ops.borrow_mut().push(OpRec::Write { addr, val, seq });
        Ok(())
    }

    /// Semantic increment.
    pub fn inc(&mut self, addr: Addr, delta: i64) -> Result<(), Abort> {
        self.tx.inc(addr, delta)?;
        let seq = self.rec.stamp();
        self.ops.borrow_mut().push(OpRec::Inc { addr, delta, seq });
        Ok(())
    }

    /// Semantic compare, address–value form.
    pub fn cmp(&mut self, addr: Addr, op: CmpOp, operand: i64) -> Result<bool, Abort> {
        let out = self.tx.cmp(addr, op, operand)?;
        let seq = self.rec.stamp();
        self.ops.borrow_mut().push(OpRec::Cmp {
            a: addr,
            op,
            rhs: CmpRhs::Const(operand),
            out,
            seq,
        });
        Ok(out)
    }

    /// Semantic compare, address–address form.
    pub fn cmp_addr(&mut self, a: Addr, op: CmpOp, b: Addr) -> Result<bool, Abort> {
        let out = self.tx.cmp_addr(a, op, b)?;
        let seq = self.rec.stamp();
        self.ops.borrow_mut().push(OpRec::Cmp {
            a,
            op,
            rhs: CmpRhs::Slot(b),
            out,
            seq,
        });
        Ok(out)
    }
}

/// One virtual thread of a [`run_checked`] execution: the handle its
/// body runs recorded transactions through.
pub struct RecThread<'a> {
    stm: &'a Stm,
    rec: &'a Recorder,
    thread: usize,
}

impl RecThread<'_> {
    /// This thread's index: its position in the execution's thread list.
    pub fn index(&self) -> usize {
        self.thread
    }

    /// Run one transaction while recording every attempt (including
    /// aborted ones): each run of `body` opens a new [`Attempt`].
    pub fn atomic<T>(&self, mut body: impl FnMut(&mut RecTx<'_, '_>) -> Result<T, Abort>) -> T {
        let rec = self.rec;
        let attempts: RefCell<Vec<Attempt>> = RefCell::new(Vec::new());
        let ops: RefCell<Vec<OpRec>> = RefCell::new(Vec::new());
        let result = self.stm.atomic(|tx| {
            // A new run of the closure = the previous attempt aborted.
            {
                let mut attempts = attempts.borrow_mut();
                if let Some(prev) = attempts.last_mut() {
                    prev.end_seq = rec.stamp();
                    prev.ops = std::mem::take(&mut *ops.borrow_mut());
                }
                attempts.push(Attempt {
                    thread: self.thread,
                    begin_seq: rec.stamp(),
                    end_seq: 0,
                    committed: false,
                    ops: Vec::new(),
                });
            }
            let mut rtx = RecTx { tx, rec, ops: &ops };
            body(&mut rtx)
        });
        let mut attempts = attempts.into_inner();
        if let Some(last) = attempts.last_mut() {
            last.end_seq = rec.stamp();
            last.committed = true;
            last.ops = ops.into_inner();
        }
        rec.attempts
            .lock()
            .expect("no thread panics while appending its attempts")
            .extend(attempts);
        result
    }
}

/// A virtual thread of a checked execution. A body that never calls
/// [`RecThread::atomic`] — an engine switcher, say — runs unrecorded.
pub type RecBody<'b> = &'b (dyn Fn(&RecThread<'_>) + Sync);

/// Run one checked execution of `threads` on `stm` under `driver`.
///
/// Reads the tracked `cells`' initial values, runs the threads with
/// [`run_threads`] (an execution that takes `step_cap` scheduling
/// decisions is an error), reads the cells' final values and checks the
/// recorded history with [`check_history`]. Errors are labelled with
/// `name` and the runtime's starting mode; when `stm` records spans, a
/// failed check also carries the flight-recorder timeline, dumped as
/// `results/check/<name>.json`. Returns the recorded attempts,
/// begin-ordered, for assertions beyond the checker's.
pub fn run_checked(
    name: &str,
    stm: &Stm,
    cells: &[Addr],
    threads: &[RecBody<'_>],
    driver: &mut dyn Driver,
    step_cap: usize,
) -> Result<Vec<Attempt>, String> {
    let label = format!("{name} on {}", stm.mode());
    let values = || -> Vec<(Addr, i64)> { cells.iter().map(|&a| (a, stm.read_now(a))).collect() };
    let init = values();
    let rec = Recorder::default();
    let body = |thread: usize| {
        threads[thread](&RecThread {
            stm,
            rec: &rec,
            thread,
        })
    };
    let bodies: Vec<Body<'_>> = threads.iter().map(|_| &body as Body<'_>).collect();
    run_threads(&bodies, driver, step_cap).map_err(|e| format!("{label}: {e}"))?;
    let mut attempts = rec
        .attempts
        .into_inner()
        .expect("no thread panics while appending its attempts");
    attempts.sort_by_key(|at| at.begin_seq);
    check_history(&attempts, &init, &values())
        .map_err(|e| format!("{label}: {e}{}", span_note(stm, name)))?;
    Ok(attempts)
}
