//! The transactional IR interpreter — our stand-in for GCC's code
//! generation plus libitm dispatch.
//!
//! Executing a [`Function`] models a thread running compiled code:
//!
//! * outside `tmbegin`/`tmend`, barriers degrade to direct heap
//!   accesses;
//! * an atomic region executes under [`Stm::atomic_or_err`] — the same
//!   transaction driver hand-annotated code reaches through
//!   [`Stm::atomic`], so compiled regions share its retry loop, pacing
//!   and telemetry: the region body is re-run from its entry (with the
//!   registers captured at `tmbegin`) on every retry — exactly the
//!   abort-and-restart semantics of the GCC TM runtime;
//! * each barrier instruction performs **one** dispatch into the TM
//!   runtime. This is what makes the pass-driven 2→1 call reduction
//!   (`load`+`store` → `_ITM_SW`, `load`+`cmp` → `_ITM_S1R`) observable
//!   in the interpreter's dispatch counts, mirroring the paper's "GCC
//!   performs three indirect calls per TM call" overhead argument.
//!
//! The three Figure-2 configurations map to (pass?, algorithm):
//! unmodified GCC = no passes + NOrec; "NOrec Modified-GCC" = passes +
//! NOrec (builtins internally delegate to read/write); semantic = passes
//! + S-NOrec.
//!
//! A compiled region should cost little more than the same region
//! hand-written over [`Tx`] (`examples/ir_tax.rs` prints the ratio), so
//! the interpreter keeps its own work off the paths a region repeats:
//!
//! * **one frame per thread.** A call runs on one buffer — registers,
//!   the lowered form's constant pool, and the snapshot of the registers
//!   a region restarts from — that the thread keeps between calls
//!   (`Frame`), so neither a call nor a region allocates; the first
//!   attempt of a region skips the restore copy;
//! * **one counter flush per attempt.** Barrier calls are counted in a
//!   local and added to [`DispatchCounters::tm_calls`] when the attempt
//!   returns — on commit, abort and give-up alike — so a barrier pays no
//!   atomic of the interpreter's. A concurrent reader of a shared
//!   `Interp`'s counters lags by at most one attempt per running thread;
//! * **branches that branch.** Every conditional op of the lowered loop
//!   picks its next pc with a conditional jump (`branch`), so the
//!   next op is fetched on the prediction, before the compared value —
//!   inside a region, a barrier's heap load — arrives;
//! * **the budget in registers.** The lowered loop keeps the step count,
//!   the step limit and the heap's bound in locals and hands the count
//!   back however it exits.

use crate::ir::{BlockId, Function, Inst, Operand};
use crate::lower::{LoweredFunction, Op, Pc, Slot};
use semtm_core::{Abort, Addr, CmpOp, Stm, Tx};
use std::cell::Cell;
use std::convert::Infallible;
use std::sync::atomic::{compiler_fence, AtomicU64, Ordering};

/// Why execution failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The per-call instruction budget was exhausted (runaway loop).
    StepLimit,
    /// `tmend` without a matching `tmbegin`.
    UnbalancedEnd,
    /// A block fell through without a terminator (validation should have
    /// caught this).
    FellThrough,
    /// An address operand named no word of the heap: it was negative, or
    /// at or past the heap's capacity.
    BadAddress(i64),
    /// The call passed the wrong number of arguments; nothing ran.
    Arity {
        /// Arguments the function declares.
        expected: usize,
        /// Arguments the call passed.
        got: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::StepLimit => write!(f, "instruction budget exhausted"),
            ExecError::UnbalancedEnd => write!(f, "tmend outside an atomic region"),
            ExecError::FellThrough => write!(f, "block fell through"),
            ExecError::BadAddress(a) => write!(f, "heap address {a} out of range"),
            ExecError::Arity { expected, got } => {
                write!(f, "function takes {expected} arguments, called with {got}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Cumulative dispatch counters (TM runtime calls issued), the
/// interpreter-level metric behind the call-reduction argument.
#[derive(Default)]
pub struct DispatchCounters {
    /// Barrier calls issued inside atomic regions (added once per
    /// attempt, when the attempt returns).
    pub tm_calls: AtomicU64,
    /// Atomic regions entered (attempts, including retries).
    pub region_attempts: AtomicU64,
}

impl DispatchCounters {
    /// Barrier calls so far.
    pub fn tm_calls(&self) -> u64 {
        self.tm_calls.load(Ordering::Relaxed)
    }
    /// Region attempts so far.
    pub fn region_attempts(&self) -> u64 {
        self.region_attempts.load(Ordering::Relaxed)
    }
}

/// The interpreter. Cheap to construct; share one per thread or per
/// experiment (counters are atomic).
pub struct Interp<'a> {
    stm: &'a Stm,
    /// Dispatch statistics.
    pub counters: DispatchCounters,
    /// Instruction budget per `execute` call.
    pub step_limit: u64,
}

/// Why an op loop stopped short: the program is wrong, or (inside a
/// region only) a barrier aborted the attempt.
enum Trap<A> {
    Exec(ExecError),
    Abort(A),
}

impl<A> From<ExecError> for Trap<A> {
    fn from(e: ExecError) -> Trap<A> {
        Trap::Exec(e)
    }
}

/// Where a barrier instruction goes: straight to the heap outside an
/// atomic region ([`Direct`]), through the transaction inside one
/// ([`InRegion`]). Both op loops are generic over this, so each exists
/// once and is monomorphised per side.
trait Barriers {
    /// How a barrier can fail: never on the heap, with an [`Abort`] in
    /// a transaction.
    type Abort;
    /// Nesting depth a loop over these barriers starts at: 0 outside a
    /// region, 1 inside.
    const DEPTH: u32;
    fn read(&mut self, a: Addr) -> Result<i64, Trap<Self::Abort>>;
    fn write(&mut self, a: Addr, v: i64) -> Result<(), Trap<Self::Abort>>;
    fn cmp(&mut self, a: Addr, op: CmpOp, v: i64) -> Result<bool, Trap<Self::Abort>>;
    fn cmp_addr(&mut self, a: Addr, op: CmpOp, b: Addr) -> Result<bool, Trap<Self::Abort>>;
    fn inc(&mut self, a: Addr, delta: i64) -> Result<(), Trap<Self::Abort>>;
}

/// Outside a region barriers degrade to direct heap accesses.
struct Direct<'a>(&'a Stm);

impl Barriers for Direct<'_> {
    type Abort = Infallible;
    const DEPTH: u32 = 0;
    fn read(&mut self, a: Addr) -> Result<i64, Trap<Infallible>> {
        Ok(self.0.read_now(a))
    }
    fn write(&mut self, a: Addr, v: i64) -> Result<(), Trap<Infallible>> {
        self.0.write_now(a, v);
        Ok(())
    }
    fn cmp(&mut self, a: Addr, op: CmpOp, v: i64) -> Result<bool, Trap<Infallible>> {
        Ok(op.eval(self.0.read_now(a), v))
    }
    fn cmp_addr(&mut self, a: Addr, op: CmpOp, b: Addr) -> Result<bool, Trap<Infallible>> {
        Ok(op.eval(self.0.read_now(a), self.0.read_now(b)))
    }
    fn inc(&mut self, a: Addr, delta: i64) -> Result<(), Trap<Infallible>> {
        self.0.write_now(a, self.0.read_now(a).wrapping_add(delta));
        Ok(())
    }
}

/// Inside a region each barrier is **one** dispatch into the TM runtime,
/// counted here and added to [`DispatchCounters::tm_calls`] by
/// [`Interp::region`] when the attempt returns.
struct InRegion<'t, 'a> {
    tx: &'t mut Tx<'a>,
    /// Barrier calls this attempt issued so far.
    calls: u64,
}

impl<'a> InRegion<'_, 'a> {
    fn call(&mut self) -> &mut Tx<'a> {
        self.calls += 1;
        self.tx
    }
}

impl Barriers for InRegion<'_, '_> {
    type Abort = Abort;
    const DEPTH: u32 = 1;
    fn read(&mut self, a: Addr) -> Result<i64, Trap<Abort>> {
        self.call().read(a).map_err(Trap::Abort)
    }
    fn write(&mut self, a: Addr, v: i64) -> Result<(), Trap<Abort>> {
        self.call().write(a, v).map_err(Trap::Abort)
    }
    fn cmp(&mut self, a: Addr, op: CmpOp, v: i64) -> Result<bool, Trap<Abort>> {
        self.call().cmp(a, op, v).map_err(Trap::Abort)
    }
    fn cmp_addr(&mut self, a: Addr, op: CmpOp, b: Addr) -> Result<bool, Trap<Abort>> {
        self.call().cmp_addr(a, op, b).map_err(Trap::Abort)
    }
    fn inc(&mut self, a: Addr, delta: i64) -> Result<(), Trap<Abort>> {
        self.call().inc(a, delta).map_err(Trap::Abort)
    }
}

/// Where an op loop stopped, `P` being the form's notion of a position.
enum Stop<P> {
    /// `ret` (inside a region the caller reports it as unbalanced).
    Return(Option<i64>),
    /// Crossed the boundary of the outermost region — its `tmbegin` from
    /// outside, its matching `tmend` from inside; execution continues at
    /// `P` on the other side.
    Boundary(P),
}

/// A tree-walker operand: the lowered form reads a slot instead.
fn operand(regs: &[i64], o: Operand) -> i64 {
    match o {
        Operand::Reg(r) => regs[r as usize],
        Operand::Imm(v) => v,
    }
}

fn slot(frame: &[i64], s: Slot) -> i64 {
    frame[s as usize]
}

/// The heap word `v` names, for a heap of `capacity` words: one unsigned
/// compare turns away negative values and values at or past the end
/// (the heap's alignment padding among them) alike.
fn addr(v: i64, capacity: u64) -> Result<Addr, ExecError> {
    if (v as u64) < capacity {
        Ok(Addr::from_index(v as usize))
    } else {
        Err(ExecError::BadAddress(v))
    }
}

/// `then_pc` when `holds`, else `else_pc` — picked by a conditional jump.
/// Left alone, LLVM folds the two arms into a load of the next pc indexed
/// by `holds` (`sete %cl; mov 0x8(%rax,%rcx,4),%r12d`) or a `cmov`, and
/// the next op cannot be fetched before the compared value arrives. The
/// fence emits no instruction; it keeps the else arm from being merged
/// into a select (DESIGN.md §8.3).
#[inline(always)]
fn branch(holds: bool, then_pc: Pc, else_pc: Pc) -> usize {
    if holds {
        then_pc as usize
    } else {
        compiler_fence(Ordering::SeqCst);
        else_pc as usize
    }
}

/// A call's instruction budget. It spans the whole `execute` call,
/// re-executed region attempts included.
#[derive(Clone, Copy)]
struct Budget {
    used: u64,
    limit: u64,
}

impl Budget {
    /// Charge one instruction.
    fn tick(&mut self) -> Result<(), ExecError> {
        self.used += 1;
        if self.used > self.limit {
            Err(ExecError::StepLimit)
        } else {
            Ok(())
        }
    }
}

/// The delta a `tminc` / `tmdec` applies: `tmdec` stands for
/// `*a = *a - d`, whose `sub` wraps, so its negation wraps too.
fn signed(delta: i64, negate: bool) -> i64 {
    if negate {
        delta.wrapping_neg()
    } else {
        delta
    }
}

/// The most frame words a thread keeps between calls (32 KiB): one call
/// of a function with a huge register file must not pin its frame on the
/// thread for the process's life. The shipped kernels need under 64.
pub const FRAME_RETAINED_WORDS: usize = 1 << 12;

thread_local! {
    /// This thread's frame buffer while no call holds it. A slot, not a
    /// pool: a call that finds it taken runs on a fresh buffer.
    static KEPT: Cell<Vec<i64>> = const { Cell::new(Vec::new()) };
}

/// One call's hold on its thread's frame buffer, laid out
/// `[registers | constant pool | region-entry snapshot of the registers]`:
/// taken from the thread's slot when the call starts (a fresh `Vec` when
/// the slot is taken, or already destroyed — a call from another
/// thread-local's destructor), put back — cut to
/// [`FRAME_RETAINED_WORDS`] — on drop.
struct Frame {
    words: Vec<i64>,
    /// Words the op loop addresses: registers and constants.
    live: usize,
}

impl Frame {
    /// A zeroed register file with `args` in the low registers and
    /// `consts` behind it, or the arity error — before anything runs.
    fn enter(
        num_args: u32,
        num_regs: u32,
        consts: &[i64],
        args: &[i64],
    ) -> Result<Frame, ExecError> {
        if args.len() != num_args as usize {
            return Err(ExecError::Arity {
                expected: num_args as usize,
                got: args.len(),
            });
        }
        let regs = num_regs as usize;
        let live = regs + consts.len();
        let mut words = KEPT.try_with(Cell::take).unwrap_or_default();
        words.clear();
        words.resize(live + regs, 0);
        words[..args.len()].copy_from_slice(args);
        words[regs..live].copy_from_slice(consts);
        Ok(Frame { words, live })
    }

    /// `(registers and constants, snapshot space)`.
    fn split(&mut self) -> (&mut [i64], &mut [i64]) {
        self.words.split_at_mut(self.live)
    }
}

impl Drop for Frame {
    fn drop(&mut self) {
        let mut words = std::mem::take(&mut self.words);
        words.truncate(FRAME_RETAINED_WORDS);
        words.shrink_to(FRAME_RETAINED_WORDS);
        // A destroyed slot (thread exit) drops the buffer instead.
        let _ = KEPT.try_with(|kept| kept.set(words));
    }
}

impl<'a> Interp<'a> {
    /// Create an interpreter over `stm`.
    pub fn new(stm: &'a Stm) -> Interp<'a> {
        Interp {
            stm,
            counters: DispatchCounters::default(),
            step_limit: 10_000_000,
        }
    }

    /// Run `func` with `args`; returns the `ret` value.
    pub fn execute(&self, func: &Function, args: &[i64]) -> Result<Option<i64>, ExecError> {
        let mut frame = Frame::enter(func.num_args, func.num_regs, &[], args)?;
        let (regs, snapshot) = frame.split();
        let mut budget = self.budget();
        let mut at = (0, 0);
        loop {
            at = match self.walk(func, &mut Direct(self.stm), regs, at, &mut budget) {
                Ok(Stop::Return(v)) => return Ok(v),
                Ok(Stop::Boundary(entry)) => self.region(regs, snapshot, |tm, regs| {
                    self.walk(func, tm, regs, entry, &mut budget)
                })?,
                Err(Trap::Exec(e)) => return Err(e),
                Err(Trap::Abort(never)) => match never {},
            }
        }
    }

    /// Run a pre-lowered `func` with `args` — the threaded-dispatch
    /// twin of [`Interp::execute`].
    ///
    /// Observationally identical to executing the source function (same
    /// return value, same heap effects, same barrier dispatches, same
    /// step accounting — the differential oracle checks the first three
    /// on every backend), but each step is one pc-indexed op fetch and
    /// one match over slot-resolved operands: no
    /// `blocks[block].insts[idx]` double indirection, no operand decode,
    /// a compare and the branch on it in one dispatch, and an
    /// atomic-region retry resets a single pc. This is the execution
    /// mode the Figure-2 "GCC" experiments use, so the interpreter tax
    /// they measure is dispatch into the TM runtime, not tree-walking
    /// overhead.
    pub fn execute_lowered(
        &self,
        func: &LoweredFunction,
        args: &[i64],
    ) -> Result<Option<i64>, ExecError> {
        let mut frame = Frame::enter(func.num_args, func.num_regs, &func.consts, args)?;
        let (live, snapshot) = frame.split();
        let mut budget = self.budget();
        let mut pc = 0;
        loop {
            pc = match self.run(func, &mut Direct(self.stm), live, pc, &mut budget) {
                Ok(Stop::Return(v)) => return Ok(v),
                Ok(Stop::Boundary(entry)) => self.region(live, snapshot, |tm, live| {
                    self.run(func, tm, live, entry, &mut budget)
                })?,
                Err(Trap::Exec(e)) => return Err(e),
                Err(Trap::Abort(never)) => match never {},
            }
        }
    }

    /// Execute one atomic region under the runtime's transaction driver
    /// ([`Stm::atomic_or_err`] — the retry loop, its pacing and all its
    /// telemetry are the runtime's, shared with hand-annotated code).
    /// `body` runs the region from its entry to its matching `tmend`;
    /// every attempt starts from the registers captured at `tmbegin`
    /// (the low `snapshot.len()` words of `live`, copied to `snapshot`
    /// here and back before every attempt but the first) — the
    /// abort-and-restart semantics of the GCC TM runtime. A program
    /// error inside the region gives the transaction up: nothing
    /// commits and the error is returned after that one attempt.
    /// However the attempt returns, its barrier calls reach
    /// [`DispatchCounters::tm_calls`] in one addition.
    fn region<P>(
        &self,
        live: &mut [i64],
        snapshot: &mut [i64],
        mut body: impl FnMut(&mut InRegion<'_, '_>, &mut [i64]) -> Result<Stop<P>, Trap<Abort>>,
    ) -> Result<P, ExecError> {
        let regs = snapshot.len();
        snapshot.copy_from_slice(&live[..regs]);
        let mut retry = false;
        self.stm.atomic_or_err(|tx| {
            self.counters
                .region_attempts
                .fetch_add(1, Ordering::Relaxed);
            if retry {
                live[..regs].copy_from_slice(snapshot);
            }
            retry = true;
            let mut barriers = InRegion { tx, calls: 0 };
            let stopped = body(&mut barriers, live);
            self.counters
                .tm_calls
                .fetch_add(barriers.calls, Ordering::Relaxed);
            match stopped {
                Ok(Stop::Boundary(exit)) => Ok(Ok(exit)),
                Ok(Stop::Return(_)) => Ok(Err(ExecError::UnbalancedEnd)),
                Err(Trap::Exec(e)) => Ok(Err(e)),
                Err(Trap::Abort(abort)) => Err(abort),
            }
        })
    }

    /// A fresh call's budget.
    fn budget(&self) -> Budget {
        Budget {
            used: 0,
            limit: self.step_limit,
        }
    }

    /// The bound [`addr`] checks against.
    fn capacity(&self) -> u64 {
        self.stm.heap().capacity() as u64
    }

    /// The tree-walking op loop: execute `func` from `(block, idx)`
    /// until it returns or crosses the boundary of the outermost region.
    fn walk<B: Barriers>(
        &self,
        func: &Function,
        tm: &mut B,
        regs: &mut [i64],
        (mut block, mut idx): (BlockId, usize),
        budget: &mut Budget,
    ) -> Result<Stop<(BlockId, usize)>, Trap<B::Abort>> {
        let mut depth = B::DEPTH;
        let capacity = self.capacity();
        loop {
            let Some(inst) = func.blocks[block].insts.get(idx) else {
                return Err(ExecError::FellThrough.into());
            };
            budget.tick()?;
            idx += 1;
            match *inst {
                Inst::Mov { dst, src } => regs[dst as usize] = operand(regs, src),
                Inst::Bin { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(operand(regs, a), operand(regs, b));
                }
                Inst::Cmp { op, dst, a, b } => {
                    regs[dst as usize] = op.eval(operand(regs, a), operand(regs, b)) as i64;
                }
                Inst::Not { dst, src } => regs[dst as usize] = (operand(regs, src) == 0) as i64,
                Inst::TmLoad { dst, addr: a } => {
                    let a = addr(operand(regs, a), capacity)?;
                    regs[dst as usize] = tm.read(a)?;
                }
                Inst::TmStore { addr: a, val } => {
                    let a = addr(operand(regs, a), capacity)?;
                    tm.write(a, operand(regs, val))?;
                }
                Inst::TmCmpVal {
                    op,
                    dst,
                    addr: a,
                    val,
                } => {
                    let a = addr(operand(regs, a), capacity)?;
                    let holds = tm.cmp(a, op, operand(regs, val))?;
                    regs[dst as usize] = holds as i64;
                }
                Inst::TmCmpAddr {
                    op,
                    dst,
                    a: lhs,
                    b: rhs,
                } => {
                    let (lhs, rhs) = (
                        addr(operand(regs, lhs), capacity)?,
                        addr(operand(regs, rhs), capacity)?,
                    );
                    regs[dst as usize] = tm.cmp_addr(lhs, op, rhs)? as i64;
                }
                Inst::TmInc {
                    addr: a,
                    delta,
                    negate,
                } => {
                    let a = addr(operand(regs, a), capacity)?;
                    tm.inc(a, signed(operand(regs, delta), negate))?;
                }
                Inst::Br { target } => (block, idx) = (target, 0),
                Inst::CondBr {
                    cond,
                    then_to,
                    else_to,
                } => {
                    block = if operand(regs, cond) != 0 {
                        then_to
                    } else {
                        else_to
                    };
                    idx = 0;
                }
                Inst::Ret { val } => return Ok(Stop::Return(val.map(|o| operand(regs, o)))),
                Inst::TmBegin if depth == 0 => return Ok(Stop::Boundary((block, idx))),
                // Flattened nesting, as in GCC's TM runtime.
                Inst::TmBegin => depth += 1,
                Inst::TmEnd if depth == 0 => return Err(ExecError::UnbalancedEnd.into()),
                Inst::TmEnd => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok(Stop::Boundary((block, idx)));
                    }
                }
            }
        }
    }

    /// The lowered op loop: as [`Interp::walk`], over the flat op array
    /// and the frame's registers-and-constants slots. A fused op charges
    /// the steps of the ops it stands for, in their order, with each
    /// barrier between the same two steps as in the tree walker.
    ///
    /// The budget is copied into a local for the loop and written back
    /// once, however the loop exits: neither the count nor the limit is
    /// reloaded or stored per op.
    fn run<B: Barriers>(
        &self,
        func: &LoweredFunction,
        tm: &mut B,
        frame: &mut [i64],
        mut pc: usize,
        budget: &mut Budget,
    ) -> Result<Stop<usize>, Trap<B::Abort>> {
        let mut steps = *budget;
        let capacity = self.capacity();
        let ops = &func.ops[..];
        let stopped = (|| {
            let mut depth = B::DEPTH;
            loop {
                let Some(op) = ops.get(pc) else {
                    return Err(ExecError::FellThrough.into());
                };
                steps.tick()?;
                pc += 1;
                match *op {
                    Op::Mov { dst, src } => frame[dst as usize] = slot(frame, src),
                    Op::Bin { op, dst, a, b } => {
                        frame[dst as usize] = op.eval(slot(frame, a), slot(frame, b));
                    }
                    Op::BinJump {
                        op,
                        dst,
                        a,
                        b,
                        pc: target,
                    } => {
                        frame[dst as usize] = op.eval(slot(frame, a), slot(frame, b));
                        steps.tick()?;
                        pc = target as usize;
                        // A loop latch landing on its loop's test runs the
                        // compare-and-branch here, with its own two steps.
                        if let Some(&Op::CmpJump {
                            op,
                            dst,
                            a,
                            b,
                            then_pc,
                            else_pc,
                        }) = ops.get(pc)
                        {
                            steps.tick()?;
                            let holds = op.eval(slot(frame, a), slot(frame, b));
                            frame[dst as usize] = holds as i64;
                            steps.tick()?;
                            pc = branch(holds, then_pc, else_pc);
                        }
                    }
                    Op::Cmp { op, dst, a, b } => {
                        frame[dst as usize] = op.eval(slot(frame, a), slot(frame, b)) as i64;
                    }
                    Op::CmpJump {
                        op,
                        dst,
                        a,
                        b,
                        then_pc,
                        else_pc,
                    } => {
                        let holds = op.eval(slot(frame, a), slot(frame, b));
                        frame[dst as usize] = holds as i64;
                        steps.tick()?;
                        pc = branch(holds, then_pc, else_pc);
                    }
                    Op::Not { dst, src } => frame[dst as usize] = (slot(frame, src) == 0) as i64,
                    Op::TmLoad { dst, addr: a } => {
                        let a = addr(slot(frame, a), capacity)?;
                        frame[dst as usize] = tm.read(a)?;
                    }
                    Op::TmStore { addr: a, val } => {
                        let a = addr(slot(frame, a), capacity)?;
                        tm.write(a, slot(frame, val))?;
                    }
                    Op::TmCmpVal {
                        op,
                        dst,
                        addr: a,
                        val,
                    } => {
                        let a = addr(slot(frame, a), capacity)?;
                        frame[dst as usize] = tm.cmp(a, op, slot(frame, val))? as i64;
                    }
                    Op::TmCmpValJump {
                        op,
                        dst,
                        addr: a,
                        val,
                        then_pc,
                        else_pc,
                    } => {
                        let a = addr(slot(frame, a), capacity)?;
                        let holds = tm.cmp(a, op, slot(frame, val))?;
                        frame[dst as usize] = holds as i64;
                        steps.tick()?;
                        pc = branch(holds, then_pc, else_pc);
                    }
                    Op::AddTmCmpValJump {
                        addr: t,
                        a,
                        b,
                        op,
                        dst,
                        val,
                        then_pc,
                        else_pc,
                    } => {
                        let sum = slot(frame, a).wrapping_add(slot(frame, b));
                        frame[t as usize] = sum;
                        steps.tick()?;
                        let holds = tm.cmp(addr(sum, capacity)?, op, slot(frame, val))?;
                        frame[dst as usize] = holds as i64;
                        steps.tick()?;
                        pc = branch(holds, then_pc, else_pc);
                    }
                    Op::TmCmpAddr {
                        op,
                        dst,
                        a: lhs,
                        b: rhs,
                    } => {
                        let lhs = addr(slot(frame, lhs), capacity)?;
                        let rhs = addr(slot(frame, rhs), capacity)?;
                        frame[dst as usize] = tm.cmp_addr(lhs, op, rhs)? as i64;
                    }
                    Op::TmInc {
                        addr: a,
                        delta,
                        negate,
                    } => {
                        let a = addr(slot(frame, a), capacity)?;
                        tm.inc(a, signed(slot(frame, delta), negate))?;
                    }
                    Op::Jump { pc: target } => pc = target as usize,
                    Op::JumpIf {
                        cond,
                        then_pc,
                        else_pc,
                    } => pc = branch(slot(frame, cond) != 0, then_pc, else_pc),
                    Op::Ret { val } => return Ok(Stop::Return(val.map(|s| slot(frame, s)))),
                    Op::TmBegin if depth == 0 => return Ok(Stop::Boundary(pc)),
                    // Flattened nesting, as in GCC's TM runtime.
                    Op::TmBegin => depth += 1,
                    Op::TmEnd if depth == 0 => return Err(ExecError::UnbalancedEnd.into()),
                    Op::TmEnd => {
                        depth -= 1;
                        if depth == 0 {
                            return Ok(Stop::Boundary(pc));
                        }
                    }
                }
            }
        })();
        *budget = steps;
        stopped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, FunctionBuilder, Inst, Operand};
    use crate::passes::run_tm_passes;
    use semtm_core::{AbortReason, Algorithm, CmpOp, StmConfig};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 12).orec_count(1 << 8))
    }

    /// `fn inc_if_positive(addr) { atomic { if *addr > 0 { *addr = *addr + 1 } } ret *addr }`
    fn inc_if_positive() -> crate::ir::Function {
        let mut fb = FunctionBuilder::new("inc_if_positive", 1);
        let v = fb.reg();
        let c = fb.reg();
        let v2 = fb.reg();
        let s = fb.reg();
        let out = fb.reg();
        let then_b = fb.block("then");
        let join = fb.block("join");
        fb.switch_to(0);
        fb.push(Inst::TmBegin);
        fb.push(Inst::TmLoad {
            dst: v,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Cmp {
            op: CmpOp::Gt,
            dst: c,
            a: Operand::Reg(v),
            b: Operand::Imm(0),
        });
        fb.push(Inst::CondBr {
            cond: Operand::Reg(c),
            then_to: then_b,
            else_to: join,
        });
        fb.switch_to(then_b);
        fb.push(Inst::TmLoad {
            dst: v2,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Bin {
            op: BinOp::Add,
            dst: s,
            a: Operand::Reg(v2),
            b: Operand::Imm(1),
        });
        fb.push(Inst::TmStore {
            addr: Operand::Reg(0),
            val: Operand::Reg(s),
        });
        fb.push(Inst::Br { target: join });
        fb.switch_to(join);
        fb.push(Inst::TmEnd);
        fb.push(Inst::TmLoad {
            dst: out,
            addr: Operand::Reg(0),
        });
        fb.push(Inst::Ret {
            val: Some(Operand::Reg(out)),
        });
        fb.build()
    }

    #[test]
    fn executes_region_and_returns() {
        let s = stm(Algorithm::SNOrec);
        let x = s.alloc_cell(5i64);
        let interp = Interp::new(&s);
        let f = inc_if_positive();
        let out = interp.execute(&f, &[x.index() as i64]).unwrap();
        assert_eq!(out, Some(6));
        assert_eq!(s.read_now(x), 6);
    }

    #[test]
    fn negative_guard_skips_increment() {
        let s = stm(Algorithm::SNOrec);
        let x = s.alloc_cell(-3i64);
        let interp = Interp::new(&s);
        let f = inc_if_positive();
        let out = interp.execute(&f, &[x.index() as i64]).unwrap();
        assert_eq!(out, Some(-3));
    }

    #[test]
    fn passes_preserve_program_semantics() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let x = s.alloc_cell(5i64);
            let interp = Interp::new(&s);
            let mut f = inc_if_positive();
            let report = run_tm_passes(&mut f);
            assert!(report.s1r >= 1);
            assert_eq!(report.sw, 1);
            let out = interp.execute(&f, &[x.index() as i64]).unwrap();
            assert_eq!(out, Some(6), "{alg}");
            assert_eq!(s.read_now(x), 6, "{alg}");
        }
    }

    #[test]
    fn pass_reduces_tm_dispatches() {
        let s = stm(Algorithm::NOrec);
        let x = s.alloc_cell(5i64);

        let plain = inc_if_positive();
        let interp = Interp::new(&s);
        interp.execute(&plain, &[x.index() as i64]).unwrap();
        let plain_calls = interp.counters.tm_calls();

        s.write_now(x, 5);
        let mut passed = inc_if_positive();
        run_tm_passes(&mut passed);
        let interp2 = Interp::new(&s);
        interp2.execute(&passed, &[x.index() as i64]).unwrap();
        let passed_calls = interp2.counters.tm_calls();

        assert!(
            passed_calls < plain_calls,
            "modified-GCC dispatch count {passed_calls} must undercut {plain_calls}"
        );
    }

    #[test]
    fn step_limit_catches_infinite_loops() {
        let mut fb = FunctionBuilder::new("spin", 0);
        fb.push(Inst::Br { target: 0 });
        let f = fb.build();
        let s = stm(Algorithm::NOrec);
        let mut interp = Interp::new(&s);
        interp.step_limit = 1000;
        assert_eq!(interp.execute(&f, &[]), Err(ExecError::StepLimit));
    }

    type Form = Box<dyn Fn(&Interp<'_>, &[i64]) -> Result<Option<i64>, ExecError>>;

    /// `func` run tree-walking and lowered, as closures over an interpreter.
    fn both_forms(func: crate::ir::Function) -> [(&'static str, Form); 2] {
        let lowered = crate::lower::lower(&func).unwrap();
        [
            ("tree", Box::new(move |i, args| i.execute(&func, args))),
            (
                "lowered",
                Box::new(move |i, args| i.execute_lowered(&lowered, args)),
            ),
        ]
    }

    #[test]
    fn bad_address_inside_a_region_is_reported_after_one_attempt() {
        // The bad address is the region's first barrier (source account),
        // or its fourth (destination, after load + load + store).
        for (bad_dst, barriers) in [(false, 0), (true, 3)] {
            for (form, run) in both_forms(crate::programs::bank_transfer()) {
                let s = stm(Algorithm::SNOrec);
                let b = s.alloc_cell(10i64);
                let mut interp = Interp::new(&s);
                interp.step_limit = 10_000;
                let good = b.index() as i64;
                let args = if bad_dst {
                    [good, -5, 1]
                } else {
                    [-5, good, 1]
                };
                assert_eq!(
                    run(&interp, &args),
                    Err(ExecError::BadAddress(-5)),
                    "{form}"
                );
                assert_eq!(interp.counters.region_attempts(), 1, "{form}");
                assert_eq!(interp.counters.tm_calls(), barriers, "{form}");
                assert_eq!(s.read_now(b), 10, "{form}: nothing commits");
                assert_eq!(s.stats().aborts(AbortReason::Explicit), 1, "{form}");
            }
        }
    }

    #[test]
    fn addresses_past_the_heap_are_bad_for_every_barrier() {
        // One op form each: `TmLoad`, `TmStore`, `TmInc`, `TmCmpVal`,
        // `TmCmpValJump`, `AddTmCmpValJump`, `TmCmpAddr` on either side.
        // `r0` is the address under test, `r1` a cell of the heap.
        let barriers = [
            "r2 = tmload r0",
            "tmstore r0, 1",
            "tminc r0, 1",
            "r2 = tmcmp.gt r0, 0\n r3 = mov r2",
            "r2 = tmcmp.gt r0, 0\n condbr r2, next, next\n next:",
            "r2 = add r0, 0\n r3 = tmcmp.gt r2, 0\n condbr r3, next, next\n next:",
            "r2 = tmcmp2.gt r0, r1",
            "r2 = tmcmp2.gt r1, r0",
        ];
        for barrier in barriers {
            // Inside a region after a store that must not commit, and
            // outside one before a store that must not happen.
            for (inside, body) in [
                (
                    true,
                    format!("tmbegin\n tmstore r1, 9\n {barrier}\n tmend\n ret"),
                ),
                (false, format!("{barrier}\n tmstore r1, 9\n ret")),
            ] {
                let source = format!("func f(2) {{\n entry:\n {body}\n }}");
                let f = crate::parser::parse_function(&source).unwrap();
                for alg in Algorithm::ALL {
                    for (form, run) in both_forms(f.clone()) {
                        let s = stm(alg);
                        let cell = s.alloc_cell(5i64);
                        let capacity = s.heap().capacity() as i64;
                        let interp = Interp::new(&s);
                        for bad in [capacity, capacity + 15, 1 << 33] {
                            assert_eq!(
                                run(&interp, &[bad, cell.index() as i64]),
                                Err(ExecError::BadAddress(bad)),
                                "{alg} {form} {barrier:?} inside={inside}"
                            );
                        }
                        assert_eq!(interp.counters.region_attempts(), 3 * inside as u64);
                        assert_eq!(s.read_now(cell), 5, "{alg} {form} {barrier:?}");
                        // The heap's last word is in range.
                        let args = [capacity - 1, cell.index() as i64];
                        assert_eq!(run(&interp, &args), Ok(None), "{alg} {form} {barrier:?}");
                        assert_eq!(s.read_now(cell), 9, "{alg} {form} {barrier:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn step_limit_inside_a_region_gives_up_without_committing() {
        // `atomic { loop { *r0 = 7 } }`
        let mut fb = FunctionBuilder::new("spin_in_region", 1);
        let body = fb.block("body");
        fb.switch_to(0);
        fb.push(Inst::TmBegin);
        fb.push(Inst::Br { target: body });
        fb.switch_to(body);
        fb.push(Inst::TmStore {
            addr: Operand::Reg(0),
            val: Operand::Imm(7),
        });
        fb.push(Inst::Br { target: body });
        for (form, run) in both_forms(fb.build()) {
            let s = stm(Algorithm::STl2);
            let x = s.alloc_cell(1i64);
            let mut interp = Interp::new(&s);
            interp.step_limit = 1000;
            assert_eq!(
                run(&interp, &[x.index() as i64]),
                Err(ExecError::StepLimit),
                "{form}"
            );
            assert_eq!(interp.counters.region_attempts(), 1, "{form}");
            // Steps 1 and 2 are `tmbegin` and `br`; every odd step from 3
            // to 999 is a store, and step 1001 would have been the next.
            assert_eq!(interp.counters.tm_calls(), 499, "{form}");
            assert_eq!(s.read_now(x), 1, "{form}: nothing commits");
        }
    }

    #[test]
    fn wrong_argument_count_is_an_error_before_anything_runs() {
        for (form, run) in both_forms(crate::programs::bank_transfer()) {
            let s = stm(Algorithm::SNOrec);
            let accounts = s.alloc_array(2, 10i64);
            let interp = Interp::new(&s);
            let (a, b) = (accounts.index() as i64, accounts.offset(1).index() as i64);
            for args in [&[a, b][..], &[a, b, 1, 1], &[]] {
                assert_eq!(
                    run(&interp, args),
                    Err(ExecError::Arity {
                        expected: 3,
                        got: args.len()
                    }),
                    "{form}"
                );
            }
            assert_eq!(interp.counters.region_attempts(), 0, "{form}");
            let st = s.stats();
            assert_eq!(st.commits + st.aborts(AbortReason::Explicit), 0, "{form}");
            assert_eq!(s.read_now(accounts), 10, "{form}: heap untouched");
            assert_eq!(run(&interp, &[a, b, 1]), Ok(Some(1)), "{form}: then runs");
        }
    }

    #[test]
    fn subtracting_i64_min_wraps_with_and_without_the_passes() {
        // `atomic { *r0 = *r0 - r1 }`: `sub` wraps, so the `tmdec` the
        // passes turn it into must negate `i64::MIN` wrapping too.
        let source = crate::parser::parse_function(
            "func sub(2) {
             entry:
               tmbegin
               r2 = tmload r0
               r3 = sub r2, r1
               tmstore r0, r3
               tmend
               ret
             }",
        )
        .unwrap();
        for passes in [false, true] {
            let mut f = source.clone();
            if passes {
                assert_eq!(run_tm_passes(&mut f).sw, 1);
            }
            for (form, run) in both_forms(f) {
                for alg in Algorithm::ALL {
                    let s = stm(alg);
                    let x = s.alloc_cell(5i64);
                    let interp = Interp::new(&s);
                    assert_eq!(run(&interp, &[x.index() as i64, i64::MIN]), Ok(None));
                    assert_eq!(
                        s.read_now(x),
                        5i64.wrapping_sub(i64::MIN),
                        "{alg} {form} passes={passes}"
                    );
                }
            }
        }
    }

    #[test]
    fn region_on_a_poisoned_log_fail_stops_like_atomic() {
        struct Broken;
        impl semtm_core::LogStorage for Broken {
            fn append(&mut self, _: &[u8]) -> std::io::Result<()> {
                Err(std::io::ErrorKind::Other.into())
            }
            fn sync(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let panic_of = |r: std::thread::Result<()>| {
            *r.expect_err("must fail-stop")
                .downcast::<String>()
                .expect("panic message")
        };
        for (form, run) in both_forms(crate::programs::bank_transfer()) {
            let config = StmConfig::new(Algorithm::SNOrec)
                .heap_words(1 << 8)
                .durability(semtm_core::DurabilityMode::Sync);
            let s = Stm::with_wal(config, Box::new(Broken));
            let accounts = s.alloc_array(2, 10i64);
            // The first writer finds out the hard way and poisons the log.
            let first = catch_unwind(AssertUnwindSafe(|| s.atomic(|tx| tx.write(accounts, 11))));
            assert!(panic_of(first).contains("cannot be made durable"), "{form}");
            assert!(s.wal().unwrap().is_poisoned());

            let later = catch_unwind(AssertUnwindSafe(|| s.atomic(|tx| tx.write(accounts, 12))));
            let fail_stop = panic_of(later);
            assert!(fail_stop.contains("commit log I/O failure"), "{fail_stop}");

            let mut interp = Interp::new(&s);
            interp.step_limit = 1_000_000;
            let args = [
                accounts.index() as i64,
                accounts.offset(1).index() as i64,
                1,
            ];
            let region = catch_unwind(AssertUnwindSafe(|| {
                run(&interp, &args).ok();
            }));
            assert_eq!(panic_of(region), fail_stop, "{form}");
            assert_eq!(interp.counters.region_attempts(), 1, "{form}");
            assert_eq!(s.read_now(accounts.offset(1)), 10, "{form}: rolled back");
        }
    }

    #[test]
    fn unbalanced_tmend_reports_error() {
        let mut fb = FunctionBuilder::new("bad", 0);
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret { val: None });
        let f = fb.build();
        let s = stm(Algorithm::NOrec);
        let interp = Interp::new(&s);
        assert_eq!(interp.execute(&f, &[]), Err(ExecError::UnbalancedEnd));
    }

    #[test]
    fn lowered_execution_matches_tree_walker() {
        for alg in Algorithm::ALL {
            for passes in [false, true] {
                let mut f = inc_if_positive();
                if passes {
                    run_tm_passes(&mut f);
                }
                let lowered = crate::lower::lower(&f).unwrap();

                let s_tree = stm(alg);
                let x_tree = s_tree.alloc_cell(5i64);
                let tree = Interp::new(&s_tree);
                let tree_out = tree.execute(&f, &[x_tree.index() as i64]).unwrap();

                let s_flat = stm(alg);
                let x_flat = s_flat.alloc_cell(5i64);
                let flat = Interp::new(&s_flat);
                let flat_out = flat
                    .execute_lowered(&lowered, &[x_flat.index() as i64])
                    .unwrap();

                assert_eq!(tree_out, flat_out, "{alg} passes={passes}");
                assert_eq!(
                    s_tree.read_now(x_tree),
                    s_flat.read_now(x_flat),
                    "{alg} passes={passes}"
                );
                // Dispatch accounting must be identical too: lowering
                // changes how ops are fetched, never how many barriers
                // are issued.
                assert_eq!(
                    tree.counters.tm_calls(),
                    flat.counters.tm_calls(),
                    "{alg} passes={passes}"
                );
                assert_eq!(
                    tree.counters.region_attempts(),
                    flat.counters.region_attempts(),
                    "{alg} passes={passes}"
                );
            }
        }
    }

    #[test]
    fn lowered_step_limit_catches_infinite_loops() {
        let mut fb = FunctionBuilder::new("spin", 0);
        fb.push(Inst::Br { target: 0 });
        let lowered = crate::lower::lower(&fb.build()).unwrap();
        let s = stm(Algorithm::NOrec);
        let mut interp = Interp::new(&s);
        interp.step_limit = 1000;
        assert_eq!(
            interp.execute_lowered(&lowered, &[]),
            Err(ExecError::StepLimit)
        );
    }

    #[test]
    fn lowered_unbalanced_tmend_reports_error() {
        let mut fb = FunctionBuilder::new("bad", 0);
        fb.push(Inst::TmEnd);
        fb.push(Inst::Ret { val: None });
        let lowered = crate::lower::lower(&fb.build()).unwrap();
        let s = stm(Algorithm::NOrec);
        let interp = Interp::new(&s);
        assert_eq!(
            interp.execute_lowered(&lowered, &[]),
            Err(ExecError::UnbalancedEnd)
        );
    }

    #[test]
    fn lowered_concurrent_increments_are_atomic() {
        let s = stm(Algorithm::SNOrec);
        let x = s.alloc_cell(1i64);
        let mut f = inc_if_positive();
        run_tm_passes(&mut f);
        let lowered = crate::lower::lower(&f).unwrap();
        // One interpreter shared by all threads: each attempt adds its
        // barrier calls in one piece.
        let interp = Interp::new(&s);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        interp
                            .execute_lowered(&lowered, &[x.index() as i64])
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(s.read_now(x), 1 + 400);
        // Every attempt, committed or not, issues the guard's `_ITM_S1R`
        // and the increment's `_ITM_SW` (neither can abort on S-NOrec
        // with an empty read-set; the commit can).
        let attempts = interp.counters.region_attempts();
        assert!(attempts >= 400);
        assert_eq!(interp.counters.tm_calls(), attempts * 2);
    }

    #[test]
    fn concurrent_ir_increments_are_atomic() {
        let s = stm(Algorithm::SNOrec);
        let x = s.alloc_cell(1i64); // positive so every guard passes
        let mut f = inc_if_positive();
        run_tm_passes(&mut f);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &s;
                let f = &f;
                scope.spawn(move || {
                    let interp = Interp::new(s);
                    for _ in 0..100 {
                        interp.execute(f, &[x.index() as i64]).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.read_now(x), 1 + 400);
    }
}
