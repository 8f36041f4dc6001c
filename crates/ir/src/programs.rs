//! Benchmark kernels written in the IR's *classical* TM style — plain
//! transactional loads, stores and comparisons, exactly what GCC's
//! `_transaction_atomic` lowering would produce. None of them mention a
//! semantic builtin: the whole point of the Figure-2 ("GCC")
//! configuration is that [`crate::passes::tm_mark`] discovers the
//! `cmp`/`inc` patterns by itself, keeping the programming model
//! untouched.
//!
//! The sources live as checked-in `.ir` files under `programs/` at the
//! repository root (so `semlint` and CI can lint them as files) and are
//! embedded here with `include_str!`:
//!
//! * [`hashtable_op`] — the open-addressing probe of the paper's
//!   Algorithm 2 (get or insert, selected by an argument);
//! * [`vacation_reserve`] — the reservation scan-and-book kernel of
//!   Algorithm 4 over a contiguous offer table;
//! * [`bank_transfer`] — a guarded transfer (overdraft check + two
//!   balance updates);
//! * [`cross_block_guard`] — a test-and-set guard whose comparison sits
//!   in a different basic block than its feeding load, exercising the
//!   whole-function matcher;
//! * [`range_gate`] — a token-bucket admission gate whose threshold
//!   check compares an *offset* of the loaded value, promotable only by
//!   the abstract interpreter's range widening ([`crate::passes::tm_widen`]).
//!
//! Each kernel has one [`Kernel`] row, next to its source: the
//! [`Scenario`] it is exercised by (a heap image, scripted calls, the
//! return every call must give and the heap they must leave) and what
//! the TM passes make of it (their report and the barrier counts before
//! and after). The differential oracle ([`crate::oracle`]) checks every
//! form of every kernel against its row; the lowering's step-budget
//! sweep and the schedule explorer take their heaps and arguments from
//! it.

use crate::ir::Function;
use crate::parser::parse_function;
use crate::passes::PassReport;
use semtm_core::{Addr, Stm};
use Value::{Cell, Int};

/// A word a call passes or returns: the address of an image cell, or a
/// plain integer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Value {
    /// The address of image word `i`.
    Cell(usize),
    /// A plain integer.
    Int(i64),
}

impl Value {
    /// The word itself, given the addresses of the image cells.
    pub fn resolve(self, cells: &[Addr]) -> i64 {
        match self {
            Cell(i) => cells[i].index() as i64,
            Int(v) => v,
        }
    }
}

/// One scripted call and the return it must give.
#[derive(Clone, Debug)]
pub struct Call {
    /// An image cell written (non-transactionally) just before the
    /// call: `(word, value)`.
    pub set: Option<(usize, i64)>,
    /// The arguments.
    pub args: Vec<Value>,
    /// The return.
    pub ret: Value,
}

impl Call {
    /// A call of `args` that must return `ret`.
    pub fn new(args: Vec<Value>, ret: Value) -> Call {
        Call {
            set: None,
            args,
            ret,
        }
    }

    /// The arguments as words, given the addresses of the image cells.
    pub fn args(&self, cells: &[Addr]) -> Vec<i64> {
        self.args.iter().map(|a| a.resolve(cells)).collect()
    }
}

/// Scripted calls on a heap image, and the outcome they must have.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// The initial contents of the cells the calls may touch.
    pub image: Vec<i64>,
    /// The calls, in order.
    pub calls: Vec<Call>,
    /// The image after the last call.
    pub heap: Vec<i64>,
}

impl Scenario {
    /// Allocate the image on `stm`, one cell per word in order, and
    /// return the cells. On an unpadded runtime they are contiguous, so a
    /// kernel may index from a [`Value::Cell`] argument; on a padded one
    /// each gets a cache line, and so a clock shard, of its own.
    pub fn place(&self, stm: &Stm) -> Vec<Addr> {
        self.image.iter().map(|&v| stm.alloc_cell(v)).collect()
    }
}

/// A shipped kernel: its source, the scenario it runs, and what the TM
/// passes make of it.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// The function's name.
    pub name: &'static str,
    /// The path of its `.ir` source, relative to the repository root.
    pub path: &'static str,
    /// The source.
    pub src: &'static str,
    /// The calls the differential oracle makes, and their outcome.
    pub scenario: Scenario,
    /// What one [`crate::passes::run_tm_passes`] rewrites and removes.
    pub passes: PassReport,
    /// Barrier calls ([`Function::barrier_count`]) before and after the
    /// passes.
    pub barriers: (usize, usize),
}

impl Kernel {
    /// Parse the kernel.
    pub fn function(&self) -> Function {
        parse_function(self.src).unwrap_or_else(|e| panic!("{}: {e}", self.path))
    }
}

/// A pass report written as `[widened, s1r, s2r, sw, loads_removed,
/// pure_removed]`.
fn report([widened, s1r, s2r, sw, loads_removed, pure_removed]: [usize; 6]) -> PassReport {
    PassReport {
        widened,
        s1r,
        s2r,
        sw,
        loads_removed,
        pure_removed,
    }
}

/// Open-addressing hash-table operation (see `programs/ht_op.ir`).
///
/// Arguments: `r0` = states base address, `r1` = keys base address,
/// `r2` = capacity mask, `r3` = key, `r4` = op (0 = get, 1 = insert).
/// Returns 1 found, 0 absent, 2 inserted.
/// Cell states: 0 = FREE, 1 = USED, 2 = REMOVED.
pub const HASHTABLE_OP_SRC: &str = include_str!("../../../programs/ht_op.ir");

/// A 16-slot table (states in cells 0–15, keys in 16–31) holding a
/// tombstone of key 24 in slot 8. Key 23 collides with key 7
/// (23 & 15 == 7), so its insert probes past key 7 and the tombstone;
/// a get of key 24 must skip its tombstone.
fn hashtable_row() -> Kernel {
    // `(slot, state, key)` of every slot not FREE.
    let table = |slots: &[(usize, i64, i64)]| {
        let mut words = vec![0; 32];
        for &(slot, state, key) in slots {
            (words[slot], words[16 + slot]) = (state, key);
        }
        words
    };
    let call = |key, op, ret| {
        let args = vec![Cell(0), Cell(16), Int(15), Int(key), Int(op)];
        Call::new(args, Int(ret))
    };
    Kernel {
        name: "ht_op",
        path: "programs/ht_op.ir",
        src: HASHTABLE_OP_SRC,
        scenario: Scenario {
            image: table(&[(8, 2, 24)]),
            calls: vec![
                call(7, 0, 0),
                call(7, 1, 2),
                call(7, 0, 1),
                call(23, 1, 2),
                call(23, 0, 1),
                call(7, 0, 1),
                call(3, 1, 2),
                call(3, 0, 1),
                call(12, 0, 0),
                call(24, 0, 0),
            ],
            heap: table(&[(3, 1, 3), (7, 1, 7), (8, 2, 24), (9, 1, 23)]),
        },
        passes: report([0, 3, 0, 0, 3, 0]),
        barriers: (5, 5),
    }
}

/// Vacation reservation kernel (see `programs/vac_reserve.ir`).
///
/// Arguments: `r0` = offer-table base, `r1` = number of offers. Offers
/// are 5-word records `id, numUsed, numFree, numTotal, price`. Scans all
/// offers for the priciest one with a free unit and books it.
/// Returns the booked record address, or -1.
pub const VACATION_RESERVE_SRC: &str = include_str!("../../../programs/vac_reserve.ir");

/// Four offers, booked until all are sold out. Offer 1 is the priciest
/// but has no free unit; offers 2 and 3 tie at 300, and the first seen
/// wins.
fn vacation_row() -> Kernel {
    // `(numUsed, numFree, price)` per offer; its id is its index, and
    // numTotal is numUsed + numFree.
    let offers = |rows: [(i64, i64, i64); 4]| -> Vec<i64> {
        (0..4)
            .flat_map(|id| {
                let (used, free, price) = rows[id];
                [id as i64, used, free, used + free, price]
            })
            .collect()
    };
    let call = |ret| Call::new(vec![Cell(0), Int(4)], ret);
    Kernel {
        name: "vac_reserve",
        path: "programs/vac_reserve.ir",
        src: VACATION_RESERVE_SRC,
        scenario: Scenario {
            image: offers([(0, 2, 100), (0, 0, 900), (0, 1, 300), (0, 3, 300)]),
            calls: vec![
                call(Cell(10)),
                call(Cell(15)),
                call(Cell(15)),
                call(Cell(15)),
                call(Cell(0)),
                call(Cell(0)),
                call(Int(-1)),
                call(Int(-1)),
            ],
            heap: offers([(2, 0, 100), (0, 0, 900), (1, 0, 300), (3, 0, 300)]),
        },
        passes: report([0, 2, 0, 2, 4, 2]),
        barriers: (7, 5),
    }
}

/// Guarded bank transfer (see `programs/bank_transfer.ir`).
///
/// Arguments: `r0` = source account address, `r1` = destination account
/// address, `r2` = amount. Returns 1 if the transfer happened, 0 if the
/// overdraft check blocked it.
pub const BANK_TRANSFER_SRC: &str = include_str!("../../../programs/bank_transfer.ir");

/// Transfers both ways between two accounts; the second and the last
/// are blocked by the overdraft check, the fourth empties the source
/// exactly.
fn bank_row() -> Kernel {
    let call = |src, dst, amount, ret| Call::new(vec![Cell(src), Cell(dst), Int(amount)], Int(ret));
    Kernel {
        name: "bank_transfer",
        path: "programs/bank_transfer.ir",
        src: BANK_TRANSFER_SRC,
        scenario: Scenario {
            image: vec![100, 10],
            calls: vec![
                call(0, 1, 60, 1),
                call(0, 1, 60, 0),
                call(1, 0, 5, 1),
                call(0, 1, 45, 1),
                call(1, 0, 1000, 0),
            ],
            heap: vec![0, 110],
        },
        passes: report([0, 1, 0, 2, 3, 2]),
        barriers: (5, 3),
    }
}

/// Cross-block test-and-set guard (see `programs/cross_block_guard.ir`).
///
/// The lock word is loaded in the entry block but compared in a
/// successor, so only the whole-function matcher promotes the guard to
/// `_ITM_S1R`. Arguments: `r0` = lock address, `r1` = counter address.
/// Returns 1 if the lock was acquired, 0 if it was already held.
pub const CROSS_BLOCK_GUARD_SRC: &str = include_str!("../../../programs/cross_block_guard.ir");

/// The first call acquires the lock and bumps the counter once; the
/// lock is then held.
fn cross_block_guard_row() -> Kernel {
    let call = |ret| Call::new(vec![Cell(0), Cell(1)], Int(ret));
    Kernel {
        name: "cross_block_guard",
        path: "programs/cross_block_guard.ir",
        src: CROSS_BLOCK_GUARD_SRC,
        scenario: Scenario {
            image: vec![0, 0],
            calls: vec![call(1), call(0), call(0)],
            heap: vec![1, 1],
        },
        passes: report([0, 1, 0, 1, 2, 1]),
        barriers: (4, 3),
    }
}

/// Token-bucket admission gate (see `programs/range_gate.ir`).
///
/// Admits when `*tokens <= 100 && *tokens + 27 > 77` — the offset
/// compare is the range-widening acceptance kernel: syntactically it is
/// a compare of an `add`, not of a load, so `tm_mark` declines it;
/// `tm_widen` proves `+ 27` cannot wrap under the capacity guard and
/// rewrites it to `tmcmp.gt tokens, 50`. Arguments: `r0` = tokens
/// address, `r1` = grants address. Returns 1 admitted, 0 rejected.
pub const RANGE_GATE_SRC: &str = include_str!("../../../programs/range_gate.ir");

/// The token count is set before each call: across the threshold (51
/// admits, 50 does not), the cap (100 in, 101 out) and a negative
/// balance, where the widened `tmcmp.gt tokens, 50` must agree with the
/// offset compare it replaces.
fn range_gate_row() -> Kernel {
    let calls = [
        (60, 1),
        (51, 1),
        (50, 0),
        (100, 1),
        (101, 0),
        (0, 0),
        (-5, 0),
        (77, 1),
        (120, 0),
    ];
    Kernel {
        name: "range_gate",
        path: "programs/range_gate.ir",
        src: RANGE_GATE_SRC,
        scenario: Scenario {
            image: vec![60, 0],
            calls: calls
                .into_iter()
                .map(|(tokens, admitted)| Call {
                    set: Some((0, tokens)),
                    ..Call::new(vec![Cell(0), Cell(1)], Int(admitted))
                })
                .collect(),
            heap: vec![120, 4],
        },
        passes: report([1, 1, 0, 1, 2, 2]),
        barriers: (3, 3),
    }
}

/// Every shipped kernel's row.
pub fn kernels() -> Vec<Kernel> {
    vec![
        hashtable_row(),
        vacation_row(),
        bank_row(),
        cross_block_guard_row(),
        range_gate_row(),
    ]
}

/// The row of the shipped kernel whose function is called `name`.
pub fn kernel(name: &str) -> Option<Kernel> {
    kernels().into_iter().find(|k| k.name == name)
}

/// Parse the hashtable kernel.
pub fn hashtable_op() -> Function {
    parse_function(HASHTABLE_OP_SRC).expect("ht_op parses")
}

/// Parse the vacation kernel.
pub fn vacation_reserve() -> Function {
    parse_function(VACATION_RESERVE_SRC).expect("vac_reserve parses")
}

/// Parse the bank kernel.
pub fn bank_transfer() -> Function {
    parse_function(BANK_TRANSFER_SRC).expect("bank_transfer parses")
}

/// Parse the cross-block guard kernel.
pub fn cross_block_guard() -> Function {
    parse_function(CROSS_BLOCK_GUARD_SRC).expect("cross_block_guard parses")
}

/// Parse the range-gate kernel.
pub fn range_gate() -> Function {
    parse_function(RANGE_GATE_SRC).expect("range_gate parses")
}

/// All builtin kernels, paired with the path of their `.ir` source
/// relative to the repository root (used by `semlint --builtin`'s
/// callers and the lint tests).
pub fn all() -> Vec<(&'static str, Function)> {
    kernels().iter().map(|k| (k.path, k.function())).collect()
}

/// The raw `.ir` sources of the builtin kernels, paired with their
/// repository-relative paths (lets `semlint --builtin` re-parse them
/// with source spans).
pub fn sources() -> Vec<(&'static str, &'static str)> {
    kernels().iter().map(|k| (k.path, k.src)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::passes::run_tm_passes;
    use semtm_core::{Algorithm, StmConfig};

    #[test]
    fn every_row_writes_and_sheds_barriers_where_it_promotes() {
        for k in kernels() {
            let (before, after) = k.barriers;
            assert_eq!(k.function().name, k.name, "{}", k.path);
            assert_ne!(
                k.scenario.heap, k.scenario.image,
                "{}: the calls write",
                k.name
            );
            assert!(k.scenario.calls.len() >= 3, "{}", k.name);
            // S1R promotions trade a load barrier for a compare barrier
            // (cheaper, not fewer); only SW promotions fuse two barriers
            // into one. So the count never grows, and drops wherever the
            // kernel has an increment pattern.
            assert!(after <= before, "{}", k.name);
            let p = k.passes;
            assert!(p.s1r + p.s2r + p.sw > 0, "{}: a promotable pattern", k.name);
            // A widened compare turns a *plain* Cmp into a tmcmp barrier
            // (one new barrier, cheaper than the load it replaces),
            // offsetting one SW fusion in the count.
            if p.sw > p.widened {
                assert!(after < before, "{}: SW promotion sheds barriers", k.name);
            }
        }
    }

    #[test]
    fn passes_are_idempotent() {
        // The builtins are terminal forms, not inputs to further
        // matching: a second run finds nothing left to rewrite.
        for (path, mut f) in all() {
            run_tm_passes(&mut f);
            let again = run_tm_passes(&mut f);
            assert_eq!(again, PassReport::default(), "{path}: second run");
        }
    }

    #[test]
    fn range_gate_widening_beats_syntactic_matcher() {
        use crate::ir::{Inst, Operand};
        use semtm_core::CmpOp;
        // Syntactic pipeline only: the offset compare survives as a
        // plain Cmp — tm_mark declines it (the compared register is an
        // add, not a load).
        let mut syntactic = range_gate();
        let rep = crate::passes::tm_mark(&mut syntactic);
        assert_eq!(rep.s1r, 1, "only the capacity guard matches: {rep:?}");
        assert_eq!(
            syntactic.count_insts(|i| matches!(i, Inst::Cmp { .. })),
            1,
            "the offset compare is declined syntactically"
        );
        // Full pipeline: the abstract interpreter proves the rewrite.
        let mut f = range_gate();
        let rep = run_tm_passes(&mut f);
        assert_eq!(rep.widened, 1, "{rep:?}");
        assert_eq!(f.count_insts(|i| matches!(i, Inst::Cmp { .. })), 0);
        // The widened builtin checks the folded relation *tokens > 50.
        assert_eq!(
            f.count_insts(|i| matches!(
                i,
                Inst::TmCmpVal {
                    op: CmpOp::Gt,
                    val: Operand::Imm(50),
                    ..
                }
            )),
            1
        );
    }

    #[test]
    fn concurrent_ir_bank_conserves_money() {
        let config = StmConfig::new(Algorithm::SNOrec).heap_words(1 << 12);
        let s = Stm::new(config.orec_count(1 << 8));
        let accounts: Vec<_> = (0..4).map(|_| s.alloc_cell(250i64)).collect();
        let mut f = bank_transfer();
        run_tm_passes(&mut f);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let s = &s;
                let f = &f;
                let accounts = &accounts;
                scope.spawn(move || {
                    let interp = Interp::new(s);
                    let mut rng = semtm_core::util::SplitMix64::new(t as u64 + 1);
                    for _ in 0..200 {
                        let src = accounts[rng.index(4)].index() as i64;
                        let dst = accounts[rng.index(4)].index() as i64;
                        if src == dst {
                            continue;
                        }
                        let amt = 1 + rng.below(100) as i64;
                        interp.execute(f, &[src, dst, amt]).unwrap();
                    }
                });
            }
        });
        let total: i64 = accounts.iter().map(|a| s.read_now(*a)).sum();
        assert_eq!(total, 1000, "money conserved under concurrent IR runs");
    }
}
