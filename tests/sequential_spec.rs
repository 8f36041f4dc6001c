//! Property-based check of the paper's §5 sequential specification.
//!
//! The paper defines registers with four operations (`read`, `write`,
//! `inc`, `cmp`) and their sequential specification: every `read`
//! returns the latest write plus the interleaving increments, and every
//! `cmp` returns the relation applied to that same value. Single-
//! threaded, every algorithm must be *exactly* this specification.
//!
//! The checker is driven deterministically by `SplitMix64` (runs
//! offline in tier-1).

use semtm::core::util::SplitMix64;
use semtm::{Algorithm, CmpOp, Stm, StmConfig};

#[derive(Clone, Debug)]
enum Op {
    Read(usize),
    Write(usize, i64),
    Inc(usize, i64),
    Cmp(usize, CmpOp, i64),
    CmpAddr(usize, CmpOp, usize),
}

const REGISTERS: usize = 4;

fn random_op(rng: &mut SplitMix64) -> Op {
    let r = rng.index(REGISTERS);
    let v = rng.below(100) as i64 - 50;
    let o = CmpOp::ALL[rng.index(CmpOp::ALL.len())];
    match rng.below(5) {
        0 => Op::Read(r),
        1 => Op::Write(r, v),
        2 => Op::Inc(r, v),
        3 => Op::Cmp(r, o, v),
        _ => Op::CmpAddr(r, o, rng.index(REGISTERS)),
    }
}

fn random_history(rng: &mut SplitMix64) -> ([i64; REGISTERS], Vec<usize>, Vec<Op>) {
    let init: [i64; REGISTERS] = std::array::from_fn(|_| rng.below(40) as i64 - 20);
    let tx_sizes: Vec<usize> = (0..1 + rng.index(5)).map(|_| 1 + rng.index(7)).collect();
    let ops: Vec<Op> = (0..1 + rng.index(39)).map(|_| random_op(rng)).collect();
    (init, tx_sizes, ops)
}

/// The §5 sequential specification, directly.
#[derive(Clone)]
struct Model {
    regs: [i64; REGISTERS],
}

impl Model {
    fn apply(&mut self, op: &Op) -> i64 {
        match *op {
            Op::Read(r) => self.regs[r],
            Op::Write(r, v) => {
                self.regs[r] = v;
                0
            }
            Op::Inc(r, d) => {
                self.regs[r] = self.regs[r].wrapping_add(d);
                0
            }
            Op::Cmp(r, o, v) => o.eval(self.regs[r], v) as i64,
            Op::CmpAddr(a, o, b) => o.eval(self.regs[a], self.regs[b]) as i64,
        }
    }
}

fn check_sequential_spec(alg: Algorithm, init: [i64; REGISTERS], tx_sizes: &[usize], ops: &[Op]) {
    let stm = Stm::new(StmConfig::new(alg).heap_words(256).orec_count(64));
    let addrs: Vec<_> = init.iter().map(|&v| stm.alloc_cell(v)).collect();
    let mut model = Model { regs: init };
    let mut cursor = 0;
    for &size in tx_sizes {
        let chunk: Vec<Op> = ops[cursor..(cursor + size).min(ops.len())].to_vec();
        cursor += chunk.len();
        if chunk.is_empty() {
            break;
        }
        // The whole chunk runs as one transaction; outcomes must match
        // the model applied to the same chunk.
        let expected: Vec<i64> = {
            let mut m = model.clone();
            chunk.iter().map(|op| m.apply(op)).collect()
        };
        let got: Vec<i64> = stm.atomic(|tx| {
            let mut out = Vec::with_capacity(chunk.len());
            for op in &chunk {
                out.push(match *op {
                    Op::Read(r) => tx.read(addrs[r])?,
                    Op::Write(r, v) => {
                        tx.write(addrs[r], v)?;
                        0
                    }
                    Op::Inc(r, d) => {
                        tx.inc(addrs[r], d)?;
                        0
                    }
                    Op::Cmp(r, o, v) => tx.cmp(addrs[r], o, v)? as i64,
                    Op::CmpAddr(a, o, b) => tx.cmp_addr(addrs[a], o, addrs[b])? as i64,
                });
            }
            Ok(out)
        });
        assert_eq!(got, expected, "{alg}: in-transaction outcomes diverge");
        for op in &chunk {
            model.apply(op);
        }
        // Committed memory must equal the model between transactions.
        for (r, addr) in addrs.iter().enumerate() {
            assert_eq!(
                stm.read_now(*addr),
                model.regs[r],
                "{alg}: committed register {r} diverges"
            );
        }
    }
}

/// Deterministic tier: 64 random histories per algorithm, fixed seeds.
#[test]
fn all_algorithms_match_sequential_spec_deterministic() {
    for (i, alg) in Algorithm::ALL.into_iter().enumerate() {
        let mut rng = SplitMix64::new(0x5EC5 + i as u64);
        for _ in 0..64 {
            let (init, tx_sizes, ops) = random_history(&mut rng);
            check_sequential_spec(alg, init, &tx_sizes, &ops);
        }
    }
}

/// All four algorithms agree with each other on arbitrary single-
/// threaded histories (they implement the same abstraction).
#[test]
fn algorithms_agree_pairwise_deterministic() {
    let mut rng = SplitMix64::new(0xA93E);
    for _ in 0..64 {
        let init: [i64; REGISTERS] = std::array::from_fn(|_| rng.below(40) as i64 - 20);
        let ops: Vec<Op> = (0..1 + rng.index(29))
            .map(|_| random_op(&mut rng))
            .collect();
        let mut finals: Vec<Vec<i64>> = Vec::new();
        for alg in Algorithm::ALL {
            let stm = Stm::new(StmConfig::new(alg).heap_words(256).orec_count(64));
            let addrs: Vec<_> = init.iter().map(|&v| stm.alloc_cell(v)).collect();
            stm.atomic(|tx| {
                for op in &ops {
                    match *op {
                        Op::Read(r) => {
                            tx.read(addrs[r])?;
                        }
                        Op::Write(r, v) => tx.write(addrs[r], v)?,
                        Op::Inc(r, d) => tx.inc(addrs[r], d)?,
                        Op::Cmp(r, o, v) => {
                            tx.cmp(addrs[r], o, v)?;
                        }
                        Op::CmpAddr(a, o, b) => {
                            tx.cmp_addr(addrs[a], o, addrs[b])?;
                        }
                    }
                }
                Ok(())
            });
            finals.push(addrs.iter().map(|a| stm.read_now(*a)).collect());
        }
        for pair in finals.windows(2) {
            assert_eq!(&pair[0], &pair[1]);
        }
    }
}
