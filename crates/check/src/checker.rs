//! History checker: final-state serializability of committed attempts
//! and zombie-freedom (opacity for aborted attempts).
//!
//! Inputs come from executions recorded by
//! [`crate::history::run_checked`] under the deterministic scheduler,
//! its only caller outside this module's tests. Two properties are
//! verified:
//!
//! 1. **Serializability**: there is a total order of the committed
//!    attempts, consistent with real time (an attempt that ended before
//!    another began must precede it), under which every recorded read
//!    observes the value the serial replay produces, every recorded
//!    compare's outcome matches, and the serial replay reproduces the
//!    observed final memory.
//! 2. **Zombie-freedom**: every *aborted* attempt's observations are
//!    consistent with **some** memory state that existed while it ran —
//!    i.e. a prefix of the commit order whose length lies between the
//!    number of commits that finished before the attempt began and the
//!    number that finished before it ended. An aborted transaction may
//!    be stale, but it must never have observed a state no serial
//!    execution could produce (the paper's Algorithm 9 situation).

use crate::history::{Attempt, CmpRhs, OpRec};
use semtm_core::Addr;
use std::collections::HashMap;

/// A memory state over the tracked slots.
type Mem = HashMap<u32, i64>;

fn addr_key(a: Addr) -> u32 {
    a.index() as u32
}

/// Pending local effect of a write-set entry during replay.
#[derive(Clone, Copy)]
enum Buffered {
    Store(i64),
    Inc(i64),
}

/// Replay one attempt's ops against `mem`, checking every observation.
/// On success returns the memory after applying the attempt's effects.
fn replay_consistent(at: &Attempt, mem: &Mem) -> Result<Mem, String> {
    let mut buf: HashMap<u32, Buffered> = HashMap::new();
    let load = |mem: &Mem, k: u32| mem.get(&k).copied().unwrap_or(0);
    // The value the transaction observes for a slot: write-buffer first.
    let observe = |buf: &HashMap<u32, Buffered>, mem: &Mem, k: u32| match buf.get(&k) {
        Some(Buffered::Store(v)) => *v,
        Some(Buffered::Inc(d)) => load(mem, k).wrapping_add(*d),
        None => load(mem, k),
    };
    for op in &at.ops {
        match *op {
            OpRec::Read { addr, val, seq } => {
                let k = addr_key(addr);
                let got = observe(&buf, mem, k);
                if got != val {
                    return Err(format!(
                        "read @{k} (seq {seq}) observed {val}, serial replay gives {got}"
                    ));
                }
                // A read of a pending Inc promotes it: the observed value
                // is pinned and committed verbatim (Algorithm 6 RAW).
                if let Some(Buffered::Inc(_)) = buf.get(&k) {
                    buf.insert(k, Buffered::Store(val));
                }
            }
            OpRec::Cmp {
                a,
                op,
                rhs,
                out,
                seq,
            } => {
                let ka = addr_key(a);
                let va = observe(&buf, mem, ka);
                let vb = match rhs {
                    CmpRhs::Const(c) => c,
                    CmpRhs::Slot(b) => observe(&buf, mem, addr_key(b)),
                };
                if op.eval(va, vb) != out {
                    return Err(format!(
                        "cmp @{ka} {op:?} (seq {seq}) observed {out}, serial replay gives {}",
                        op.eval(va, vb)
                    ));
                }
            }
            OpRec::Write { addr, val, .. } => {
                buf.insert(addr_key(addr), Buffered::Store(val));
            }
            OpRec::Inc { addr, delta, .. } => {
                let k = addr_key(addr);
                let next = match buf.get(&k) {
                    Some(Buffered::Store(v)) => Buffered::Store(v.wrapping_add(delta)),
                    Some(Buffered::Inc(d)) => Buffered::Inc(d.wrapping_add(delta)),
                    None => Buffered::Inc(delta),
                };
                buf.insert(k, next);
            }
        }
    }
    let mut out = mem.clone();
    for (k, b) in buf {
        let v = match b {
            Buffered::Store(v) => v,
            Buffered::Inc(d) => load(&out, k).wrapping_add(d),
        };
        out.insert(k, v);
    }
    Ok(out)
}

/// Apply only the attempt's effects (no observation checking): the state
/// trajectory real write-backs produced, used for the zombie check.
fn replay_effects(at: &Attempt, mem: &mut Mem) {
    let mut buf: HashMap<u32, Buffered> = HashMap::new();
    for op in &at.ops {
        match *op {
            OpRec::Read { addr, val, .. } => {
                let k = addr_key(addr);
                if let Some(Buffered::Inc(_)) = buf.get(&k) {
                    buf.insert(k, Buffered::Store(val));
                }
            }
            OpRec::Write { addr, val, .. } => {
                buf.insert(addr_key(addr), Buffered::Store(val));
            }
            OpRec::Inc { addr, delta, .. } => {
                let k = addr_key(addr);
                let next = match buf.get(&k) {
                    Some(Buffered::Store(v)) => Buffered::Store(v.wrapping_add(delta)),
                    Some(Buffered::Inc(d)) => Buffered::Inc(d.wrapping_add(delta)),
                    None => Buffered::Inc(delta),
                };
                buf.insert(k, next);
            }
            OpRec::Cmp { .. } => {}
        }
    }
    for (k, b) in buf {
        let v = match b {
            Buffered::Store(v) => v,
            Buffered::Inc(d) => mem.get(&k).copied().unwrap_or(0).wrapping_add(d),
        };
        mem.insert(k, v);
    }
}

/// Search for a serial order of `committed` (indices), consistent with
/// real time, replaying from `init` and matching `final_mem` at the end.
fn serialize_dfs(
    committed: &[&Attempt],
    order: &mut Vec<usize>,
    used: &mut Vec<bool>,
    mem: &Mem,
    final_mem: &Mem,
) -> bool {
    if order.len() == committed.len() {
        // All tracked slots must agree with the observed final memory.
        return final_mem
            .iter()
            .all(|(k, v)| mem.get(k).copied().unwrap_or(0) == *v);
    }
    'next: for i in 0..committed.len() {
        if used[i] {
            continue;
        }
        // Real-time edge: an unused attempt that ended before `i` began
        // must be serialized first.
        for j in 0..committed.len() {
            if i != j && !used[j] && committed[j].end_seq < committed[i].begin_seq {
                continue 'next;
            }
        }
        if let Ok(next) = replay_consistent(committed[i], mem) {
            used[i] = true;
            order.push(i);
            if serialize_dfs(committed, order, used, &next, final_mem) {
                return true;
            }
            order.pop();
            used[i] = false;
        }
    }
    false
}

/// Check one recorded execution.
///
/// * `attempts` — everything the recorder captured.
/// * `init` — initial values of the tracked slots.
/// * `final_mem` — observed final values (read non-transactionally after
///   all threads joined).
///
/// Returns `Err` with a diagnostic when the history is not serializable
/// or an aborted attempt observed an impossible (zombie) state.
pub fn check_history(
    attempts: &[Attempt],
    init: &[(Addr, i64)],
    final_mem: &[(Addr, i64)],
) -> Result<(), String> {
    let init_mem: Mem = init.iter().map(|(a, v)| (addr_key(*a), *v)).collect();
    let final_map: Mem = final_mem.iter().map(|(a, v)| (addr_key(*a), *v)).collect();

    let committed: Vec<&Attempt> = attempts.iter().filter(|a| a.committed).collect();
    let aborted: Vec<&Attempt> = attempts.iter().filter(|a| !a.committed).collect();

    // 1. Serializability of the committed attempts.
    let mut order = Vec::new();
    let mut used = vec![false; committed.len()];
    if !serialize_dfs(&committed, &mut order, &mut used, &init_mem, &final_map) {
        return Err(format!(
            "no real-time-consistent serial order of {} committed attempts \
             reproduces the observed reads and final memory",
            committed.len()
        ));
    }

    // 2. Zombie-freedom of aborted attempts, against the *actual* commit
    //    order (end_seq order equals write-back order because write-back
    //    and release form one atomic scheduler step).
    let mut by_end: Vec<&Attempt> = committed.clone();
    by_end.sort_by_key(|a| a.end_seq);
    let mut states: Vec<Mem> = Vec::with_capacity(by_end.len() + 1);
    states.push(init_mem.clone());
    for at in &by_end {
        let mut next = states.last().unwrap().clone();
        replay_effects(at, &mut next);
        states.push(next);
    }

    for ab in &aborted {
        if ab.ops.is_empty() {
            continue;
        }
        let lo = by_end.iter().filter(|c| c.end_seq < ab.begin_seq).count();
        let hi = by_end.iter().filter(|c| c.end_seq < ab.end_seq).count();
        let consistent = (lo..=hi).any(|k| replay_consistent(ab, &states[k]).is_ok());
        if !consistent {
            return Err(format!(
                "zombie: aborted attempt on thread {} (begin {}, end {}) observed a state \
                 no commit prefix in [{lo}, {hi}] can explain: {:?}",
                ab.thread, ab.begin_seq, ab.end_seq, ab.ops
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::CmpOp;

    fn addr(i: usize) -> Addr {
        Addr::from_index(i)
    }

    fn attempt(thread: usize, begin: u64, end: u64, committed: bool, ops: Vec<OpRec>) -> Attempt {
        Attempt {
            thread,
            begin_seq: begin,
            end_seq: end,
            committed,
            ops,
        }
    }

    #[test]
    fn empty_history_is_serializable() {
        assert!(check_history(&[], &[(addr(0), 5)], &[(addr(0), 5)]).is_ok());
    }

    #[test]
    fn two_committed_writers_serialize() {
        let a = addr(0);
        let h = vec![
            attempt(
                0,
                0,
                3,
                true,
                vec![
                    OpRec::Read {
                        addr: a,
                        val: 0,
                        seq: 1,
                    },
                    OpRec::Write {
                        addr: a,
                        val: 1,
                        seq: 2,
                    },
                ],
            ),
            attempt(
                1,
                4,
                7,
                true,
                vec![
                    OpRec::Read {
                        addr: a,
                        val: 1,
                        seq: 5,
                    },
                    OpRec::Write {
                        addr: a,
                        val: 2,
                        seq: 6,
                    },
                ],
            ),
        ];
        assert!(check_history(&h, &[(a, 0)], &[(a, 2)]).is_ok());
    }

    #[test]
    fn lost_update_is_rejected() {
        // Both read 0 and write read+1: final memory 1, but no serial
        // order explains both reads of 0 with final 1... actually a
        // serial order [T1, T2] forces T2 to read 1. Not serializable.
        let a = addr(0);
        let read0 = |seq| OpRec::Read {
            addr: a,
            val: 0,
            seq,
        };
        let write1 = |seq| OpRec::Write {
            addr: a,
            val: 1,
            seq,
        };
        let h = vec![
            attempt(0, 0, 10, true, vec![read0(1), write1(2)]),
            attempt(1, 3, 11, true, vec![read0(4), write1(5)]),
        ];
        assert!(check_history(&h, &[(a, 0)], &[(a, 1)]).is_err());
    }

    #[test]
    fn real_time_order_is_respected() {
        // T1 ends before T2 begins, so T1 must serialize first — but its
        // read only fits after T2's write. Contradiction: rejected.
        let a = addr(0);
        let h = vec![
            attempt(
                0,
                0,
                2,
                true,
                vec![OpRec::Read {
                    addr: a,
                    val: 7,
                    seq: 1,
                }],
            ),
            attempt(
                1,
                5,
                8,
                true,
                vec![OpRec::Write {
                    addr: a,
                    val: 7,
                    seq: 6,
                }],
            ),
        ];
        assert!(check_history(&h, &[(a, 0)], &[(a, 7)]).is_err());
    }

    #[test]
    fn cmp_outcomes_are_checked_semantically() {
        let x = addr(0);
        let h = vec![attempt(
            0,
            0,
            3,
            true,
            vec![OpRec::Cmp {
                a: x,
                op: CmpOp::Gt,
                rhs: CmpRhs::Const(0),
                out: true,
                seq: 1,
            }],
        )];
        assert!(check_history(&h, &[(x, 5)], &[(x, 5)]).is_ok());
        assert!(
            check_history(&h, &[(x, -5)], &[(x, -5)]).is_err(),
            "observed outcome true contradicts x = -5"
        );
    }

    #[test]
    fn inc_promotion_pins_the_read_value() {
        // inc(+2) then read observing 9 means base was 7; committing must
        // store 9 even if memory moved meanwhile (it cannot, serially).
        let a = addr(0);
        let h = vec![attempt(
            0,
            0,
            4,
            true,
            vec![
                OpRec::Inc {
                    addr: a,
                    delta: 2,
                    seq: 1,
                },
                OpRec::Read {
                    addr: a,
                    val: 9,
                    seq: 2,
                },
            ],
        )];
        assert!(check_history(&h, &[(a, 7)], &[(a, 9)]).is_ok());
        assert!(check_history(&h, &[(a, 6)], &[(a, 9)]).is_err());
    }

    #[test]
    fn zombie_read_is_detected() {
        // Committed T2 writes x=1,y=1 atomically. Aborted T1 read x=1 but
        // y=0 — a state that never existed (neither before nor after T2).
        let x = addr(0);
        let y = addr(1);
        let t2 = attempt(
            1,
            0,
            5,
            true,
            vec![
                OpRec::Write {
                    addr: x,
                    val: 1,
                    seq: 1,
                },
                OpRec::Write {
                    addr: y,
                    val: 1,
                    seq: 2,
                },
            ],
        );
        let t1_zombie = attempt(
            0,
            3,
            9,
            false,
            vec![
                OpRec::Read {
                    addr: x,
                    val: 1,
                    seq: 6,
                },
                OpRec::Read {
                    addr: y,
                    val: 0,
                    seq: 7,
                },
            ],
        );
        let init = [(x, 0), (y, 0)];
        let fin = [(x, 1), (y, 1)];
        assert!(check_history(&[t2.clone(), t1_zombie], &init, &fin).is_err());

        // A stale-but-consistent aborted read (both pre-state) is fine.
        let t1_stale = attempt(
            0,
            3,
            9,
            false,
            vec![
                OpRec::Read {
                    addr: x,
                    val: 0,
                    seq: 6,
                },
                OpRec::Read {
                    addr: y,
                    val: 0,
                    seq: 7,
                },
            ],
        );
        assert!(check_history(&[t2, t1_stale], &init, &fin).is_ok());
    }
}
