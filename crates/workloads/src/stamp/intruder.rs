//! STAMP **Intruder** — network-intrusion detection, reduced kernel
//! (paper Table 3).
//!
//! Like Genome, Intruder is profiled in Table 3 (28.5 reads, 2.6 writes
//! per transaction) but excluded from the figures: its transactions —
//! popping a packet fragment off a shared queue and threading it into a
//! per-flow reassembly list — consume the values they read, so nothing
//! converts to `cmp`/`inc`. The port deliberately uses only plain
//! reads/writes to reproduce that profile.
//!
//! Pipeline: *capture* (pop fragment) → *reassembly* (insert into the
//! flow's fragment list; on completion, hand the flow to detection) →
//! *detection* (local scan for an "attack" signature).

use crate::driver::{run_fixed_work, RunResult};
use semtm_core::util::SplitMix64;
use semtm_core::{Abort, Addr, Stm, TArray, TVar, Tx};
use std::sync::atomic::{AtomicUsize, Ordering};

const NIL: i64 = -1;

/// Fragment record (4 words): flow id, fragment index, payload, next.
const F_FLOW: usize = 0;
const F_INDEX: usize = 1;
const F_PAYLOAD: usize = 2;
const F_NEXT: usize = 3;

#[inline]
fn field(node: i64, f: usize) -> Addr {
    Addr::from_index(node as usize + f)
}

/// Intruder configuration.
#[derive(Clone, Copy, Debug)]
pub struct IntruderConfig {
    /// Number of flows.
    pub flows: usize,
    /// Fragments per flow.
    pub fragments_per_flow: usize,
    /// Per-mille of flows carrying the attack signature.
    pub attack_per_mille: u32,
}

impl Default for IntruderConfig {
    fn default() -> Self {
        IntruderConfig {
            flows: 256,
            fragments_per_flow: 8,
            attack_per_mille: 100,
        }
    }
}

const SIGNATURE: i64 = 0x5EC;

/// Shared reassembly state.
pub struct Intruder {
    /// Shuffled arrival order of (pre-allocated) fragment records.
    arrivals: Vec<i64>,
    /// Per-flow list head.
    flow_head: TArray<i64>,
    /// Per-flow received-fragment count.
    flow_count: TArray<i64>,
    /// Completed-flow counter.
    completed: TVar<i64>,
    config: IntruderConfig,
    /// Ground truth attack flows.
    attack_flows: Vec<usize>,
}

impl Intruder {
    /// Pre-generate all fragments in shuffled arrival order.
    pub fn new(stm: &Stm, config: IntruderConfig, seed: u64) -> Intruder {
        let mut rng = SplitMix64::new(seed);
        let mut attack_flows = Vec::new();
        let mut arrivals = Vec::with_capacity(config.flows * config.fragments_per_flow);
        for flow in 0..config.flows {
            let is_attack = rng.below(1000) < config.attack_per_mille as u64;
            if is_attack {
                attack_flows.push(flow);
            }
            for idx in 0..config.fragments_per_flow {
                let frag = stm.alloc(4);
                stm.write_now(frag.offset(F_FLOW), flow as i64);
                stm.write_now(frag.offset(F_INDEX), idx as i64);
                let payload = if is_attack && idx == config.fragments_per_flow / 2 {
                    SIGNATURE
                } else {
                    (rng.below(1 << 20) as i64) | 0x1000_0000
                };
                stm.write_now(frag.offset(F_PAYLOAD), payload);
                stm.write_now(frag.offset(F_NEXT), NIL);
                arrivals.push(frag.index() as i64);
            }
        }
        // Shuffle arrivals (fragments arrive out of order).
        for i in (1..arrivals.len()).rev() {
            arrivals.swap(i, rng.index(i + 1));
        }
        Intruder {
            arrivals,
            flow_head: TArray::new(stm, config.flows, NIL),
            flow_count: TArray::new(stm, config.flows, 0),
            completed: TVar::new(stm, 0),
            config,
            attack_flows,
        }
    }

    /// Total fragments to process.
    pub fn fragments(&self) -> usize {
        self.arrivals.len()
    }

    /// Reassembly transaction for arrival `i`: thread the fragment into
    /// its flow's list ordered by fragment index (plain reads/writes
    /// only, see module docs). Returns the flow id if this fragment
    /// completed the flow.
    pub fn process(&self, tx: &mut Tx<'_>, arrival: usize) -> Result<Option<usize>, Abort> {
        let frag = self.arrivals[arrival];
        let flow = tx.read(field(frag, F_FLOW))? as usize;
        let my_index = tx.read(field(frag, F_INDEX))?;

        // Ordered insert into the flow list.
        let head = self.flow_head.read(tx, flow)?;
        if head == NIL || tx.read(field(head, F_INDEX))? > my_index {
            tx.write(field(frag, F_NEXT), head)?;
            self.flow_head.write(tx, flow, frag)?;
        } else {
            let mut cur = head;
            loop {
                let next = tx.read(field(cur, F_NEXT))?;
                if next == NIL || tx.read(field(next, F_INDEX))? > my_index {
                    tx.write(field(frag, F_NEXT), next)?;
                    tx.write(field(cur, F_NEXT), frag)?;
                    break;
                }
                cur = next;
            }
        }
        let count = self.flow_count.read(tx, flow)? + 1;
        self.flow_count.write(tx, flow, count)?;
        if count == self.config.fragments_per_flow as i64 {
            let done = self.completed.read(tx)?;
            self.completed.write(tx, done + 1)?;
            Ok(Some(flow))
        } else {
            Ok(None)
        }
    }

    /// Detection phase (pure local scan once the flow is quiescent for
    /// the completing thread): does the flow carry the signature?
    pub fn detect(&self, stm: &Stm, flow: usize) -> bool {
        let mut cur = self.flow_head.read_now(stm, flow);
        while cur != NIL {
            if stm.read_now(field(cur, F_PAYLOAD)) == SIGNATURE {
                return true;
            }
            cur = stm.read_now(field(cur, F_NEXT));
        }
        false
    }

    /// Quiescent invariants: every flow complete, ordered, and the
    /// detected attack set equals the ground truth.
    pub fn verify(&self, stm: &Stm, detected: &mut Vec<usize>) -> Result<(), String> {
        if self.completed.read_now(stm) != self.config.flows as i64 {
            return Err(format!(
                "{} flows completed, expected {}",
                self.completed.read_now(stm),
                self.config.flows
            ));
        }
        for flow in 0..self.config.flows {
            let mut cur = self.flow_head.read_now(stm, flow);
            let mut expect = 0i64;
            while cur != NIL {
                let idx = stm.read_now(field(cur, F_INDEX));
                if idx != expect {
                    return Err(format!("flow {flow}: fragment {idx} out of order"));
                }
                expect += 1;
                cur = stm.read_now(field(cur, F_NEXT));
            }
            if expect != self.config.fragments_per_flow as i64 {
                return Err(format!("flow {flow}: only {expect} fragments linked"));
            }
        }
        detected.sort_unstable();
        if detected != &self.attack_flows {
            return Err(format!(
                "detected attacks {detected:?} != ground truth {:?}",
                self.attack_flows
            ));
        }
        Ok(())
    }
}

/// Measured run: process every fragment arrival across threads and run
/// detection on completed flows.
pub fn run(stm: &Stm, config: IntruderConfig, threads: usize, seed: u64) -> RunResult {
    let sys = Intruder::new(stm, config, seed);
    let detected = std::sync::Mutex::new(Vec::new());
    let scanned = AtomicUsize::new(0);
    let r = run_fixed_work(
        stm,
        threads,
        sys.fragments() as u64,
        seed,
        |_tid, i, _rng| {
            let done = stm.atomic(|tx| sys.process(tx, i as usize));
            if let Some(flow) = done {
                scanned.fetch_add(1, Ordering::Relaxed);
                if sys.detect(stm, flow) {
                    detected.lock().unwrap().push(flow);
                }
            }
        },
    );
    let mut detected = detected.into_inner().unwrap();
    sys.verify(stm, &mut detected)
        .expect("intruder invariant violated");
    assert_eq!(scanned.load(Ordering::Relaxed), config.flows);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 18).orec_count(1 << 10))
    }

    fn small() -> IntruderConfig {
        IntruderConfig {
            flows: 32,
            fragments_per_flow: 4,
            attack_per_mille: 250,
        }
    }

    #[test]
    fn reassembly_and_detection_single_thread() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let r = run(&s, small(), 1, 11);
            assert_eq!(r.total_ops, 32 * 4, "{alg}");
        }
    }

    #[test]
    fn reassembly_and_detection_concurrent() {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let s = stm(alg);
            let _ = run(&s, small(), 4, 23);
        }
    }

    #[test]
    fn profile_has_no_semantic_operations() {
        let s = stm(Algorithm::SNOrec);
        let _ = run(&s, small(), 1, 31);
        let st = s.stats().committed;
        assert!(st.reads > 0);
        assert_eq!(st.cmps + st.cmp_pairs, 0);
        assert_eq!(st.incs, 0);
    }
}
