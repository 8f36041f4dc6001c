//! STAMP **SSCA2** — scalable graph kernel 1 (graph construction),
//! reduced (paper Table 3).
//!
//! Transactions are tiny: appending one directed edge to a vertex's
//! adjacency array reads the insertion cursor, writes the slot, and
//! bumps the cursor. In the semantic build the cursor bump becomes a
//! `TM_INC`, giving Table 3's profile of ~1 read + 1 write + 1 increment
//! per transaction — too little semantic traffic to move the figures,
//! which is why the paper reports SSCA2 in Table 3 only.

use crate::driver::{run_fixed_work, RunResult};
use semtm_core::util::SplitMix64;
use semtm_core::{Abort, Stm, TArray, Tx};

/// SSCA2 configuration.
#[derive(Clone, Copy, Debug)]
pub struct Ssca2Config {
    /// Vertices.
    pub vertices: usize,
    /// Directed edges to insert.
    pub edges: usize,
    /// Maximum out-degree (adjacency arrays are pre-sized).
    pub max_degree: usize,
}

impl Default for Ssca2Config {
    fn default() -> Self {
        Ssca2Config {
            vertices: 512,
            edges: 4096,
            max_degree: 64,
        }
    }
}

/// Shared adjacency-array graph under construction.
pub struct Ssca2 {
    /// Per-vertex out-degree cursor.
    degree: TArray<i64>,
    /// Flattened `vertices x max_degree` adjacency slots.
    adjacency: TArray<i64>,
    /// The edge list to insert (u, v).
    edge_list: Vec<(usize, i64)>,
    config: Ssca2Config,
}

impl Ssca2 {
    /// Generate a random edge list (bounded per-vertex degree).
    pub fn new(stm: &Stm, config: Ssca2Config, seed: u64) -> Ssca2 {
        let mut rng = SplitMix64::new(seed);
        let mut budget = vec![config.max_degree; config.vertices];
        let mut edge_list = Vec::with_capacity(config.edges);
        while edge_list.len() < config.edges {
            let u = rng.index(config.vertices);
            if budget[u] == 0 {
                continue;
            }
            budget[u] -= 1;
            let v = rng.index(config.vertices) as i64;
            edge_list.push((u, v));
        }
        Ssca2 {
            degree: TArray::new(stm, config.vertices, 0),
            adjacency: TArray::new(stm, config.vertices * config.max_degree, -1),
            edge_list,
            config,
        }
    }

    /// Number of edges to insert.
    pub fn edges(&self) -> usize {
        self.edge_list.len()
    }

    /// The edge-insertion transaction: read cursor, write slot,
    /// `TM_INC` cursor (the paper's convertible pattern).
    pub fn insert_edge(&self, tx: &mut Tx<'_>, edge: usize) -> Result<(), Abort> {
        let (u, v) = self.edge_list[edge];
        let cursor = self.degree.read(tx, u)?;
        self.adjacency
            .write(tx, u * self.config.max_degree + cursor as usize, v)?;
        self.degree.inc(tx, u, 1)?;
        Ok(())
    }

    /// Quiescent invariants: per-vertex degree equals filled slots, every
    /// inserted edge appears exactly once, no slot written twice.
    pub fn verify(&self, stm: &Stm) -> Result<(), String> {
        let mut expected: std::collections::HashMap<(usize, i64), usize> =
            std::collections::HashMap::new();
        for &(u, v) in &self.edge_list {
            *expected.entry((u, v)).or_default() += 1;
        }
        let mut got: std::collections::HashMap<(usize, i64), usize> =
            std::collections::HashMap::new();
        for u in 0..self.config.vertices {
            let deg = self.degree.read_now(stm, u) as usize;
            for slot in 0..self.config.max_degree {
                let v = self
                    .adjacency
                    .read_now(stm, u * self.config.max_degree + slot);
                if slot < deg {
                    if v < 0 {
                        return Err(format!("vertex {u}: hole at slot {slot} within degree"));
                    }
                    *got.entry((u, v)).or_default() += 1;
                } else if v >= 0 {
                    return Err(format!("vertex {u}: write beyond degree at slot {slot}"));
                }
            }
        }
        if got != expected {
            return Err("adjacency multiset does not match edge list".into());
        }
        Ok(())
    }
}

/// Measured run: insert every edge across threads.
pub fn run(stm: &Stm, config: Ssca2Config, threads: usize, seed: u64) -> RunResult {
    let g = Ssca2::new(stm, config, seed);
    let r = run_fixed_work(stm, threads, g.edges() as u64, seed, |_tid, i, _rng| {
        stm.atomic(|tx| g.insert_edge(tx, i as usize));
    });
    g.verify(stm).expect("ssca2 adjacency incorrect");
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 18).orec_count(1 << 10))
    }

    fn small() -> Ssca2Config {
        Ssca2Config {
            vertices: 32,
            edges: 256,
            max_degree: 32,
        }
    }

    #[test]
    fn construction_correct_single_thread() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let r = run(&s, small(), 1, 3);
            assert_eq!(r.total_ops, 256, "{alg}");
        }
    }

    #[test]
    fn construction_correct_concurrent() {
        // Concurrent appends to the same vertex must serialise through
        // the cursor read validation (no overwritten slots).
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let _ = run(&s, small(), 4, 7);
        }
    }

    #[test]
    fn semantic_profile_read_write_inc() {
        let s = stm(Algorithm::SNOrec);
        let _ = run(&s, small(), 1, 13);
        let st = s.stats();
        assert!(
            (st.reads_per_tx() - 1.0).abs() < 1e-9,
            "{}",
            st.reads_per_tx()
        );
        assert!((st.writes_per_tx() - 1.0).abs() < 1e-9);
        assert!((st.incs_per_tx() - 1.0).abs() < 1e-9);
        assert_eq!(st.committed.promotes, 0, "inc after read never promotes");
    }

    #[test]
    fn base_profile_two_reads_two_writes() {
        let s = stm(Algorithm::Tl2);
        let _ = run(&s, small(), 1, 13);
        let st = s.stats();
        assert!((st.reads_per_tx() - 2.0).abs() < 1e-9);
        assert!((st.writes_per_tx() - 2.0).abs() < 1e-9);
    }
}
