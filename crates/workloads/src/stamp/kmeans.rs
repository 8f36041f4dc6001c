//! STAMP **Kmeans** — iterative clustering (paper §3.1 Algorithm 5 and
//! §7.1).
//!
//! Each iteration assigns every point to its nearest centre (pure local
//! arithmetic over an immutable snapshot of the centres) and accumulates
//! the new centres in shared memory. The accumulation transaction is
//! Algorithm 5 verbatim: one `TM_INC` on the cluster population and one
//! `TM_INC` per feature — under the baselines these delegate to
//! read+write pairs, which is exactly the "base" Kmeans column of
//! Table 3 (25 reads + 25 writes vs 25 increments).
//!
//! Features use the [`Fx32`] fixed-point codec so that increments are
//! exact word additions (DESIGN.md §7).

use crate::driver::{run_fixed_work, RunResult};
use semtm_core::util::SplitMix64;
use semtm_core::{Fx32, Stm, TArray};

/// Kmeans configuration.
#[derive(Clone, Copy, Debug)]
pub struct KmeansConfig {
    /// Number of points.
    pub points: usize,
    /// Features per point.
    pub features: usize,
    /// Number of clusters (k).
    pub clusters: usize,
    /// Maximum outer iterations.
    pub max_iterations: usize,
    /// Convergence threshold: stop when fewer than this per-mille of
    /// points change membership.
    pub threshold_per_mille: u32,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        KmeansConfig {
            points: 2048,
            features: 16,
            clusters: 8,
            max_iterations: 10,
            threshold_per_mille: 5,
        }
    }
}

/// Shared accumulation state + immutable input data.
pub struct Kmeans {
    /// Flattened `points x features` input (immutable during a run).
    data: Vec<Fx32>,
    /// Shared `clusters x features` accumulator (transactional).
    new_centers: TArray<Fx32>,
    /// Shared per-cluster population (transactional).
    new_centers_len: TArray<i64>,
    config: KmeansConfig,
}

impl Kmeans {
    /// Generate a synthetic clustered dataset and allocate the shared
    /// accumulators.
    pub fn new(stm: &Stm, config: KmeansConfig, seed: u64) -> Kmeans {
        let mut rng = SplitMix64::new(seed);
        let mut data = Vec::with_capacity(config.points * config.features);
        for p in 0..config.points {
            // Points scatter around one of `clusters` synthetic centres.
            let c = p % config.clusters;
            for f in 0..config.features {
                let centre = ((c * 37 + f * 11) % 100) as f64;
                let noise = rng.below(2000) as f64 / 100.0 - 10.0;
                data.push(Fx32::from_f64(centre + noise));
            }
        }
        Kmeans {
            data,
            new_centers: TArray::new(stm, config.clusters * config.features, Fx32::ZERO),
            new_centers_len: TArray::new(stm, config.clusters, 0),
            config,
        }
    }

    #[inline]
    fn feature(&self, point: usize, f: usize) -> Fx32 {
        self.data[point * self.config.features + f]
    }

    fn nearest(&self, point: usize, centers: &[Fx32]) -> usize {
        let mut best = 0;
        let mut best_d = i64::MAX;
        for c in 0..self.config.clusters {
            let mut d: i64 = 0;
            for f in 0..self.config.features {
                let diff = self.feature(point, f) - centers[c * self.config.features + f];
                d = d.saturating_add((diff * diff).0);
            }
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best
    }

    /// Run the full clustering; returns (iterations executed, final
    /// memberships) and leaves per-run stats on `stm`.
    pub fn run_clustering(&self, stm: &Stm, threads: usize, seed: u64) -> (usize, Vec<usize>) {
        let cfg = self.config;
        let mut centers: Vec<Fx32> = (0..cfg.clusters * cfg.features)
            .map(|i| self.data[i % self.data.len()])
            .collect();
        let membership: Vec<std::sync::atomic::AtomicUsize> =
            (0..cfg.points).map(|_| Default::default()).collect();
        let changed = std::sync::atomic::AtomicUsize::new(usize::MAX);
        let mut iterations = 0;

        while iterations < cfg.max_iterations
            && changed.load(std::sync::atomic::Ordering::Relaxed)
                > cfg.points * cfg.threshold_per_mille as usize / 1000
        {
            changed.store(0, std::sync::atomic::Ordering::Relaxed);
            // Reset accumulators (quiescent).
            for c in 0..cfg.clusters {
                self.new_centers_len.write_now(stm, c, 0);
                for f in 0..cfg.features {
                    self.new_centers
                        .write_now(stm, c * cfg.features + f, Fx32::ZERO);
                }
            }
            let centers_ref = &centers;
            let membership_ref = &membership;
            let changed_ref = &changed;
            run_fixed_work(stm, threads, cfg.points as u64, seed, |_tid, i, _rng| {
                let p = i as usize;
                let c = self.nearest(p, centers_ref);
                let prev = membership_ref[p].swap(c, std::sync::atomic::Ordering::Relaxed);
                if prev != c || iterations == 0 {
                    changed_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                let base = c * cfg.features;
                stm.atomic(|tx| {
                    self.new_centers_len.inc(tx, c, 1)?;
                    for f in 0..cfg.features {
                        self.new_centers.inc(tx, base + f, self.feature(p, f))?;
                    }
                    Ok(())
                });
            });
            // Master step: fold accumulators into the next centres.
            for c in 0..cfg.clusters {
                let n = self.new_centers_len.read_now(stm, c).max(1);
                for f in 0..cfg.features {
                    centers[c * cfg.features + f] = self
                        .new_centers
                        .read_now(stm, c * cfg.features + f)
                        .div_int(n);
                }
            }
            iterations += 1;
        }
        let final_membership = membership.into_iter().map(|a| a.into_inner()).collect();
        (iterations, final_membership)
    }

    /// Quiescent check after one accumulation pass: populations sum to
    /// the number of points processed.
    pub fn population_now(&self, stm: &Stm) -> i64 {
        (0..self.config.clusters)
            .map(|c| self.new_centers_len.read_now(stm, c))
            .sum()
    }
}

/// Measured run for the figure harness: full clustering, reporting the
/// wall-clock time (Figure 1g) and abort rate (Figure 1h).
pub fn run(stm: &Stm, config: KmeansConfig, threads: usize, seed: u64) -> RunResult {
    let km = Kmeans::new(stm, config, seed);
    let before = stm.stats();
    let start = std::time::Instant::now();
    let (iterations, _) = km.run_clustering(stm, threads, seed);
    let elapsed = start.elapsed();
    RunResult {
        threads,
        elapsed,
        total_ops: (iterations * config.points) as u64,
        stats: stm.stats().since(&before),
        setup_commits: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semtm_core::{Algorithm, StmConfig};

    fn stm(alg: Algorithm) -> Stm {
        Stm::new(StmConfig::new(alg).heap_words(1 << 14).orec_count(1 << 8))
    }

    fn small() -> KmeansConfig {
        KmeansConfig {
            points: 128,
            features: 4,
            clusters: 4,
            max_iterations: 5,
            ..KmeansConfig::default()
        }
    }

    #[test]
    fn accumulators_sum_to_point_count() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let km = Kmeans::new(&s, small(), 7);
            let (iters, membership) = km.run_clustering(&s, 2, 7);
            assert!(iters >= 1, "{alg}");
            assert_eq!(membership.len(), 128);
            assert_eq!(
                km.population_now(&s),
                128,
                "{alg}: last pass must count every point exactly once"
            );
        }
    }

    #[test]
    fn clustering_separates_synthetic_clusters() {
        let s = stm(Algorithm::SNOrec);
        let km = Kmeans::new(&s, small(), 11);
        let (_, membership) = km.run_clustering(&s, 1, 11);
        // Points were generated around cluster (p % 4); the learned
        // membership must be consistent within each generator class for
        // a large majority of points.
        let mut votes = vec![[0usize; 4]; 4];
        for (p, &m) in membership.iter().enumerate() {
            votes[p % 4][m] += 1;
        }
        for class_votes in votes {
            let max = *class_votes.iter().max().unwrap();
            let total: usize = class_votes.iter().sum();
            assert!(max * 10 >= total * 7, "class not cohesive: {class_votes:?}");
        }
    }

    #[test]
    fn semantic_profile_is_increment_only() {
        let s = stm(Algorithm::SNOrec);
        let km = Kmeans::new(&s, small(), 3);
        km.run_clustering(&s, 1, 3);
        let st = s.stats();
        assert_eq!(st.committed.reads, 0, "accumulation must be pure TM_INC");
        assert_eq!(st.committed.writes, 0);
        assert!(st.incs_per_tx() > 4.0, "1 + features increments per tx");
    }

    #[test]
    fn base_profile_is_read_write_pairs() {
        let s = stm(Algorithm::Tl2);
        let km = Kmeans::new(&s, small(), 3);
        km.run_clustering(&s, 1, 3);
        let st = s.stats();
        assert_eq!(st.committed.incs, 0);
        assert!(st.reads_per_tx() > 4.0);
        assert!((st.reads_per_tx() - st.writes_per_tx()).abs() < 1e-9);
    }

    #[test]
    fn concurrent_accumulation_loses_nothing() {
        for alg in Algorithm::ALL {
            let s = stm(alg);
            let km = Kmeans::new(&s, small(), 5);
            km.run_clustering(&s, 4, 5);
            assert_eq!(km.population_now(&s), 128, "{alg}");
        }
    }
}
