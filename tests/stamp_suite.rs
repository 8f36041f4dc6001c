//! STAMP suite smoke-and-verify: every ported application runs on every
//! algorithm with multiple threads, and its internal invariants are
//! asserted (each `run` helper verifies on completion and panics
//! otherwise). This is the cross-crate safety net behind the Figure-1
//! sweeps.

use semtm::workloads::stamp::{genome, intruder, kmeans, labyrinth, ssca2, vacation, yada};
use semtm::{Algorithm, Stm, StmConfig};

fn stm(alg: Algorithm, heap_pow2: u32) -> Stm {
    Stm::new(
        StmConfig::new(alg)
            .heap_words(1 << heap_pow2)
            .orec_count(1 << 10),
    )
}

const THREADS: usize = 3;

#[test]
fn vacation_all_algorithms() {
    for alg in Algorithm::ALL {
        let s = stm(alg, 21);
        let cfg = vacation::VacationConfig {
            relations: 48,
            queries_per_tx: 6,
            customers: 24,
            ..vacation::VacationConfig::default()
        };
        let r = vacation::run(&s, cfg, THREADS, 300, 5);
        assert_eq!(r.total_ops, 300, "{alg}");
        assert!(r.stats.commits >= 300, "{alg}");
    }
}

#[test]
fn kmeans_all_algorithms() {
    for alg in Algorithm::ALL {
        let s = stm(alg, 14);
        let cfg = kmeans::KmeansConfig {
            points: 256,
            features: 8,
            clusters: 4,
            max_iterations: 4,
            ..kmeans::KmeansConfig::default()
        };
        let r = kmeans::run(&s, cfg, THREADS, 5);
        assert!(r.total_ops >= 256, "{alg}");
    }
}

#[test]
fn labyrinth_both_variants_all_algorithms() {
    for variant in [
        labyrinth::Variant::CopyInsideTx,
        labyrinth::Variant::CopyOutsideTx,
    ] {
        for alg in Algorithm::ALL {
            let s = stm(alg, 14);
            let cfg = labyrinth::LabyrinthConfig {
                x: 14,
                y: 14,
                z: 2,
                pairs: 12,
                wall_pct: 8,
                variant,
            };
            let r = labyrinth::run(&s, cfg, THREADS, 7);
            assert_eq!(r.total_ops, 12, "{alg} {variant:?}");
        }
    }
}

#[test]
fn yada_all_algorithms() {
    for alg in Algorithm::ALL {
        let s = stm(alg, 21);
        let cfg = yada::YadaConfig {
            elements: 96,
            ..yada::YadaConfig::default()
        };
        let r = yada::run(&s, cfg, THREADS, 9);
        assert!(r.total_ops > 0, "{alg}: some refinements must happen");
    }
}

#[test]
fn ssca2_all_algorithms() {
    for alg in Algorithm::ALL {
        let s = stm(alg, 18);
        let cfg = ssca2::Ssca2Config {
            vertices: 48,
            edges: 512,
            max_degree: 32,
        };
        let r = ssca2::run(&s, cfg, THREADS, 11);
        assert_eq!(r.total_ops, 512, "{alg}");
    }
}

#[test]
fn genome_all_algorithms() {
    for alg in Algorithm::ALL {
        let s = stm(alg, 18);
        let cfg = genome::GenomeConfig {
            genome_length: 512,
            segment_length: 8,
            segments: 768,
            buckets: 32,
            inserts_per_tx: 4,
        };
        let r = genome::run(&s, cfg, THREADS, 13);
        assert!(r.total_ops > 0, "{alg}");
    }
}

#[test]
fn intruder_all_algorithms() {
    for alg in Algorithm::ALL {
        let s = stm(alg, 18);
        let cfg = intruder::IntruderConfig {
            flows: 48,
            fragments_per_flow: 6,
            attack_per_mille: 200,
        };
        let r = intruder::run(&s, cfg, THREADS, 17);
        assert_eq!(r.total_ops, 48 * 6, "{alg}");
    }
}

/// The headline semantic claim end-to-end: on the compare-heavy
/// workloads, the semantic algorithm's abort rate must not exceed its
/// baseline's under identical contention — the same fixed batch of
/// operations, drawn from the same seed, on both sides.
#[test]
fn semantic_abort_rates_never_worse_on_compare_heavy_workloads() {
    use semtm::workloads::hashtable;
    let cfg = hashtable::HashtableConfig {
        capacity: 256,
        ..hashtable::HashtableConfig::default()
    };
    for (base, semantic) in [
        (Algorithm::NOrec, Algorithm::SNOrec),
        (Algorithm::Tl2, Algorithm::STl2),
    ] {
        let sb = stm(base, 16);
        let rb = hashtable::run_fixed(&sb, cfg, 4, 2_000, 21);
        let ss = stm(semantic, 16);
        let rs = hashtable::run_fixed(&ss, cfg, 4, 2_000, 21);
        assert!(
            rs.abort_pct() <= rb.abort_pct() + 5.0,
            "{semantic:?} {:.1}% should undercut {base:?} {:.1}% (5pt slack for scheduling noise)",
            rs.abort_pct(),
            rb.abort_pct()
        );
    }
}
