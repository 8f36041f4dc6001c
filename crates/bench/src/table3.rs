//! Table 3: "Average Number of Operations per Transaction" — the
//! base-vs-semantic operation profile of every workload.
//!
//! Each workload runs twice single-threaded (profiles are workload
//! properties, not concurrency properties): once under plain NOrec
//! ("base": semantic calls delegate, so they surface as reads/writes)
//! and once under S-NOrec ("semantic").

use crate::Sweep;
use semtm_core::{Algorithm, StatsSnapshot, Stm, StmConfig};
use semtm_workloads::driver::RunResult;
use semtm_workloads::stamp::{genome, intruder, kmeans, labyrinth, ssca2, vacation, yada};
use semtm_workloads::{bank, hashtable, lru};
use std::time::Duration;

/// One workload's profile under one mode.
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// Workload name (Table 3 column group).
    pub benchmark: &'static str,
    /// `base` or `semantic`.
    pub mode: &'static str,
    /// Average plain reads per committed transaction.
    pub reads: f64,
    /// Average plain writes per committed transaction.
    pub writes: f64,
    /// Average compares per committed transaction.
    pub compares: f64,
    /// Average increments per committed transaction.
    pub increments: f64,
    /// Average promotions per committed transaction.
    pub promotes: f64,
}

impl ProfileRow {
    fn from_stats(benchmark: &'static str, mode: &'static str, s: &StatsSnapshot) -> ProfileRow {
        ProfileRow {
            benchmark,
            mode,
            reads: s.reads_per_tx(),
            writes: s.writes_per_tx(),
            compares: s.cmps_per_tx(),
            increments: s.incs_per_tx(),
            promotes: s.promotes_per_tx(),
        }
    }
}

/// Build the full Table 3 (10 workloads × 2 modes) at `sweep`'s scale.
pub fn table3(sweep: &Sweep) -> Vec<ProfileRow> {
    let dur = sweep.pick(Duration::from_millis(40), Duration::from_millis(250));
    type Run<'a> = &'a dyn Fn(&Stm) -> RunResult;
    // (workload, log2 heap words, one single-threaded run, seed 7).
    let workloads: [(&str, u32, Run); 10] = [
        ("Hashtable", 16, &|s| {
            let cfg = hashtable::HashtableConfig {
                capacity: sweep.pick(1 << 9, 1 << 12),
                ..hashtable::HashtableConfig::default()
            };
            hashtable::run(s, cfg, 1, dur, 7)
        }),
        ("Bank", 12, &|s| {
            bank::run(s, bank::BankConfig::default(), 1, dur, 7)
        }),
        ("LRU", 16, &|s| {
            lru::run(s, lru::LruConfig::default(), 1, dur, 7)
        }),
        ("Vacation", 22, &|s| {
            let cfg = vacation::VacationConfig::default();
            vacation::run(s, cfg, 1, sweep.pick(200, 2000), 7)
        }),
        ("Kmeans", 14, &|s| {
            let cfg = kmeans::KmeansConfig {
                points: sweep.pick(256, 2048),
                features: 24,
                max_iterations: 3,
                ..kmeans::KmeansConfig::default()
            };
            kmeans::run(s, cfg, 1, 7)
        }),
        ("Labyrinth", 14, &|s| {
            let cfg = labyrinth::LabyrinthConfig {
                x: 24,
                y: 24,
                z: 3,
                pairs: sweep.pick(12, 40),
                wall_pct: 10,
                variant: labyrinth::Variant::CopyOutsideTx,
            };
            labyrinth::run(s, cfg, 1, 7)
        }),
        ("Yada", 22, &|s| {
            let cfg = yada::YadaConfig {
                elements: sweep.pick(128, 512),
                ..yada::YadaConfig::default()
            };
            yada::run(s, cfg, 1, 7)
        }),
        ("SSCA2", 18, &|s| {
            let cfg = ssca2::Ssca2Config {
                edges: sweep.pick(512, 4096),
                ..ssca2::Ssca2Config::default()
            };
            ssca2::run(s, cfg, 1, 7)
        }),
        ("Genome", 18, &|s| {
            let cfg = genome::GenomeConfig {
                segments: sweep.pick(512, 4096),
                ..genome::GenomeConfig::default()
            };
            genome::run(s, cfg, 1, 7)
        }),
        ("Intruder", 18, &|s| {
            let cfg = intruder::IntruderConfig {
                flows: sweep.pick(64, 256),
                ..intruder::IntruderConfig::default()
            };
            intruder::run(s, cfg, 1, 7)
        }),
    ];
    let mut rows = Vec::new();
    for (mode, alg) in [("base", Algorithm::NOrec), ("semantic", Algorithm::SNOrec)] {
        for (benchmark, heap_pow2, run) in workloads {
            let s = Stm::new(
                StmConfig::new(alg)
                    .heap_words(1 << heap_pow2)
                    .orec_count(1 << 12),
            );
            run(&s);
            rows.push(ProfileRow::from_stats(benchmark, mode, &s.stats()));
        }
    }
    rows
}

/// Render Table 3 as markdown, paper-style: one row per operation type,
/// one column pair (base, semantic) per workload.
pub fn markdown(rows: &[ProfileRow]) -> String {
    let benchmarks: Vec<&'static str> = {
        let mut seen = Vec::new();
        for r in rows {
            if !seen.contains(&r.benchmark) {
                seen.push(r.benchmark);
            }
        }
        seen
    };
    let get = |b: &str, mode: &str| rows.iter().find(|r| r.benchmark == b && r.mode == mode);
    let mut out = String::from("\n### Table 3: average operations per transaction\n\n");
    out.push_str("| op |");
    for b in &benchmarks {
        out.push_str(&format!(" {b} base | {b} sem |"));
    }
    out.push('\n');
    out.push_str("|---|");
    for _ in &benchmarks {
        out.push_str("---:|---:|");
    }
    out.push('\n');
    type Sel = fn(&ProfileRow) -> f64;
    let metrics: [(&str, Sel); 5] = [
        ("Read", |r| r.reads),
        ("Write", |r| r.writes),
        ("Compare", |r| r.compares),
        ("Increment", |r| r.increments),
        ("Promote", |r| r.promotes),
    ];
    for (name, sel) in metrics {
        out.push_str(&format!("| {name} |"));
        for b in &benchmarks {
            for mode in ["base", "semantic"] {
                match get(b, mode) {
                    Some(r) => out.push_str(&format!(" {:.2} |", sel(r))),
                    None => out.push_str(" - |"),
                }
            }
        }
        out.push('\n');
    }
    out
}

/// CSV emission for `results/table3.csv`.
pub fn csv(rows: &[ProfileRow]) -> String {
    let mut out = String::from("benchmark,mode,reads,writes,compares,increments,promotes\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.3},{:.3},{:.3},{:.3},{:.3}\n",
            r.benchmark, r.mode, r.reads, r.writes, r.compares, r.increments, r.promotes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_has_twenty_rows_and_expected_shape() {
        let rows = table3(&Sweep::tiny());
        assert_eq!(rows.len(), 20, "10 workloads x 2 modes");

        let find = |b: &str, m: &str| {
            rows.iter()
                .find(|r| r.benchmark == b && r.mode == m)
                .unwrap()
        };
        // Paper shape checks (Table 3):
        // Hashtable: all base reads become compares.
        assert_eq!(find("Hashtable", "semantic").reads, 0.0);
        assert!(find("Hashtable", "semantic").compares > 10.0);
        assert!(find("Hashtable", "base").reads > 10.0);
        assert_eq!(find("Hashtable", "base").compares, 0.0);
        // Kmeans: base read/write pairs become pure increments.
        assert_eq!(find("Kmeans", "semantic").reads, 0.0);
        assert!(find("Kmeans", "semantic").increments > 10.0);
        assert!(find("Kmeans", "base").reads > 10.0);
        // Vacation: semantic mode keeps most reads plain and promotes.
        let v = find("Vacation", "semantic");
        assert!(v.reads > v.compares);
        assert!(v.promotes > 0.0);
        // Intruder: no semantic ops in either mode; Genome: only the
        // tiny phase-2 claim-check residue (paper: 0.06 compares/tx).
        assert_eq!(find("Intruder", "semantic").compares, 0.0);
        assert_eq!(find("Intruder", "semantic").increments, 0.0);
        let genome = find("Genome", "semantic");
        assert!(
            genome.compares < 0.1 * genome.reads,
            "claim checks must stay a residue of the read traffic: {} cmps vs {} reads",
            genome.compares,
            genome.reads
        );
        assert_eq!(genome.increments, 0.0);
        // SSCA2: exactly one increment per transaction in semantic mode.
        assert!((find("SSCA2", "semantic").increments - 1.0).abs() < 1e-9);

        let md = markdown(&rows);
        assert!(md.contains("Hashtable base"));
        let c = csv(&rows);
        assert_eq!(c.lines().count(), 21);
    }
}
