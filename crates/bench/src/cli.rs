//! The `figures` command line: the experiment table, which is the one
//! place an experiment is written, and the run loop derived from it.
//!
//! A row names the experiment, the files it writes under `results/` and
//! how it runs. The usage line, `all`, name checking and every
//! `results/` write follow from the table, so adding or retiring an
//! experiment is one row.

use crate::experiments as exp;
use crate::report::{figure_csv, markdown_table, speedup_summary, write_results_file, FigureRow};
use crate::{dashboard, fig2, table3, trace, Scale, Sweep};
use semtm_workloads::stamp::labyrinth::Variant;

/// One experiment of the `figures` harness.
pub struct Experiment {
    /// Its name on the command line.
    pub name: &'static str,
    /// Whether `all` runs it (the interactive dashboard repaints the
    /// terminal, so it runs only when named).
    pub in_all: bool,
    /// The files it writes under `results/`, in the order its runner
    /// returns their bodies.
    pub files: &'static [&'static str],
    /// How it runs.
    pub runner: Runner,
}

/// How an experiment runs.
pub enum Runner {
    /// A figure: its rows as a markdown table under `title`, a speedup
    /// digest per `(base, semantic)` pair, and the rows as one CSV.
    Figure {
        /// The markdown heading.
        title: &'static str,
        /// Legend pairs compared in the speedup digest.
        pairs: &'static [(&'static str, &'static str)],
        /// Measures the rows.
        rows: fn(&Sweep) -> Vec<FigureRow>,
    },
    /// Prints its own report and returns the body of each file, or why
    /// its output is invalid.
    Report(fn(&Sweep) -> Result<Vec<String>, String>),
}

const STM_PAIRS: &[(&str, &str)] = &[("NOrec", "S-NOrec"), ("TL2", "S-TL2")];
const GCC_PAIRS: &[(&str, &str)] = &[("NOrec", "NOrec Modified-GCC"), ("NOrec", "S-NOrec")];

const fn figure(
    name: &'static str,
    files: &'static [&'static str],
    title: &'static str,
    pairs: &'static [(&'static str, &'static str)],
    rows: fn(&Sweep) -> Vec<FigureRow>,
) -> Experiment {
    Experiment {
        name,
        in_all: true,
        files,
        runner: Runner::Figure { title, pairs, rows },
    }
}

/// Every experiment, in the order `all` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table3",
        in_all: true,
        files: &["table3.csv"],
        runner: Runner::Report(|sweep| {
            let rows = table3::table3(sweep);
            println!("{}", table3::markdown(&rows));
            Ok(vec![table3::csv(&rows)])
        }),
    },
    figure(
        "fig1-hashtable",
        &["fig1_hashtable.csv"],
        "Figures 1a/1b — Hashtable (throughput kTx/s, abort %)",
        STM_PAIRS,
        exp::fig1_hashtable,
    ),
    figure(
        "fig1-bank",
        &["fig1_bank.csv"],
        "Figures 1c/1d — Bank",
        STM_PAIRS,
        exp::fig1_bank,
    ),
    figure(
        "fig1-lru",
        &["fig1_lru.csv"],
        "Figures 1e/1f — LRU Cache",
        STM_PAIRS,
        exp::fig1_lru,
    ),
    figure(
        "fig1-kmeans",
        &["fig1_kmeans.csv"],
        "Figures 1g/1h — Kmeans (execution time s, abort %)",
        STM_PAIRS,
        exp::fig1_kmeans,
    ),
    figure(
        "fig1-vacation",
        &["fig1_vacation.csv"],
        "Figures 1i/1j — Vacation",
        STM_PAIRS,
        exp::fig1_vacation,
    ),
    figure(
        "fig1-labyrinth1",
        &["fig1_labyrinth1.csv"],
        "Figures 1k/1l — Labyrinth 1 (copy inside tx)",
        STM_PAIRS,
        |sweep| exp::fig1_labyrinth(sweep, Variant::CopyInsideTx),
    ),
    figure(
        "fig1-labyrinth2",
        &["fig1_labyrinth2.csv"],
        "Figures 1m/1n — Labyrinth 2 (copy outside tx, Ruan et al.)",
        STM_PAIRS,
        |sweep| exp::fig1_labyrinth(sweep, Variant::CopyOutsideTx),
    ),
    figure(
        "fig1-yada",
        &["fig1_yada.csv"],
        "Figures 1o/1p — Yada",
        STM_PAIRS,
        exp::fig1_yada,
    ),
    figure(
        "fig2-hashtable",
        &["fig2_hashtable.csv"],
        "Figures 2a/2b — Hashtable via modified-GCC path",
        GCC_PAIRS,
        fig2::fig2_hashtable,
    ),
    figure(
        "fig2-vacation",
        &["fig2_vacation.csv"],
        "Figures 2c/2d — Vacation kernel via modified-GCC path",
        GCC_PAIRS,
        fig2::fig2_vacation,
    ),
    figure(
        "contention",
        &["contention_hashtable.csv"],
        "Supplementary C1 — hot hashtable (90% occupancy, 2x threads)",
        STM_PAIRS,
        exp::contention_sweep,
    ),
    figure(
        "ablation-layout",
        &["ablation_layout.csv"],
        "Ablation A5 — memory layout x commit clock (Bank + Hashtable, S-NOrec)",
        &[("S-NOrec/global+flat", "S-NOrec/sharded+padded")],
        exp::ablation_layout_clock,
    ),
    figure(
        "ablation-durability",
        &["ablation_durability.csv"],
        "Ablation A6 — durability cost: no-wal vs sync vs group commit (Bank, S-NOrec)",
        &[("S-NOrec/no-wal", "S-NOrec/wal-group")],
        exp::ablation_durability,
    ),
    figure(
        "ablation-adaptive",
        &["ablation_adaptive.csv"],
        "Ablation A7 — adaptive engine switching across phase shifts \
         (Bank -> hot Hashtable -> Scan)",
        &[
            ("S-NOrec", "adaptive"),
            ("S-NOrec/sharded", "adaptive"),
            ("S-TL2", "adaptive"),
        ],
        exp::ablation_adaptive,
    ),
    Experiment {
        name: "telemetry",
        in_all: true,
        files: &["telemetry_bank.json", "telemetry_bank_series.csv"],
        runner: Runner::Report(telemetry_report),
    },
    Experiment {
        name: "trace",
        in_all: true,
        files: &["trace_bank.json"],
        runner: Runner::Report(trace_report),
    },
    Experiment {
        name: "dash",
        in_all: false,
        files: &[],
        runner: Runner::Report(|sweep| {
            // Clear once, then repaint from the home position each tick.
            print!("\x1b[2J");
            let last = dashboard::run_bank_dashboard(sweep, |_, text| print!("\x1b[H\x1b[J{text}"));
            println!(
                "final: {:.0} tx/s, {:.1}% aborts, {} spans retained",
                last.throughput_tps, last.abort_pct, last.spans
            );
            Ok(Vec::new())
        }),
    },
];

fn telemetry_report(sweep: &Sweep) -> Result<Vec<String>, String> {
    let report = exp::telemetry_bank(sweep);
    println!(
        "\n### Telemetry — Bank deep-dive ({} threads)\n",
        report.threads
    );
    println!(
        "| algorithm | ktps | abort % | p50 ns | p90 ns | p99 ns | attempts p99 | wasted work |"
    );
    println!("|---|---:|---:|---:|---:|---:|---:|---:|");
    for a in &report.algorithms {
        println!(
            "| {} | {:.1} | {:.1} | {} | {} | {} | {} | {:.3} |",
            a.algorithm,
            a.throughput_ktps,
            a.stats.abort_pct(),
            a.commit_latency_ns.p50(),
            a.commit_latency_ns.p90(),
            a.commit_latency_ns.p99(),
            a.attempts_per_commit.p99(),
            a.stats.wasted_work_ratio(),
        );
    }
    Ok(vec![report.to_json().render(), report.series_csv()])
}

fn trace_report(sweep: &Sweep) -> Result<Vec<String>, String> {
    let (threads, json, hot) = trace::record_bank_trace(sweep);
    let summary = trace::validate_chrome_trace(&json, threads)
        .map_err(|e| format!("trace schema validation failed: {e}"))?;
    println!(
        "\n### Flight recorder — skewed Bank, S-NOrec, {threads} threads\n\n\
         {} thread tracks, {} commit spans, {} abort spans \
         ({} attributed to a heap address); load the JSON in Perfetto / chrome://tracing",
        summary.threads, summary.commit_spans, summary.abort_spans, summary.attributed_aborts
    );
    println!("hottest addresses (conflicts in the retained spans):");
    for (addr, n) in hot.iter().take(5) {
        println!("  addr {addr:>8}  {n} conflicts");
    }
    Ok(vec![json])
}

/// Parse the arguments into the sweep and the experiments to run, in
/// table order: `all` selects every row that runs in `all`, a name its
/// row. An unknown name or flag, or no name, is an error carrying the
/// usage line.
pub fn parse(args: &[String]) -> Result<(Sweep, Vec<&'static Experiment>), String> {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let usage = format!("usage: figures [--smoke] all | {}", names.join(" | "));
    let mut smoke = false;
    let mut picked = Vec::new();
    for a in args {
        match a.as_str() {
            "--smoke" => smoke = true,
            name if name == "all" || names.contains(&name) => picked.push(name),
            other => return Err(format!("figures: unknown argument {other:?}\n{usage}")),
        }
    }
    if picked.is_empty() {
        return Err(usage);
    }
    let all = picked.contains(&"all");
    let selected = EXPERIMENTS
        .iter()
        .filter(|e| (all && e.in_all) || picked.contains(&e.name))
        .collect();
    let sweep = Sweep::new(if smoke { Scale::Smoke } else { Scale::Paper });
    Ok((sweep, selected))
}

impl Experiment {
    /// Run it at `sweep`, printing its report, and write its files under
    /// `results/`. An invalid output or a failed write is an error.
    pub fn run(&self, sweep: &Sweep) -> Result<(), String> {
        let bodies = match self.runner {
            Runner::Figure { title, pairs, rows } => {
                let rows = rows(sweep);
                println!("{}", markdown_table(title, &rows));
                for (base, semantic) in pairs {
                    print!("{}", speedup_summary(&rows, base, semantic));
                }
                vec![figure_csv(&rows)]
            }
            Runner::Report(report) => report(sweep)?,
        };
        assert_eq!(
            bodies.len(),
            self.files.len(),
            "{}: one body per file",
            self.name
        );
        for (file, body) in self.files.iter().zip(&bodies) {
            let path = write_results_file(file, body).map_err(|e| format!("{file}: {e}"))?;
            println!("wrote {}", path.display());
        }
        Ok(())
    }
}

/// The `figures` entry point: run the selected experiments and return
/// the process exit code — 2 for a bad command line, 1 if an experiment
/// fails.
pub fn main(args: &[String]) -> i32 {
    let (sweep, selected) = match parse(args) {
        Ok(parsed) => parsed,
        Err(usage) => {
            eprintln!("{usage}");
            return 2;
        }
    };
    println!(
        "# semtm figure harness (scale: {:?}, threads: {:?})",
        sweep.scale, sweep.threads
    );
    for e in selected {
        if let Err(err) = e.run(&sweep) {
            eprintln!("figures: {}: {err}", e.name);
            return 1;
        }
    }
    println!("\ndone.");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn the_table_drives_names_files_and_selection() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let mut files: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.files).copied().collect();
        let (n, f) = (names.len(), files.len());
        names.sort_unstable();
        names.dedup();
        files.sort_unstable();
        files.dedup();
        assert_eq!(
            (names.len(), files.len()),
            (n, f),
            "names and files are unique"
        );

        let (sweep, all) = parse(&args(&["all"])).expect("all parses");
        assert_eq!(sweep.scale, Scale::Paper);
        let ran: Vec<&str> = all.iter().map(|e| e.name).collect();
        let expected: Vec<&str> = EXPERIMENTS
            .iter()
            .map(|e| e.name)
            .filter(|&n| n != "dash")
            .collect();
        assert_eq!(ran, expected, "all runs every row but the dashboard");

        let (sweep, picked) = parse(&args(&["trace", "--smoke", "table3"])).expect("parses");
        assert_eq!(sweep.scale, Scale::Smoke);
        let ran: Vec<&str> = picked.iter().map(|e| e.name).collect();
        assert_eq!(ran, ["table3", "trace"], "table order");

        for bad in [&["bogus"][..], &["--bogus", "all"], &["--smoke"], &[]] {
            let err = parse(&args(bad)).err().expect("rejected");
            for e in EXPERIMENTS {
                assert!(err.contains(e.name), "{bad:?}: usage lists {}", e.name);
            }
        }
    }
}
