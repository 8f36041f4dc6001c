//! The figure/table regeneration harness.
//!
//! ```text
//! cargo run --release -p semtm-bench --bin figures -- all
//! cargo run --release -p semtm-bench --bin figures -- fig1-hashtable fig2-vacation
//! cargo run --release -p semtm-bench --bin figures -- --smoke all
//! ```
//!
//! Prints each experiment as a markdown table (paper-style series) and a
//! semantic-vs-base speedup digest, and writes CSVs under `results/`.

use semtm_bench::experiments as exp;
use semtm_bench::report::{markdown_table, speedup_summary, write_csv, write_results_file};
use semtm_bench::{dashboard, fig2, table3, trace, Scale, Sweep};
use semtm_core::Algorithm;
use semtm_workloads::stamp::labyrinth::Variant;
use std::time::Duration;

const EXPERIMENTS: &[&str] = &[
    "table3",
    "fig1-hashtable",
    "fig1-bank",
    "fig1-lru",
    "fig1-kmeans",
    "fig1-vacation",
    "fig1-labyrinth1",
    "fig1-labyrinth2",
    "fig1-yada",
    "fig2-hashtable",
    "fig2-vacation",
    "ablation-layout",
    "ablation-durability",
    "ablation-adaptive",
    "contention",
    "telemetry",
    "trace",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if selected.is_empty() {
        eprintln!(
            "usage: figures [--smoke] all | dash | {}",
            EXPERIMENTS.join(" | ")
        );
        std::process::exit(2);
    }
    let run_all = selected.contains(&"all");
    let scale = if smoke { Scale::Smoke } else { Scale::Paper };
    let sweep = Sweep::new(scale);
    let pick = |name: &str| run_all || selected.contains(&name);

    println!(
        "# semtm figure harness (scale: {scale:?}, threads: {:?})",
        sweep.threads
    );

    if pick("table3") {
        let rows = table3::table3(smoke);
        println!("{}", table3::markdown(&rows));
        match write_results_file("table3.csv", &table3::csv(&rows)) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }

    let emit =
        |name: &str, title: &str, rows: Vec<semtm_bench::FigureRow>, pairs: &[(&str, &str)]| {
            println!("{}", markdown_table(title, &rows));
            for (base, sem) in pairs {
                print!("{}", speedup_summary(&rows, base, sem));
            }
            match write_csv(name, &rows) {
                Ok(p) => println!("wrote {}", p.display()),
                Err(e) => eprintln!("csv write failed: {e}"),
            }
        };

    let stm_pairs: &[(&str, &str)] = &[("NOrec", "S-NOrec"), ("TL2", "S-TL2")];

    if pick("fig1-hashtable") {
        emit(
            "fig1_hashtable",
            "Figures 1a/1b — Hashtable (throughput kTx/s, abort %)",
            exp::fig1_hashtable(&sweep),
            stm_pairs,
        );
    }
    if pick("fig1-bank") {
        emit(
            "fig1_bank",
            "Figures 1c/1d — Bank",
            exp::fig1_bank(&sweep),
            stm_pairs,
        );
    }
    if pick("fig1-lru") {
        emit(
            "fig1_lru",
            "Figures 1e/1f — LRU Cache",
            exp::fig1_lru(&sweep),
            stm_pairs,
        );
    }
    if pick("fig1-kmeans") {
        emit(
            "fig1_kmeans",
            "Figures 1g/1h — Kmeans (execution time s, abort %)",
            exp::fig1_kmeans(&sweep),
            stm_pairs,
        );
    }
    if pick("fig1-vacation") {
        emit(
            "fig1_vacation",
            "Figures 1i/1j — Vacation",
            exp::fig1_vacation(&sweep),
            stm_pairs,
        );
    }
    if pick("fig1-labyrinth1") {
        emit(
            "fig1_labyrinth1",
            "Figures 1k/1l — Labyrinth 1 (copy inside tx)",
            exp::fig1_labyrinth(&sweep, Variant::CopyInsideTx),
            stm_pairs,
        );
    }
    if pick("fig1-labyrinth2") {
        emit(
            "fig1_labyrinth2",
            "Figures 1m/1n — Labyrinth 2 (copy outside tx, Ruan et al.)",
            exp::fig1_labyrinth(&sweep, Variant::CopyOutsideTx),
            stm_pairs,
        );
    }
    if pick("fig1-yada") {
        emit(
            "fig1_yada",
            "Figures 1o/1p — Yada",
            exp::fig1_yada(&sweep),
            stm_pairs,
        );
    }
    let gcc_pairs: &[(&str, &str)] = &[("NOrec", "NOrec Modified-GCC"), ("NOrec", "S-NOrec")];
    if pick("fig2-hashtable") {
        let (cap, dur) = if smoke {
            (7, Duration::from_millis(80))
        } else {
            (10, Duration::from_millis(400))
        };
        emit(
            "fig2_hashtable",
            "Figures 2a/2b — Hashtable via modified-GCC path",
            fig2::fig2_hashtable(&sweep.threads, dur, cap, sweep.seed),
            gcc_pairs,
        );
    }
    if pick("fig2-vacation") {
        let (offers, res) = if smoke { (32, 400) } else { (128, 3000) };
        emit(
            "fig2_vacation",
            "Figures 2c/2d — Vacation kernel via modified-GCC path",
            fig2::fig2_vacation(&sweep.threads, offers, res, sweep.seed),
            gcc_pairs,
        );
    }
    if pick("contention") {
        emit(
            "contention_hashtable",
            "Supplementary C1 — hot hashtable (90% occupancy, 2x threads)",
            exp::contention_sweep(&sweep),
            stm_pairs,
        );
    }
    if pick("ablation-layout") {
        emit(
            "ablation_layout",
            "Ablation A5 — memory layout x commit clock (Bank + Hashtable, S-NOrec)",
            exp::ablation_layout_clock(&sweep),
            &[("S-NOrec/global+flat", "S-NOrec/sharded+padded")],
        );
    }
    if pick("ablation-durability") {
        emit(
            "ablation_durability",
            "Ablation A6 — durability cost: no-wal vs sync vs group commit (Bank, S-NOrec)",
            exp::ablation_durability(&sweep),
            &[("S-NOrec/no-wal", "S-NOrec/wal-group")],
        );
    }
    if pick("ablation-adaptive") {
        emit(
            "ablation_adaptive",
            "Ablation A7 — adaptive engine switching across phase shifts \
             (Bank -> hot Hashtable -> Scan)",
            exp::ablation_adaptive(&sweep),
            &[
                ("S-NOrec", "adaptive"),
                ("S-NOrec/sharded", "adaptive"),
                ("S-TL2", "adaptive"),
            ],
        );
    }
    if pick("telemetry") {
        let report = exp::telemetry_bank(&sweep);
        println!(
            "\n### Telemetry — Bank deep-dive ({} threads)\n",
            report.threads
        );
        println!("| algorithm | ktps | abort % | p50 ns | p90 ns | p99 ns | attempts p99 | wasted work |");
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
        match write_results_file("telemetry_bank.json", &report.to_json().render()) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("json write failed: {e}"),
        }
        match write_results_file("telemetry_bank_series.csv", &report.series_csv()) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("csv write failed: {e}"),
        }
    }
    if pick("trace") {
        let (threads, dur) = if smoke {
            (2, Duration::from_millis(120))
        } else {
            (4, Duration::from_millis(400))
        };
        let (json, hot) = trace::record_bank_trace(Algorithm::SNOrec, threads, dur, sweep.seed);
        match trace::validate_chrome_trace(&json, threads) {
            Ok(summary) => {
                println!(
                    "\n### Flight recorder — skewed Bank, S-NOrec, {threads} threads\n\n\
                     {} thread tracks, {} commit spans, {} abort spans \
                     ({} attributed to a heap address)",
                    summary.threads,
                    summary.commit_spans,
                    summary.abort_spans,
                    summary.attributed_aborts
                );
                println!("hottest addresses (conflicts in the retained spans):");
                for (addr, n) in hot.iter().take(5) {
                    println!("  addr {addr:>8}  {n} conflicts");
                }
            }
            Err(e) => {
                eprintln!("trace schema validation failed: {e}");
                std::process::exit(1);
            }
        }
        match write_results_file("trace_bank.json", &json) {
            Ok(p) => println!(
                "wrote {} (load in Perfetto / chrome://tracing)",
                p.display()
            ),
            Err(e) => eprintln!("trace write failed: {e}"),
        }
    }
    // Interactive: repaints the terminal, so only on explicit request
    // (never part of "all").
    if selected.contains(&"dash") {
        let (threads, dur) = if smoke {
            (2, Duration::from_millis(600))
        } else {
            (4, Duration::from_secs(5))
        };
        let last = dashboard::run_bank_dashboard(
            Algorithm::SNOrec,
            threads,
            dur,
            Duration::from_millis(100),
            sweep.seed,
        );
        println!(
            "final: {:.0} tx/s, {:.1}% aborts, {} spans retained",
            last.throughput_tps, last.abort_pct, last.spans
        );
    }
    println!("\ndone.");
}
