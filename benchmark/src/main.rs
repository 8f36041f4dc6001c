//! The benchmark of the semtm repository: five workloads on three engine
//! cells, measured from outside the library. See `benchmark/README.md`.
//!
//! `semtm-benchmark --workload W --seed N --seconds S --trace 0|1`
//! prints, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; a fuller report
//! goes to standard error and to `<out>/report-<workload>[-trace].json`.

mod cells;
mod estimator;
mod hist;
mod ladder;
mod meter;
mod metrics;
mod probe;
mod runner;

use cells::{Cell, Engine, Env, Workload, ENGINES};
use estimator::{estimate, median, Estimate};
use ladder::{Budget, Rungs};
use runner::{CellRun, Plan};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    counts_bin: Option<PathBuf>,
}

const USAGE: &str = "usage: semtm-benchmark --workload <bank-transfer|scan-audit|hashtable-hot|bank-durable|ir-kernels> \
[--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR] [--counts-bin PATH]\n       \
semtm-benchmark --print-benchmark-json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::BankTransfer,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        counts_bin: None,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "--counts-bin" => args.counts_bin = Some(PathBuf::from(value("a path")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.workload = Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?;
    if args.smoke {
        // 12 measured slices, every invariant check still runs.
        args.seconds = if args.trace { 8.0 } else { 3.75 };
    }
    Ok(args)
}

/// Build one cell per engine. `first_slot` numbers the cells' log files,
/// so that a set-up timed while a run's cells are alive does not truncate
/// their logs.
fn build_cells(
    workload: Workload,
    engines: &[Engine],
    first_slot: usize,
    env: &Env<'_>,
) -> Vec<Cell> {
    engines
        .iter()
        .enumerate()
        .map(|(i, e)| Cell::build(workload, *e, first_slot + i, env))
        .collect()
}

/// Wall time of one complete set-up, dropped again: three `Stm`s, the
/// workload's population, and where the workload has them the IR
/// compilation and the log files with their flushers.
fn time_setup(workload: Workload, env: &Env<'_>) -> f64 {
    let t = Instant::now();
    let cells = build_cells(workload, &ENGINES, 16, env);
    let dt = t.elapsed().as_secs_f64();
    drop(cells);
    dt
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One cell after its run: the estimator's view, the library's counters,
/// and whether its invariants held.
struct CellReport {
    name: &'static str,
    est: Estimate,
    run: CellRun,
    check: Result<(), String>,
}

struct Checked {
    reports: Vec<CellReport>,
    spans: Vec<probe::Span>,
    /// One timed set-up per pause between two rounds of slices.
    setups: Vec<f64>,
    /// `VmHWM` when the run ended: the checks that follow (the restart
    /// check reads whole log files) are the benchmark's memory, not the
    /// library's.
    peak_rss_mib: f64,
}

/// Run the plan, then check every cell. A failed invariant fails every
/// operation of its cell.
fn run_and_check(
    workload: Workload,
    cells: Vec<Cell>,
    plan: &Plan,
    seed: u64,
    env: &Env<'_>,
) -> Checked {
    let mut setups = Vec::with_capacity(plan.total() / cells.len());
    let out = runner::run(&cells, plan, seed, env.epoch, &mut || {
        setups.push(time_setup(workload, env))
    });
    let peak_rss_mib = peak_rss_mib();
    let meters: Vec<Arc<meter::MeterState>> = cells
        .iter()
        .filter_map(|c| c.wal.as_ref().map(|w| w.meter.clone()))
        .collect();
    let reports = cells
        .into_iter()
        .zip(out.cells)
        .map(|(cell, run)| {
            let name = cell.engine.cell;
            let mut check = cell.verify(run.aux_total);
            if cell.wal.is_some() {
                check = check.and(cell.restart_check(run.aux_total));
            }
            CellReport {
                name,
                est: estimate(&run.slices),
                run,
                check,
            }
        })
        .collect();
    // The flushers have stopped: their spans join the workers'.
    let mut spans = out.spans;
    for flusher in meters.iter().filter_map(|m| m.spans.as_ref()) {
        spans.extend(flusher.lock().expect("span buffer poisoned").spans.iter());
    }
    Checked {
        reports,
        spans,
        setups,
        peak_rss_mib,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn per_layer_metrics(
    args: &Args,
    env: &Env<'_>,
    reports: &[CellReport],
    notes: &mut Vec<String>,
) -> Result<Rungs, String> {
    let budget = if args.smoke {
        Budget::SMOKE
    } else {
        Budget::FULL
    };
    let mut out = ladder::run_all(&budget, env, args.seed)?;
    let counts_bin = args
        .counts_bin
        .as_deref()
        .ok_or("a traced run needs --counts-bin (benchmark/run.sh passes it)")?;
    let (points, breakdown) = ladder::sched_points(counts_bin)?;
    out.extend(points);
    notes.push(format!("schedule points by kind:\n{breakdown}"));

    // The three wrapped cells; the fourth is the plain twin of the first.
    let (traced, plain) = reports.split_at(ENGINES.len());
    for r in traced {
        let s = &r.run.stats;
        out.push((
            format!("stats.attempts_per_commit.{}", r.name),
            ratio(s.attempts() as f64, s.commits as f64),
        ));
        out.push((format!("stats.abort_pct.{}", r.name), s.abort_pct()));
        out.push((
            format!("stats.wasted_work_ratio.{}", r.name),
            s.wasted_work_ratio(),
        ));
        let sums = &r.run.sums;
        let op = sums.op_ns as f64;
        out.push((
            format!("span.body_share.{}", r.name),
            ratio(sums.body_ns as f64, op),
        ));
        out.push((
            format!("span.commit_share.{}", r.name),
            ratio((sums.op_ns - sums.body_ns - sums.retry_ns) as f64, op),
        ));
        out.push((
            format!("span.retry_share.{}", r.name),
            ratio(sums.retry_ns as f64, op),
        ));
        out.push((format!("lat_p99_us.{}", r.name), r.est.lat_p99_us));
        out.push((
            format!("proc.cpu_us_per_op.{}", r.name),
            ratio(r.run.cpu_ns as f64 / 1e3, r.run.ops as f64),
        ));
    }
    let mix = &traced[0].run.stats;
    for (name, value) in [
        ("reads", mix.reads_per_tx()),
        ("cmps", mix.cmps_per_tx()),
        ("incs", mix.incs_per_tx()),
        ("writes", mix.writes_per_tx()),
        ("promotes", mix.promotes_per_tx()),
    ] {
        out.push((format!("stats.{name}_per_tx"), value));
    }

    let worst = |f: fn(&Estimate) -> f64| reports.iter().map(|r| f(&r.est)).fold(0.0, f64::max);
    out.push(("host.disturbance".into(), worst(|e| e.disturbance)));
    out.push(("host.drift".into(), worst(|e| e.drift)));
    out.push((
        "trace.overhead_pct".into(),
        100.0 * (1.0 - ratio(traced[0].est.tput_ktps, plain[0].est.tput_ktps)),
    ));

    // The wrapped bodies must issue what the library's own bodies issue
    // (a self-test shows it exactly for equal seeds). Two cells draw
    // different inputs, so allow 1 % plus three standard errors of a
    // per-transaction count whose spread is as large as its mean.
    let (a, b) = (&traced[0].run.stats, &plain[0].run.stats);
    let tolerance = 0.01 + 3.0 / (a.commits.min(b.commits).max(1) as f64).sqrt();
    for (what, x, y) in [
        ("reads", a.reads_per_tx(), b.reads_per_tx()),
        ("cmps", a.cmps_per_tx(), b.cmps_per_tx()),
        ("incs", a.incs_per_tx(), b.incs_per_tx()),
        ("writes", a.writes_per_tx(), b.writes_per_tx()),
    ] {
        notes.push(format!("{what}/tx wrapped {x:.4} plain {y:.4}"));
        if (x - y).abs() > tolerance * y.max(1.0) {
            return Err(format!(
                "wrapped cell issues {x:.4} {what}/tx, plain cell {y:.4}"
            ));
        }
    }
    Ok(out)
}

fn write_file(dir: &Path, name: &str, text: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The result line: exactly the metrics `listed`, each measured once.
fn result_line(
    listed: &[metrics::Metric],
    values: &Rungs,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if values.len() != listed.len() {
        return Err(format!(
            "{} metrics measured, {} listed",
            values.len(),
            listed.len()
        ));
    }
    let mut body = Vec::with_capacity(listed.len());
    for m in listed {
        let (_, value) = values
            .iter()
            .find(|(name, _)| *name == m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", m.name));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// The fuller report: how the run was shaped and what each cell did.
fn report_json(
    args: &Args,
    plan: &Plan,
    setups: usize,
    setup_s: f64,
    reports: &[CellReport],
    result: &str,
) -> String {
    let flush = if args.workload == Workload::BankDurable {
        cells::FLUSH_POLICY
    } else {
        "no log"
    };
    let cells: Vec<String> = reports
        .iter()
        .map(|r| {
            let slices: Vec<String> = r.run.slices.iter().map(|s| format!("{:.3}", s.ktps())).collect();
            format!(
                "  {{\"cell\": \"{}\", \"check\": \"{}\", \"ops_measured\": {}, \"ops_total\": {}, \"failed\": {}, \
                 \"tput_ktps\": {}, \"lat_p50_us\": {}, \"lat_p99_us\": {}, \"lat_samples\": {}, \
                 \"disturbance\": {}, \"drift\": {}, \"commits\": {}, \"abort_pct\": {}, \"slice_ktps\": [{}]}}",
                r.name,
                if r.check.is_ok() { "ok" } else { "FAILED" },
                r.run.ops,
                r.run.ops_total,
                r.run.failed,
                r.est.tput_ktps,
                r.est.lat_p50_us,
                r.est.lat_p99_us,
                r.est.lat_samples,
                r.est.disturbance,
                r.est.drift,
                r.run.stats.commits,
                r.run.stats.abort_pct(),
                slices.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {},\n \
         \"workers\": {}, \"available_parallelism\": {}, \"warmup_slices\": {}, \"measured_slices\": {}, \"slice_ms\": {},\n \
         \"flush_policy\": \"{flush}\", \"setups_timed\": {}, \"setup_s\": {setup_s},\n \
         \"cells\": [\n{}\n ],\n \"result\": {result}\n}}\n",
        args.workload.name(),
        args.seed,
        args.trace,
        plan.workers,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        plan.warmup,
        plan.measured,
        plan.slice.as_millis(),
        setups,
        cells.join(",\n")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let env = Env {
        out_dir: &args.out_dir,
        epoch: Instant::now(),
        traced: args.trace,
    };
    let workers = runner::workers();

    // A traced run measures the three cells with the wrappers on and a
    // plain twin of the first, in half the time: the ladder needs the rest.
    let mut engines = ENGINES.to_vec();
    let plan = if args.trace {
        engines.push(Engine {
            cell: "snorec-plain",
            ..ENGINES[0]
        });
        Plan {
            cpu_time: true,
            ..Plan::for_seconds(args.seconds / 2.0, engines.len(), workers)
        }
    } else {
        Plan::for_seconds(args.seconds, engines.len(), workers)
    };
    let mut cells = build_cells(args.workload, &engines, 0, &env);
    if args.trace {
        for cell in &mut cells[..ENGINES.len()] {
            cell.wrapped = true;
        }
    }
    let Checked {
        reports,
        spans,
        setups,
        peak_rss_mib,
    } = run_and_check(args.workload, cells, &plan, args.seed, &env);
    let setup_s = median(&setups);

    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for r in &reports {
        attempted += r.run.ops_total;
        failed += match &r.check {
            Ok(()) => r.run.failed,
            Err(e) => {
                notes.push(format!("FAILED check on {}: {e}", r.name));
                r.run.ops_total
            }
        };
    }
    let correct = failed == 0;

    let (listed, values) = if args.trace {
        let values = per_layer_metrics(args, &env, &reports, &mut notes)?;
        (metrics::per_layer(), values)
    } else {
        let mut v = Rungs::new();
        for r in &reports {
            v.push((format!("tput_ktps.{}", r.name), r.est.tput_ktps));
            v.push((format!("lat_p50_us.{}", r.name), r.est.lat_p50_us));
        }
        v.push(("setup_s".into(), setup_s));
        v.push(("peak_rss_mb".into(), peak_rss_mib));
        (metrics::end_to_end(), v)
    };
    let result = result_line(&listed, &values, correct, attempted, failed)?;

    let name = args.workload.name();
    let report = report_json(args, &plan, setups.len(), setup_s, &reports, &result);
    let suffix = if args.trace { "-trace" } else { "" };
    write_file(
        &args.out_dir,
        &format!("report-{name}{suffix}.json"),
        &report,
    )?;
    eprint!("{report}");
    if args.trace {
        let cells: Vec<&str> = reports.iter().map(|r| r.name).collect();
        let file = format!("trace-{name}.json");
        write_file(&args.out_dir, &file, &probe::chrome_trace(&cells, &spans))?;
        eprintln!("{} spans in {}/{file}", spans.len(), args.out_dir.display());
    }
    for note in &notes {
        eprintln!("{note}");
    }
    println!("{result}");
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-benchmark-json"] {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
