//! Figure-1 experiments: the RSTM-style (hand-annotated API) evaluation
//! of §7.1 — micro-benchmarks and STAMP applications under NOrec,
//! S-NOrec, TL2 and S-TL2.

use crate::report::{AlgorithmTelemetry, FigureRow, Metric, OverheadRow, TelemetryReport};
use semtm_core::{AdaptPolicy, Algorithm, Stm, StmConfig, SwitchReport, TelemetryLevel};
use semtm_workloads::driver::{run_for_duration, RunResult};
use semtm_workloads::stamp::{kmeans, labyrinth, vacation, yada};
use semtm_workloads::{bank, hashtable, lru, scan};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Experiment scale.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny runs for `figures -- --smoke` / CI.
    Smoke,
    /// The scale used for EXPERIMENTS.md numbers.
    Paper,
}

/// Sweep parameters shared by every figure.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Thread counts to sweep (the paper's x-axis).
    pub threads: Vec<usize>,
    /// Interval per duration-based (throughput) measurement.
    pub duration: Duration,
    /// Scale selector for fixed-work sizes.
    pub scale: Scale,
    /// Base RNG seed.
    pub seed: u64,
}

impl Sweep {
    /// The scale's default sweep. The paper sweeps 2–24 threads on a
    /// 24-core machine; on small hosts the interesting signal (semantic
    /// abort avoidance) already shows at low counts, so default to
    /// 1–8 threads.
    pub fn new(scale: Scale) -> Sweep {
        match scale {
            Scale::Smoke => Sweep {
                threads: vec![1, 2, 4],
                duration: Duration::from_millis(80),
                scale,
                seed: 42,
            },
            Scale::Paper => Sweep {
                threads: vec![1, 2, 4, 8],
                duration: Duration::from_millis(400),
                scale,
                seed: 42,
            },
        }
    }

    pub(crate) fn pick<T>(&self, smoke: T, paper: T) -> T {
        match self.scale {
            Scale::Smoke => smoke,
            Scale::Paper => paper,
        }
    }

    /// One row per entry of `series` (legend label, what `run` needs) at
    /// each thread count, the row measured from `run(entry, threads)`.
    pub(crate) fn rows<S>(
        &self,
        figure: &'static str,
        benchmark: &'static str,
        metric: Metric,
        series: impl IntoIterator<Item = (&'static str, S)>,
        run: impl Fn(&S, usize) -> RunResult,
    ) -> Vec<FigureRow> {
        let mut rows = Vec::new();
        for (label, entry) in series {
            for &t in &self.threads {
                let r = run(&entry, t);
                rows.push(FigureRow::measured(figure, benchmark, label, metric, &r));
            }
        }
        rows
    }

    /// A smoke-scale sweep at one thread count, for unit tests.
    #[cfg(test)]
    pub(crate) fn tiny() -> Sweep {
        Sweep {
            threads: vec![2],
            duration: Duration::from_millis(30),
            scale: Scale::Smoke,
            seed: 1,
        }
    }
}

/// The Figure-1 sweep: `run(stm, threads)` on a fresh `heap_words`
/// runtime for every algorithm at every thread count of `sweep`.
fn alg_sweep(
    sweep: &Sweep,
    figure: &'static str,
    benchmark: &'static str,
    heap_words: usize,
    metric: Metric,
    run: impl Fn(&Stm, usize) -> RunResult,
) -> Vec<FigureRow> {
    let algorithms = Algorithm::ALL.map(|alg| (alg.name(), alg));
    sweep.rows(figure, benchmark, metric, algorithms, |&alg, t| {
        let config = StmConfig::new(alg)
            .heap_words(heap_words)
            .orec_count(1 << 14);
        run(&Stm::new(config), t)
    })
}

/// Figures 1a/1b: Hashtable throughput and abort rate.
pub fn fig1_hashtable(sweep: &Sweep) -> Vec<FigureRow> {
    let cfg = hashtable::HashtableConfig {
        capacity: sweep.pick(1 << 9, 1 << 12),
        ..hashtable::HashtableConfig::default()
    };
    alg_sweep(
        sweep,
        "1a/1b",
        "hashtable",
        1 << 16,
        Metric::Throughput,
        |stm, t| hashtable::run(stm, cfg, t, sweep.duration, sweep.seed),
    )
}

/// Figures 1c/1d: Bank throughput and abort rate.
pub fn fig1_bank(sweep: &Sweep) -> Vec<FigureRow> {
    let cfg = bank::BankConfig {
        accounts: sweep.pick(32, 64),
        ..bank::BankConfig::default()
    };
    alg_sweep(
        sweep,
        "1c/1d",
        "bank",
        1 << 12,
        Metric::Throughput,
        |stm, t| bank::run(stm, cfg, t, sweep.duration, sweep.seed),
    )
}

/// Figures 1e/1f: LRU-cache throughput and abort rate.
pub fn fig1_lru(sweep: &Sweep) -> Vec<FigureRow> {
    let cfg = lru::LruConfig {
        lines: sweep.pick(64, 256),
        ..lru::LruConfig::default()
    };
    alg_sweep(
        sweep,
        "1e/1f",
        "lru",
        1 << 16,
        Metric::Throughput,
        |stm, t| lru::run(stm, cfg, t, sweep.duration, sweep.seed),
    )
}

/// Figures 1g/1h: Kmeans execution time and abort rate.
pub fn fig1_kmeans(sweep: &Sweep) -> Vec<FigureRow> {
    let cfg = kmeans::KmeansConfig {
        points: sweep.pick(512, 2048),
        features: 16,
        clusters: 8,
        max_iterations: sweep.pick(3, 8),
        ..kmeans::KmeansConfig::default()
    };
    alg_sweep(sweep, "1g/1h", "kmeans", 1 << 14, Metric::Time, |stm, t| {
        kmeans::run(stm, cfg, t, sweep.seed)
    })
}

/// Figures 1i/1j: Vacation execution time and abort rate.
pub fn fig1_vacation(sweep: &Sweep) -> Vec<FigureRow> {
    let cfg = vacation::VacationConfig {
        relations: sweep.pick(64, 256),
        ..vacation::VacationConfig::default()
    };
    let sessions = sweep.pick(400, 4000);
    alg_sweep(
        sweep,
        "1i/1j",
        "vacation",
        1 << 22,
        Metric::Time,
        |stm, t| vacation::run(stm, cfg, t, sessions, sweep.seed),
    )
}

/// Figures 1k/1l ("Labyrinth 1") or 1m/1n ("Labyrinth 2").
pub fn fig1_labyrinth(sweep: &Sweep, variant: labyrinth::Variant) -> Vec<FigureRow> {
    let cfg = labyrinth::LabyrinthConfig {
        x: sweep.pick(16, 32),
        y: sweep.pick(16, 32),
        z: 3,
        pairs: sweep.pick(16, 48),
        wall_pct: 10,
        variant,
    };
    let (figure, benchmark) = match variant {
        labyrinth::Variant::CopyInsideTx => ("1k/1l", "labyrinth1"),
        labyrinth::Variant::CopyOutsideTx => ("1m/1n", "labyrinth2"),
    };
    alg_sweep(sweep, figure, benchmark, 1 << 14, Metric::Time, |stm, t| {
        labyrinth::run(stm, cfg, t, sweep.seed)
    })
}

/// Figures 1o/1p: Yada execution time and abort rate.
pub fn fig1_yada(sweep: &Sweep) -> Vec<FigureRow> {
    let cfg = yada::YadaConfig {
        elements: sweep.pick(128, 512),
        ..yada::YadaConfig::default()
    };
    alg_sweep(sweep, "1o/1p", "yada", 1 << 22, Metric::Time, |stm, t| {
        yada::run(stm, cfg, t, sweep.seed)
    })
}

/// Supplementary experiment C1: a deliberately *hot* hashtable (tiny
/// table, long probe chains, many threads) to recover the paper's
/// high-contention regime on small hosts, where the recorded Figure-1
/// sweeps sit at low absolute abort rates. This is where the semantic
/// abort avoidance is meant to shine.
pub fn contention_sweep(sweep: &Sweep) -> Vec<FigureRow> {
    // On a timesliced host, a transaction only conflicts if a commit
    // lands *during* it — so contention scales with transaction length,
    // not with table smallness. 90% occupancy makes probe chains (and
    // hence transactions) very long.
    let cfg = hashtable::HashtableConfig {
        capacity: 1 << 10,
        fill_pct: 45,
        tombstone_pct: 45,
        ops_per_tx: 10,
        get_pct: 60, // heavy mutation
        key_space: 1 << 12,
        padded: false,
    };
    alg_sweep(
        sweep,
        "C1",
        "hashtable-hot",
        1 << 14,
        Metric::Throughput,
        |stm, t| hashtable::run(stm, cfg, t * 2, sweep.duration, sweep.seed),
    )
}

/// Ablation A5: memory layout × commit clock on S-NOrec, over Bank and
/// Hashtable — the four cells {global, 16-shard clock} × {flat
/// contiguous arrays, line-striped padded arrays}.
///
/// The headline cell is sharded+padded: striping puts each account/cell
/// on its own cache line and therefore its own clock shard, so a
/// committing writer bumps only the shards it wrote and concurrent
/// readers revalidate only the read-set entries on shards that moved,
/// instead of the whole read-set on every tick of one global sequence
/// lock. sharded+flat is the control showing that the clock alone can't
/// help while a contiguous layout collapses all traffic into shard 0;
/// global+padded isolates the layout's cache effect.
///
/// The two benchmarks sit on opposite sides of the trade: the hashtable
/// runs the contention_sweep regime (90% occupancy ⇒ long probe chains
/// ⇒ large compare-sets, heavy mutation ⇒ a busy clock), where the
/// sharded clock's partial revalidation wins; Bank's transactions write
/// ~20 scattered accounts but compare only ~10, so the per-shard
/// acquisition cost has almost no validation savings to pay for it —
/// the CSV records that cost honestly.
pub fn ablation_layout_clock(sweep: &Sweep) -> Vec<FigureRow> {
    const SHARDS: usize = 16;
    const LINE_WORDS: usize = semtm_core::heap::LINE_WORDS;
    let variants: [(&str, usize, bool); 4] = [
        ("global+flat", 1, false),
        ("global+padded", 1, true),
        ("sharded+flat", SHARDS, false),
        ("sharded+padded", SHARDS, true),
    ];
    let bank_cfg = bank::BankConfig {
        accounts: sweep.pick(32, 64),
        ..bank::BankConfig::default()
    };
    let ht_cap = sweep.pick(1 << 9, 1 << 10);
    let ht_cfg = hashtable::HashtableConfig {
        capacity: ht_cap,
        fill_pct: 45,
        tombstone_pct: 45,
        get_pct: 60,
        key_space: (ht_cap as u64) * 4,
        ..hashtable::HashtableConfig::default()
    };
    let mut rows = Vec::new();
    for (label, shards, padded) in variants {
        let algorithm = format!("S-NOrec/{label}");
        let stm_with = |heap_words: usize| {
            Stm::new(
                StmConfig::new(Algorithm::SNOrec)
                    .heap_words(heap_words)
                    .orec_count(1 << 14)
                    .clock_shards(shards),
            )
        };
        for &t in &sweep.threads {
            let stm = stm_with(bank_cfg.accounts * LINE_WORDS + 4 * LINE_WORDS);
            let cfg = bank::BankConfig { padded, ..bank_cfg };
            let r = bank::run(&stm, cfg, t, sweep.duration, sweep.seed);
            rows.push(FigureRow::measured(
                "A5",
                "bank",
                &algorithm,
                Metric::Throughput,
                &r,
            ));
        }
        for &t in &sweep.threads {
            // Striping costs LINE_WORDS× per array; size the heap for
            // the padded cells so all four share one capacity.
            let stm = stm_with(ht_cap * LINE_WORDS * 2 + 4 * LINE_WORDS);
            let cfg = hashtable::HashtableConfig { padded, ..ht_cfg };
            let r = hashtable::run(&stm, cfg, t, sweep.duration, sweep.seed);
            rows.push(FigureRow::measured(
                "A5",
                "hashtable",
                &algorithm,
                Metric::Throughput,
                &r,
            ));
        }
    }
    rows
}

/// Ablation A6 (DESIGN.md §9): what durability costs. Bank throughput
/// under three configurations of the same engine — no WAL at all,
/// WAL with a synchronous fsync per commit, and WAL with the
/// group-commit flusher — plus recovery-throughput rows measuring how
/// fast `replay` rebuilds a heap from the group-commit run's log.
///
/// The log lives in a real temp file (`FileStorage`), so the sync
/// variant pays genuine per-commit fsync latency and the group variant
/// shows what batch amortization buys back.
pub fn ablation_durability(sweep: &Sweep) -> Vec<FigureRow> {
    use semtm_core::wal::{read_records, replay, DurabilityMode, FileStorage};

    let bank_cfg = bank::BankConfig {
        accounts: sweep.pick(32, 64),
        ..bank::BankConfig::default()
    };
    let heap_words = bank_cfg.accounts + 4 * semtm_core::heap::LINE_WORDS;
    let base_cfg = || {
        StmConfig::new(Algorithm::SNOrec)
            .heap_words(heap_words)
            .orec_count(1 << 14)
    };
    let variants: [(&str, Option<DurabilityMode>); 3] = [
        ("no-wal", None),
        ("wal-sync", Some(DurabilityMode::Sync)),
        ("wal-group", Some(DurabilityMode::Group)),
    ];

    let mut rows = Vec::new();
    let mut group_log: Option<Vec<u8>> = None;
    for (label, mode) in variants {
        for &t in &sweep.threads {
            let path = std::env::temp_dir().join(format!(
                "semtm_ablation_durability_{}_{label}_{t}.wal",
                std::process::id()
            ));
            let stm = match mode {
                None => Stm::new(base_cfg()),
                Some(m) => {
                    let storage = FileStorage::create(&path).expect("create WAL temp file");
                    Stm::with_wal(base_cfg().durability(m), Box::new(storage))
                }
            };
            let r = bank::run(&stm, bank_cfg, t, sweep.duration, sweep.seed);
            // Keep the largest group-commit log for the recovery rows.
            if mode == Some(DurabilityMode::Group) && t == *sweep.threads.last().unwrap() {
                drop(stm); // join the flusher; final batch lands
                group_log = std::fs::read(&path).ok();
            }
            if mode.is_some() {
                let _ = std::fs::remove_file(&path);
            }
            let algorithm = format!("S-NOrec/{label}");
            rows.push(FigureRow::measured(
                "A6",
                "bank",
                algorithm,
                Metric::Throughput,
                &r,
            ));
        }
    }

    // Recovery throughput: replay the group-commit run's full log into a
    // fresh heap and report records/s and MB/s.
    let bytes = group_log.expect("group-commit run produced a log");
    let (records, _, _) = read_records(&bytes);
    let heap = semtm_core::Heap::new(heap_words);
    let start = std::time::Instant::now();
    let report = replay(&bytes, &heap);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    for (metric, value) in [
        ("replay_krecs_per_s", report.records as f64 / secs / 1e3),
        ("replay_mb_per_s", bytes.len() as f64 / secs / 1e6),
    ] {
        rows.push(FigureRow {
            figure: "A6",
            benchmark: "bank",
            algorithm: "S-NOrec/recovery".to_string(),
            threads: 1,
            metric,
            value,
            abort_pct: 0.0,
            commits: records.len() as u64,
            aborts: 0,
        });
    }
    rows
}

/// Run `body` while a ticker thread calls [`Stm::adapt_tick`] every
/// `every` — the control loop an embedding application runs — and
/// return its result with the switches the ticks made. A panic in
/// `body` stops the ticker before it unwinds, so the scope can join.
fn with_adapt_ticker<R>(
    stm: &Stm,
    every: Duration,
    body: impl FnOnce() -> R,
) -> (R, Vec<SwitchReport>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let ticker = s.spawn(|| {
            let mut reports = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                reports.extend(stm.adapt_tick());
                std::thread::sleep(every);
            }
            reports
        });
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        stop.store(true, Ordering::Relaxed);
        let reports = ticker.join().expect("ticker thread panicked");
        (
            out.unwrap_or_else(|p| std::panic::resume_unwind(p)),
            reports,
        )
    })
}

/// The A7 ticker cadence and controller tuning: sampled fast enough to
/// react within a few percent of a phase, with two ticks of dwell so a
/// single noisy window can't thrash the engine.
fn a7_policy(sweep: &Sweep) -> AdaptPolicy {
    AdaptPolicy {
        // Low enough that even the hot hashtable phase (a few thousand
        // commits per second) yields a decidable window per tick.
        min_commits: sweep.pick(8, 16),
        dwell_ticks: 2,
    }
}

/// Ablation A7 (DESIGN.md §10): telemetry-driven adaptive engine
/// switching under a phase-shifting workload. One process runs three
/// back-to-back phases on the *same* transactional heap —
///
/// 1. **Bank** — small read/compare-sets, ~20-entry write-sets: the
///    global-clock S-NOrec regime (A5 showed the sharded clock's
///    commit tax has nothing to amortise against here);
/// 2. **hot Hashtable** — the contention_sweep regime (90% occupancy,
///    long probe chains, heavy mutation): large compare-sets and a busy
///    clock, where partial revalidation or per-orec validation wins;
/// 3. **Scan** — 64-cell read windows with a 1–2 word write-set: a
///    global clock forces whole-window revalidation on every commit,
///    the sharded clock localises it to the shards that moved.
///
/// Each fixed engine (global S-NOrec, sharded S-NOrec, S-TL2) runs the
/// gauntlet pinned; the `adaptive` runtime starts wherever
/// [`semtm_core::Mode::initial`] puts it and lets [`Stm::adapt_tick`] —
/// driven by a
/// harness ticker thread, exactly as an embedding application would —
/// re-pick the engine from live telemetry as the phases shift. Rows
/// report per-phase and whole-gauntlet throughput, plus the adaptive
/// run's switch count and mean hot-swap latency.
pub fn ablation_adaptive(sweep: &Sweep) -> Vec<FigureRow> {
    const SHARDS: usize = 16;
    let threads = sweep.threads.iter().copied().max().unwrap_or(1);
    let tick = sweep.pick(Duration::from_millis(2), Duration::from_millis(8));
    let bank_cfg = bank::BankConfig {
        accounts: sweep.pick(32, 64),
        padded: true,
        ..bank::BankConfig::default()
    };
    let ht_cap = sweep.pick(1 << 9, 1 << 10);
    let ht_cfg = hashtable::HashtableConfig {
        capacity: ht_cap,
        fill_pct: 45,
        tombstone_pct: 45,
        ops_per_tx: 10,
        get_pct: 60,
        key_space: (ht_cap as u64) * 4,
        padded: true,
    };
    let scan_cfg = scan::ScanConfig {
        cells: sweep.pick(128, 256),
        reads_per_tx: sweep.pick(32, 64),
        padded: true,
        ..scan::ScanConfig::default()
    };

    let engines: [(&str, usize, Option<AdaptPolicy>); 4] = [
        ("S-NOrec", 1, None),
        ("S-NOrec/sharded", SHARDS, None),
        ("S-TL2", 1, None),
        ("adaptive", SHARDS, Some(a7_policy(sweep))),
    ];

    let mut rows = Vec::new();
    for (label, shards, policy) in engines {
        let alg = if label == "S-TL2" {
            Algorithm::STl2
        } else {
            Algorithm::SNOrec
        };
        let mut cfg = StmConfig::new(alg)
            .heap_words(1 << 16)
            .orec_count(1 << 14)
            .clock_shards(shards);
        if let Some(p) = policy {
            cfg = cfg.adaptive(p);
        }
        let stm = Stm::new(cfg);
        let bank_state = bank::Bank::new(&stm, bank_cfg);
        let table = hashtable::Hashtable::new(&stm, ht_cfg);
        let scan_state = scan::Scan::new(&stm, scan_cfg);
        let incs = AtomicU64::new(0);
        let (d, seed) = (sweep.duration, sweep.seed);
        let gauntlet = || {
            let stm = &stm;
            [
                (
                    "bank",
                    run_for_duration(stm, threads, d, seed, |_tid, rng| {
                        bank_state.transfer_tx(stm, rng);
                    }),
                ),
                (
                    "hashtable-hot",
                    run_for_duration(stm, threads, d, seed, |_tid, rng| {
                        table.workload_tx(stm, rng);
                    }),
                ),
                (
                    "scan",
                    run_for_duration(stm, threads, d, seed, |_tid, rng| {
                        incs.fetch_add(scan_state.scan_tx(stm, rng), Ordering::Relaxed);
                    }),
                ),
            ]
        };
        let (phases, switch_reports) = match policy {
            Some(_) => with_adapt_ticker(&stm, tick, gauntlet),
            None => (gauntlet(), Vec::new()),
        };
        // Every phase's invariants must hold across however many
        // hot-swaps happened mid-run.
        bank_state.verify(&stm).expect("bank invariants violated");
        table.verify(&stm).expect("hashtable integrity violated");
        scan_state
            .verify(&stm, incs.load(Ordering::Relaxed))
            .expect("scan invariants violated");

        let mut total_ops = 0u64;
        let mut total_secs = 0.0f64;
        let mut commits = 0u64;
        let mut aborts = 0u64;
        for (phase, r) in &phases {
            total_ops += r.total_ops;
            total_secs += r.elapsed.as_secs_f64();
            commits += r.stats.commits;
            aborts += r.stats.conflict_aborts();
            rows.push(FigureRow::measured(
                "A7",
                phase,
                label,
                Metric::Throughput,
                r,
            ));
        }
        rows.push(FigureRow {
            figure: "A7",
            benchmark: "full",
            algorithm: label.to_string(),
            threads,
            metric: "throughput_ktps",
            value: total_ops as f64 / total_secs.max(1e-9) / 1000.0,
            // `StatsSnapshot::abort_pct` over the three phases:
            // conflicts / (commits + conflicts), as every other row.
            abort_pct: 100.0 * aborts as f64 / (commits + aborts).max(1) as f64,
            commits,
            aborts,
        });
        if policy.is_some() {
            let mean_us = if switch_reports.is_empty() {
                0.0
            } else {
                switch_reports
                    .iter()
                    .map(|r| r.elapsed.as_secs_f64() * 1e6)
                    .sum::<f64>()
                    / switch_reports.len() as f64
            };
            for (metric, value) in [
                ("switches", switch_reports.len() as f64),
                ("switch_mean_us", mean_us),
            ] {
                rows.push(FigureRow {
                    figure: "A7",
                    benchmark: "full",
                    algorithm: label.to_string(),
                    threads,
                    metric,
                    value,
                    abort_pct: 0.0,
                    commits: stm.switch_count(),
                    aborts: 0,
                });
            }
        }
    }
    rows
}

/// Telemetry deep-dive on the Bank workload: one fully-instrumented run
/// per algorithm at the sweep's highest thread count, with the
/// [`TelemetryLevel::Spans`] flight recorder enabled. Produces the JSON
/// report of EXPERIMENTS.md §Telemetry — commit-latency quantiles,
/// attempts-per-commit histogram, abort-reason breakdown, the attributed
/// aborted spans, hot-address ranking, who-aborted-whom edges, a
/// throughput/abort-rate time series, and a Counters-vs-Spans overhead
/// ablation demonstrating that the default level stays zero-cost.
pub fn telemetry_bank(sweep: &Sweep) -> TelemetryReport {
    let cfg = bank::BankConfig {
        accounts: sweep.pick(32, 64),
        ..bank::BankConfig::default()
    };
    let threads = sweep.threads.iter().copied().max().unwrap_or(1);
    // Sample ~20 points across the interval, but never finer than 5 ms.
    let sample_every = (sweep.duration / 20).max(Duration::from_millis(5));
    let mut algorithms = Vec::new();
    for alg in Algorithm::ALL {
        let stm = Stm::new(
            StmConfig::new(alg)
                .heap_words(1 << 12)
                .orec_count(1 << 14)
                .telemetry(TelemetryLevel::Spans)
                .trace_capacity(sweep.pick(64, 256)),
        );
        let (r, series) = bank::run_observed(
            &stm,
            cfg,
            threads,
            sweep.duration,
            sample_every,
            sweep.seed,
            |_, _| {},
        );
        algorithms.push(AlgorithmTelemetry::capture(
            &stm,
            r.throughput_ktps(),
            r.stats,
            series,
        ));
    }
    // Overhead ablation: the same S-NOrec run at Counters vs Spans. The
    // Counters hot path is required to be untouched by the flight
    // recorder; this pair of rows is the evidence.
    let mut overhead = Vec::new();
    for level in [TelemetryLevel::Counters, TelemetryLevel::Spans] {
        let stm = Stm::new(
            StmConfig::new(Algorithm::SNOrec)
                .heap_words(1 << 12)
                .telemetry(level)
                .trace_capacity(sweep.pick(64, 256)),
        );
        let r = bank::run(&stm, cfg, threads, sweep.duration, sweep.seed);
        overhead.push(OverheadRow {
            level: level.name().to_string(),
            throughput_ktps: r.throughput_ktps(),
            commits: r.stats.commits,
        });
    }
    // Third row: the adaptive controller attached and ticking over a
    // stable workload. On steady Bank the cost model keeps the current
    // engine (no switch ever fires), so any gap against the plain
    // Counters row is the whole price of adaptation-at-idle: a pull-based
    // rates() merge per tick on the ticker thread, nothing on the
    // transaction hot path.
    {
        let stm = Stm::new(
            StmConfig::new(Algorithm::SNOrec)
                .heap_words(1 << 12)
                .telemetry(TelemetryLevel::Counters)
                .adaptive(AdaptPolicy::default()),
        );
        let (r, switches) = with_adapt_ticker(&stm, Duration::from_millis(5), || {
            bank::run(&stm, cfg, threads, sweep.duration, sweep.seed)
        });
        assert_eq!(switches.len(), 0, "steady Bank must not trigger a switch");
        overhead.push(OverheadRow {
            level: "counters+adaptive-idle".to_string(),
            throughput_ktps: r.throughput_ktps(),
            commits: r.stats.commits,
        });
    }
    TelemetryReport {
        benchmark: "bank".to_string(),
        threads,
        duration_secs: sweep.duration.as_secs_f64(),
        algorithms,
        overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_hashtable_produces_all_series() {
        let rows = fig1_hashtable(&Sweep::tiny());
        assert_eq!(rows.len(), 4, "one row per algorithm");
        for alg in Algorithm::ALL {
            assert!(rows.iter().any(|r| r.algorithm == alg.name()));
        }
        assert!(rows.iter().all(|r| r.commits > 0));
    }

    #[test]
    fn fig1_kmeans_reports_time() {
        let rows = fig1_kmeans(&Sweep::tiny());
        assert_eq!(rows[0].metric, "time_s");
        assert!(rows.iter().all(|r| r.value > 0.0));
    }

    #[test]
    fn contention_sweep_reaches_real_abort_rates() {
        let rows = contention_sweep(&Sweep::tiny());
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.commits > 0));
    }

    #[test]
    fn layout_clock_ablation_covers_all_cells() {
        let rows = ablation_layout_clock(&Sweep::tiny());
        // 4 variants × 1 thread count × 2 benchmarks.
        assert_eq!(rows.len(), 8);
        for label in [
            "S-NOrec/global+flat",
            "S-NOrec/global+padded",
            "S-NOrec/sharded+flat",
            "S-NOrec/sharded+padded",
        ] {
            for bench in ["bank", "hashtable"] {
                assert!(
                    rows.iter()
                        .any(|r| r.algorithm == label && r.benchmark == bench && r.commits > 0),
                    "{label}/{bench} missing or empty"
                );
            }
        }
    }

    #[test]
    fn adaptive_ablation_covers_all_engines_and_phases() {
        let rows = ablation_adaptive(&Sweep::tiny());
        for engine in ["S-NOrec", "S-NOrec/sharded", "S-TL2", "adaptive"] {
            for bench in ["bank", "hashtable-hot", "scan", "full"] {
                assert!(
                    rows.iter().any(|r| r.algorithm == engine
                        && r.benchmark == bench
                        && r.metric == "throughput_ktps"
                        && r.commits > 0),
                    "{engine}/{bench} missing or empty"
                );
            }
        }
        // The adaptive run reports its switch telemetry.
        assert!(rows
            .iter()
            .any(|r| r.algorithm == "adaptive" && r.metric == "switches"));
        assert!(rows
            .iter()
            .any(|r| r.algorithm == "adaptive" && r.metric == "switch_mean_us"));
    }

    #[test]
    fn telemetry_bank_report_is_complete_and_consistent() {
        let report = telemetry_bank(&Sweep::tiny());
        assert_eq!(report.benchmark, "bank");
        assert_eq!(report.algorithms.len(), Algorithm::ALL.len());
        for a in &report.algorithms {
            assert!(a.stats.commits > 0, "{}", a.algorithm);
            // Every committed transaction has a latency and an attempts count.
            assert_eq!(
                a.commit_latency_ns.count(),
                a.stats.commits,
                "{}",
                a.algorithm
            );
            assert_eq!(
                a.attempts_per_commit.count(),
                a.stats.commits,
                "{}",
                a.algorithm
            );
            assert_eq!(
                a.attempts_per_commit.sum(),
                a.stats.attempts(),
                "{}: attempts histogram must account for every attempt",
                a.algorithm
            );
            // The time series sums to the run totals.
            let commits: u64 = a.series.iter().map(|p| p.commits).sum();
            assert_eq!(commits, a.stats.commits, "{}", a.algorithm);
            // The rings hold one span per (retained) attempt.
            assert_eq!(
                a.spans_retained + a.spans_evicted,
                a.stats.attempts(),
                "{}",
                a.algorithm
            );
        }
        // The overhead ablation has the Counters/Spans pair plus the
        // adaptive-idle row.
        assert_eq!(report.overhead.len(), 3);
        assert_eq!(report.overhead[0].level, "counters");
        assert_eq!(report.overhead[1].level, "spans");
        assert_eq!(report.overhead[2].level, "counters+adaptive-idle");
        assert!(report.overhead.iter().all(|o| o.commits > 0));
        let json = report.to_json().render();
        assert!(json.contains("\"commit_latency_ns\""));
        assert!(json.contains("\"abort_breakdown\""));
        assert!(json.contains("\"telemetry_overhead\""));
        assert!(json.contains("\"hot_addresses\""));
    }
}
