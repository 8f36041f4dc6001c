//! Result rows and markdown/CSV/JSON emission.
//!
//! The JSON layer is hand-rolled: the workspace builds offline with no
//! registry dependencies, so there is no serde. [`Json`] is a tiny value
//! tree with an escaping pretty-printer — enough for the telemetry
//! report schema documented in EXPERIMENTS.md.

use semtm_core::{
    AbortReason, ConflictEdge, HistogramSnapshot, SamplePoint, SpanEvent, StatsSnapshot, Stm,
};
use semtm_workloads::driver::RunResult;

/// A JSON value for the hand-rolled writer.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (most counters).
    UInt(u64),
    /// Floating point; non-finite values serialize as `null`.
    Float(f64),
    /// String (escaped on output).
    Str(String),
    /// Ordered array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// Serialize with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => {
                if v.is_finite() {
                    // `{}` on f64 is the shortest round-trippable form,
                    // but bare integers ("3") are still valid JSON numbers.
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push('"');
                    out.push_str(k);
                    out.push_str("\": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Serialize a histogram snapshot: summary quantiles plus the non-empty
/// buckets as `(lower_bound, count)` pairs.
pub fn histogram_json(h: &HistogramSnapshot) -> Json {
    Json::Object(vec![
        ("count", Json::UInt(h.count())),
        ("sum", Json::UInt(h.sum())),
        ("min", Json::UInt(h.min())),
        ("max", Json::UInt(h.max())),
        ("mean", Json::Float(h.mean())),
        ("p50", Json::UInt(h.p50())),
        ("p90", Json::UInt(h.p90())),
        ("p99", Json::UInt(h.p99())),
        (
            "buckets",
            Json::Array(
                h.nonzero_buckets()
                    .map(|(lower, count)| {
                        Json::Object(vec![
                            ("lower_bound", Json::UInt(lower)),
                            ("count", Json::UInt(count)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn abort_breakdown_json(s: &StatsSnapshot) -> Json {
    Json::Object(
        AbortReason::ALL
            .map(|r| (r.name(), Json::UInt(s.aborts(r))))
            .to_vec(),
    )
}

fn sample_point_json(p: &SamplePoint) -> Json {
    Json::Object(vec![
        ("t_secs", Json::Float(p.t_secs)),
        ("dt_secs", Json::Float(p.dt_secs)),
        ("commits", Json::UInt(p.commits)),
        ("conflict_aborts", Json::UInt(p.conflict_aborts)),
        ("throughput_tps", Json::Float(p.throughput)),
        ("abort_pct", Json::Float(p.abort_pct)),
    ])
}

/// One aborted span as a `trace` entry, stamped with its end (the abort).
fn abort_span_json(e: &SpanEvent) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::UInt);
    let (reason, conflict) = e.abort.expect("the trace holds aborted spans");
    Json::Object(vec![
        ("timestamp_ns", Json::UInt(e.end_ns)),
        ("reason", Json::Str(reason.name().to_string())),
        ("attempt", Json::UInt(e.attempt as u64)),
        ("read_set", Json::UInt(e.read_set as u64)),
        ("compare_set", Json::UInt(e.compare_set as u64)),
        // Conflict attribution; null where the abort site could not name
        // the guilty address / orec / committer.
        ("addr", opt(conflict.addr().map(|a| a.index() as u64))),
        ("orec", opt(conflict.orec().map(u64::from))),
        ("by", opt(conflict.by())),
    ])
}

fn hot_address_json(addr: u64, conflicts: u64) -> Json {
    Json::Object(vec![
        ("addr", Json::UInt(addr)),
        ("conflicts", Json::UInt(conflicts)),
    ])
}

fn conflict_edge_json(e: &ConflictEdge) -> Json {
    Json::Object(vec![
        ("victim", Json::UInt(e.victim)),
        ("by", Json::UInt(e.by)),
        ("count", Json::UInt(e.count)),
    ])
}

/// Per-algorithm telemetry captured by one instrumented run.
#[derive(Clone, Debug)]
pub struct AlgorithmTelemetry {
    /// Algorithm legend name (`NOrec`, `S-NOrec`, ...).
    pub algorithm: String,
    /// Throughput over the measured interval, kTx/s.
    pub throughput_ktps: f64,
    /// Interval statistics delta.
    pub stats: StatsSnapshot,
    /// Commit latency (ns per successful `atomic` call).
    pub commit_latency_ns: HistogramSnapshot,
    /// Attempts needed per committed transaction.
    pub attempts_per_commit: HistogramSnapshot,
    /// Read-set size at commit.
    pub commit_read_set: HistogramSnapshot,
    /// Compare-set size at commit.
    pub commit_compare_set: HistogramSnapshot,
    /// Contention-manager backoff spins per abort.
    pub backoff_spins: HistogramSnapshot,
    /// The aborted spans among the retained ones (`trace_events()`).
    pub trace: Vec<SpanEvent>,
    /// Spans retained in the rings, committed and aborted.
    pub spans_retained: u64,
    /// Spans evicted from the rings.
    pub spans_evicted: u64,
    /// Throughput/abort-rate time series over the interval.
    pub series: Vec<SamplePoint>,
    /// Hottest conflict addresses `(heap index, conflicts)`, ranked
    /// descending (counted over the retained flight-recorder spans;
    /// empty below `Spans`).
    pub hot_addresses: Vec<(u64, u64)>,
    /// Who-aborted-whom conflict summary (empty below `Spans`).
    pub conflict_edges: Vec<ConflictEdge>,
}

impl AlgorithmTelemetry {
    /// What `stm`'s telemetry recorded, under its algorithm's name, with
    /// the measured throughput, interval statistics and time series.
    pub fn capture(
        stm: &Stm,
        throughput_ktps: f64,
        stats: StatsSnapshot,
        series: Vec<SamplePoint>,
    ) -> AlgorithmTelemetry {
        let t = stm.telemetry();
        AlgorithmTelemetry {
            algorithm: stm.algorithm().name().to_string(),
            throughput_ktps,
            stats,
            commit_latency_ns: t.commit_latency_ns(),
            attempts_per_commit: t.attempts_per_commit(),
            commit_read_set: t.commit_read_set(),
            commit_compare_set: t.commit_compare_set(),
            backoff_spins: t.backoff_spins(),
            trace: t.trace_events(),
            spans_retained: t.span_events().len() as u64,
            spans_evicted: t.spans_evicted(),
            series,
            hot_addresses: t
                .hot_addresses()
                .into_iter()
                .map(|(a, n)| (a.index() as u64, n))
                .collect(),
            conflict_edges: t.conflict_edges(),
        }
    }
}

/// One row of the flight-recorder overhead ablation: the same workload
/// run at a given telemetry level.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Telemetry level name (`counters`, `spans`, ...).
    pub level: String,
    /// Throughput at that level, kTx/s.
    pub throughput_ktps: f64,
    /// Commits in the measured interval.
    pub commits: u64,
}

/// A full telemetry report for one workload across algorithms.
#[derive(Clone, Debug)]
pub struct TelemetryReport {
    /// Workload name (e.g. `bank`).
    pub benchmark: String,
    /// Worker threads.
    pub threads: usize,
    /// Measured interval per algorithm, seconds.
    pub duration_secs: f64,
    /// One entry per algorithm.
    pub algorithms: Vec<AlgorithmTelemetry>,
    /// Flight-recorder overhead ablation: the same workload/algorithm at
    /// `Counters` vs `Spans` (empty when the ablation was not run).
    pub overhead: Vec<OverheadRow>,
}

impl TelemetryReport {
    /// Build the JSON tree for this report (schema in EXPERIMENTS.md).
    pub fn to_json(&self) -> Json {
        let algorithms = self
            .algorithms
            .iter()
            .map(|a| {
                let s = &a.stats;
                Json::Object(vec![
                    ("algorithm", Json::Str(a.algorithm.clone())),
                    ("throughput_ktps", Json::Float(a.throughput_ktps)),
                    ("commits", Json::UInt(s.commits)),
                    ("aborts", Json::UInt(s.total_aborts())),
                    ("attempts", Json::UInt(s.attempts())),
                    ("abort_pct", Json::Float(s.abort_pct())),
                    ("abort_breakdown", abort_breakdown_json(s)),
                    ("wasted_work_ratio", Json::Float(s.wasted_work_ratio())),
                    ("commit_latency_ns", histogram_json(&a.commit_latency_ns)),
                    (
                        "attempts_per_commit",
                        histogram_json(&a.attempts_per_commit),
                    ),
                    ("commit_read_set", histogram_json(&a.commit_read_set)),
                    ("commit_compare_set", histogram_json(&a.commit_compare_set)),
                    ("backoff_spins", histogram_json(&a.backoff_spins)),
                    ("spans_retained", Json::UInt(a.spans_retained)),
                    ("spans_evicted", Json::UInt(a.spans_evicted)),
                    (
                        "trace",
                        Json::Array(a.trace.iter().map(abort_span_json).collect()),
                    ),
                    (
                        "hot_addresses",
                        Json::Array(
                            a.hot_addresses
                                .iter()
                                .map(|&(addr, n)| hot_address_json(addr, n))
                                .collect(),
                        ),
                    ),
                    (
                        "conflict_edges",
                        Json::Array(a.conflict_edges.iter().map(conflict_edge_json).collect()),
                    ),
                    (
                        "series",
                        Json::Array(a.series.iter().map(sample_point_json).collect()),
                    ),
                ])
            })
            .collect();
        let overhead = self
            .overhead
            .iter()
            .map(|o| {
                Json::Object(vec![
                    ("level", Json::Str(o.level.clone())),
                    ("throughput_ktps", Json::Float(o.throughput_ktps)),
                    ("commits", Json::UInt(o.commits)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("benchmark", Json::Str(self.benchmark.clone())),
            ("threads", Json::UInt(self.threads as u64)),
            ("duration_secs", Json::Float(self.duration_secs)),
            ("algorithms", Json::Array(algorithms)),
            ("telemetry_overhead", Json::Array(overhead)),
        ])
    }

    /// CSV flattening of the time series: one line per (algorithm, sample).
    pub fn series_csv(&self) -> String {
        let mut out = String::from(
            "benchmark,algorithm,threads,t_secs,dt_secs,commits,conflict_aborts,throughput_tps,abort_pct\n",
        );
        for a in &self.algorithms {
            for p in &a.series {
                out.push_str(&format!(
                    "{},{},{},{:.4},{:.4},{},{},{:.1},{:.2}\n",
                    self.benchmark,
                    a.algorithm,
                    self.threads,
                    p.t_secs,
                    p.dt_secs,
                    p.commits,
                    p.conflict_aborts,
                    p.throughput,
                    p.abort_pct
                ));
            }
        }
        out
    }
}

/// Write `body` to `results/<name>`, creating the directory if needed.
/// Returns the path written.
pub fn write_results_file(name: &str, body: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, body)?;
    Ok(path)
}

/// One data point of one sub-figure series.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Paper figure id, e.g. `"1a/1b"`.
    pub figure: &'static str,
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Algorithm / configuration legend entry.
    pub algorithm: String,
    /// Worker threads.
    pub threads: usize,
    /// Left-column metric name (`throughput_ktps` or `time_s`).
    pub metric: &'static str,
    /// Left-column metric value.
    pub value: f64,
    /// Right-column metric: abort percentage.
    pub abort_pct: f64,
    /// Committed transactions in the interval.
    pub commits: u64,
    /// Conflict aborts in the interval.
    pub aborts: u64,
}

/// The left-column metric of a row measured from one run.
#[derive(Clone, Copy, Debug)]
pub enum Metric {
    /// Throughput, `throughput_ktps` (Figures 1a–1f, 2a).
    Throughput,
    /// Execution time, `time_s` (Figures 1g–1p, 2c).
    Time,
}

impl FigureRow {
    /// The row of one measured run: `metric`'s value, abort rate,
    /// commits and conflict aborts of `r`, at `r`'s thread count.
    pub fn measured(
        figure: &'static str,
        benchmark: &'static str,
        algorithm: impl Into<String>,
        metric: Metric,
        r: &RunResult,
    ) -> FigureRow {
        let (metric, value) = match metric {
            Metric::Throughput => ("throughput_ktps", r.throughput_ktps()),
            Metric::Time => ("time_s", r.elapsed.as_secs_f64()),
        };
        FigureRow {
            figure,
            benchmark,
            algorithm: algorithm.into(),
            threads: r.threads,
            metric,
            value,
            abort_pct: r.abort_pct(),
            commits: r.stats.commits,
            aborts: r.stats.conflict_aborts(),
        }
    }

    /// CSV header matching [`FigureRow::csv`].
    pub const CSV_HEADER: &'static str =
        "figure,benchmark,algorithm,threads,metric,value,abort_pct,commits,aborts";

    /// One CSV line.
    pub fn csv(&self) -> String {
        format!(
            "{},{},{},{},{},{:.4},{:.2},{},{}",
            self.figure,
            self.benchmark,
            self.algorithm,
            self.threads,
            self.metric,
            self.value,
            self.abort_pct,
            self.commits,
            self.aborts
        )
    }
}

/// Render rows as a markdown table grouped like the paper's figures:
/// one line per (algorithm, threads), value + abort columns.
pub fn markdown_table(title: &str, rows: &[FigureRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n### {title}\n\n"));
    if rows.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    // Multi-benchmark row-sets (e.g. the A5 layout ablation) get an
    // extra leading column; single-benchmark tables keep the old shape.
    let multi = rows.iter().any(|r| r.benchmark != rows[0].benchmark);
    if multi {
        out.push_str(&format!(
            "| benchmark | algorithm | threads | {} | abort % | commits | aborts |\n",
            rows[0].metric
        ));
        out.push_str("|---|---|---:|---:|---:|---:|---:|\n");
    } else {
        out.push_str(&format!(
            "| algorithm | threads | {} | abort % | commits | aborts |\n",
            rows[0].metric
        ));
        out.push_str("|---|---:|---:|---:|---:|---:|\n");
    }
    for r in rows {
        if multi {
            out.push_str(&format!("| {} ", r.benchmark));
        }
        out.push_str(&format!(
            "| {} | {} | {:.2} | {:.1} | {} | {} |\n",
            r.algorithm, r.threads, r.value, r.abort_pct, r.commits, r.aborts
        ));
    }
    out
}

/// The CSV body of a figure: the header, then one line per row.
pub fn figure_csv(rows: &[FigureRow]) -> String {
    let mut body = String::from(FigureRow::CSV_HEADER);
    body.push('\n');
    for r in rows {
        body.push_str(&r.csv());
        body.push('\n');
    }
    body
}

/// Summarise the semantic-vs-base ratio per thread count: the "who wins
/// and by how much" digest used in EXPERIMENTS.md.
pub fn speedup_summary(rows: &[FigureRow], base: &str, semantic: &str) -> String {
    let mut out = String::new();
    let higher_is_better = rows.first().map(|r| r.metric) == Some("throughput_ktps");
    // Experiments like the A5 layout ablation interleave several
    // benchmarks in one row-set; pairing must match on benchmark as
    // well as thread count or the digest compares apples to oranges.
    let multi = rows.iter().any(|r| r.benchmark != rows[0].benchmark);
    for r in rows.iter().filter(|r| r.algorithm == semantic) {
        if let Some(b) = rows
            .iter()
            .find(|b| b.algorithm == base && b.threads == r.threads && b.benchmark == r.benchmark)
        {
            if b.value > 0.0 && r.value > 0.0 {
                let ratio = if higher_is_better {
                    r.value / b.value
                } else {
                    b.value / r.value
                };
                let bench = if multi {
                    format!(" [{}]", r.benchmark)
                } else {
                    String::new()
                };
                out.push_str(&format!(
                    "  {semantic} vs {base}{bench} @ {} threads: {ratio:.2}x (aborts {:.1}% -> {:.1}%)\n",
                    r.threads, b.abort_pct, r.abort_pct
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(alg: &str, threads: usize, value: f64, abort: f64) -> FigureRow {
        FigureRow {
            figure: "1a/1b",
            benchmark: "hashtable",
            algorithm: alg.to_string(),
            threads,
            metric: "throughput_ktps",
            value,
            abort_pct: abort,
            commits: 100,
            aborts: 10,
        }
    }

    #[test]
    fn csv_roundtrip_fields() {
        let r = row("NOrec", 4, 12.5, 3.0);
        let line = r.csv();
        assert!(line.starts_with("1a/1b,hashtable,NOrec,4,throughput_ktps,12.5"));
        assert_eq!(
            FigureRow::CSV_HEADER.split(',').count(),
            line.split(',').count()
        );
    }

    #[test]
    fn markdown_contains_all_rows() {
        let rows = vec![row("NOrec", 2, 10.0, 5.0), row("S-NOrec", 2, 20.0, 1.0)];
        let md = markdown_table("Fig 1a", &rows);
        assert!(md.contains("Fig 1a"));
        assert!(md.contains("| NOrec | 2 |"));
        assert!(md.contains("| S-NOrec | 2 |"));
    }

    #[test]
    fn speedup_summary_computes_ratio() {
        let rows = vec![row("NOrec", 2, 10.0, 50.0), row("S-NOrec", 2, 25.0, 5.0)];
        let s = speedup_summary(&rows, "NOrec", "S-NOrec");
        assert!(s.contains("2.50x"), "{s}");
    }

    #[test]
    fn speedup_summary_pairs_within_benchmark() {
        let mut bank_base = row("NOrec", 2, 100.0, 0.0);
        let mut bank_sem = row("S-NOrec", 2, 50.0, 0.0);
        bank_base.benchmark = "bank";
        bank_sem.benchmark = "bank";
        let rows = vec![
            bank_base,
            bank_sem,
            row("NOrec", 2, 10.0, 50.0),
            row("S-NOrec", 2, 25.0, 5.0),
        ];
        let s = speedup_summary(&rows, "NOrec", "S-NOrec");
        assert!(s.contains("[bank] @ 2 threads: 0.50x"), "{s}");
        assert!(s.contains("[hashtable] @ 2 threads: 2.50x"), "{s}");
    }

    #[test]
    fn json_writer_escapes_and_nests() {
        let v = Json::Object(vec![
            (
                "name",
                Json::Str("quote \" backslash \\ tab \t".to_string()),
            ),
            ("n", Json::UInt(42)),
            ("x", Json::Float(1.5)),
            ("inf", Json::Float(f64::INFINITY)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("arr", Json::Array(vec![Json::UInt(1), Json::UInt(2)])),
            ("empty", Json::Array(vec![])),
        ]);
        let s = v.render();
        assert!(s.contains("\\\""), "{s}");
        assert!(s.contains("\\\\"), "{s}");
        assert!(s.contains("\\t"), "{s}");
        assert!(s.contains("\"n\": 42"), "{s}");
        assert!(s.contains("\"x\": 1.5"), "{s}");
        assert!(
            s.contains("\"inf\": null"),
            "non-finite floats become null: {s}"
        );
        assert!(s.contains("\"empty\": []"), "{s}");
        assert!(s.ends_with('\n'));
        // Balanced braces/brackets (crude structural check).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn telemetry_report_json_has_required_sections() {
        use semtm_core::{Algorithm, StmConfig, TelemetryLevel};
        let stm = Stm::new(
            StmConfig::new(Algorithm::STl2)
                .heap_words(1 << 8)
                .telemetry(TelemetryLevel::Trace),
        );
        let a = stm.alloc_cell(0i64);
        for _ in 0..32 {
            stm.atomic(|tx| tx.inc(a, 1));
        }
        let report = TelemetryReport {
            benchmark: "bank".to_string(),
            threads: 1,
            duration_secs: 0.1,
            algorithms: vec![AlgorithmTelemetry {
                hot_addresses: vec![(17, 5)],
                conflict_edges: vec![ConflictEdge {
                    victim: 2,
                    by: 3,
                    count: 4,
                }],
                ..AlgorithmTelemetry::capture(&stm, 320.0, stm.stats(), vec![])
            }],
            overhead: vec![OverheadRow {
                level: "spans".to_string(),
                throughput_ktps: 310.0,
                commits: 32,
            }],
        };
        let s = report.to_json().render();
        for key in [
            "\"benchmark\": \"bank\"",
            "\"commit_latency_ns\"",
            "\"attempts_per_commit\"",
            "\"abort_breakdown\"",
            "\"wasted_work_ratio\"",
            "\"min\"",
            "\"p50\"",
            "\"p90\"",
            "\"p99\"",
            "\"series\"",
            "\"trace\"",
            "\"hot_addresses\"",
            "\"conflict_edges\"",
            "\"telemetry_overhead\"",
            "\"level\": \"spans\"",
        ] {
            assert!(s.contains(key), "missing {key} in:\n{s}");
        }
        // 32 single-threaded commits must all appear in the latency histogram.
        assert!(s.contains("\"commits\": 32"), "{s}");
        let csv = report.series_csv();
        assert!(csv.starts_with("benchmark,algorithm,threads,t_secs"));
    }

    #[test]
    fn abort_breakdown_has_one_key_per_reason_summing_to_aborts() {
        use crate::jsonin::{parse, JValue};
        use semtm_core::{Algorithm, StmConfig};
        let stm = Stm::new(StmConfig::new(Algorithm::SNOrec));
        let stats = AbortReason::ALL
            .iter()
            .fold(StatsSnapshot::default(), |s, &r| s.with_aborts(r, 1));
        let report = TelemetryReport {
            benchmark: "bank".to_string(),
            threads: 1,
            duration_secs: 0.1,
            algorithms: vec![AlgorithmTelemetry::capture(&stm, 0.0, stats, vec![])],
            overhead: vec![],
        };
        let json = parse(&report.to_json().render()).expect("valid JSON");
        let algorithms = json.get("algorithms").and_then(JValue::as_arr);
        let alg = &algorithms.expect("algorithms array")[0];
        let Some(JValue::Obj(breakdown)) = alg.get("abort_breakdown") else {
            panic!("abort_breakdown is not an object: {alg:?}");
        };
        assert_eq!(breakdown.len(), AbortReason::ALL.len(), "{breakdown:?}");
        for r in AbortReason::ALL {
            let n = breakdown.get(r.name()).and_then(JValue::as_num);
            assert_eq!(n, Some(1.0), "{}", r.name());
        }
        let sum: f64 = breakdown.values().filter_map(JValue::as_num).sum();
        assert_eq!(Some(sum), alg.get("aborts").and_then(JValue::as_num));
    }

    #[test]
    fn speedup_summary_inverts_for_time_metric() {
        let mut a = row("TL2", 4, 8.0, 40.0);
        let mut b = row("S-TL2", 4, 4.0, 10.0);
        a.metric = "time_s";
        b.metric = "time_s";
        let s = speedup_summary(&[a, b], "TL2", "S-TL2");
        assert!(s.contains("2.00x"), "lower time must be a win: {s}");
    }
}
