//! Every metric the benchmark prints, by name: the single list from
//! which the output is checked and `BENCHMARK.json` is written.

use crate::cells::{Workload, ENGINES};
use std::fmt::Write as _;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may get worse before a change is a regression.
    pub bound: Option<f64>,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// How long one run measures, and what `BENCHMARK.json` asks the driver
/// to pass as `--seconds`.
pub const RUN_SECONDS: u32 = 25;

/// What a user of the library sees. One bound per metric has to hold on
/// every workload, so each is the widest any workload needs.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    let mut v = Vec::new();
    for e in &ENGINES {
        v.push(metric(
            format!("tput_ktps.{}", e.cell),
            "kTx/s",
            Higher,
            Some(0.25),
        ));
    }
    for e in &ENGINES {
        v.push(metric(
            format!("lat_p50_us.{}", e.cell),
            "us",
            Lower,
            Some(0.25),
        ));
    }
    v.push(metric("setup_s", "s", Lower, Some(0.25)));
    v.push(metric("peak_rss_mb", "MiB", Lower, Some(0.10)));
    v
}

/// What single layers do, printed by the traced run.
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let m = |name: &str, unit, better| metric(name, unit, better, None);
    let mut v = vec![
        m("heap.load_ns", "ns", Lower),
        m("heap.store_ns", "ns", Lower),
    ];
    for e in &ENGINES {
        for rung in [
            "empty_tx_ns",
            "read_ns",
            "cmp_ns",
            "inc_ns",
            "write_ns",
            "writer_commit_ns",
        ] {
            v.push(metric(format!("{}.{rung}", e.module), "ns", Lower, None));
        }
    }
    v.extend([
        m("sclock.acquire_release_ns", "ns", Lower),
        m("sclock.load_all_ns", "ns", Lower),
        m("workloads.bank_tx_ns", "ns", Lower),
        m("wal.encode_ns", "ns", Lower),
        m("wal.append_ns", "ns", Lower),
        m("wal.sync_commit_us", "us", Lower),
        m("wal.replay_krec_s", "krec/s", Higher),
        m("wal.fsyncs", "count", Lower),
        m("wal.fsync_us_p50", "us", Lower),
        m("wal.commits_per_fsync", "ratio", Higher),
        m("wal.bytes_per_commit", "B", Lower),
        m("wal.durable_wait_share", "ratio", Lower),
        m("telemetry.tx_ns.counters", "ns", Lower),
        m("telemetry.tx_ns.histograms", "ns", Lower),
        m("telemetry.tx_ns.trace", "ns", Lower),
        m("telemetry.tx_ns.spans", "ns", Lower),
        m("adapt.switch_us", "us", Lower),
        m("adapt.switch_loaded_us", "us", Lower),
        m("adapt.tick_ns", "ns", Lower),
        m("ir.parse_us", "us", Lower),
        m("ir.passes_us", "us", Lower),
        m("ir.lower_us", "us", Lower),
        m("ir.tree_ns_per_inst", "ns", Lower),
        m("ir.lowered_ns_per_inst", "ns", Lower),
        m("ir.tm_calls_per_region.before", "count", Lower),
        m("ir.tm_calls_per_region.after", "count", Lower),
    ]);
    for stat in ["attempts_per_commit", "abort_pct", "wasted_work_ratio"] {
        let unit = if stat == "abort_pct" { "%" } else { "ratio" };
        for e in &ENGINES {
            v.push(metric(
                format!("stats.{stat}.{}", e.cell),
                unit,
                Lower,
                None,
            ));
        }
    }
    for op in ["reads", "cmps", "incs", "writes", "promotes"] {
        v.push(metric(format!("stats.{op}_per_tx"), "count", Lower, None));
    }
    for (share, better) in [
        ("body_share", Higher),
        ("commit_share", Lower),
        ("retry_share", Lower),
    ] {
        for e in &ENGINES {
            v.push(metric(
                format!("span.{share}.{}", e.cell),
                "ratio",
                better,
                None,
            ));
        }
    }
    for e in &ENGINES {
        v.push(metric(format!("lat_p99_us.{}", e.cell), "us", Lower, None));
    }
    for e in &ENGINES {
        v.push(metric(
            format!("proc.cpu_us_per_op.{}", e.cell),
            "us",
            Lower,
            None,
        ));
    }
    for e in &ENGINES {
        v.push(metric(
            format!("sched.points_per_tx.{}", e.cell),
            "count",
            Lower,
            None,
        ));
    }
    v.extend([
        m("semantic_gain.norec", "ratio", Higher),
        m("semantic_gain.tl2", "ratio", Higher),
        m("host.disturbance", "ratio", Lower),
        m("host.drift", "ratio", Lower),
        m("trace.overhead_pct", "%", Lower),
    ]);
    v
}

/// `BENCHMARK.json`, in the form the driver's contract prescribes.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .filter(|w| w.gated())
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    for (key, metrics, last) in [
        ("end_to_end", end_to_end(), false),
        ("per_layer", per_layer(), true),
    ] {
        let _ = writeln!(out, "  \"{key}\": [");
        let rows: Vec<String> = metrics
            .iter()
            .map(|m| {
                let better = match m.better {
                    Better::Higher => "higher",
                    Better::Lower => "lower",
                };
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
                    m.name, m.unit
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str(if last { "\n  ]\n" } else { "\n  ],\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(seen.insert(m.name.clone()), "{} twice", m.name);
        }
        assert_eq!(end_to_end().len(), 8);
        assert_eq!(per_layer().len(), 83);
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && w.why().len() <= 200, "{}", w.name());
            assert!(!w.why().contains(['"', '\\', '\n']));
        }
    }

    #[test]
    fn bounds_follow_the_contract() {
        for m in end_to_end() {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = end_to_end()
            .into_iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(per_layer().iter().all(|m| m.bound.is_none()));
    }

    /// The checked-in `BENCHMARK.json` is the one this list generates, so
    /// the names in it are the names the program prints.
    #[test]
    fn benchmark_json_is_generated_from_this_list() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(
            text == benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with --print-benchmark-json"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
