//! Flight-recorder trace export and schema validation.
//!
//! `figures -- trace` runs a skewed Bank workload with the
//! [`semtm_core::TelemetryLevel::Spans`] flight
//! recorder on, serializes the recorded spans as Chrome trace-event JSON
//! (`results/trace_bank.json`, loadable in Perfetto or
//! `chrome://tracing` as-is), and re-parses its own output through
//! [`crate::jsonin`] to enforce the schema: a non-empty `traceEvents`
//! array, valid `ph`/`ts`/`dur`/`tid` on every complete event, one
//! timeline track (and at least one complete span) per worker thread,
//! and `args.reason`/`args.addr` on every abort span.

use crate::jsonin::{parse, JValue};
use crate::Sweep;
use semtm_core::chrome::chrome_trace_json;
use semtm_core::{Algorithm, Stm, StmConfig, TelemetryLevel};
use semtm_workloads::bank;
use std::time::Duration;

/// What a validated trace contained (printed by the harness).
#[derive(Clone, Copy, Debug)]
pub struct TraceSummary {
    /// Distinct worker-thread tracks.
    pub threads: usize,
    /// Complete (`ph:"X"`) commit spans.
    pub commit_spans: usize,
    /// Complete abort spans.
    pub abort_spans: usize,
    /// Abort spans whose conflict was attributed to a concrete address.
    pub attributed_aborts: usize,
}

/// The skewed Bank that `trace` and `dash` drive under the flight
/// recorder, on S-NOrec: 64 accounts with transfers concentrated on 4 of
/// them, so the timeline reliably holds abort spans with attributed
/// addresses. Returns the runtime, the workload and its worker threads
/// at `sweep`'s scale.
pub fn skewed_bank(sweep: &Sweep) -> (Stm, bank::BankConfig, usize) {
    let cfg = bank::BankConfig {
        accounts: 64,
        skew_accounts: 4,
        ..bank::BankConfig::default()
    };
    let stm = Stm::new(
        StmConfig::new(Algorithm::SNOrec)
            .heap_words(1 << 12)
            .orec_count(1 << 10)
            .telemetry(TelemetryLevel::Spans),
    );
    (stm, cfg, sweep.pick(2, 4))
}

/// Run the [`skewed_bank`] for `sweep`'s trace interval and return its
/// worker threads (which the trace must validate against), the Chrome
/// trace JSON and the hottest conflict addresses.
pub fn record_bank_trace(sweep: &Sweep) -> (usize, String, Vec<(u64, u64)>) {
    let (stm, cfg, threads) = skewed_bank(sweep);
    let duration = sweep.pick(Duration::from_millis(120), Duration::from_millis(400));
    bank::run(&stm, cfg, threads, duration, sweep.seed);
    let spans = stm.telemetry().span_events();
    let hot = stm
        .telemetry()
        .hot_addresses()
        .into_iter()
        .map(|(a, n)| (a.index() as u64, n))
        .collect();
    (threads, chrome_trace_json(stm.algorithm(), &spans), hot)
}

fn field<'a>(e: &'a JValue, key: &str, ctx: &str) -> Result<&'a JValue, String> {
    e.get(key)
        .ok_or_else(|| format!("{ctx}: missing \"{key}\""))
}

fn num(e: &JValue, key: &str, ctx: &str) -> Result<f64, String> {
    field(e, key, ctx)?
        .as_num()
        .ok_or_else(|| format!("{ctx}: \"{key}\" is not a number"))
}

/// Schema-validate a Chrome trace-event document produced by
/// [`chrome_trace_json`], requiring at least one complete span on each
/// of `worker_threads` distinct thread tracks. Returns a summary of
/// what the trace contained.
pub fn validate_chrome_trace(json: &str, worker_threads: usize) -> Result<TraceSummary, String> {
    let doc = parse(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = field(&doc, "traceEvents", "document")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }

    let mut named_tracks = std::collections::BTreeSet::new();
    let mut span_tracks = std::collections::BTreeSet::new();
    let mut commit_spans = 0usize;
    let mut abort_spans = 0usize;
    let mut attributed = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ctx = format!("event {i}");
        let ph = field(e, "ph", &ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: \"ph\" is not a string"))?;
        match ph {
            "M" => {
                let name = field(e, "name", &ctx)?.as_str().unwrap_or_default();
                if name == "thread_name" {
                    named_tracks.insert(num(e, "tid", &ctx)? as u64);
                }
            }
            "X" => {
                let ts = num(e, "ts", &ctx)?;
                let dur = num(e, "dur", &ctx)?;
                if !(ts >= 0.0 && dur > 0.0) {
                    return Err(format!("{ctx}: bad ts/dur ({ts}/{dur})"));
                }
                let tid = num(e, "tid", &ctx)? as u64;
                span_tracks.insert(tid);
                let name = field(e, "name", &ctx)?
                    .as_str()
                    .ok_or_else(|| format!("{ctx}: \"name\" is not a string"))?;
                let args = field(e, "args", &ctx)?;
                num(args, "attempt", &ctx)?;
                num(args, "read_set", &ctx)?;
                num(args, "write_set", &ctx)?;
                if let Some(reason) = name.strip_prefix("abort:") {
                    abort_spans += 1;
                    let recorded = field(args, "reason", &ctx)?
                        .as_str()
                        .ok_or_else(|| format!("{ctx}: abort \"reason\" is not a string"))?;
                    if recorded != reason {
                        return Err(format!(
                            "{ctx}: name says {reason:?} but args.reason is {recorded:?}"
                        ));
                    }
                    // Always present; -1 is the "unknown" sentinel.
                    if num(args, "addr", &ctx)? >= 0.0 {
                        attributed += 1;
                    }
                    num(args, "orec", &ctx)?;
                    num(args, "by", &ctx)?;
                } else if name == "commit" {
                    commit_spans += 1;
                } else {
                    return Err(format!("{ctx}: unexpected span name {name:?}"));
                }
            }
            other => return Err(format!("{ctx}: unexpected ph {other:?}")),
        }
    }

    if span_tracks.len() < worker_threads {
        return Err(format!(
            "only {} thread tracks carry spans, expected at least {worker_threads}",
            span_tracks.len()
        ));
    }
    for tid in &span_tracks {
        if !named_tracks.contains(tid) {
            return Err(format!("track {tid} has spans but no thread_name record"));
        }
    }
    if commit_spans < worker_threads {
        return Err(format!(
            "{commit_spans} commit spans for {worker_threads} workers: \
             every worker must complete at least one transaction"
        ));
    }
    Ok(TraceSummary {
        threads: span_tracks.len(),
        commit_spans,
        abort_spans,
        attributed_aborts: attributed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_bank_trace_passes_schema_validation() {
        // Paper scale: four workers, enough contention for the abort
        // assertions (two workers sharing the host with other tests
        // sometimes commit every attempt).
        let (threads, json, hot) = record_bank_trace(&Sweep {
            scale: crate::Scale::Paper,
            seed: 0xB0C4,
            ..Sweep::tiny()
        });
        let summary = validate_chrome_trace(&json, threads).expect("schema");
        assert!(summary.threads >= threads);
        assert!(summary.commit_spans >= threads);
        assert!(
            summary.abort_spans > 0,
            "the skewed bank must produce abort spans"
        );
        assert!(
            summary.attributed_aborts > 0,
            "validation aborts must carry a guilty address"
        );
        assert!(!hot.is_empty(), "abort spans must name hot addresses");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_chrome_trace("not json", 1).is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}", 1).is_err());
        // A lone metadata record has no span tracks.
        let md = "{\"traceEvents\":[{\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                   \"name\":\"process_name\",\"args\":{\"name\":\"x\"}}]}";
        assert!(validate_chrome_trace(md, 1).is_err());
        // A span with a negative duration must be rejected.
        let bad = "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                    \"ts\":1.0,\"dur\":-2.0,\"name\":\"commit\",\"cat\":\"tx\",\
                    \"cname\":\"good\",\"args\":{\"attempt\":1,\"read_set\":0,\
                    \"write_set\":0,\"compare_set\":0}}]}";
        assert!(validate_chrome_trace(bad, 1).is_err());
    }

    #[test]
    fn validator_accepts_the_chrome_serializer_output() {
        use semtm_core::telemetry::SpanEvent;
        let spans = [SpanEvent {
            thread: 3,
            start_ns: 500,
            end_ns: 2_500,
            validate_ns: None,
            lock_ns: None,
            writeback_ns: None,
            attempt: 1,
            read_set: 2,
            write_set: 1,
            compare_set: 0,
            abort: None,
        }];
        let json = chrome_trace_json(Algorithm::Tl2, &spans);
        let summary = validate_chrome_trace(&json, 1).expect("valid");
        assert_eq!(summary.commit_spans, 1);
        assert_eq!(summary.abort_spans, 0);
    }
}
