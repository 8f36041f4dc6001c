//! Chrome trace-event serialization of flight-recorder spans.
//!
//! Turns the [`SpanEvent`]s recorded at
//! [`TelemetryLevel::Spans`](crate::TelemetryLevel::Spans) into the
//! Trace Event Format JSON accepted by Perfetto (<https://ui.perfetto.dev>)
//! and `chrome://tracing`: one timeline track per worker thread,
//! committed attempts as `commit` slices, aborted attempts as
//! `abort:<reason>` slices colored by reason and annotated with the
//! attributed conflict (`args.addr` / `args.orec` / `args.by`, with
//! `-1` / `0` standing for "unknown" so the fields are always present).
//!
//! The serializer lives in `semtm-core` — not the bench crate — so the
//! schedule-exploration harness (`semtm-check`) can dump a failing
//! schedule's timeline without depending on the bench crate.

use crate::config::Algorithm;
use crate::error::AbortReason;
use crate::telemetry::SpanEvent;
use std::fmt::Write as _;

/// Catapult reserved color name used for a reason's abort slices.
fn reason_color(reason: AbortReason) -> &'static str {
    match reason {
        AbortReason::Validation => "bad",
        AbortReason::Locked => "yellow",
        AbortReason::Timeout => "terrible",
        AbortReason::LockAcquire => "olive",
        AbortReason::Explicit => "grey",
        AbortReason::Durability => "black",
    }
}

/// Nanoseconds → trace-event microseconds (fractional µs are allowed
/// and keep sub-microsecond attempts visible).
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Serialize spans into a complete Chrome trace-event JSON document.
///
/// Emits one `process_name` metadata record naming the algorithm, one
/// `thread_name` metadata record per distinct worker thread, and one
/// complete (`"ph":"X"`) event per span. The output is self-contained:
/// write it to a `.json` file and open it in Perfetto as-is.
pub fn chrome_trace_json(algorithm: Algorithm, spans: &[SpanEvent]) -> String {
    let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let mut events: Vec<String> = Vec::with_capacity(spans.len() + threads.len() + 1);
    events.push(format!(
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"semtm {}\"}}}}",
        algorithm.name()
    ));
    for &t in &threads {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"worker-{t}\"}}}}"
        ));
    }

    for s in spans {
        let (name, cat, cname, abort_args) = match s.abort {
            None => ("commit".to_string(), "tx", "good", String::new()),
            Some((reason, conflict)) => {
                let addr = conflict.addr().map_or(-1, |a| a.index() as i64);
                let orec = conflict.orec().map_or(-1, |o| o as i64);
                let by = conflict.by().unwrap_or(0);
                (
                    format!("abort:{}", reason.name()),
                    "abort",
                    reason_color(reason),
                    format!(
                        ",\"reason\":\"{}\",\"addr\":{addr},\"orec\":{orec},\"by\":{by}",
                        reason.name()
                    ),
                )
            }
        };
        let mut phase_args = String::new();
        if let Some(v) = s.validate_ns {
            let _ = write!(phase_args, ",\"validate_us\":{:.3}", us(v));
        }
        if let Some(v) = s.lock_ns {
            let _ = write!(phase_args, ",\"lock_us\":{:.3}", us(v));
        }
        if let Some(v) = s.writeback_ns {
            let _ = write!(phase_args, ",\"writeback_us\":{:.3}", us(v));
        }
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"name\":\"{}\",\"cat\":\"{}\",\"cname\":\"{}\",\
             \"args\":{{\"attempt\":{},\"read_set\":{},\"write_set\":{},\
             \"compare_set\":{}{}{}}}}}",
            s.thread,
            us(s.start_ns),
            us(s.duration_ns().max(1)),
            name,
            cat,
            cname,
            s.attempt,
            s.read_set,
            s.write_set,
            s.compare_set,
            abort_args,
            phase_args,
        ));
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{Abort, Conflict};
    use crate::heap::Addr;

    fn span(
        thread: u64,
        start: u64,
        end: u64,
        abort: Option<(AbortReason, Conflict)>,
    ) -> SpanEvent {
        SpanEvent {
            thread,
            start_ns: start,
            end_ns: end,
            validate_ns: Some(start + 100),
            lock_ns: None,
            writeback_ns: None,
            attempt: 1,
            read_set: 4,
            write_set: 2,
            compare_set: 0,
            abort,
        }
    }

    #[test]
    fn empty_span_list_is_still_a_valid_document() {
        let json = chrome_trace_json(Algorithm::NOrec, &[]);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("process_name"));
    }

    #[test]
    fn commit_and_abort_spans_serialize_with_required_fields() {
        let conflict = Abort::validation()
            .at_addr(Addr::from_index(17))
            .by(3)
            .conflict();
        let spans = [
            span(5, 1_000, 3_000, None),
            span(6, 2_000, 4_000, Some((AbortReason::Validation, conflict))),
        ];
        let json = chrome_trace_json(Algorithm::SNOrec, &spans);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"commit\""));
        assert!(json.contains("\"name\":\"abort:validation\""));
        assert!(json.contains("\"addr\":17"));
        assert!(json.contains("\"by\":3"));
        assert!(json.contains("\"reason\":\"validation\""));
        assert!(json.contains("\"tid\":5") && json.contains("\"tid\":6"));
        assert!(json.contains("worker-5") && json.contains("worker-6"));
        assert!(json.contains("\"cname\":\"bad\""));
        assert!(json.contains("\"validate_us\":1.100"));
    }

    #[test]
    fn unattributed_abort_uses_sentinels() {
        let spans = [span(1, 0, 10, Some((AbortReason::Timeout, Conflict::NONE)))];
        let json = chrome_trace_json(Algorithm::Tl2, &spans);
        assert!(json.contains("\"addr\":-1"));
        assert!(json.contains("\"orec\":-1"));
        assert!(json.contains("\"by\":0"));
        assert!(json.contains("\"cname\":\"terrible\""));
    }

    #[test]
    fn each_reason_has_a_distinct_color() {
        let mut colors: Vec<_> = AbortReason::ALL.map(reason_color).to_vec();
        colors.sort_unstable();
        colors.dedup();
        assert_eq!(colors.len(), AbortReason::ALL.len());
    }
}
