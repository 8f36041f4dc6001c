//! Flight-recorder dumps for failing schedules.
//!
//! When a checked execution on a
//! [`TelemetryLevel::Spans`]-enabled runtime fails — a faulted mutation
//! row, or the differential fuzzer's replay of its minimized
//! program — the recorded spans are written out as Chrome trace-event
//! JSON under `results/check/` at the workspace root. The panic/error
//! message names the file, so a red CI run ships a timeline of the
//! offending schedule (every attempt, its phases, and which
//! address/transaction each abort was attributed to) as part of the
//! uploaded `results/` artifact.

use semtm_core::chrome::chrome_trace_json;
use semtm_core::{Stm, TelemetryLevel};
use std::path::PathBuf;

/// Best-effort write of a Chrome trace-event document to
/// `results/check/<name>.json` (workspace root, independent of the test
/// runner's working directory). Returns the path on success; IO failures
/// yield `None` rather than masking the original test failure.
pub fn dump_trace(name: &str, json: &str) -> Option<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/check");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).ok()?;
    Some(path)
}

/// Dump `stm`'s retained spans with [`dump_trace`] and render the
/// outcome as a line to append to a failure message; empty when `stm`
/// records no spans.
pub fn span_note(stm: &Stm, name: &str) -> String {
    let telemetry = stm.telemetry();
    if telemetry.level() < TelemetryLevel::Spans {
        return String::new();
    }
    let json = chrome_trace_json(stm.algorithm(), &telemetry.span_events());
    match dump_trace(name, &json) {
        Some(path) => format!("\nflight-recorder trace: {}", path.display()),
        None => "\nflight-recorder trace could not be written".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_writes_under_results_check() {
        let path = dump_trace("selftest", "{\"traceEvents\":[]}").expect("writable");
        assert!(path.ends_with("selftest.json"));
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"traceEvents\":[]}");
        std::fs::remove_file(&path).ok();
    }
}
