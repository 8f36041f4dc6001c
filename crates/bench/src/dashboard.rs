//! A live terminal dashboard over the flight recorder, for eyeballing
//! stress runs: throughput sparkline, abort rate, hottest conflict
//! addresses and who-aborted-whom edges, refreshed in place with ANSI
//! cursor control. `figures -- dash` drives the skewed Bank under it.
//!
//! The rendering is a pure function of a [`DashboardFrame`] so tests can
//! assert on the output without a terminal.

use crate::trace::skewed_bank;
use crate::Sweep;
use semtm_core::{Algorithm, ConflictEdge, Stm};
use semtm_workloads::bank;
use std::fmt::Write as _;
use std::time::Duration;

/// One refresh tick's worth of dashboard state.
#[derive(Clone, Debug, Default)]
pub struct DashboardFrame {
    /// Seconds since the run started.
    pub elapsed_secs: f64,
    /// Commits in the last tick.
    pub tick_commits: u64,
    /// Conflict aborts in the last tick.
    pub tick_aborts: u64,
    /// Throughput over the last tick, tx/s.
    pub throughput_tps: f64,
    /// Abort percentage over the last tick.
    pub abort_pct: f64,
    /// Recent per-tick throughputs, oldest first (sparkline input).
    pub history_tps: Vec<f64>,
    /// Hottest conflict addresses `(heap index, conflicts)`, counted
    /// exactly over the retained spans.
    pub hot: Vec<(u64, u64)>,
    /// Who-aborted-whom edges, most frequent first.
    pub edges: Vec<ConflictEdge>,
    /// Flight-recorder spans currently retained.
    pub spans: usize,
    /// Spans evicted from the rings so far.
    pub spans_evicted: u64,
}

/// Map a series onto a block-character sparkline.
fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
                BARS[idx.min(BARS.len() - 1)]
            }
        })
        .collect()
}

/// Render one frame as plain text (no ANSI — the caller owns cursor
/// control). Fixed layout, one logical panel per line group.
pub fn render(algorithm: Algorithm, threads: usize, frame: &DashboardFrame) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "semtm flight recorder — {} | {} threads | t = {:6.2}s",
        algorithm.name(),
        threads,
        frame.elapsed_secs
    );
    let _ = writeln!(
        out,
        "throughput {:>10.0} tx/s   abort {:5.1}%   tick: {} commits / {} aborts",
        frame.throughput_tps, frame.abort_pct, frame.tick_commits, frame.tick_aborts
    );
    let _ = writeln!(out, "history    {}", sparkline(&frame.history_tps));
    let _ = writeln!(
        out,
        "spans      {} retained, {} evicted",
        frame.spans, frame.spans_evicted
    );
    out.push_str("hot addresses:\n");
    if frame.hot.is_empty() {
        out.push_str("  (no attributed conflicts yet)\n");
    }
    for (addr, n) in frame.hot.iter().take(5) {
        let _ = writeln!(out, "  addr {addr:>8}  {n} conflicts");
    }
    out.push_str("who aborted whom:\n");
    if frame.edges.is_empty() {
        out.push_str("  (no attributed committers yet)\n");
    }
    for e in frame.edges.iter().take(5) {
        let _ = writeln!(
            out,
            "  thread {:>3} aborted by thread {:>3}  x{}",
            e.victim, e.by, e.count
        );
    }
    out
}

/// Build a frame from the runtime's telemetry plus the tick sample.
pub fn frame_from(
    stm: &Stm,
    elapsed: Duration,
    point: &semtm_core::SamplePoint,
    history_tps: &[f64],
) -> DashboardFrame {
    let t = stm.telemetry();
    DashboardFrame {
        elapsed_secs: elapsed.as_secs_f64(),
        tick_commits: point.commits,
        tick_aborts: point.conflict_aborts,
        throughput_tps: point.throughput,
        abort_pct: point.abort_pct,
        history_tps: history_tps.to_vec(),
        hot: t
            .hot_addresses()
            .into_iter()
            .map(|(a, n)| (a.index() as u64, n))
            .collect(),
        edges: t.conflict_edges(),
        spans: t.span_events().len(),
        spans_evicted: t.spans_evicted(),
    }
}

/// Drive the [`skewed_bank`] for `sweep`'s dashboard interval and hand
/// `paint` every 100 ms tick's frame and its rendering. Returns the
/// final frame.
pub fn run_bank_dashboard(
    sweep: &Sweep,
    mut paint: impl FnMut(&DashboardFrame, &str),
) -> DashboardFrame {
    let (stm, cfg, threads) = skewed_bank(sweep);
    let duration = sweep.pick(Duration::from_millis(600), Duration::from_secs(5));
    let refresh = Duration::from_millis(100);
    let mut history = Vec::new();
    let mut last = DashboardFrame::default();
    bank::run_observed(
        &stm,
        cfg,
        threads,
        duration,
        refresh,
        sweep.seed,
        |elapsed, point| {
            history.push(point.throughput);
            let keep = history.len().saturating_sub(40);
            last = frame_from(&stm, elapsed, point, &history[keep..]);
            paint(&last, &render(stm.algorithm(), threads, &last));
        },
    );
    last
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_max() {
        let s = sparkline(&[0.0, 50.0, 100.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁", "all-zero history is flat");
    }

    #[test]
    fn render_mentions_every_panel() {
        let frame = DashboardFrame {
            elapsed_secs: 1.5,
            tick_commits: 100,
            tick_aborts: 7,
            throughput_tps: 1234.0,
            abort_pct: 6.5,
            history_tps: vec![100.0, 1234.0],
            hot: vec![(17, 9)],
            edges: vec![ConflictEdge {
                victim: 2,
                by: 3,
                count: 4,
            }],
            spans: 12,
            spans_evicted: 0,
        };
        let text = render(Algorithm::SNOrec, 4, &frame);
        assert!(text.contains("S-NOrec"));
        assert!(text.contains("addr       17"));
        assert!(text.contains("thread   2 aborted by thread   3"));
        assert!(text.contains("12 retained"));
        assert!(!text.contains('\x1b'), "render itself is ANSI-free");
    }

    #[test]
    fn frames_populate_from_a_live_run() {
        // Headless end-to-end: a smoke-scale run whose painter prints
        // nothing; the telemetry must make it into the frames.
        let mut frames = 0;
        let last = run_bank_dashboard(&Sweep::tiny(), |_, text| {
            assert!(text.contains("semtm flight recorder"));
            frames += 1;
        });
        assert!(frames >= 3);
        assert!(last.spans > 0, "flight recorder must have spans");
    }
}
