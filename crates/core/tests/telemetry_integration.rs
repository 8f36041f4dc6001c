//! Integration tests for the telemetry subsystem: level gating, shard
//! merging under real threads, histogram/trace invariants against the
//! runtime's own accounting, and sampler deltas.

use semtm_core::util::SplitMix64;
use semtm_core::{Abort, AbortReason, Algorithm, Mode, Sampler, Stm, StmConfig, TelemetryLevel};

fn stm(alg: Algorithm, level: TelemetryLevel) -> Stm {
    Stm::new(
        StmConfig::new(alg)
            .heap_words(1 << 10)
            .orec_count(1 << 8)
            .telemetry(level)
            .trace_capacity(8),
    )
}

#[test]
fn counters_level_keeps_histograms_and_trace_empty() {
    let s = stm(Algorithm::SNOrec, TelemetryLevel::Counters);
    let a = s.alloc_cell(0i64);
    for _ in 0..20 {
        s.atomic(|tx| tx.inc(a, 1));
    }
    assert_eq!(s.stats().commits, 20);
    let t = s.telemetry();
    assert_eq!(
        t.commit_latency_ns().count(),
        0,
        "no histograms at Counters"
    );
    assert_eq!(t.attempts_per_commit().count(), 0);
    assert!(t.trace_events().is_empty(), "no trace at Counters");
}

#[test]
fn histograms_level_profiles_commits_but_no_trace() {
    let s = stm(Algorithm::Tl2, TelemetryLevel::Histograms);
    let a = s.alloc_cell(0i64);
    for _ in 0..25 {
        s.atomic(|tx| tx.inc(a, 1));
    }
    let t = s.telemetry();
    assert_eq!(t.commit_latency_ns().count(), 25);
    assert_eq!(t.attempts_per_commit().count(), 25);
    assert!(t.commit_latency_ns().sum() > 0, "latencies are non-zero");
    assert!(t.trace_events().is_empty(), "trace requires Trace level");
}

#[test]
fn explicit_aborts_are_traced_with_reason_and_attempt() {
    let s = stm(Algorithm::SNOrec, TelemetryLevel::Trace);
    let a = s.alloc_cell(0i64);
    // Retry twice (explicit), then commit on the third attempt.
    let mut tries = 0;
    let v = s.atomic(|tx| {
        tries += 1;
        if tries < 3 {
            return Err(Abort::explicit());
        }
        tx.inc(a, 1)?;
        tx.read(a)
    });
    assert_eq!(v, 1);
    let st = s.stats();
    assert_eq!(st.commits, 1);
    assert_eq!(st.aborts(AbortReason::Explicit), 2);
    assert_eq!(st.attempts(), 3);
    let t = s.telemetry();
    let events = t.trace_events();
    assert_eq!(events.len(), 2);
    assert!(events
        .iter()
        .all(|e| e.abort.is_some_and(|(r, _)| r.name() == "explicit")));
    assert_eq!(events[0].attempt, 1, "first abort happens on attempt 1");
    assert_eq!(events[1].attempt, 2);
    assert!(events[0].end_ns <= events[1].end_ns);
    // Attempts histogram: one commit that needed 3 attempts.
    assert_eq!(t.attempts_per_commit().count(), 1);
    assert_eq!(t.attempts_per_commit().sum(), 3);
    assert_eq!(t.attempts_per_commit().max(), 3);
}

#[test]
fn trace_ring_keeps_newest_events_under_overflow() {
    let s = stm(Algorithm::SNOrec, TelemetryLevel::Trace); // capacity 8
    let a = s.alloc_cell(0i64);
    for round in 0..20 {
        let mut first = true;
        s.atomic(|tx| {
            if first {
                first = false;
                return Err(Abort::explicit());
            }
            tx.inc(a, 1)?;
            Ok(round)
        });
    }
    let t = s.telemetry();
    let events = t.trace_events();
    assert_eq!(events.len(), 8, "ring holds only its capacity");
    assert_eq!(t.spans_evicted(), 12, "older events are counted as evicted");
    assert_eq!(
        events.len() as u64 + t.spans_evicted(),
        s.stats().total_aborts()
    );
    for w in events.windows(2) {
        assert!(w[0].end_ns <= w[1].end_ns, "sorted by time");
    }
}

#[test]
fn shards_merge_exactly_under_concurrent_threads() {
    for alg in Algorithm::ALL {
        let s = stm(alg, TelemetryLevel::Trace);
        let a = s.alloc_cell(0i64);
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 500;
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let s = &s;
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(tid as u64 + 1);
                    for _ in 0..PER_THREAD {
                        // A little jitter so threads interleave differently.
                        if rng.chance(10) {
                            std::hint::spin_loop();
                        }
                        s.atomic(|tx| tx.inc(a, 1));
                    }
                });
            }
        });
        let st = s.stats();
        let expected = THREADS as u64 * PER_THREAD;
        assert_eq!(st.commits, expected, "{alg}: every commit counted once");
        assert_eq!(s.read_now(a), expected as i64, "{alg}");
        assert_eq!(
            st.attempts(),
            st.commits + st.total_aborts(),
            "{alg}: attempts identity"
        );
        let t = s.telemetry();
        // Histogram invariants against the merged shard counters.
        assert_eq!(t.commit_latency_ns().count(), st.commits, "{alg}");
        assert_eq!(t.attempts_per_commit().count(), st.commits, "{alg}");
        assert_eq!(t.attempts_per_commit().sum(), st.attempts(), "{alg}");
        assert_eq!(
            t.trace_events().len() as u64 + t.spans_evicted(),
            st.total_aborts(),
            "{alg}: every abort traced or evicted"
        );
    }
}

#[test]
fn sampler_deltas_partition_the_run() {
    let s = stm(Algorithm::STl2, TelemetryLevel::Counters);
    let a = s.alloc_cell(0i64);
    let mut sampler = Sampler::new(s.stats());
    let mut sampled = 0u64;
    for chunk in [5u64, 12, 7] {
        for _ in 0..chunk {
            s.atomic(|tx| tx.inc(a, 1));
        }
        let p = sampler.sample(s.stats());
        assert_eq!(p.commits, chunk, "each sample sees only its interval");
        sampled += p.commits;
    }
    assert_eq!(sampled, s.stats().commits);
    // An idle interval yields a zero sample, not a negative one.
    let idle = sampler.sample(s.stats());
    assert_eq!(idle.commits, 0);
    assert_eq!(idle.conflict_aborts, 0);
}

#[test]
fn wasted_work_counts_only_aborted_attempts() {
    let s = stm(Algorithm::SNOrec, TelemetryLevel::Counters);
    let a = s.alloc_cell(0i64);
    // Two committed incs; one attempt aborted after two incs.
    let mut first = true;
    s.atomic(|tx| {
        tx.inc(a, 1)?;
        tx.inc(a, 1)?;
        if first {
            first = false;
            return Err(Abort::explicit());
        }
        Ok(())
    });
    let st = s.stats();
    assert_eq!(st.commits, 1);
    assert_eq!(st.committed.incs, 2, "committed attempt's ops");
    assert_eq!(st.aborted.incs, 2, "aborted attempt's ops land separately");
    assert_eq!(st.committed.total(), 2);
    assert_eq!(st.aborted.total(), 2);
    assert!((st.wasted_work_ratio() - 0.5).abs() < 1e-9);
}

#[test]
fn trace_level_records_each_abort_as_a_span_stamped_at_the_abort() {
    // A nested writer invalidates the outer read: the retry and the
    // writer commit, so at Trace they leave no span.
    let s = stm(Algorithm::SNOrec, TelemetryLevel::Trace);
    let x = s.alloc_cell(0i64);
    let mut first = true;
    let got = s.atomic(|tx| {
        let before = tx.read(x)?;
        if std::mem::take(&mut first) {
            s.atomic(|writer| writer.write(x, before + 1));
        }
        tx.read(x)
    });
    assert_eq!(got, 1);
    let t = s.telemetry();
    let spans = t.span_events();
    assert_eq!(spans.len(), 1, "one span: the aborted attempt");
    assert_eq!(t.trace_events(), spans);
    let e = &spans[0];
    let (reason, conflict) = e.abort.expect("aborted");
    assert_eq!(
        (reason, conflict.addr()),
        (AbortReason::Validation, Some(x))
    );
    assert_eq!(
        (e.attempt, e.read_set, e.write_set, e.compare_set),
        (1, 1, 0, 0)
    );
    assert_eq!(e.start_ns, e.end_ns, "stamped once, at the abort");
    assert_eq!(
        (e.validate_ns, e.lock_ns, e.writeback_ns),
        (None, None, None)
    );
    assert_eq!(t.hot_addresses(), [(x, 1)]);
    assert!(
        t.conflict_edges().is_empty(),
        "the committer word needs Spans"
    );
    assert_eq!(t.commit_latency_ns().count(), 2, "histograms still profile");
}

#[test]
fn hot_swap_keeps_trace_accounting_exact() {
    // Contended workers at Trace while a switcher moves the runtime
    // between the NOrec and TL2 families: every abort, whichever engine
    // raised it, is one span retained or counted as evicted.
    let s = stm(Algorithm::SNOrec, TelemetryLevel::Trace);
    let a = s.alloc_cell(0i64);
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 300;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..PER_THREAD {
                    // Every fifth transaction also gives up its first
                    // attempt, so the trace is never empty.
                    let mut give_up = i % 5 == 0;
                    s.atomic(|tx| {
                        let v = tx.read(a)?;
                        tx.write(a, v + 1)?;
                        if std::mem::take(&mut give_up) {
                            return Err(Abort::explicit());
                        }
                        Ok(())
                    });
                }
            });
        }
        scope.spawn(|| {
            let cycle = [
                Mode::new(Algorithm::STl2),
                Mode::new(Algorithm::NOrec),
                Mode::new(Algorithm::Tl2),
                Mode::new(Algorithm::SNOrec),
            ];
            for target in cycle.into_iter().cycle().take(12) {
                s.switch_to(target).unwrap();
                std::thread::yield_now();
            }
        });
    });
    assert_eq!(s.read_now(a), (THREADS * PER_THREAD) as i64);
    assert_eq!(s.switch_count(), 12);
    let st = s.stats();
    assert_eq!(st.attempts(), st.commits + st.total_aborts());
    assert_eq!(st.aborts(AbortReason::Explicit), THREADS * PER_THREAD / 5);
    let t = s.telemetry();
    assert_eq!(
        t.trace_events().len() as u64 + t.spans_evicted(),
        st.total_aborts(),
        "every abort traced or evicted across the switches"
    );
}
