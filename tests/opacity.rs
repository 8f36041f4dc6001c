//! Opacity tests (paper §5): the histories of Algorithms 1, 8 and 9
//! replayed as deterministic interleavings, plus an invariant-pair
//! stress test that no transaction ever observes an inconsistent
//! snapshot (zombie read).
//!
//! Interleavings are produced by committing an inner transaction while
//! an outer `try_atomic` body is suspended between its operations —
//! transactions are plain values in this runtime, so a single thread can
//! interleave them precisely.

use semtm::{Abort, AbortReason, Algorithm, CmpOp, Stm, StmConfig};

fn stm(alg: Algorithm) -> Stm {
    Stm::new(StmConfig::new(alg).heap_words(1 << 12).orec_count(1 << 8))
}

/// Paper Algorithm 1: T1 checks `x > 0 || y > 0`; T2 commits `x++; y--`.
/// At the memory level this is a conflict; at the semantic level it is
/// not. Semantic algorithms must commit T1 first-try; baselines must
/// abort it.
#[test]
fn algorithm1_false_conflict() {
    for alg in Algorithm::ALL {
        let s = stm(alg);
        let x = s.alloc_cell(5i64);
        let y = s.alloc_cell(5i64);
        let out = s.alloc_cell(0i64);
        let r = s.try_atomic(|tx| {
            let cond = tx.cmp(x, CmpOp::Gt, 0)? || tx.cmp(y, CmpOp::Gt, 0)?;
            assert!(cond);
            // T2 commits in the middle of T1.
            s.atomic(|tx2| {
                tx2.inc(x, 1)?;
                tx2.inc(y, -1)
            });
            tx.write(out, 1)?;
            Ok(())
        });
        if alg.is_semantic() {
            assert_eq!(r, Ok(()), "{alg}: semantically there is no conflict");
            assert_eq!(s.read_now(out), 1);
        } else {
            assert!(r.is_err(), "{alg}: value validation must abort T1");
            assert_eq!(s.read_now(out), 0);
        }
    }
}

/// Paper Algorithm 8: opaque *with the new API*. T1: `if x >= 0 { z = y }`,
/// T2: `x = 1; y = 1` in between. The equivalent serialisation T2 -> T1
/// is legal because x was accessed through `cmp` and its return value
/// stays correct.
#[test]
fn algorithm8_opaque_with_semantic_api() {
    // S-NOrec admits the T2 -> T1 serialisation first-try: the read of y
    // revalidates the compare-set (x >= 0 still holds) and extends the
    // snapshot past T2's commit.
    {
        let s = stm(Algorithm::SNOrec);
        let x = s.alloc_cell(0i64);
        let y = s.alloc_cell(0i64);
        let z = s.alloc_cell(-1i64);
        let r = s.try_atomic(|tx| {
            assert!(tx.cmp(x, CmpOp::Gte, 0)?);
            s.atomic(|tx2| {
                tx2.write(x, 1)?;
                tx2.write(y, 1)
            });
            let vy = tx.read(y)?;
            tx.write(z, vy)?;
            Ok(vy)
        });
        assert_eq!(r, Ok(1), "S-NOrec: T2 -> T1 is a legal serialisation");
        assert_eq!(s.read_now(z), 1);
    }
    // S-TL2 is more conservative: plain reads cannot extend the snapshot
    // (only phase-1 compares can), so the first attempt may abort — that
    // is always opaque — and the retry must converge to the same legal
    // outcome.
    {
        let s = stm(Algorithm::STl2);
        let x = s.alloc_cell(0i64);
        let y = s.alloc_cell(0i64);
        let z = s.alloc_cell(-1i64);
        // The interfering commit happens exactly once (a retried body
        // must not re-commit it, or every retry re-invalidates the read).
        let interfered = std::cell::Cell::new(false);
        let vy = s.atomic(|tx| {
            assert!(tx.cmp(x, CmpOp::Gte, 0)?);
            if !interfered.get() {
                interfered.set(true);
                s.atomic(|tx2| {
                    tx2.write(x, 1)?;
                    tx2.write(y, 1)
                });
            }
            let vy = tx.read(y)?;
            tx.write(z, vy)?;
            Ok(vy)
        });
        assert!(interfered.get());
        assert_eq!(vy, 1, "S-TL2: retry converges to the legal outcome");
        assert_eq!(s.read_now(z), 1);
    }
}

/// Paper Algorithm 9: NOT opaque even with the new API. T1 reads y (= 0),
/// T2 commits `x = 1; y = 1`, then T1 compares `x >= 1`. Allowing the
/// compare to see the new x would pair new-x with old-y: the semantic
/// algorithms must abort T1.
#[test]
fn algorithm9_not_opaque_must_abort() {
    for alg in [Algorithm::SNOrec, Algorithm::STl2] {
        let s = stm(alg);
        let x = s.alloc_cell(0i64);
        let y = s.alloc_cell(0i64);
        let z = s.alloc_cell(-1i64);
        let r: Result<(), Abort> = s.try_atomic(|tx| {
            let vy = tx.read(y)?;
            tx.write(z, vy)?;
            s.atomic(|tx2| {
                tx2.write(x, 1)?;
                tx2.write(y, 1)
            });
            // This cmp must not succeed against the *new* x.
            if tx.cmp(x, CmpOp::Gte, 1)? {
                tx.write(z, 1)?;
            }
            Ok(())
        });
        assert!(r.is_err(), "{alg}: history is not opaque; T1 must abort");
        assert_eq!(s.read_now(z), -1, "{alg}: aborted T1 must leave no trace");
    }
}

/// A compare whose *outcome was false* records the inverse relation; a
/// later commit that keeps the inverse true must not abort, one that
/// flips it must.
#[test]
fn false_outcome_records_inverse_relation() {
    for alg in [Algorithm::SNOrec, Algorithm::STl2] {
        let s = stm(alg);
        let x = s.alloc_cell(-5i64);
        let out = s.alloc_cell(0i64);
        // Keeps "x <= 0" true: commit survives.
        let r = s.try_atomic(|tx| {
            assert!(!tx.cmp(x, CmpOp::Gt, 0)?);
            s.atomic(|tx2| tx2.write(x, -9));
            tx.write(out, 1)?;
            Ok(())
        });
        assert_eq!(r, Ok(()), "{alg}");
        // Flips it: abort.
        s.write_now(x, -5);
        let r = s.try_atomic(|tx| {
            assert!(!tx.cmp(x, CmpOp::Gt, 0)?);
            s.atomic(|tx2| tx2.write(x, 9));
            tx.write(out, 2)?;
            Ok(())
        });
        assert!(r.is_err(), "{alg}");
    }
}

/// Deferred increments must serialise with concurrent writers without
/// lost updates, in every pairwise interleaving direction.
#[test]
fn deferred_inc_no_lost_update() {
    for alg in Algorithm::ALL {
        let s = stm(alg);
        let x = s.alloc_cell(100i64);
        let r = s.try_atomic(|tx| {
            tx.inc(x, 7)?;
            s.atomic(|tx2| tx2.inc(x, 11));
            Ok(())
        });
        if alg.is_semantic() {
            // The read half is deferred to commit, under exclusion: no
            // conflict is possible and no update is lost.
            assert_eq!(r, Ok(()), "{alg}: pure-inc transactions never conflict");
            assert_eq!(s.read_now(x), 118, "{alg}: both increments applied");
        } else {
            // Delegated inc = read + write: the concurrent commit
            // invalidates the read, so the first attempt aborts (and a
            // retry would serialise correctly).
            assert!(r.is_err(), "{alg}: delegated inc must conflict");
            assert_eq!(s.read_now(x), 111, "{alg}: only the inner inc landed");
        }
    }
}

/// Zombie-read stress: writers keep `x + y == 0` invariant; readers
/// assert it inside every transaction. Opacity means the assertion can
/// never fire, on any algorithm.
#[test]
fn invariant_pair_never_torn() {
    for alg in Algorithm::ALL {
        let s = stm(alg);
        let x = s.alloc_cell(0i64);
        let y = s.alloc_cell(0i64);
        let iterations = 300;
        std::thread::scope(|scope| {
            for w in 0..2i64 {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..iterations {
                        let delta = (i % 13) + w;
                        s.atomic(|tx| {
                            tx.inc(x, delta)?;
                            tx.inc(y, -delta)
                        });
                    }
                });
            }
            for _ in 0..2 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..iterations {
                        let (vx, vy) = s.atomic(|tx| {
                            let vx = tx.read(x)?;
                            let vy = tx.read(y)?;
                            Ok((vx, vy))
                        });
                        assert_eq!(vx + vy, 0, "{alg}: torn snapshot observed");
                    }
                });
            }
        });
        assert_eq!(s.read_now(x) + s.read_now(y), 0, "{alg}");
    }
}

/// The same invariant observed through semantic compares: `x + y == 0`
/// implies `x >= 0 iff y <= 0` whenever both are checked in one
/// transaction.
#[test]
fn invariant_pair_semantic_view_consistent() {
    for alg in [Algorithm::SNOrec, Algorithm::STl2] {
        let s = stm(alg);
        let x = s.alloc_cell(0i64);
        let y = s.alloc_cell(0i64);
        let iterations = 300;
        std::thread::scope(|scope| {
            let s1 = &s;
            scope.spawn(move || {
                for i in 1..=iterations {
                    let sign = if i % 2 == 0 { 1 } else { -1 };
                    s1.atomic(|tx| {
                        tx.write(x, sign * i)?;
                        tx.write(y, -sign * i)
                    });
                }
            });
            for _ in 0..2 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..iterations {
                        let (gx, ly) = s.atomic(|tx| {
                            let gx = tx.cmp(x, CmpOp::Gt, 0)?;
                            let ly = tx.cmp(y, CmpOp::Lt, 0)?;
                            Ok((gx, ly))
                        });
                        assert_eq!(gx, ly, "{alg}: semantic views disagree");
                    }
                });
            }
        });
    }
}

// ---------------------------------------------------------------------
// The same paper histories replayed under the deterministic scheduler:
// instead of hand-weaving one interleaving with a nested commit, every
// bounded-preemption schedule of two real (virtual) threads is explored
// and each execution's recorded history goes through the opacity
// checker. See `crates/check` and DESIGN.md §"Testing strategy".
// ---------------------------------------------------------------------

mod scheduled {
    use semtm::{Algorithm, CmpOp};
    use semtm_check::fuzz::check_stm;
    use semtm_check::history::{run_checked, Attempt, OpRec, RecThread};
    use semtm_check::schedule::{explore_exhaustive, ExploreOptions};
    use semtm_check::vthread::STEP_CAP;

    fn opts(max_preemptions: u32) -> ExploreOptions {
        ExploreOptions {
            max_preemptions,
            ..ExploreOptions::default()
        }
    }

    /// T0's one attempt, if T0 committed first-try and some committed
    /// T1 attempt ended inside that attempt's window.
    fn t0_committed_first_try_across_t1(attempts: &[Attempt]) -> Option<&Attempt> {
        let t0: Vec<_> = attempts.iter().filter(|a| a.thread == 0).collect();
        let first = *t0.first()?;
        let across = attempts.iter().any(|a| {
            a.thread == 1 && a.committed && first.begin_seq < a.end_seq && a.end_seq < first.end_seq
        });
        (t0.len() == 1 && first.committed && across).then_some(first)
    }

    /// Paper Algorithm 1 under the scheduler: T0 checks `x > 0 || y > 0`
    /// and writes `out`, T1 commits `x++; y--`. Semantic algorithms must
    /// exhibit a schedule where T1 commits *inside* T0's window and T0
    /// still commits first-try; baselines must exhibit aborted attempts.
    /// Every execution's history must pass the opacity checker.
    #[test]
    fn algorithm1_false_conflict_all_schedules() {
        for alg in Algorithm::ALL {
            let mut committed_across_first_try = false;
            let mut saw_abort = false;
            let explored = explore_exhaustive(opts(3), |driver| {
                let stm = check_stm(alg, 1);
                let x = stm.alloc_cell(5);
                let y = stm.alloc_cell(5);
                let out = stm.alloc_cell(0);
                let t0 = |t: &RecThread<'_>| {
                    t.atomic(|tx| {
                        let cond = tx.cmp(x, CmpOp::Gt, 0)? || tx.cmp(y, CmpOp::Gt, 0)?;
                        assert!(cond, "x stays > 0 in every schedule");
                        tx.write(out, 1)
                    })
                };
                let t1 = |t: &RecThread<'_>| {
                    t.atomic(|tx| {
                        tx.inc(x, 1)?;
                        tx.inc(y, -1)
                    })
                };
                let threads = [&t0 as _, &t1 as _];
                let attempts =
                    run_checked("algorithm1", &stm, &[x, y, out], &threads, driver, STEP_CAP)?;
                saw_abort |= attempts.iter().any(|a| a.thread == 0 && !a.committed);
                committed_across_first_try |= t0_committed_first_try_across_t1(&attempts).is_some();
                Ok(())
            });
            assert!(
                explored > 10,
                "{alg}: expected real branching, got {explored}"
            );
            if alg.is_semantic() {
                assert!(
                    committed_across_first_try,
                    "{alg}: some schedule must commit T0 first-try across T1's commit"
                );
            } else {
                assert!(
                    saw_abort,
                    "{alg}: value validation must abort T0 in some schedule"
                );
            }
        }
    }

    /// Paper Algorithm 8 under the scheduler: T0 runs
    /// `if x >= 0 { z = y }`, T1 commits `x = 1; y = 1`. S-NOrec must
    /// exhibit the T1 -> T0 serialisation live (T0 commits first-try
    /// with z = 1 while T1's commit lands inside T0's window); every
    /// execution on every semantic algorithm must be opaque.
    #[test]
    fn algorithm8_opaque_all_schedules() {
        for alg in [Algorithm::SNOrec, Algorithm::STl2] {
            let mut serialised_after_interferer = false;
            explore_exhaustive(opts(3), |driver| {
                let stm = check_stm(alg, 1);
                let x = stm.alloc_cell(0);
                let y = stm.alloc_cell(0);
                let z = stm.alloc_cell(-1);
                let t0 = |t: &RecThread<'_>| {
                    t.atomic(|tx| {
                        assert!(tx.cmp(x, CmpOp::Gte, 0)?, "x only ever grows");
                        let vy = tx.read(y)?;
                        tx.write(z, vy)
                    })
                };
                let t1 = |t: &RecThread<'_>| {
                    t.atomic(|tx| {
                        tx.write(x, 1)?;
                        tx.write(y, 1)
                    })
                };
                let threads = [&t0 as _, &t1 as _];
                let attempts =
                    run_checked("algorithm8", &stm, &[x, y, z], &threads, driver, STEP_CAP)?;
                serialised_after_interferer |= t0_committed_first_try_across_t1(&attempts)
                    .is_some_and(|first| {
                        first
                            .ops
                            .iter()
                            .any(|op| matches!(op, OpRec::Read { addr, val: 1, .. } if *addr == y))
                    });
                Ok(())
            });
            if alg == Algorithm::SNOrec {
                // Plain reads extend the S-NOrec snapshot, so the
                // T1 -> T0 serialisation happens with no abort at all.
                // S-TL2 is more conservative (only phase-1 compares can
                // extend) and may abort first, which is equally opaque.
                assert!(
                    serialised_after_interferer,
                    "S-NOrec: some schedule must serialise T0 after T1 first-try"
                );
            }
        }
    }

    /// Paper Algorithm 9 under the scheduler: T0 reads y and *then*
    /// compares `x >= 1`; T1 commits `x = 1; y = 1`. Pairing old-y with
    /// new-x is not opaque, so no committed T0 attempt may ever observe
    /// `y == 0` together with `x >= 1` being true — on any algorithm,
    /// in any schedule.
    #[test]
    fn algorithm9_never_pairs_old_y_with_new_x() {
        for alg in Algorithm::ALL {
            explore_exhaustive(opts(3), |driver| {
                let stm = check_stm(alg, 1);
                let x = stm.alloc_cell(0);
                let y = stm.alloc_cell(0);
                let z = stm.alloc_cell(-1);
                let t0 = |t: &RecThread<'_>| {
                    t.atomic(|tx| {
                        let vy = tx.read(y)?;
                        tx.write(z, vy)?;
                        if tx.cmp(x, CmpOp::Gte, 1)? {
                            tx.write(z, 1)?;
                        }
                        Ok(())
                    })
                };
                let t1 = |t: &RecThread<'_>| {
                    t.atomic(|tx| {
                        tx.write(x, 1)?;
                        tx.write(y, 1)
                    })
                };
                let threads = [&t0 as _, &t1 as _];
                let attempts =
                    run_checked("algorithm9", &stm, &[x, y, z], &threads, driver, STEP_CAP)?;
                for at in attempts.iter().filter(|a| a.thread == 0 && a.committed) {
                    let old_y = at
                        .ops
                        .iter()
                        .any(|op| matches!(op, OpRec::Read { addr, val: 0, .. } if *addr == y));
                    let new_x = at
                        .ops
                        .iter()
                        .any(|op| matches!(op, OpRec::Cmp { a, out: true, .. } if *a == x));
                    if old_y && new_x {
                        return Err(format!("{alg}: committed attempt paired old y with new x"));
                    }
                }
                Ok(())
            });
        }
    }
}

/// Explicit aborts surface with their reason and leave no effects.
#[test]
fn explicit_abort_reason_preserved() {
    let s = stm(Algorithm::STl2);
    let x = s.alloc_cell(3i64);
    let r: Result<(), Abort> = s.try_atomic(|tx| {
        tx.write(x, 99)?;
        Err(Abort::explicit())
    });
    assert_eq!(r.unwrap_err().reason, AbortReason::Explicit);
    assert_eq!(s.read_now(x), 3, "buffered write must be discarded");
}
