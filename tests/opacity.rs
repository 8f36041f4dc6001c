//! Opacity tests (paper §5): the histories of Algorithms 1, 8 and 9
//! replayed as deterministic interleavings, plus an invariant-pair
//! stress test that no transaction ever observes an inconsistent
//! snapshot (zombie read).
//!
//! Interleavings are produced by committing an inner transaction while
//! an outer `try_atomic` body is suspended between its operations —
//! transactions are plain values in this runtime, so a single thread can
//! interleave them precisely. The same histories under every
//! bounded-preemption schedule are `semtm-check`'s
//! `crates/check/tests/opacity.rs`: this package links the engines
//! without the schedule hooks, as they ship.

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
