//! The false-conflict census, pinned.
//!
//! The paper's claim is that semantic validation removes aborts that
//! value validation takes for no reason. Wall-clock abort rates cannot
//! show that on a small host; the schedule explorer can count it. Each
//! script below is run by exhaustive DFS at preemption bound 2 on all
//! four algorithms, and the number of schedules explored and the total
//! number of aborts over all of them are exact integers that depend on
//! nothing but the code.
//!
//! The scripts are the hashtable probe's case (`workloads::hashtable`):
//! a capacity-8 table laid out, with the table's own operations, as
//! `[REMOVED k_old][USED k]` in one probe chain. Thread 0 probes for `k`
//! once (`try_atomic(contains(k))`); thread 1 runs one of
//!
//! - *reuse*: `insert(k2)`, `k2 != k` in the same bucket, which takes the
//!   tombstone. The probe recorded `keys != k` on that cell, and the
//!   reuse keeps it: a semantic engine must never abort here, a value
//!   engine does.
//! - *control*: `remove(k)`, which flips the `states != REMOVED` the
//!   probe recorded on `k`'s cell: every engine must abort somewhere.
//!
//! The runtimes are built with one clock shard and no adaptive switcher
//! joins these executions. A probe change that records a relation a
//! concurrent insert flips moves a row below and fails the gate.
//!
//! S-TL2's row pins its phase-1 snapshot extension (Algorithm 7 lines
//! 19–25), which is why S-TL2 has no off switch for it. With the
//! extension turned off, S-TL2 counted exactly TL2's rows: *reuse*
//! 563 schedules / 93 aborts against the pinned 566 / 0, and *control*
//! 495 / 227 against the pinned 496 / 36. A count, not a wall-clock
//! ratio, decided it.

use semtm_check::fuzz::check_stm;
use semtm_check::schedule::{explore_exhaustive, ExploreOptions};
use semtm_check::vthread::{run_threads, STEP_CAP};
use semtm_core::util::hash_u32;
use semtm_core::{Abort, Algorithm};
use semtm_workloads::hashtable::{Hashtable, HashtableConfig};
use std::sync::Mutex;

const CAPACITY: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Script {
    Reuse,
    Control,
}

/// The first three keys whose home bucket in a capacity-8 table is key
/// 1's: `[k_old, k, k2]`.
fn same_bucket_keys() -> [i64; 3] {
    let home = |key: i64| hash_u32(key as u32) as usize & (CAPACITY - 1);
    let mut keys = (1..).filter(|&key| home(key) == home(1));
    [(); 3].map(|()| keys.next().expect("keys are unbounded"))
}

/// Run `script` on every schedule; returns (schedules, total aborts).
fn census(alg: Algorithm, script: Script) -> (usize, u64) {
    let [k_old, k, k2] = same_bucket_keys();
    let mut aborts = 0;
    let opts = ExploreOptions {
        max_preemptions: 2,
        ..ExploreOptions::default()
    };
    let schedules = explore_exhaustive(opts, |driver| {
        let stm = check_stm(alg, 1);
        let table = Hashtable::new(
            &stm,
            HashtableConfig {
                capacity: CAPACITY,
                fill_pct: 0,
                tombstone_pct: 0,
                ..HashtableConfig::default()
            },
        );
        assert!(stm.atomic(|tx| table.insert(tx, k_old)));
        assert!(stm.atomic(|tx| table.insert(tx, k)));
        assert!(stm.atomic(|tx| table.remove(tx, k_old)));
        assert_eq!(table.census(&stm), (1, 1, CAPACITY - 2), "[REMOVED][USED]");
        let before = stm.stats();

        let probed: Mutex<Option<Result<bool, Abort>>> = Mutex::new(None);
        let prober = |_tid: usize| {
            let found = stm.try_atomic(|tx| table.contains(tx, k));
            *probed.lock().unwrap() = Some(found);
        };
        let writer = |_tid: usize| match script {
            Script::Reuse => assert!(stm.atomic(|tx| table.insert(tx, k2))),
            Script::Control => assert!(stm.atomic(|tx| table.remove(tx, k))),
        };
        run_threads(&[&prober, &writer], driver, STEP_CAP)?;
        table.verify(&stm).map_err(|e| format!("{alg}: {e}"))?;

        // `k` is live throughout *reuse*, so a committed probe finds it.
        let found = probed.lock().unwrap().take().expect("prober ran");
        if script == Script::Reuse && matches!(found, Ok(false)) {
            return Err(format!("{alg}: the probe lost {k} to a reuse"));
        }
        let live = |key| stm.atomic(|tx| table.contains(tx, key));
        let expected = match script {
            Script::Reuse => live(k) && live(k2) && !live(k_old),
            Script::Control => !live(k) && !live(k_old),
        };
        if !expected {
            return Err(format!("{alg}: {script:?} left the wrong key set"));
        }
        aborts += stm.stats().since(&before).conflict_aborts();
        Ok(())
    });
    (schedules, aborts)
}

/// Compare the whole (algorithm, schedules, aborts) table of one script
/// and return the aborts in `Algorithm::ALL` order.
fn assert_census(script: Script, expected: [(Algorithm, usize, u64); 4]) -> [u64; 4] {
    let got = Algorithm::ALL.map(|alg| {
        let (schedules, aborts) = census(alg, script);
        (alg, schedules, aborts)
    });
    assert_eq!(got, expected, "{script:?}: (algorithm, schedules, aborts)");
    got.map(|(_, _, aborts)| aborts)
}

/// A probe in Algorithm 2's order (`states == REMOVED` tested first)
/// records what the reuse flips: S-NOrec then aborts 52 times here.
#[test]
fn reuse_of_a_passed_tombstone() {
    let [norec, snorec, tl2, stl2] = assert_census(
        Script::Reuse,
        [
            (Algorithm::NOrec, 191, 60),
            (Algorithm::SNOrec, 191, 0),
            (Algorithm::Tl2, 563, 93),
            (Algorithm::STl2, 566, 0),
        ],
    );
    assert_eq!((snorec, stl2), (0, 0), "a kept relation must not abort");
    assert!(norec > 0 && tl2 > 0, "value validation sees the reuse");
}

/// Algorithm 2's order records `states != REMOVED` on `k`'s cell one
/// compare earlier, so the remove has a longer window to flip it in:
/// S-NOrec then aborts 22 times here and S-TL2 72.
#[test]
fn control_remove_of_the_probed_key() {
    let aborts = assert_census(
        Script::Control,
        [
            (Algorithm::NOrec, 174, 33),
            (Algorithm::SNOrec, 174, 11),
            (Algorithm::Tl2, 495, 227),
            (Algorithm::STl2, 496, 36),
        ],
    );
    assert!(aborts.iter().all(|&n| n > 0), "a flipped relation aborts");
}
