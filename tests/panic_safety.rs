//! A panicking transaction must not wedge the runtime.
//!
//! An attempt raises its thread's presence count in the adaptive mode
//! machine from `enter` to `exit`; a panic unwinding out of the body used
//! to skip the `exit`, after which `switch_to` drained forever and every
//! later transaction spun behind the `Draining` word. The count is now
//! held by an RAII guard, so the unwind lowers it (and rolls the engine
//! back — which also frees a commit clock or orec the panic left locked).

use semtm::{Abort, Addr, Algorithm, Mode, Stm, StmConfig, Tx};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A wedged switch spins forever; fail the test instead of hanging it.
const DEADLINE: Duration = Duration::from_secs(20);

/// How a body panics after its `inc`, and what the panic says.
struct Fault {
    panic: fn(&Stm),
    says: &'static str,
}

const EXPLICIT: Fault = Fault {
    panic: |_| panic!("body panics mid-transaction"),
    says: "body panics mid-transaction",
};

/// `Stm::alloc` past the heap's capacity, from inside the body.
const HEAP_EXHAUSTED: Fault = Fault {
    panic: |stm| {
        stm.alloc(stm.heap().capacity());
    },
    says: "transactional heap exhausted",
};

/// Through both entry points: a body that panics mid-transaction, then a
/// switch away from the panicked attempt's mode, then a commit.
fn panic_then_switch(config: StmConfig, target: Mode, fault: &Fault) {
    for retrying in [true, false] {
        panic_then_switch_via(config.clone(), target, retrying, fault);
    }
}

fn panic_then_switch_via(config: StmConfig, target: Mode, retrying: bool, fault: &Fault) {
    let stm = Arc::new(Stm::new(config.heap_words(1 << 10).orec_count(1 << 6)));
    let cell = stm.alloc_cell(1i64);
    let allocated = stm.heap().allocated();
    let from = stm.mode();

    let body = |tx: &mut Tx<'_>| -> Result<(), Abort> {
        tx.inc(cell, 1)?;
        (fault.panic)(&stm);
        unreachable!("the fault panics");
    };
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        if retrying {
            stm.atomic(body)
        } else {
            stm.try_atomic(body).expect("unreachable: the body panics")
        }
    }));
    let Err(payload) = unwound else {
        panic!("{from}: the panic must reach the caller")
    };
    let said = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or_default();
    assert!(said.contains(fault.says), "{from}: panicked with {said:?}");
    assert_eq!(
        stm.heap().allocated(),
        allocated,
        "{from}: allocation moved"
    );

    let (done, finished) = mpsc::channel();
    let switcher = {
        let stm = stm.clone();
        std::thread::spawn(move || {
            let report = stm.switch_to(target);
            done.send(report.is_ok_and(|r| r.changed())).ok();
        })
    };
    let switched = finished
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{from}: switch_to wedged behind the panicked attempt"));
    switcher.join().expect("switcher panicked");
    assert!(switched, "{from} -> {target}");
    assert_eq!(stm.mode(), target);

    stm.atomic(|tx| tx.inc(cell, 1));
    assert_eq!(
        stm.read_now(cell),
        2,
        "{from}: the panicked inc must not apply"
    );
    assert_eq!(stm.stats().commits, 1);
}

/// A panic *inside* `commit`, with the engine's commit locks held: a
/// blind store to an address outside the heap passes every barrier and
/// faults in the write-back. The next transaction must still begin.
fn panic_in_write_back(config: StmConfig) {
    let stm = Arc::new(Stm::new(config.heap_words(1 << 10).orec_count(1 << 6)));
    let cell = stm.alloc_cell(1i64);
    let mode = stm.mode();

    let unwound = catch_unwind(AssertUnwindSafe(|| {
        stm.atomic(|tx| tx.write(Addr::from_index(1 << 30), 7));
    }));
    assert!(unwound.is_err(), "{mode}: the store must fault");

    let (done, finished) = mpsc::channel();
    let next = {
        let stm = stm.clone();
        std::thread::spawn(move || {
            stm.atomic(|tx| tx.inc(cell, 1));
            done.send(()).ok();
        })
    };
    finished
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{mode}: commit locks leaked by the panicked commit"));
    next.join().expect("follow-up transaction panicked");
    assert_eq!(stm.read_now(cell), 2);
}

#[test]
fn panic_in_write_back_releases_commit_locks() {
    panic_in_write_back(StmConfig::new(Algorithm::SNOrec));
    panic_in_write_back(StmConfig::new(Algorithm::SNOrec).clock_shards(4));
    panic_in_write_back(StmConfig::new(Algorithm::STl2));
}

#[test]
fn panic_in_body_releases_epoch_slot_snorec_global() {
    panic_then_switch(
        StmConfig::new(Algorithm::SNOrec),
        Mode::new(Algorithm::STl2),
        &EXPLICIT,
    );
}

#[test]
fn panic_in_body_releases_epoch_slot_snorec_sharded() {
    panic_then_switch(
        StmConfig::new(Algorithm::SNOrec).clock_shards(4),
        Mode::new(Algorithm::SNOrec),
        &EXPLICIT,
    );
}

#[test]
fn panic_in_body_releases_epoch_slot_stl2() {
    panic_then_switch(
        StmConfig::new(Algorithm::STl2),
        Mode::new(Algorithm::SNOrec),
        &EXPLICIT,
    );
}

/// `Stm::alloc` past capacity inside `atomic` is a defined outcome: the
/// "transactional heap exhausted" panic reaches the caller, the heap's
/// allocation count is unchanged, the presence count is lowered (a switch
/// completes) and the next transaction commits.
#[test]
fn heap_exhausted_in_body_reaches_the_caller_snorec_global() {
    panic_then_switch(
        StmConfig::new(Algorithm::SNOrec),
        Mode::new(Algorithm::STl2),
        &HEAP_EXHAUSTED,
    );
}

#[test]
fn heap_exhausted_in_body_reaches_the_caller_snorec_sharded() {
    panic_then_switch(
        StmConfig::new(Algorithm::SNOrec).clock_shards(4),
        Mode::new(Algorithm::SNOrec),
        &HEAP_EXHAUSTED,
    );
}

#[test]
fn heap_exhausted_in_body_reaches_the_caller_stl2() {
    panic_then_switch(
        StmConfig::new(Algorithm::STl2),
        Mode::new(Algorithm::SNOrec),
        &HEAP_EXHAUSTED,
    );
}
