//! Virtual threads: N transaction bodies as coroutines-on-real-threads
//! with exactly one runnable at a time.
//!
//! Each body runs on its own OS thread, but a coordinator holds all of
//! them parked except one. Whenever the running body hits a schedule
//! point (`semtm_core::sched::point`/`spin`), its thread parks and the
//! coordinator picks the next thread to resume — so the interleaving of
//! the STM algorithms' racy steps is fully determined by the sequence of
//! coordinator decisions, which a [`Driver`](crate::schedule) replays,
//! enumerates, or randomises.

use crate::schedule::{Decision, Driver};
use semtm_core::sched::{self, Fault, PointKind, SchedHook};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, Once};

/// Panic payload used to unwind a worker that the coordinator cancelled
/// (e.g. after another worker failed or the step cap was hit). Filtered
/// out of the panic-hook output and of the panic `run_threads` re-raises.
struct Cancelled;

/// Where a worker currently stands, from the coordinator's view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Parked at a schedule point, waiting for a `Go`.
    Parked,
    /// Told to run; the worker owns the schedule until it parks again.
    Go,
    /// Body returned (or unwound); never runnable again.
    Done,
}

struct SlotState {
    phase: Phase,
    /// Whether the most recent park came from `sched::spin()` (a futile
    /// wait iteration) rather than a regular point.
    spin: bool,
    /// Set by the coordinator to make the next resume unwind the body.
    cancel: bool,
}

/// One worker's rendezvous cell with the coordinator.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: Mutex::new(SlotState {
                phase: Phase::Go, // workers start running until their first point
                spin: false,
                cancel: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Worker side: park at a schedule point and wait to be resumed.
    fn park(&self, spin: bool) {
        let mut st = self.state.lock().unwrap();
        st.phase = Phase::Parked;
        st.spin = spin;
        self.cv.notify_all();
        while st.phase != Phase::Go {
            st = self.cv.wait(st).unwrap();
        }
        if st.cancel {
            drop(st);
            panic::panic_any(Cancelled);
        }
    }

    /// Worker side: mark the body finished.
    fn finish(&self) {
        let mut st = self.state.lock().unwrap();
        st.phase = Phase::Done;
        self.cv.notify_all();
    }

    /// Coordinator side: resume the worker and block until it parks
    /// again or finishes. Returns `true` while the worker is still alive.
    fn resume_and_wait(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        debug_assert_eq!(st.phase, Phase::Parked);
        st.phase = Phase::Go;
        self.cv.notify_all();
        while st.phase == Phase::Go {
            st = self.cv.wait(st).unwrap();
        }
        st.phase == Phase::Parked
    }

    /// Coordinator side: wait for the worker's first park (workers start
    /// in `Go` so they run up to their first schedule point unprompted).
    fn wait_initial(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        while st.phase == Phase::Go {
            st = self.cv.wait(st).unwrap();
        }
        st.phase == Phase::Parked
    }
}

/// The per-worker [`SchedHook`] installed for the body's thread.
struct WorkerHook {
    slot: Arc<Slot>,
    /// The driver's [`Driver::fault`], the one guard this thread skips.
    fault: Option<Fault>,
}

impl SchedHook for WorkerHook {
    fn point(&self, _kind: PointKind) {
        self.slot.park(false);
    }
    fn spin(&self) {
        self.slot.park(true);
    }
    fn fault(&self, fault: Fault) -> bool {
        self.fault == Some(fault)
    }
}

/// Install a process-wide panic hook (once) that silences the expected
/// [`Cancelled`] unwinds and delegates everything else to the default.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Cancelled>().is_none() {
                default(info);
            }
        }));
    });
}

/// Scheduling decisions one explored execution may take before it is
/// cut off as a livelock (the explorers' cap; the fuzzer names its own).
pub const STEP_CAP: usize = 20_000;

/// A virtual-thread body, called with its thread index.
pub type Body<'b> = &'b (dyn Fn(usize) + Sync);

/// Run `bodies` under `driver`'s schedule, each called with its thread
/// index, skipping the guard [`Driver::fault`] names.
///
/// Every body runs to completion (or unwinds) before this returns. A
/// panic in a body (other than coordinator cancellation) cancels the
/// remaining workers and is re-raised on the calling thread, so test
/// assertions inside bodies behave as usual.
///
/// `step_cap` bounds the number of scheduling decisions as a livelock
/// backstop; hitting it cancels all workers and returns an error naming
/// the cap and the steps taken.
pub fn run_threads(
    bodies: &[Body<'_>],
    driver: &mut dyn Driver,
    step_cap: usize,
) -> Result<(), String> {
    install_quiet_panic_hook();
    let n = bodies.len();
    let fault = driver.fault();
    let slots: Vec<Arc<Slot>> = (0..n).map(|_| Arc::new(Slot::new())).collect();
    let mut steps = 0usize;
    let mut capped = false;
    let mut body_panic: Option<Box<dyn std::any::Any + Send>> = None;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (i, body) in bodies.iter().enumerate() {
            let slot = slots[i].clone();
            handles.push(scope.spawn(move || {
                let hook: Arc<dyn SchedHook> = Arc::new(WorkerHook {
                    slot: slot.clone(),
                    fault,
                });
                sched::install_hook(hook);
                let result = panic::catch_unwind(AssertUnwindSafe(|| body(i)));
                sched::clear_hook();
                slot.finish();
                match result {
                    Ok(()) => Ok(()),
                    Err(p) if p.downcast_ref::<Cancelled>().is_some() => Ok(()),
                    Err(p) => Err(p),
                }
            }));
        }

        // alive[i]: worker has parked at a point and can be resumed.
        let mut alive: Vec<bool> = Vec::with_capacity(n);
        let mut spinning: Vec<bool> = vec![false; n];
        for (i, slot) in slots.iter().enumerate() {
            let parked = slot.wait_initial();
            alive.push(parked);
            if parked {
                spinning[i] = slot.state.lock().unwrap().spin;
            }
        }

        let mut current: Option<usize> = None;
        loop {
            let alive_ids: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
            if alive_ids.is_empty() {
                break;
            }
            if steps >= step_cap {
                capped = true;
                cancel_all(&slots, &alive);
                break;
            }
            let chosen = driver.choose(Decision {
                current,
                spin: current.map(|c| spinning[c]).unwrap_or(false),
                alive: &alive_ids,
            });
            debug_assert!(alive[chosen], "driver chose a finished worker");
            steps += 1;
            let still_alive = slots[chosen].resume_and_wait();
            alive[chosen] = still_alive;
            if still_alive {
                spinning[chosen] = slots[chosen].state.lock().unwrap().spin;
                current = Some(chosen);
            } else {
                current = None; // completion: next switch is free
            }
        }

        for h in handles {
            if let Err(p) = h.join().expect("worker thread itself must not die") {
                body_panic.get_or_insert(p);
            }
        }
    });

    if let Some(p) = body_panic {
        panic::resume_unwind(p);
    }
    if capped {
        return Err(format!(
            "step cap {step_cap} exceeded after {steps} steps (livelock?)"
        ));
    }
    Ok(())
}

/// Cancel every still-parked worker so the scope can join them.
fn cancel_all(slots: &[Arc<Slot>], alive: &[bool]) {
    for (i, slot) in slots.iter().enumerate() {
        if !alive[i] {
            continue;
        }
        let mut st = slot.state.lock().unwrap();
        st.cancel = true;
        st.phase = Phase::Go;
        slot.cv.notify_all();
        while st.phase == Phase::Go {
            st = slot.cv.wait(st).unwrap();
        }
    }
}
