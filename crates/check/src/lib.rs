//! # semtm-check — deterministic schedule exploration for the semantic STM
//!
//! A hand-rolled, zero-dependency loom/shuttle-style concurrency harness
//! for the `semtm-core` algorithms (NOrec, S-NOrec, TL2, S-TL2):
//!
//! * [`vthread`] — N transaction bodies as coroutines-on-real-threads
//!   with exactly one runnable at a time, driven by a schedule
//!   [`Driver`](schedule::Driver);
//! * [`schedule`] — exhaustive bounded-preemption DFS
//!   ([`DfsDriver`](schedule::DfsDriver)) and seeded, replayable random
//!   walks ([`RandomDriver`](schedule::RandomDriver));
//! * [`history`] — a recorder logging every `begin`/`read`/`cmp`/`inc`/
//!   `write`/`commit`/`abort` with global sequence stamps, and
//!   [`run_checked`](history::run_checked), the one way to run a checked
//!   execution: step cap, history check and, on a span-recording
//!   runtime, the failing schedule's trace dump;
//! * [`checker`] — final-state serializability and zombie-freedom over
//!   recorded histories;
//! * [`program`] + [`fuzz`] + [`shrink`] — the cross-backend
//!   differential fuzzer: random transaction programs, executed on all
//!   four algorithms under random schedules, compared against a serial
//!   oracle, with failing programs minimized before reporting.
//!
//! The instrumentation side lives in `semtm-core` behind the `shuttle`
//! feature (`sched::point()` / `sched::spin()`, and `sched::fault()` for
//! the mutants a run names in
//! [`ExploreOptions::fault`](schedule::ExploreOptions::fault)), which
//! this crate always enables; normal builds of the core compile the
//! points and the fault gates away.
//!
//! ## Quick start
//!
//! ```
//! use semtm_check::fuzz::check_stm;
//! use semtm_check::history::{run_checked, RecThread};
//! use semtm_check::schedule::{explore_exhaustive, ExploreOptions};
//! use semtm_check::vthread::STEP_CAP;
//! use semtm_core::Algorithm;
//!
//! // Explore every schedule (≤2 preemptions) of two racing increments,
//! // on the global commit clock and on four clock shards: each execution
//! // must stay under the step cap, pass the history checker and lose no
//! // update.
//! for shards in [1, 4] {
//!     let explored = explore_exhaustive(
//!         ExploreOptions { max_preemptions: 2, ..ExploreOptions::default() },
//!         |driver| {
//!             let stm = check_stm(Algorithm::SNOrec, shards);
//!             let x = stm.alloc_cell(0i64);
//!             let inc = |t: &RecThread<'_>| t.atomic(|tx| tx.inc(x, 1));
//!             run_checked("increments", &stm, &[x], &[&inc, &inc], driver, STEP_CAP)?;
//!             if stm.read_now(x) == 2 { Ok(()) } else { Err("lost update".into()) }
//!         },
//!     );
//!     assert!(explored > 1);
//! }
//! ```
//!
//! Failing explorations panic with a replay seed (random mode) or the
//! decision schedule (exhaustive mode); see DESIGN.md §"Testing
//! strategy" for how to replay them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod crash;
pub mod fuzz;
pub mod history;
pub mod program;
pub mod scenario;
pub mod schedule;
pub mod shrink;
pub mod tracedump;
pub mod vthread;
