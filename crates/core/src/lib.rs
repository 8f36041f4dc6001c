//! # semtm-core — semantic software transactional memory
//!
//! This crate is a from-scratch Rust implementation of the semantic STM
//! runtime described in *"Extending TM Primitives using Low Level
//! Semantics"* (SPAA 2016). It provides:
//!
//! * a word-addressable **transactional heap** ([`Heap`]) shared by all
//!   threads, over which transactions operate;
//! * four STM algorithms behind one front object ([`Stm`]):
//!   **NOrec** and **TL2** (the baselines), and their semantic extensions
//!   **S-NOrec** and **S-TL2** (the paper's Algorithms 6 and 7);
//! * the **TM-friendly semantic API** of the paper's Table 1 — besides the
//!   classical `read`/`write`, transactions can issue
//!   [`cmp`](stm::Tx::cmp) (`TM_GT`/`TM_GTE`/`TM_LT`/`TM_LTE`/`TM_EQ`/`TM_NEQ`,
//!   both address–value and address–address forms) and
//!   [`inc`](stm::Tx::inc) (`TM_INC`/`TM_DEC`);
//! * per-operation **statistics** ([`stats::StatsSnapshot`]) sufficient to
//!   regenerate the paper's Table 3 and every abort-rate figure.
//!
//! ## Quick start
//!
//! ```
//! use semtm_core::{Stm, StmConfig, Algorithm, CmpOp};
//!
//! let stm = Stm::new(StmConfig::new(Algorithm::SNOrec));
//! let x = stm.alloc_cell(5i64);
//! let y = stm.alloc_cell(5i64);
//!
//! // Paper, Algorithm 1: `if x > 0 || y > 0 { .. }` as one semantic step each.
//! let committed: bool = stm.atomic(|tx| {
//!     let either = tx.cmp(x, CmpOp::Gt, 0)? || tx.cmp(y, CmpOp::Gt, 0)?;
//!     if either {
//!         tx.inc(x, 1)?; // TM_INC
//!         tx.inc(y, -1)?; // TM_DEC
//!     }
//!     Ok(either)
//! });
//! assert!(committed);
//! assert_eq!(stm.read_now(x), 6);
//! assert_eq!(stm.read_now(y), 4);
//! ```
//!
//! ## Design notes
//!
//! * Memory is modelled as an array of `u64` words addressed by [`Addr`];
//!   the typed layer ([`TVar`], [`TArray`]) encodes Rust values into words.
//!   Comparisons and increments use **signed (`i64`) semantics**, matching
//!   the integer-typed shared variables of the paper's benchmarks.
//! * Atomic orderings are conservative: metadata and data words are
//!   loaded `SeqCst` and every acquiring RMW is `SeqCst`. The four stores
//!   of the commit path — write-back (`Heap::tm_store`) and the global
//!   clock, clock-shard and orec releases — are `Release`, each with the
//!   happens-before edge it provides argued in DESIGN.md §8.5. Statistics
//!   counters are `Relaxed`.
//! * The NOrec family is one engine ([`norec`]) monomorphised over its
//!   commit clock — the global sequence lock or the sharded clock
//!   ([`sclock`]) — and shares its commit tail and barrier ABI with [`tl2`].
//! * Base algorithms (`NOrec`, `Tl2`) accept the semantic API but delegate
//!   `cmp` to `read` and `inc` to `read`+`write`, exactly like the paper's
//!   unmodified-libitm configuration; this is what makes base-vs-semantic
//!   comparisons API-compatible.

#![forbid(unsafe_code)]
// The crate is 100% safe today (`forbid` above proves it). Should an
// accelerator backend ever force an `unsafe` block in here, each
// operation inside it must carry its own `unsafe { }` with a SAFETY
// comment rather than inheriting the enclosing `unsafe fn`'s blanket —
// deny the implicit inheritance now so that relaxing `forbid` later
// cannot silently grant it.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod adapt;
pub mod chrome;
pub mod cm;
pub mod config;
pub mod error;
pub mod fault;
pub mod heap;
pub mod hotspot;
pub mod norec;
pub mod ops;
pub mod ring;
pub mod sched;
pub mod sclock;
pub mod sets;
pub mod stats;
pub mod stm;
pub mod telemetry;
pub mod tl2;
pub mod tvar;
pub mod util;
pub mod value;
pub mod wal;

pub use adapt::{AdaptPolicy, Controller, Mode, SwitchError, SwitchReport};
pub use config::{Algorithm, StmConfig};
pub use error::{Abort, AbortReason, Conflict};
pub use heap::{Addr, Heap};
pub use hotspot::ConflictEdge;
pub use ops::CmpOp;
pub use stats::StatsSnapshot;
pub use stm::{Stm, Tx};
pub use telemetry::{
    AbortEvent, HistogramSnapshot, PhaseRecorder, RateEwma, SamplePoint, Sampler, SpanEvent,
    Telemetry, TelemetryLevel,
};
pub use tvar::{TArray, TVar};
pub use value::{Fx32, Word};
pub use wal::{
    read_records, replay, CommitLog, DurabilityMode, FileStorage, LogStorage, RecoveryReport,
    SimHandle, SimStorage, StopReason, Ticket, WalError, WalRecord,
};
