//! # semtm — facade crate
//!
//! Re-exports the three layers of the reproduction of *"Extending TM
//! Primitives using Low Level Semantics"* (SPAA 2016):
//!
//! * [`semtm_core`] (re-exported as `core`) — the semantic STM runtime (NOrec, S-NOrec,
//!   TL2, S-TL2 over a transactional heap);
//! * [`semtm_ir`] (re-exported as `ir`) — the compiler-integration substrate (GIMPLE-like
//!   IR, `tm_mark`/`tm_optimize` passes, transactional interpreter);
//! * [`semtm_workloads`] (re-exported as `workloads`) — the paper's benchmarks (Bank,
//!   Hashtable, LRU, Queue and the STAMP ports).
//!
//! The examples under `examples/` and the integration tests under
//! `tests/` use this crate; see README.md for a walkthrough.

pub use semtm_core as core;
pub use semtm_ir as ir;
pub use semtm_workloads as workloads;

// Flat re-exports of the everyday API.
pub use semtm_core::{
    Abort, AbortReason, AdaptPolicy, Addr, Algorithm, CmpOp, Conflict, ConflictEdge, Fx32, Heap,
    HistogramSnapshot, Mode, SamplePoint, Sampler, SpanEvent, StatsSnapshot, Stm, StmConfig,
    SwitchError, SwitchReport, TArray, TVar, Telemetry, TelemetryLevel, Tx, Word,
};
