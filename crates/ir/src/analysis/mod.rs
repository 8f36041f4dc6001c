//! Whole-function dataflow analysis for the IR.
//!
//! The paper's GCC passes lean on GIMPLE's existing dataflow machinery;
//! the seed reproduction only tracked facts within one basic block.
//! This module is the reusable substrate that lifts everything to whole
//! functions:
//!
//! * [`cfg`](mod@cfg) — successor/predecessor maps, reverse postorder, and
//!   dominators;
//! * [`solver`] — a generic worklist solver for forward and backward
//!   problems: a problem states one instruction's transfer, the solver
//!   derives each block's transfer, and it alone replays blocks into
//!   the fact at every position, which the analyses below read;
//! * [`bitset`] — the one fact type of the set-valued problems
//!   (reaching definitions, liveness, definite assignment), inline up
//!   to 128 elements;
//! * [`reaching`] — whole-function reaching definitions (forward);
//! * [`liveness`] — whole-function liveness (backward);
//! * [`patterns`] — the cross-block `cmp`/`inc` matchers built on
//!   reaching definitions, with explicit decline reasons;
//! * [`absint`] — lattice-based abstract interpretation (value ranges
//!   plus symbolic addresses), feeding range-widened promotion, the
//!   static conflict matrix, and lint rules SL006–SL011; its
//!   [`Regions`] holds the one region-depth walk;
//! * [`verify`](mod@verify) — the strict IR verifier (definite assignment, region
//!   balance, structure) run around every pass; its balance errors come
//!   from that depth walk.
//!
//! [`crate::passes`] consumes [`patterns`], [`absint`] and
//! [`liveness`]; [`crate::lint`] consumes everything.

pub mod absint;
pub mod bitset;
pub mod cfg;
pub mod liveness;
pub mod patterns;
pub mod reaching;
pub mod solver;
pub mod verify;

pub use absint::{AbsInt, AbsVal, ConflictAnalysis, Interval, Regions, Sym};
pub use bitset::BitSet;
pub use cfg::Cfg;
pub use liveness::Liveness;
pub use patterns::{CmpMatch, Decline, IncMatch, LoadOrigin, PatternCtx};
pub use reaching::{DefId, DefSite, Pos, ReachingDefs, ValueOrigin};
pub use solver::{solve, DataflowProblem, Direction, Solution};
pub use verify::{verify, VerifyError};
