//! # semtm-ir — the compiler-integration substrate
//!
//! The paper's third contribution (§6) integrates the semantic TM API
//! into GCC: a `tm_mark` pass detects `cmp`/`inc` patterns on the GIMPLE
//! representation and rewrites them to three new libitm ABI calls, and a
//! `tm_optimize` pass removes the transactional reads those rewrites
//! leave dead. This crate rebuilds that pipeline over a self-contained
//! GIMPLE-like IR (see DESIGN.md for the substitution argument):
//!
//! * [`ir`] — the three-operand, basic-block IR with explicit
//!   transactional barriers and atomic regions;
//! * [`parser`] — a textual front-end;
//! * [`passes`] — `tm_mark` (pattern detection → `_ITM_S1R`/`_ITM_S2R`/
//!   `_ITM_SW` builtins) and `tm_optimize` (never-live TM-load
//!   elimination via global liveness);
//! * [`abi`] — the Table 2 ABI mapping;
//! * [`interp`] — a transactional interpreter executing IR against a
//!   [`semtm_core::Stm`], with per-barrier dispatch accounting;
//! * [`lower`](mod@lower) — flat threaded-dispatch lowering: block-structured
//!   functions become pc-indexed op arrays so the Figure-2 "GCC mode"
//!   experiments stop paying tree-walking overhead per instruction;
//! * [`programs`] — the Figure-2 kernels (hashtable, vacation, bank,
//!   cross-block guard) written in classical TM style for the passes to
//!   transform, checked in as `programs/*.ir`;
//! * [`analysis`] — the whole-function dataflow framework (CFG +
//!   dominators, worklist solver, reaching definitions, liveness,
//!   cross-block pattern matching, strict IR verifier) the passes and
//!   lints are built on;
//! * [`lint`] — the `semlint` semantic-misuse diagnostics (rules
//!   `SL000`–`SL011`), also available as the `semlint` binary;
//! * [`sarif`] — a SARIF 2.1.0 exporter for the lint findings
//!   (`semlint --format sarif`);
//! * [`oracle`] — the differential-testing oracle asserting the passes
//!   preserve observable behaviour on every backend.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abi;
pub mod analysis;
pub mod interp;
pub mod ir;
pub mod lint;
pub mod lower;
pub mod oracle;
pub mod parser;
pub mod passes;
pub mod programs;
pub mod sarif;

pub use analysis::{verify, Cfg, Liveness, ReachingDefs, VerifyError};
pub use interp::{ExecError, Interp};
pub use ir::{Block, BlockId, Function, FunctionBuilder, Inst, Operand, Reg};
pub use lint::{lint_function, Diagnostic, Severity};
pub use lower::{lower, LoweredFunction, Op};
pub use oracle::{run_differential_oracle, DiffReport, OracleError};
pub use parser::{parse_function, parse_function_spanned, ParseError, SourceMap, Span};
pub use passes::{run_tm_passes, run_tm_passes_checked, tm_mark, tm_optimize, PassReport};
