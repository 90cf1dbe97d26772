//! # gm-audit
//!
//! Two-level static analysis for GridMind-RS.
//!
//! **Level 1 — source lints** ([`source`], CLI `lint-src`): a
//! token-tree scanner over the workspace source tree enforcing the repo
//! invariants clippy does not express:
//!
//! - `swallowed-error`: no `let _ = call();`, statement-final `.ok();`
//!   or `Err(_) => {}` in non-test code of the solver crates, the
//!   coordinator and the serving layer ([`source::SWALLOW_CRATES`]);
//! - `float-eq`: no `==` / `!=` on float expressions (exact-zero
//!   compares exempt) in the numeric crates ([`source::FLOAT_CRATES`]);
//! - `telemetry-xref` ([`xref`]): every metric name a gate, an
//!   aggregation or a test demands is one some code registers;
//! - `parse-error`: a file the lexer cannot model fails loudly.
//!
//! Every hit is a finding; nothing is grandfathered. Panic sites and
//! printing in library code are denied by clippy at the crate roots
//! (`unwrap_used`, `expect_used`, `panic`, `unreachable` in the six
//! solver crates and gridmind-core; `print_stdout`, `print_stderr` in
//! the eleven library crates).
//!
//! **Lock discipline** ([`locks`], CLI `lock-graph`): the lock-order
//! graph over `crates/serve` and `crates/core` must be acyclic, and no
//! guard may span an engine entry (`lock-across-entry`).
//!
//! **Level 2 — model lints** (CLI `lint-case`): the [`GridLint`]
//! invariant pass re-exported from `gm-network`, auditing any [`Network`]
//! for connectivity, reference-bus, limit-ordering, impedance, per-unit
//! base, and dispatch-feasibility problems as structured
//! [`AuditFinding`]s.
//!
//! The crate is deliberately regex-free and `syn`-free (the build
//! environment is offline); the scanners share a small lexer ([`lex`])
//! and token-tree parser ([`tree`]).

pub mod lex;
pub mod locks;
pub mod rules;
pub mod source;
pub mod tree;
pub mod xref;

pub use gm_network::{AuditFinding, GridLint, Network, Severity};
pub use source::{lint_sources, SourceFinding, SourceLintReport};
