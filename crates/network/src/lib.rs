//! # gm-network
//!
//! Power system network modeling for GridMind-RS — the role PandaPower's
//! data layer plays for the paper.
//!
//! - [`model`] — the typed `PowerSystem` data model: buses, loads,
//!   generators with polynomial costs, branches (lines / transformers),
//!   shunts, and validation.
//! - [`audit`] — the `GridLint` invariant pass behind `gm-audit
//!   lint-case`: connectivity, reference-bus, limit-ordering, impedance,
//!   per-unit base, and dispatch-feasibility rules with structured
//!   findings; `Network::validate` is its legacy-error projection.
//! - [`ybus`] — complex bus admittance matrix assembly and branch-flow
//!   evaluation (pi-model with off-nominal taps and phase shift).
//! - [`topology`] — connectivity, island detection, bridge analysis.
//! - [`diff`] — incremental, auditable network modifications with a
//!   replayable, hashable diff log (paper §3.4).
//! - [`caseformat`] — plain-text case format with parser and serializer.
//! - [`matpower`] — MATPOWER `.m` case file importer (format version 2),
//!   so authentic archive data can be loaded directly.
//! - [`cases`] — the IEEE test case library (Table 2 of the paper) with
//!   fuzzy case identification; IEEE 14/30 are embedded authentic data,
//!   IEEE 57/118/300 are deterministic synthetic reconstructions.
//! - [`library`] — the process-wide immutable case library: every named
//!   case built and validated once, shared as a [`Snapshot`] that carries
//!   its content hash.
//! - [`synth`] — the synthetic case generator with DC-calibrated
//!   impedances and N-1-aware thermal ratings.
//!
//! ```
//! use gm_network::{cases, CaseId, YBus};
//!
//! let net = cases::load(CaseId::Ieee14);
//! assert_eq!(net.n_bus(), 14);
//! assert!((net.total_load_mw() - 259.0).abs() < 1e-9);
//! let ybus = YBus::assemble(&net);
//! assert_eq!(ybus.matrix.shape(), (14, 14));
//! ```

// Library code prints nothing: stdout and stderr belong to the
// binaries. Enforced by clippy, which CI runs with `-D warnings`.
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod audit;
pub mod caseformat;
pub mod cases;
pub mod diff;
pub mod library;
pub mod matpower;
pub mod model;
pub mod scale;
pub mod synth;
pub mod topology;
pub mod ybus;

pub use audit::{AuditFinding, GridLint, Severity};
pub use caseformat::{CaseError, CaseErrorKind};
pub use cases::{identify_case, load_case, CaseId};
pub use diff::{DiffLog, Modification};
pub use library::{CaseKey, Snapshot};
pub use matpower::{parse_matpower, SAMPLE_CASE9};
pub use model::{
    Branch, BranchKind, Bus, BusKind, GenCost, Generator, Load, ModelError, Network,
    NetworkSummary, Shunt,
};
pub use scale::{generate_scale, identify_scale, load_scale, ScaleId, ScaleSpec};
pub use synth::SynthError;
pub use ybus::{slack_pinned_bprime, YBus};
