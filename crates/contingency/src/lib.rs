//! # gm-contingency
//!
//! N-1 contingency analysis for GridMind-RS — the engine behind the
//! paper's CA agent.
//!
//! - [`engine`] — the parallel T-1 sweep: outage enumeration,
//!   island screening, warm-started post-contingency power flows with a
//!   flat-start recovery path, and violation scanning.
//! - [`ranking`] — composite criticality scoring with auditable
//!   justifications (§3.2.3), plus the alternative ranking strategies
//!   used to model per-LLM analytical differences (Table 1).
//! - [`cache`] — the per-outage result cache of §3.4, keyed on the
//!   network's content hash (case and diffs in one), outage and options.
//! - [`gen_outage`] — generator T-1 outages (the paper's §2 defines T-1
//!   over "system assets"; units are assets too).
//! - [`n2`] — the N-2 preview: LODF pair screening with compensated AC
//!   verification of the surviving pairs.
//!
//! ```
//! use gm_contingency::{run_n1, CaOptions};
//! use gm_network::{cases, CaseId};
//!
//! let net = cases::load(CaseId::Ieee14);
//! let report = run_n1(&net, &CaOptions::default(), None).unwrap();
//! assert_eq!(report.n_contingencies, 20); // 17 lines + 3 transformers
//! assert!(!report.ranking.is_empty());
//! ```
//! - [`types`] — `ContingencyOutcome` / `ContingencyReport`, mirroring
//!   the paper's `ContingencyAnalysisResult` schema.
// Solver crates are panic-free outside tests: every fallible path
// returns a typed error. Library code prints nothing: stdout and
// stderr belong to the binaries. Enforced by clippy, which CI runs
// with `-D warnings`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod cache;
pub mod engine;
mod fan_out;
pub mod gen_outage;
pub mod n2;
pub mod ranking;
pub mod types;

pub use cache::{CacheKey, ContingencyCache};
pub use engine::{evaluate_outage, run_n1, run_n1_cached, solve_base, CaOptions};
pub use gen_outage::{run_gen_n1, GenOutageOutcome};
pub use n2::{n_minus_2_preview, N2Preview, PairOutcome};
pub use ranking::{rank, score};
pub use types::{
    ContingencyOutcome, ContingencyReport, Outage, RankedContingency, RankingStrategy, SweepMode,
    Violation,
};
