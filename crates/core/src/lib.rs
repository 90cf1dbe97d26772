//! # gridmind-core
//!
//! GridMind: an LLM-powered multi-agent system for power system analysis
//! and operations — the Rust reproduction of the paper's contribution.
//!
//! The system couples a conversational agent layer with deterministic
//! engineering solvers: specialized agents for AC optimal power flow and
//! N-1 contingency analysis coordinate through a shared, versioned
//! session context, and every numerical claim in an agent's narration is
//! traceable to a validated tool invocation.
//!
//! ## Components (paper §3)
//!
//! - [`coordinator::GridMind`] — the front door: planner-agent routing,
//!   compound-request decomposition, cross-agent context management, and
//!   the instrumentation bench.
//! - [`agents`] — the ACOPF agent and the contingency analysis agent
//!   (system prompts from Figs. 4–5, tools from Appendix B.3).
//! - [`planners`] — the deterministic plan/narrate cores the simulated
//!   LLM backends delegate to.
//! - [`tools_acopf`] / [`tools_ca`] / [`tools_batch`] — the eleven typed
//!   function tools, each with its one declared result type.
//! - [`failure`] — [`DomainError`]: every domain error type mapped to
//!   its error code in one `From` impl.
//! - [`session`] — the shared versioned session state (§3.4): network +
//!   diffs, stamped artifacts, contingency cache, persistence.
//! - [`validators`] — convergence / power-balance / operating-limit
//!   checks applied to every tool result.
//! - [`quality`] — the Appendix C `SolutionQuality` 0–10 scoring.
//! - [`repl`] — a minimal conversational CLI front end.
//!
//! ## Quickstart
//!
//! ```no_run
//! use gridmind_core::{GridMind, ModelProfile};
//!
//! let mut gm = GridMind::new(ModelProfile::by_name("GPT-5").unwrap());
//! let reply = gm.ask("Solve IEEE 118 case, then run contingency analysis");
//! println!("{}", reply.text);
//! ```

// The crate is panic-free outside tests: a tool argument a body cannot
// use is a typed `bad_argument`, and a planner narrates a failure rather
// than unwrap one. Enforced by clippy here and by `gm-audit lint-src`.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod agents;
pub mod coordinator;
pub mod failure;
pub mod planners;
pub mod quality;
pub mod query_kind;
pub mod recovery;
pub mod repl;
pub mod session;
pub mod solver_cache;
pub mod tools_acopf;
pub mod tools_batch;
pub mod tools_ca;
pub mod validators;

pub use agents::{build_acopf_agent, build_ca_agent, ACOPF_SYSTEM_PROMPT, CA_SYSTEM_PROMPT};
pub use coordinator::{AgentKind, CoordinatedResponse, GridMind, TurnMetric, WorkflowStep};
pub use failure::DomainError;
pub use gm_agents::ModelProfile;
pub use quality::{score, Scored, SolutionQuality};
pub use query_kind::{classify_query_kind, QUERY_KIND_LABELS};
pub use recovery::{
    caveat, solve_acopf_recovered, solve_base_recovered, solve_scopf_recovered, CAVEAT_PREFIX,
};
pub use session::{SessionContext, SessionError, SessionState, SharedSession, Stamped};
pub use solver_cache::{
    QueryKind, SharedSolverCache, SolverCache, SolverCacheKey, SolverCacheStats, SolverEntry,
    SolverResult,
};
