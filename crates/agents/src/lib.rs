//! # gm-agents
//!
//! The typed agent framework behind GridMind-RS — the role PydanticAI
//! plays in the paper, plus the simulated language-model layer that
//! replaces the remote LLM APIs.
//!
//! - [`schema`] — structural schemas with path-precise validation (the
//!   "Pydantic" role, §3.3).
//! - [`wire`] — [`Wire`] and [`tool_output!`](crate::tool_output): one declaration per tool
//!   result gives its type, its wire form and its closed schema.
//! - [`tool`] — typed tools, the registry with input/output validation,
//!   error codes, and the provenance log (§3.2.1 "Trust and
//!   auditability").
//! - [`nlu`] — deterministic intent classification and entity extraction
//!   (case ids, buses, MW changes, outage scope; §3.1).
//! - [`llm`] — the `LanguageModel` abstraction, [`llm::SimulatedLlm`],
//!   and the six calibrated paper-model profiles.
//! - [`memory`] — structured conversational memory and session
//!   persistence (§3.2.1, §3.4).
//! - [`agent`] — the runtime loop: parse, plan, invoke, validate,
//!   narrate, persist (§3.1), with automatic recovery paths.
//! - [`clock`] — the virtual session clock that charges simulated LLM
//!   latency without sleeping.
//!
//! ```
//! use gm_agents::{extract_entities, Schema, Field};
//! use serde_json::json;
//!
//! // Deterministic NLU: the paper's entity extraction.
//! let e = extract_entities("Increase the load for bus 10 to 50MW");
//! assert_eq!(e.buses, vec![10]);
//! assert_eq!(e.mw, vec![50.0]);
//!
//! // Pydantic-style validation: malformed tool payloads are rejected.
//! let schema = Schema::object(vec![Field::required("p_mw", Schema::number(), "demand")]);
//! assert!(schema.validate(&json!({"p_mw": 50.0})).is_ok());
//! assert!(schema.validate(&json!({"p_mw": "fifty"})).is_err());
//! ```

pub mod agent;
pub mod clock;
pub mod envelope;
pub mod llm;
pub mod memory;
pub mod nlu;
pub mod schema;
pub mod tool;
pub mod wire;

pub use agent::{Agent, AgentResponse, Severity, TurnToolCall, ValidationIssue, Validator};
pub use clock::VirtualClock;
pub use envelope::{ServeRequest, ServeResponse, ServeStatus};
pub use llm::{
    estimate_tokens, AnalysisStyle, LanguageModel, ModelProfile, ModelTurn, Planner, SimulatedLlm,
    TokenUsage, ToolCall, TurnAction,
};
pub use memory::{AgentMemory, ConversationView, Message, Role};
pub use nlu::{classify, extract_entities, tokenize, Entities, IntentMatch, IntentRule};
pub use schema::{Bounds, Field, Schema, SchemaViolation};
pub use tool::{
    ErrorCode, FnTool, InvocationRecord, Tool, ToolError, ToolFailure, ToolRegistry, ToolSpec,
    PROVENANCE_KEEP,
};
pub use wire::Wire;
