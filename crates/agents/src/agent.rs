//! The agent runtime: the paper's deterministic loop —
//! *parse, plan, invoke, validate, narrate, persist* (§3.1).
//!
//! An [`Agent`] owns a language model backend, a tool registry, a memory,
//! and a set of result validators. `handle` runs plan/invoke rounds until
//! the backend narrates a final answer: every tool result is
//! schema-validated by the registry and domain-validated by the
//! validators; failures are surfaced back to the planner as structured
//! errors so it can take the automatic recovery path (§3.2.1).

use crate::clock::VirtualClock;
use crate::llm::{LanguageModel, TokenUsage, TurnAction};
use crate::memory::{AgentMemory, Role};
use crate::tool::{ToolFailure, ToolRegistry};
use crate::wire::Wire;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::sync::Arc;

/// Severity of a validation finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// Informational (logged, not surfaced).
    Info,
    /// Suspicious but usable (surfaced in the narration).
    Warning,
    /// The result must not be used.
    Error,
}

/// One validation finding.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ValidationIssue {
    /// Severity.
    pub severity: Severity,
    /// Which check produced it.
    pub check: String,
    /// Human-readable description.
    pub message: String,
}

/// Domain validator applied to every successful tool result (§3.1:
/// "convergence flags, power balance tolerance, operating limits, and
/// sanity checks on modified elements").
pub trait Validator: Send + Sync {
    /// Validator name.
    fn name(&self) -> &str;
    /// Inspects a tool result.
    fn validate(&self, tool: &str, result: &Value) -> Vec<ValidationIssue>;
}

/// Record of one tool call made during a turn.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TurnToolCall {
    /// Tool name.
    pub tool: String,
    /// Whether it succeeded (schema + execution).
    pub ok: bool,
    /// Error text when failed.
    pub error: Option<String>,
}

/// The agent's reply for one user turn.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AgentResponse {
    /// Narrated answer.
    pub text: String,
    /// Reasoning steps across all rounds.
    pub reasoning: Vec<String>,
    /// Tool calls in order.
    pub tool_calls: Vec<TurnToolCall>,
    /// Validation findings (tool name, issue).
    pub validation: Vec<(String, ValidationIssue)>,
    /// Virtual seconds elapsed handling the turn (LLM latency + tool
    /// compute).
    pub elapsed_s: f64,
    /// Token usage across all rounds.
    pub tokens: TokenUsage,
    /// Plan/invoke rounds used.
    pub rounds: usize,
    /// Whether the turn ended with a narrated answer (vs the round
    /// budget running out).
    pub completed: bool,
}

/// A conversational agent.
pub struct Agent {
    /// Agent name ("ACOPF Agent", "Contingency Analysis Agent").
    pub name: String,
    llm: Arc<dyn LanguageModel>,
    /// Tool registry (public for provenance inspection).
    pub tools: ToolRegistry,
    /// Conversation memory (public for context sharing).
    pub memory: AgentMemory,
    validators: Vec<Box<dyn Validator>>,
    clock: VirtualClock,
    max_rounds: usize,
}

impl Agent {
    /// Builds an agent. The registry must share `clock`.
    pub fn new(
        name: &str,
        system_prompt: &str,
        llm: Arc<dyn LanguageModel>,
        tools: ToolRegistry,
        clock: VirtualClock,
    ) -> Agent {
        Agent {
            name: name.into(),
            llm,
            tools,
            memory: AgentMemory::new(name, system_prompt),
            validators: Vec::new(),
            clock,
            max_rounds: 8,
        }
    }

    /// Adds a domain validator.
    pub fn add_validator(&mut self, v: impl Validator + 'static) {
        self.validators.push(Box::new(v));
    }

    /// Sets the plan/invoke round budget.
    pub fn set_max_rounds(&mut self, rounds: usize) {
        self.max_rounds = rounds.max(1);
    }

    /// The backend in use.
    pub fn model_name(&self) -> &str {
        self.llm.name()
    }

    /// The shared session clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Handles one user utterance through the full loop.
    pub fn handle(&mut self, input: &str) -> AgentResponse {
        let _span = gm_telemetry::span!("agent.turn", agent = self.name);
        let t_start = self.clock.now();
        // Context-window management: long sessions prune old prose while
        // structured artifacts persist (§3.1 / §3.3).
        self.memory.prune_to(32_000);
        self.memory.push(Role::User, input, t_start);

        let mut pending: Vec<(String, Value)> = Vec::new();
        let mut reasoning: Vec<String> = Vec::new();
        let mut tool_calls: Vec<TurnToolCall> = Vec::new();
        let mut validation: Vec<(String, ValidationIssue)> = Vec::new();
        let mut tokens = TokenUsage::default();

        for round in 0..self.max_rounds {
            let (turn, latency, usage) = {
                let mut view = self.memory.view(input);
                view.pending_results = &pending;
                view.round = round;
                self.llm.next_turn(&view)
            };
            self.clock.advance(latency);
            gm_telemetry::counter_add("llm.turns", 1);
            gm_telemetry::counter_add("llm.tokens", usage.total());
            gm_telemetry::histogram_record("llm.latency_virtual_s", latency);
            tokens.add(usage);
            reasoning.extend(turn.reasoning.clone());

            match turn.action {
                TurnAction::Respond(text) => {
                    let now = self.clock.now();
                    self.memory.push(Role::Agent, text.clone(), now);
                    return AgentResponse {
                        text,
                        reasoning,
                        tool_calls,
                        validation,
                        elapsed_s: now - t_start,
                        tokens,
                        rounds: round + 1,
                        completed: true,
                    };
                }
                TurnAction::Calls(calls) => {
                    for call in calls {
                        match self.tools.invoke(&call.tool, &call.args) {
                            Ok(result) => {
                                for v in &self.validators {
                                    for issue in v.validate(&call.tool, &result) {
                                        if issue.severity != Severity::Info {
                                            validation.push((call.tool.clone(), issue));
                                        }
                                    }
                                }
                                let now = self.clock.now();
                                self.memory
                                    .push(Role::Tool, format!("{} -> ok", call.tool), now);
                                pending.push((call.tool.clone(), result));
                                tool_calls.push(TurnToolCall {
                                    tool: call.tool,
                                    ok: true,
                                    error: None,
                                });
                            }
                            Err(e) => {
                                let now = self.clock.now();
                                self.memory.push(
                                    Role::Tool,
                                    format!("{} -> error: {e}", call.tool),
                                    now,
                                );
                                // Surface the failure to the planner as a
                                // structured pending result so it can take
                                // the recovery path.
                                pending.push((call.tool.clone(), ToolFailure::from(&e).to_wire()));
                                tool_calls.push(TurnToolCall {
                                    tool: call.tool,
                                    ok: false,
                                    error: Some(e.to_string()),
                                });
                            }
                        }
                    }
                }
            }
        }

        // Round budget exhausted: narrate what we have rather than loop.
        let text = format!(
            "I could not complete the request within {} tool rounds; partial results: {} tool call(s) executed.",
            self.max_rounds,
            tool_calls.len()
        );
        let now = self.clock.now();
        self.memory.push(Role::Agent, text.clone(), now);
        AgentResponse {
            text,
            reasoning,
            tool_calls,
            validation,
            elapsed_s: now - t_start,
            tokens,
            rounds: self.max_rounds,
            completed: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::llm::{AnalysisStyle, ModelProfile, ModelTurn, Planner, SimulatedLlm, ToolCall};
    use crate::memory::ConversationView;
    use crate::tool::{FnTool, ToolError};

    crate::tool_output! {
        struct Double {
            x: f64 = "value",
        }
    }

    crate::tool_output! {
        struct Doubled {
            doubled: f64 = "2x",
        }
    }

    /// Planner: first round calls `double` on the number in the input;
    /// second round narrates the result.
    struct DoublePlanner;
    impl Planner for DoublePlanner {
        fn plan(&self, view: &ConversationView, _style: AnalysisStyle) -> ModelTurn {
            match view.last_result() {
                // Recovery path: retry with a safe argument.
                Some((_, Err(_))) => {
                    return ModelTurn {
                        reasoning: vec!["(recover with fallback value)".into()],
                        action: TurnAction::Calls(vec![ToolCall {
                            tool: "double".into(),
                            args: serde_json::json!({"x": 1.0}),
                        }]),
                    }
                }
                Some((_, Ok(result))) => {
                    let out = Doubled::from_wire(result).expect("declared shape");
                    return ModelTurn {
                        reasoning: vec!["(narrate)".into()],
                        action: TurnAction::Respond(format!(
                            "the doubled value is {}",
                            out.doubled
                        )),
                    };
                }
                None => {}
            }
            let x: f64 = view
                .user_input
                .split_whitespace()
                .find_map(|t| t.parse().ok())
                .unwrap_or(f64::NAN);
            ModelTurn {
                reasoning: vec!["(plan the tool call)".into()],
                action: TurnAction::Calls(vec![ToolCall {
                    tool: "double".into(),
                    args: serde_json::json!({"x": x}),
                }]),
            }
        }
    }

    fn double_tool() -> FnTool {
        FnTool::new(
            "double",
            "doubles a number",
            |args: Double| -> Result<Doubled, ToolError> {
                Ok(Doubled {
                    doubled: 2.0 * args.x,
                })
            },
        )
    }

    fn agent() -> Agent {
        let clock = VirtualClock::new();
        let mut tools = ToolRegistry::new(clock.clone());
        tools.register(double_tool());
        let llm = Arc::new(SimulatedLlm::new(
            ModelProfile::by_name("GPT-o3").unwrap(),
            DoublePlanner,
        ));
        Agent::new("test-agent", "be deterministic", llm, tools, clock)
    }

    #[test]
    fn full_loop_reaches_answer() {
        let mut a = agent();
        let resp = a.handle("double 21 please");
        assert!(resp.completed);
        assert!(resp.text.contains("42"));
        assert_eq!(resp.rounds, 2);
        assert_eq!(resp.tool_calls.len(), 1);
        assert!(resp.tool_calls[0].ok);
        assert!(resp.elapsed_s > 0.0, "latency must be charged");
        assert!(resp.tokens.total() > 0);
    }

    #[test]
    fn memory_persists_across_turns() {
        let mut a = agent();
        a.handle("double 3");
        a.handle("double 5");
        // user + tool + agent messages per turn.
        assert!(a.memory.messages.len() >= 6);
        assert_eq!(a.tools.provenance().len(), 2);
    }

    #[test]
    fn recovery_path_on_invalid_args() {
        let mut a = agent();
        // No number in the input → NaN → serde_json drops NaN to null →
        // schema rejects → planner retries with the fallback.
        let resp = a.handle("double nothing");
        assert!(resp.completed, "recovery should still finish: {resp:?}");
        assert!(resp.tool_calls.iter().any(|c| !c.ok));
        assert!(resp.tool_calls.iter().any(|c| c.ok));
        assert!(resp.text.contains("2"));
    }

    #[test]
    fn validators_flag_results() {
        struct Suspicious;
        impl Validator for Suspicious {
            fn name(&self) -> &str {
                "suspicious"
            }
            fn validate(&self, _tool: &str, result: &Value) -> Vec<ValidationIssue> {
                if result["doubled"].as_f64().unwrap_or(0.0) > 100.0 {
                    vec![ValidationIssue {
                        severity: Severity::Warning,
                        check: "range".into(),
                        message: "doubled value suspiciously large".into(),
                    }]
                } else {
                    vec![]
                }
            }
        }
        let mut a = agent();
        a.add_validator(Suspicious);
        let ok = a.handle("double 2");
        assert!(ok.validation.is_empty());
        let big = a.handle("double 400");
        assert_eq!(big.validation.len(), 1);
        assert_eq!(big.validation[0].1.severity, Severity::Warning);
    }

    #[test]
    fn round_budget_respected() {
        struct LoopPlanner;
        impl Planner for LoopPlanner {
            fn plan(&self, _v: &ConversationView, _s: AnalysisStyle) -> ModelTurn {
                ModelTurn {
                    reasoning: vec![],
                    action: TurnAction::Calls(vec![ToolCall {
                        tool: "double".into(),
                        args: serde_json::json!({"x": 1.0}),
                    }]),
                }
            }
        }
        let clock = VirtualClock::new();
        let mut tools = ToolRegistry::new(clock.clone());
        tools.register(double_tool());
        let llm = Arc::new(SimulatedLlm::new(
            ModelProfile::by_name("GPT-o3").unwrap(),
            LoopPlanner,
        ));
        let mut a = Agent::new("looper", "p", llm, tools, clock);
        a.set_max_rounds(3);
        let resp = a.handle("go");
        assert!(!resp.completed);
        assert_eq!(resp.rounds, 3);
        assert_eq!(resp.tool_calls.len(), 3);
    }
}
