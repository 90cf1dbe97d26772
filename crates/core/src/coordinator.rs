//! The GridMind system: planner agent, coordinator, and instrumentation.
//!
//! The planner agent (§3, component 4) classifies each user request and
//! assigns it to the right domain agent; the coordinator (component 3)
//! manages the shared session context, splits compound requests ("solve
//! IEEE 118, then run contingency analysis…") into sequential agent
//! steps, keeps every agent's memory synchronized with the session, and
//! records the instrumentation the paper's evaluation is built on (model
//! latency, token usage, tool metrics).

use crate::agents::{build_acopf_agent, build_ca_agent};
use crate::session::{SessionContext, SharedSession};
use gm_agents::{
    classify, Agent, AgentResponse, IntentRule, ModelProfile, TokenUsage, VirtualClock,
};
use serde::{Deserialize, Serialize};
use serde_json::json;

/// The planner agent's routing rules.
static ROUTING: [IntentRule; 2] = [
    IntentRule::new(
        "acopf",
        &[
            "solve", "opf", "dispatch", "cost", "load", "modify", "increase", "decrease",
            "economic", "optimal", "status", "set", "limit",
        ],
        &["acopf"],
        0.05,
    ),
    IntentRule::new(
        "contingency",
        &[
            "n-1",
            "t-1",
            "outage",
            "reliability",
            "critical",
            "vulnerab",
            "reinforce",
            "violation",
            "lose",
            "losing",
            "trip",
            "unit",
            "generator",
        ],
        &["contingency", "contingencies"],
        0.0,
    ),
];

/// Which domain agent a request (segment) is routed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgentKind {
    /// Economic scheduling / power flow analysis.
    Acopf,
    /// Reliability / N-1 assessment.
    Contingency,
}

/// One step of a routed workflow.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkflowStep {
    /// Target agent.
    pub agent: AgentKind,
    /// The request segment handed to it.
    pub request: String,
    /// Completion state (the paper's `WorkflowState` tracks plan
    /// progress).
    pub completed: bool,
}

/// Telemetry for one agent turn (the paper's "instrumentation bench").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TurnMetric {
    /// Agent name.
    pub agent: String,
    /// Backend model name.
    pub model: String,
    /// The request segment.
    pub request: String,
    /// Virtual end-to-end latency (s).
    pub elapsed_s: f64,
    /// Token usage.
    pub tokens: TokenUsage,
    /// Tool calls made.
    pub tool_calls: usize,
    /// Whether any tool call failed.
    pub had_tool_failures: bool,
    /// Validation warnings/errors surfaced.
    pub validation_findings: usize,
    /// Whether the turn produced a narrated answer.
    pub completed: bool,
}

/// A coordinated (possibly multi-agent) reply.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CoordinatedResponse {
    /// Narrated answers, one per workflow step, joined for display.
    pub text: String,
    /// The executed workflow.
    pub steps: Vec<WorkflowStep>,
    /// Per-step agent responses.
    pub responses: Vec<AgentResponse>,
    /// Total virtual latency (s).
    pub elapsed_s: f64,
    /// Total token usage.
    pub tokens: TokenUsage,
}

/// The assembled multi-agent system.
pub struct GridMind {
    /// Shared session context.
    pub session: SharedSession,
    clock: VirtualClock,
    acopf: Agent,
    ca: Agent,
    profile: ModelProfile,
    metrics: Vec<TurnMetric>,
}

impl GridMind {
    /// Builds the system with a model profile shared by every agent.
    pub fn new(profile: ModelProfile) -> GridMind {
        GridMind::with_session(profile, SessionContext::new())
    }

    /// Builds the system around an externally constructed session —
    /// the gm-serve entry point, where the session carries a shared
    /// cross-session solver cache.
    pub fn with_session(profile: ModelProfile, session: SharedSession) -> GridMind {
        let clock = VirtualClock::new();
        // Telemetry timestamps follow the session's virtual timeline.
        session.telemetry.attach_clock(clock.clone());
        let acopf = build_acopf_agent(profile.clone(), session.clone(), clock.clone());
        let ca = build_ca_agent(profile.clone(), session.clone(), clock.clone());
        GridMind {
            session,
            clock,
            acopf,
            ca,
            profile,
            metrics: Vec::new(),
        }
    }

    /// The model profile in use.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The session's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Instrumentation records collected so far.
    pub fn metrics(&self) -> &[TurnMetric] {
        &self.metrics
    }

    /// Routes one request segment (the planner agent's decision).
    pub fn route(request: &str) -> AgentKind {
        match classify(request, &ROUTING) {
            Some(m) if m.intent == "contingency" => AgentKind::Contingency,
            _ => AgentKind::Acopf,
        }
    }

    /// Splits a compound request into sequential segments ("solve IEEE
    /// 118, then run contingency analysis and identify critical
    /// elements" → two steps).
    pub fn split_compound(request: &str) -> Vec<String> {
        let lowered = request.to_ascii_lowercase();
        // Split on explicit sequencing markers only: "then" after a comma
        // or semicolon, or the word "then" itself.
        let mut segments = Vec::new();
        let mut rest = lowered.as_str();
        let mut original_rest = request;
        while let Some(pos) = rest.find(" then ") {
            let (head, tail) = original_rest.split_at(pos);
            segments.push(head.trim_matches([' ', ',', ';']).to_string());
            original_rest = &tail[" then ".len()..];
            rest = &rest[pos + " then ".len()..];
        }
        let last = original_rest.trim_matches([' ', ',', ';']).to_string();
        if !last.is_empty() {
            segments.push(last);
        }
        segments.retain(|s| !s.is_empty());
        if segments.is_empty() {
            segments.push(request.to_string());
        }
        segments
    }

    /// Synchronizes the shared session into an agent's memory context so
    /// its planner can ground references ("solve it again", "this
    /// network").
    fn sync_context(session: &SharedSession, agent: &mut Agent) {
        if let Some(case) = session.active_case() {
            agent.memory.put_context("active_case", json!(case));
        }
        agent
            .memory
            .put_context("diff_count", json!(session.diff_count()));
        if let Some((sol, stale)) = session.any_acopf() {
            agent.memory.put_context(
                "acopf_summary",
                json!({
                    "objective_cost": sol.objective_cost,
                    "stale": stale,
                }),
            );
        }
    }

    /// Handles a user request end-to-end: plan, route, execute, narrate.
    pub fn ask(&mut self, request: &str) -> CoordinatedResponse {
        // Everything below — routing, agent turns, tool calls, solver
        // iterations (including the contingency sweeps' pool workers,
        // which re-install this registry) — records into the session's
        // registry.
        let _collector = self.session.telemetry.install();
        let _span = gm_telemetry::span!("coordinator.ask");
        gm_telemetry::counter_add("coordinator.requests", 1);
        let t0 = self.clock.now();
        let segments = Self::split_compound(request);
        let mut steps = Vec::new();
        let mut responses = Vec::new();
        let mut texts = Vec::new();
        let mut tokens = TokenUsage::default();

        for segment in segments {
            let kind = Self::route(&segment);
            let (agent, name): (&mut Agent, &str) = match kind {
                AgentKind::Acopf => (&mut self.acopf, "ACOPF Agent"),
                AgentKind::Contingency => (&mut self.ca, "Contingency Analysis Agent"),
            };
            gm_telemetry::counter_add(
                match kind {
                    AgentKind::Acopf => "route.acopf",
                    AgentKind::Contingency => "route.contingency",
                },
                1,
            );
            // Latency-accounting kind (distinct from agent routing): the
            // serve layer buckets its per-request quantile sketches by
            // the same labels, so the counters here let a trace explain
            // *what mix* of query kinds produced a latency distribution.
            gm_telemetry::counter_add(
                match crate::query_kind::classify_query_kind(&segment) {
                    "contingency" => "query.kind.contingency",
                    "batch" => "query.kind.batch",
                    "mutate" => "query.kind.mutate",
                    "status" => "query.kind.status",
                    "pf" => "query.kind.pf",
                    _ => "query.kind.other",
                },
                1,
            );
            gm_telemetry::counter_add("coordinator.steps", 1);
            gm_telemetry::event("coordinator", format!("routing {segment:?} -> {name}"));
            let step_span = gm_telemetry::span!("coordinator.step", agent = name);
            Self::sync_context(&self.session, agent);
            let resp = agent.handle(&segment);
            drop(step_span);
            tokens.add(resp.tokens);
            self.metrics.push(TurnMetric {
                agent: name.to_string(),
                model: self.profile.name.clone(),
                request: segment.clone(),
                elapsed_s: resp.elapsed_s,
                tokens: resp.tokens,
                tool_calls: resp.tool_calls.len(),
                had_tool_failures: resp.tool_calls.iter().any(|c| !c.ok),
                validation_findings: resp.validation.len(),
                completed: resp.completed,
            });
            steps.push(WorkflowStep {
                agent: kind,
                request: segment,
                completed: resp.completed,
            });
            texts.push(format!("[{name}] {}", resp.text));
            responses.push(resp);
        }

        CoordinatedResponse {
            text: texts.join("\n\n"),
            steps,
            responses,
            elapsed_s: self.clock.now() - t0,
            tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mind() -> GridMind {
        GridMind::new(ModelProfile::by_name("GPT-o3").unwrap())
    }

    #[test]
    fn routing_decisions() {
        assert_eq!(GridMind::route("solve IEEE 118"), AgentKind::Acopf);
        assert_eq!(
            GridMind::route("what's the most critical contingencies in this network"),
            AgentKind::Contingency
        );
        assert_eq!(
            GridMind::route("run n-1 reliability assessment"),
            AgentKind::Contingency
        );
        assert_eq!(
            GridMind::route("increase the load at bus 10"),
            AgentKind::Acopf
        );
    }

    #[test]
    fn compound_split() {
        let segs = GridMind::split_compound(
            "Solve IEEE 118 case, then run contingency analysis and identify critical elements",
        );
        assert_eq!(segs.len(), 2);
        assert!(segs[0].to_lowercase().contains("solve"));
        assert!(segs[1].to_lowercase().contains("contingency"));
        assert_eq!(GridMind::split_compound("solve case14").len(), 1);
    }

    #[test]
    fn single_domain_request() {
        let mut gm = mind();
        let resp = gm.ask("solve case14");
        assert_eq!(resp.steps.len(), 1);
        assert!(resp.steps[0].completed);
        assert!(resp.text.contains("Solved ACOPF"));
        assert!(resp.elapsed_s > 0.0);
        assert_eq!(gm.metrics().len(), 1);
        assert!(!gm.metrics()[0].had_tool_failures);
    }

    #[test]
    fn cross_domain_workflow_shares_context() {
        // The paper's Fig. 9 workflow: ACOPF → CA with shared context.
        let mut gm = mind();
        let resp = gm.ask(
            "Solve IEEE 14 case, then run contingency analysis and identify critical elements",
        );
        assert_eq!(resp.steps.len(), 2);
        assert_eq!(resp.steps[0].agent, AgentKind::Acopf);
        assert_eq!(resp.steps[1].agent, AgentKind::Contingency);
        assert!(resp.steps.iter().all(|s| s.completed), "{}", resp.text);
        // Both agents worked the same session.
        assert!(gm.session.fresh_acopf().is_some());
        assert!(gm.session.fresh_contingency().is_some());
        assert!(resp.text.contains("Most critical elements"));
        // The CA step must not have had to name the case again.
        assert!(gm.metrics()[1].tool_calls >= 2);
    }

    #[test]
    fn what_if_iteration_accumulates() {
        let mut gm = mind();
        gm.ask("solve case14");
        let r1 = gm.ask("increase the load at bus 10 to 50 MW");
        assert!(r1.steps[0].completed, "{}", r1.text);
        let r2 = gm.ask("now set the load at bus 14 to 30 MW");
        assert!(r2.steps[0].completed, "{}", r2.text);
        assert_eq!(gm.session.diff_count(), 2);
        assert_eq!(gm.metrics().len(), 3);
    }

    #[test]
    fn ask_records_routing_telemetry() {
        let mut gm = mind();
        gm.ask("solve case14");
        let reg = &gm.session.telemetry;
        assert_eq!(reg.counter_value("coordinator.requests"), 1);
        assert_eq!(reg.counter_value("coordinator.steps"), 1);
        assert_eq!(reg.counter_value("route.acopf"), 1);
        assert!(reg.counter_value("tool.invocations") >= 1);
        assert!(reg.counter_value("llm.turns") >= 1);
        // The routing decision shows up as a structured event, and the
        // step span nests under the request span.
        assert!(reg
            .events()
            .iter()
            .any(|e| e.target == "coordinator" && e.message.contains("ACOPF Agent")));
        let spans = reg.spans();
        let ask = spans
            .iter()
            .find(|s| s.name == "coordinator.ask")
            .expect("request span");
        assert!(ask.parent.is_none());
        assert!(spans
            .iter()
            .any(|s| s.name == "coordinator.step" && s.parent == Some(ask.id)));
    }

    #[test]
    fn metrics_capture_latency_and_tokens() {
        let mut gm = mind();
        gm.ask("solve case30");
        let m = &gm.metrics()[0];
        assert!(m.elapsed_s > 1.0, "simulated latency should be seconds");
        assert!(m.tokens.total() > 50);
        assert_eq!(m.model, "GPT-o3");
        assert!(m.completed);
    }
}

/// Number provenance: every number in an answer is formatted from the
/// turn's own tool results or failure messages, never invented.
#[cfg(test)]
mod number_provenance {
    use super::*;
    use gm_agents::{AgentResponse, InvocationRecord};
    use gm_faults::{FaultInjector, FaultKind, FaultRule};
    use serde_json::Value;

    /// Numbers the narration templates state themselves: the case list,
    /// the N-1 criterion and the quality score's scale ("Overall=8.5/10.").
    const TEMPLATE_LITERALS: &[&str] = &["(14, 30, 57, 118, or 300 bus)", "N-1", "/10."];

    /// The numbers written in `text`: a run of digits with at most one
    /// inner `.`, not glued to a name before it (`case14`, `run_n1` are
    /// names), and whether it opens its line.
    fn numbers(text: &str) -> Vec<(&str, bool)> {
        let bytes = text.as_bytes();
        let mut out = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let glued = i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
            if !bytes[i].is_ascii_digit() || glued {
                i += 1;
                continue;
            }
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i + 1 < bytes.len() && bytes[i] == b'.' && bytes[i + 1].is_ascii_digit() {
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
            }
            let line_start = text[..start].rfind('\n').map_or(0, |n| n + 1);
            out.push((&text[start..i], text[line_start..start].trim().is_empty()));
        }
        out
    }

    /// The numbers a turn's tool results and failure messages carry: JSON
    /// numbers as values, numbers written in strings as written.
    #[derive(Default)]
    struct Sources {
        values: Vec<f64>,
        written: Vec<String>,
    }

    impl Sources {
        fn collect(&mut self, value: &Value) {
            match value {
                Value::Number(n) => self.values.extend(n.as_f64()),
                Value::String(s) => self.add_text(s),
                Value::Array(items) => items.iter().for_each(|v| self.collect(v)),
                Value::Object(map) => map.values().for_each(|v| self.collect(v)),
                _ => {}
            }
        }

        fn add_text(&mut self, text: &str) {
            self.written
                .extend(numbers(text).into_iter().map(|(n, _)| n.to_string()));
        }

        /// The results and failures of one turn's calls.
        fn of(records: &[InvocationRecord], reply: &AgentResponse) -> Sources {
            let mut out = Sources::default();
            for result in records.iter().filter_map(|r| r.result.as_ref()) {
                out.collect(result);
            }
            for error in reply.tool_calls.iter().filter_map(|c| c.error.as_ref()) {
                out.add_text(error);
            }
            out
        }

        /// Whether `number` is one of these, as the answer writes it: a
        /// value at the answer's precision, or a number written the same.
        fn has(&self, number: &str) -> bool {
            let precision = number.split_once('.').map_or(0, |(_, frac)| frac.len());
            self.written.iter().any(|w| w == number)
                || (self.values.iter()).any(|v| format!("{:.precision$}", v.abs()) == number)
        }
    }

    /// The numbers of `answer` no source has. A line-opening integer is a
    /// ranking ordinal (`rank + 1`) and needs no source.
    fn orphans(answer: &str, sources: &Sources) -> Vec<String> {
        let mut text = answer.to_string();
        for literal in TEMPLATE_LITERALS {
            text = text.replace(literal, "");
        }
        let ordinal = |n: &str, opens_line: bool| opens_line && !n.contains('.');
        numbers(&text)
            .into_iter()
            .filter(|&(n, opens_line)| !ordinal(n, opens_line) && !sources.has(n))
            .map(|(n, _)| n.to_string())
            .collect()
    }

    /// A turn's answer and the numbers its sources carry.
    type Answer = (String, Sources);

    /// Each answer of `dialogue`, asked in a fresh session.
    fn ask_all(dialogue: &[&str]) -> Vec<Answer> {
        let mut gm = GridMind::new(ModelProfile::by_name("GPT-5").unwrap());
        let mut out = Vec::new();
        for utterance in dialogue {
            let before = (
                gm.acopf.tools.invocation_count(),
                gm.ca.tools.invocation_count(),
            );
            let reply = gm.ask(utterance);
            for (step, turn) in reply.steps.iter().zip(&reply.responses) {
                let (agent, seen) = match step.agent {
                    AgentKind::Acopf => (&gm.acopf, before.0),
                    AgentKind::Contingency => (&gm.ca, before.1),
                };
                let mut records = agent.tools.provenance();
                records.retain(|r| r.seq > seen);
                out.push((turn.text.clone(), Sources::of(&records, turn)));
            }
        }
        out
    }

    /// Asserts no answer has an orphan; returns how many numbers were
    /// checked.
    fn assert_no_orphans(answers: &[Answer]) -> usize {
        let mut checked = 0;
        for (text, sources) in answers {
            let orphans = orphans(text, sources);
            assert!(
                orphans.is_empty(),
                "{orphans:?} match no tool result:\n{text}"
            );
            checked += numbers(text).len();
        }
        checked
    }

    /// The scripted dialogues of `tests/answer_text.rs`.
    const DIALOGUES: &[&[&str]] = &[
        &[
            "what is the current status",
            "solve case30",
            "set the load at bus 10 to 50 MW",
            "limit the generator at bus 2 to between 10 and 60 MW",
            "show the current status",
            "solve the security-constrained dispatch",
            "sweep the load from 80% to 120% in 5 steps",
            "sweep the load at bus 9 from 50% to 150% in 3 steps",
            "run an hourly study across the day",
            "run the n-1 contingency analysis",
            "analyze the outage of line 3",
            "analyze the outage of line 30",
            "what happens if we lose each generator unit",
            "show the contingency status summary",
            "analyze the outage of line 999",
            "set the load at bus 999 to 5 MW",
            "limit the generator at bus 10 to between 10 and 60 MW",
            "solve case9000",
        ],
        &["set the load at bus 10 of case14 to 50 MW"],
        &["analyze the outage of line 3 in case14"],
        &["what happens if we lose each generator unit in case14"],
        &["limit the generator at bus 2 of case14 to between 10 and 60 MW"],
        &[
            "set the load at bus 10 to 50 MW",
            "analyze the outage of line 3",
            "show the contingency status summary",
        ],
        &[
            "run the n-1 contingency analysis on case14",
            "set the load at bus 10 to 50 MW",
        ],
    ];

    #[test]
    fn every_number_in_a_scripted_answer_comes_from_a_tool() {
        let mut checked = 0;
        for dialogue in DIALOGUES {
            checked += assert_no_orphans(&ask_all(dialogue));
        }
        // The degraded answers, each with its fallback's caveat.
        let inj = FaultInjector::scripted(vec![
            FaultRule::new("acopf.ipm", FaultKind::IpmStall, 0, 1),
            FaultRule::new("pf.base", FaultKind::NewtonDiverge, 0, 1),
        ]);
        let _g = inj.install();
        checked += assert_no_orphans(&ask_all(&[
            "solve case14",
            "run the n-1 contingency analysis",
        ]));
        assert!(checked > 400, "only {checked} numbers checked");
    }

    #[test]
    fn every_number_in_a_failure_answer_comes_from_a_tool() {
        // The failure-class utterances of `tests/agent_metamorphic.rs`,
        // each in its own session.
        let loaded = || {
            let s = SessionContext::new();
            s.load_case("case14").unwrap();
            s
        };
        let without_slack = || {
            let mut blob = loaded().save();
            for key in ["base", "current"] {
                for bus in blob[key]["buses"].as_array_mut().unwrap() {
                    if bus["kind"] == json!("Slack") {
                        bus["kind"] = json!("Pq");
                    }
                }
            }
            SessionContext::restore(&blob).unwrap()
        };
        let cases: Vec<(SharedSession, &str)> = vec![
            (SessionContext::new(), "set the load at bus 10 to 50 MW"),
            (
                SessionContext::new(),
                "set the load at bus 10 of case14 to 50 MW",
            ),
            (
                SessionContext::new(),
                "analyze the outage of line 3 in case14",
            ),
            (SessionContext::new(), "solve case9000"),
            (loaded(), "set the load at bus 999 to 5 MW"),
            (
                loaded(),
                "sweep the load at bus 999 from 50% to 150% in 3 steps",
            ),
            (loaded(), "analyze the outage of line 999"),
            (
                loaded(),
                "limit the generator at bus 10 to between 10 and 60 MW",
            ),
            (loaded(), "set the load at bus 10 to 500000 MW"),
            (loaded(), "limit the generator at bus 2 between 2 and 2"),
            (loaded(), "set the load at bus 10 to 90000 MW"),
            (without_slack(), "solve case14"),
            (without_slack(), "run the n-1 contingency analysis"),
        ];
        let profile = ModelProfile::by_name("GPT-5").unwrap();
        let mut answers = Vec::new();
        for (session, utterance) in cases {
            let clock = VirtualClock::new();
            let mut agent = match GridMind::route(utterance) {
                AgentKind::Acopf => build_acopf_agent(profile.clone(), session, clock),
                AgentKind::Contingency => build_ca_agent(profile.clone(), session, clock),
            };
            let reply = agent.handle(utterance);
            answers.push((
                reply.text.clone(),
                Sources::of(&agent.tools.provenance(), &reply),
            ));
        }
        assert!(assert_no_orphans(&answers) > 20);
    }

    #[test]
    fn a_changed_digit_is_an_orphan() {
        let answers = ask_all(&["solve case30"]);
        let (text, sources) = &answers[0];
        assert!(orphans(text, sources).is_empty());
        // "Objective value (generation cost): 576.89 $/h" → "… 576.80 $/h".
        let cost = text.split("generation cost): ").nth(1).unwrap();
        let cost = &cost[..cost.find(' ').unwrap()];
        let last = cost.chars().last().unwrap().to_digit(10).unwrap();
        let changed = format!("{}{}", &cost[..cost.len() - 1], (last + 1) % 10);
        let forged = text.replacen(cost, &changed, 1);
        assert_eq!(orphans(&forged, sources), vec![changed]);
    }
}

/// Token accounting counts the prompt and the completion without
/// rendering them; on every model turn of the pinned answer-text
/// dialogues (`tests/answer_text.rs`) the counts must equal the token
/// estimate of the rendered texts.
#[cfg(test)]
mod token_accounting {
    use super::*;
    use crate::agents::{acopf_agent, ca_agent};
    use crate::planners::{AcopfPlanner, CaPlanner};
    use gm_agents::{
        estimate_tokens, AnalysisStyle, ConversationView, LanguageModel, ModelTurn, Planner,
        SimulatedLlm, TokenUsage, TurnAction,
    };
    use gm_faults::{FaultInjector, FaultKind, FaultRule};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The simulated model, with each turn's usage checked against the
    /// rendered prompt and completion.
    struct Rendered {
        llm: SimulatedLlm,
        turns: Arc<AtomicUsize>,
    }

    impl LanguageModel for Rendered {
        fn name(&self) -> &str {
            self.llm.name()
        }

        fn next_turn(&self, view: &ConversationView) -> (ModelTurn, f64, TokenUsage) {
            let (turn, latency, usage) = self.llm.next_turn(view);
            let reasoning = turn.reasoning.join(" ");
            let completion_text = match &turn.action {
                TurnAction::Respond(text) => format!("{reasoning}{text}"),
                TurnAction::Calls(calls) => {
                    let calls: String = calls
                        .iter()
                        .map(|c| format!("{}{}", c.tool, c.args))
                        .collect();
                    format!("{reasoning}{calls}")
                }
            };
            let verbosity = self.llm.profile().verbosity;
            let rendered = TokenUsage {
                prompt: estimate_tokens(&view.rendered_prompt()),
                completion: (estimate_tokens(&completion_text) as f64 * verbosity) as u64,
            };
            assert_eq!(usage, rendered, "{:?}", view.user_input);
            self.turns.fetch_add(1, Ordering::Relaxed);
            (turn, latency, usage)
        }

        fn analysis_style(&self) -> AnalysisStyle {
            self.llm.analysis_style()
        }
    }

    fn rendered(
        profile: &ModelProfile,
        planner: impl Planner + 'static,
        turns: &Arc<AtomicUsize>,
    ) -> Arc<dyn LanguageModel> {
        Arc::new(Rendered {
            llm: SimulatedLlm::new(profile.clone(), planner),
            turns: Arc::clone(turns),
        })
    }

    /// Runs each dialogue in a fresh session whose agents check every
    /// turn; returns the number of model turns checked.
    fn check(dialogues: &[&[&str]]) -> usize {
        let profile = ModelProfile::by_name("GPT-5").unwrap();
        let turns = Arc::new(AtomicUsize::new(0));
        for dialogue in dialogues {
            let mut gm = GridMind::new(profile.clone());
            let (session, clock) = (gm.session.clone(), gm.clock.clone());
            gm.acopf = acopf_agent(
                rendered(&profile, AcopfPlanner, &turns),
                session.clone(),
                clock.clone(),
            );
            gm.ca = ca_agent(rendered(&profile, CaPlanner, &turns), session, clock);
            for utterance in *dialogue {
                gm.ask(utterance);
            }
        }
        turns.load(Ordering::Relaxed)
    }

    #[test]
    fn counted_tokens_equal_the_rendered_estimate() {
        let turns = check(&[
            &[
                "what is the current status",
                "solve case30",
                "set the load at bus 10 to 50 MW",
                "limit the generator at bus 2 to between 10 and 60 MW",
                "show the current status",
                "solve the security-constrained dispatch",
                "sweep the load from 80% to 120% in 5 steps",
                "sweep the load at bus 9 from 50% to 150% in 3 steps",
                "run an hourly study across the day",
                "run the n-1 contingency analysis",
                "analyze the outage of line 3",
                "analyze the outage of line 30",
                "what happens if we lose each generator unit",
                "show the contingency status summary",
                "analyze the outage of line 999",
                "set the load at bus 999 to 5 MW",
                "limit the generator at bus 10 to between 10 and 60 MW",
                "solve case9000",
            ],
            &["set the load at bus 10 of case14 to 50 MW"],
            &["analyze the outage of line 3 in case14"],
            &["what happens if we lose each generator unit in case14"],
            &["limit the generator at bus 2 of case14 to between 10 and 60 MW"],
            &[
                "set the load at bus 10 to 50 MW",
                "analyze the outage of line 3",
                "show the contingency status summary",
            ],
            &[
                "run the n-1 contingency analysis on case14",
                "set the load at bus 10 to 50 MW",
                "set the load at bus 10 to 40 MW",
            ],
        ]);
        assert!(turns > 60, "{turns} turns checked");
    }

    #[test]
    fn degraded_turns_count_the_caveat() {
        let inj = FaultInjector::scripted(vec![
            FaultRule::new("acopf.ipm", FaultKind::IpmStall, 0, 1),
            FaultRule::new("pf.base", FaultKind::NewtonDiverge, 0, 1),
        ]);
        let _g = inj.install();
        let turns = check(&[&["solve case14", "run the n-1 contingency analysis"]]);
        assert_eq!(inj.injected_total(), 2);
        assert!(turns >= 5, "{turns} turns checked");
    }
}
