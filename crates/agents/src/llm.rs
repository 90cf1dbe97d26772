//! Language-model abstraction and the simulated backends.
//!
//! The paper drives GridMind with six remote LLMs (GPT-5 family, o3,
//! o4-mini, Claude 4 Sonnet). This reproduction replaces the remote APIs
//! with [`SimulatedLlm`]: a deterministic planner (supplied by the domain
//! layer) wrapped in a **model profile** that reproduces each backend's
//! observable characteristics — reasoning latency distribution, token
//! rate, verbosity, and analytical style. Latency is charged to the
//! session's [`VirtualClock`](crate::clock::VirtualClock) rather than
//! slept, so experiments reproduce the paper's seconds-scale timings while
//! running in milliseconds.
//!
//! The substitution is sound for this paper's claims because GridMind's
//! architecture pins every numerical result to deterministic tools: the
//! LLM contributes intent parsing, planning, and narration, all of which
//! the deterministic planner implements, plus latency — which the profile
//! models explicitly (calibrated against Table 1 and Figure 3).

use crate::memory::{json_len, ConversationView};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::sync::Mutex;

/// One requested tool call.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ToolCall {
    /// Tool name.
    pub tool: String,
    /// JSON arguments.
    pub args: Value,
}

/// What the model wants to do next.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TurnAction {
    /// Invoke tools and return for another round.
    Calls(Vec<ToolCall>),
    /// Finish the turn with a narrated answer.
    Respond(String),
}

/// A model turn: visible reasoning steps plus an action.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelTurn {
    /// Chain-of-thought style step descriptions (the paper's numbered
    /// "(understand the case…) -> reasoning" lines).
    pub reasoning: Vec<String>,
    /// The action.
    pub action: TurnAction,
}

/// Token usage accounting (the paper logs "LLM backend latency, token
/// usage").
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TokenUsage {
    /// Prompt-side tokens.
    pub prompt: u64,
    /// Completion-side tokens.
    pub completion: u64,
}

impl TokenUsage {
    /// Total tokens.
    pub fn total(&self) -> u64 {
        self.prompt + self.completion
    }

    /// Adds another usage record.
    pub fn add(&mut self, other: TokenUsage) {
        self.prompt += other.prompt;
        self.completion += other.completion;
    }
}

/// A language model backend.
pub trait LanguageModel: Send + Sync {
    /// Backend name ("GPT-5", "Claude 4 Sonnet", …).
    fn name(&self) -> &str;
    /// Produces the next turn for a conversation. Returns the turn, the
    /// virtual latency the call costs (seconds), and token usage.
    fn next_turn(&self, view: &ConversationView) -> (ModelTurn, f64, TokenUsage);
    /// The analysis style quirk this backend exhibits (drives the Table 1
    /// ranking divergence).
    fn analysis_style(&self) -> AnalysisStyle {
        AnalysisStyle::Composite
    }
}

/// Analytical style a backend applies when asked to rank contingencies —
/// the paper attributes GPT-5-Mini's divergent Table 1 row to "a different
/// analytical approach".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnalysisStyle {
    /// Blend thermal/voltage/shedding evidence (most backends).
    Composite,
    /// Rank purely by worst overload (the GPT-5-Mini quirk).
    OverloadFirst,
}

/// Observable characteristics of a simulated backend, calibrated against
/// the paper's Table 1 and Figure 3.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Display name.
    pub name: String,
    /// Mean per-turn reasoning latency (seconds, lognormal median).
    pub reasoning_latency_s: f64,
    /// Latency spread (lognormal sigma).
    pub latency_sigma: f64,
    /// Completion token rate (tokens/second) — adds length-dependent
    /// latency.
    pub tokens_per_s: f64,
    /// Verbosity multiplier on narration length.
    pub verbosity: f64,
    /// Analytical style quirk.
    pub style: AnalysisStyle,
    /// RNG seed so every run of a profile is reproducible.
    pub seed: u64,
}

impl ModelProfile {
    /// The six backends evaluated in the paper, with latency parameters
    /// calibrated so that the end-to-end conversation timings land in the
    /// ranges of Table 1 and Figure 3 (middle).
    pub fn paper_models() -> Vec<ModelProfile> {
        vec![
            ModelProfile {
                name: "GPT-5".into(),
                reasoning_latency_s: 17.5,
                latency_sigma: 0.25,
                tokens_per_s: 40.0,
                verbosity: 1.3,
                style: AnalysisStyle::Composite,
                seed: 0x6705,
            },
            ModelProfile {
                name: "GPT-5 Mini".into(),
                reasoning_latency_s: 4.3,
                latency_sigma: 0.20,
                tokens_per_s: 90.0,
                verbosity: 0.9,
                style: AnalysisStyle::OverloadFirst,
                seed: 0x6706,
            },
            ModelProfile {
                name: "GPT-5 Nano".into(),
                reasoning_latency_s: 4.6,
                latency_sigma: 0.22,
                tokens_per_s: 110.0,
                verbosity: 0.7,
                style: AnalysisStyle::Composite,
                seed: 0x6707,
            },
            ModelProfile {
                name: "GPT-o3".into(),
                reasoning_latency_s: 4.4,
                latency_sigma: 0.18,
                tokens_per_s: 70.0,
                verbosity: 1.0,
                style: AnalysisStyle::Composite,
                seed: 0x6708,
            },
            ModelProfile {
                name: "GPT-o4 Mini".into(),
                reasoning_latency_s: 1.4,
                latency_sigma: 0.55,
                tokens_per_s: 95.0,
                verbosity: 0.8,
                style: AnalysisStyle::Composite,
                seed: 0x6709,
            },
            ModelProfile {
                name: "Claude 4 Sonnet".into(),
                reasoning_latency_s: 11.8,
                latency_sigma: 0.22,
                tokens_per_s: 55.0,
                verbosity: 1.2,
                style: AnalysisStyle::Composite,
                seed: 0x670a,
            },
        ]
    }

    /// Looks a paper model up by (case-insensitive, fuzzy) name.
    pub fn by_name(name: &str) -> Option<ModelProfile> {
        let norm = name.to_ascii_lowercase().replace([' ', '-', '_'], "");
        Self::paper_models()
            .into_iter()
            .find(|p| p.name.to_ascii_lowercase().replace([' ', '-', '_'], "") == norm)
    }
}

/// The deterministic planner a [`SimulatedLlm`] delegates domain reasoning
/// to. Domain crates (gridmind-core) implement this per agent.
pub trait Planner: Send + Sync {
    /// Produces the next turn given the conversation view.
    fn plan(&self, view: &ConversationView, style: AnalysisStyle) -> ModelTurn;
}

/// A simulated LLM backend: deterministic planner + stochastic-but-seeded
/// latency/token model.
pub struct SimulatedLlm {
    profile: ModelProfile,
    planner: Box<dyn Planner>,
    rng: Mutex<SmallRng>,
}

impl SimulatedLlm {
    /// Wraps a planner in a model profile.
    pub fn new(profile: ModelProfile, planner: impl Planner + 'static) -> SimulatedLlm {
        let rng = SmallRng::seed_from_u64(profile.seed);
        SimulatedLlm {
            profile,
            planner: Box::new(planner),
            rng: Mutex::new(rng),
        }
    }

    /// The profile in use.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn sample_latency(&self, completion_tokens: u64) -> f64 {
        let mut rng = self.rng.lock().unwrap();
        // Lognormal around the profile median.
        let z: f64 = {
            // Box-Muller from two uniforms.
            let u1: f64 = rng.random_range(1e-12..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let reasoning = self.profile.reasoning_latency_s * (self.profile.latency_sigma * z).exp();
        let decode = completion_tokens as f64 / self.profile.tokens_per_s;
        reasoning + decode
    }
}

/// Crude token estimate: ~4 characters per token.
pub fn estimate_tokens(text: &str) -> u64 {
    tokens_for_len(text.len())
}

/// [`estimate_tokens`] of a text `len` bytes long.
fn tokens_for_len(len: usize) -> u64 {
    (len as u64).div_ceil(4)
}

impl LanguageModel for SimulatedLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn next_turn(&self, view: &ConversationView) -> (ModelTurn, f64, TokenUsage) {
        let turn = self.planner.plan(view, self.profile.style);
        // Both sides are counted, not rendered: the completion is the
        // reasoning joined by spaces, then the answer or each call's tool
        // name and JSON arguments.
        let reasoning_len = turn.reasoning.iter().map(String::len).sum::<usize>()
            + turn.reasoning.len().saturating_sub(1);
        let action_len = match &turn.action {
            TurnAction::Respond(text) => text.len(),
            TurnAction::Calls(calls) => {
                calls.iter().map(|c| c.tool.len() + json_len(&c.args)).sum()
            }
        };
        let completion =
            (tokens_for_len(reasoning_len + action_len) as f64 * self.profile.verbosity) as u64;
        let prompt = tokens_for_len(view.prompt_len());
        let latency = self.sample_latency(completion);
        (turn, latency, TokenUsage { prompt, completion })
    }

    fn analysis_style(&self) -> AnalysisStyle {
        self.profile.style
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AgentMemory;

    struct EchoPlanner;
    impl Planner for EchoPlanner {
        fn plan(&self, view: &ConversationView, _style: AnalysisStyle) -> ModelTurn {
            ModelTurn {
                reasoning: vec!["(understand the task)".into()],
                action: TurnAction::Respond(format!("echo: {}", view.user_input)),
            }
        }
    }

    fn view_for(input: &str) -> (AgentMemory, String) {
        (
            AgentMemory::new("test-agent", "system prompt"),
            input.to_string(),
        )
    }

    #[test]
    fn paper_models_present() {
        let models = ModelProfile::paper_models();
        assert_eq!(models.len(), 6);
        let names: Vec<&str> = models.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"GPT-5"));
        assert!(names.contains(&"Claude 4 Sonnet"));
        // Exactly one divergent style (the paper's GPT-5-Mini anomaly).
        assert_eq!(
            models
                .iter()
                .filter(|m| m.style == AnalysisStyle::OverloadFirst)
                .count(),
            1
        );
    }

    #[test]
    fn by_name_is_fuzzy() {
        assert!(ModelProfile::by_name("gpt-5").is_some());
        assert!(ModelProfile::by_name("GPT 5 MINI").is_some());
        assert!(ModelProfile::by_name("claude4sonnet").is_some());
        assert!(ModelProfile::by_name("gemini").is_none());
    }

    #[test]
    fn simulated_llm_charges_latency_and_tokens() {
        let (memory, input) = view_for("solve case118");
        let view = memory.view(&input);
        let llm = SimulatedLlm::new(ModelProfile::paper_models()[0].clone(), EchoPlanner);
        let (turn, latency, tokens) = llm.next_turn(&view);
        assert!(matches!(turn.action, TurnAction::Respond(_)));
        assert!(latency > 1.0, "GPT-5 profile latency {latency} too small");
        assert!(tokens.completion > 0);
        assert!(tokens.prompt > 0);
    }

    #[test]
    fn latency_is_reproducible_per_seed() {
        let (memory, input) = view_for("x");
        let view = memory.view(&input);
        let a = SimulatedLlm::new(ModelProfile::paper_models()[0].clone(), EchoPlanner);
        let b = SimulatedLlm::new(ModelProfile::paper_models()[0].clone(), EchoPlanner);
        let (_, la1, _) = a.next_turn(&view);
        let (_, lb1, _) = b.next_turn(&view);
        assert_eq!(la1, lb1);
    }

    #[test]
    fn faster_profile_is_faster_on_average() {
        let (memory, input) = view_for("x");
        let view = memory.view(&input);
        let slow = SimulatedLlm::new(ModelProfile::by_name("GPT-5").unwrap(), EchoPlanner);
        let fast = SimulatedLlm::new(ModelProfile::by_name("GPT-o4 Mini").unwrap(), EchoPlanner);
        let mut slow_total = 0.0;
        let mut fast_total = 0.0;
        for _ in 0..20 {
            slow_total += slow.next_turn(&view).1;
            fast_total += fast.next_turn(&view).1;
        }
        assert!(
            slow_total > 2.0 * fast_total,
            "GPT-5 {slow_total:.1}s should dwarf o4-mini {fast_total:.1}s"
        );
    }

    #[test]
    fn token_estimate_scales_with_text() {
        assert_eq!(estimate_tokens(""), 0);
        assert_eq!(estimate_tokens("abcd"), 1);
        assert!(estimate_tokens(&"x".repeat(400)) >= 100);
    }

    #[test]
    fn usage_addition() {
        let mut u = TokenUsage {
            prompt: 10,
            completion: 5,
        };
        u.add(TokenUsage {
            prompt: 1,
            completion: 2,
        });
        assert_eq!(u.total(), 18);
    }
}
