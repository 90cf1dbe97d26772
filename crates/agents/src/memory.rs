//! Structured conversational memory and session context.
//!
//! §3.2.1 "Memory (context)": a structured in-session object storing case
//! metadata, the latest feasible solutions, caches, and a chronological
//! diff log — replayed before acting so the agent's reasoning is grounded
//! in actual state rather than recollection. Everything here serializes,
//! giving the session persistence of §3.4.

use crate::llm::ToolCall;
use crate::tool::ToolFailure;
use crate::wire::Wire;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

/// Who said what.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// The human operator.
    User,
    /// The agent's narrated replies.
    Agent,
    /// Tool invocation summaries (auditable intermediate artifacts).
    Tool,
}

/// One conversation message.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Message {
    /// Speaker.
    pub role: Role,
    /// Text content.
    pub content: String,
    /// Virtual timestamp (seconds).
    pub at_s: f64,
}

/// The agent's persistent memory.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AgentMemory {
    /// Owning agent name.
    pub agent: String,
    /// The system prompt that constrains behaviour (Figs. 4–5).
    pub system_prompt: String,
    /// Conversation history.
    pub messages: Vec<Message>,
    /// Structured context: typed artifacts keyed by well-known names
    /// (e.g. `acopf_solution`, `contingency_report`, `active_case`).
    pub context: BTreeMap<String, Value>,
}

impl AgentMemory {
    /// Fresh memory.
    pub fn new(agent: &str, system_prompt: &str) -> AgentMemory {
        AgentMemory {
            agent: agent.into(),
            system_prompt: system_prompt.into(),
            messages: Vec::new(),
            context: BTreeMap::new(),
        }
    }

    /// Appends a message.
    pub fn push(&mut self, role: Role, content: impl Into<String>, at_s: f64) {
        self.messages.push(Message {
            role,
            content: content.into(),
            at_s,
        });
    }

    /// Stores a structured artifact under a well-known key.
    pub fn put_context(&mut self, key: &str, value: Value) {
        self.context.insert(key.to_string(), value);
    }

    /// Fetches a structured artifact.
    pub fn get_context(&self, key: &str) -> Option<&Value> {
        self.context.get(key)
    }

    /// Removes an artifact (e.g. when it goes stale after a diff).
    pub fn remove_context(&mut self, key: &str) -> Option<Value> {
        self.context.remove(key)
    }

    /// Builds the read-only view handed to the language model.
    pub fn view<'a>(&'a self, user_input: &'a str) -> ConversationView<'a> {
        ConversationView {
            agent: &self.agent,
            system_prompt: &self.system_prompt,
            user_input,
            messages: &self.messages,
            context: &self.context,
            pending_results: &[],
        }
    }

    /// Serializes the whole memory for session persistence.
    pub fn to_json(&self) -> Value {
        serde_json::to_value(self).expect("memory serializes")
    }

    /// Restores a persisted session.
    pub fn from_json(v: &Value) -> Result<AgentMemory, serde_json::Error> {
        serde_json::from_value(v.clone())
    }

    /// Estimated prompt tokens if the model saw the whole memory now.
    pub fn prompt_tokens(&self) -> u64 {
        let chars: usize = self.system_prompt.len()
            + self
                .messages
                .iter()
                .map(|m| m.content.len() + 8)
                .sum::<usize>();
        (chars as u64).div_ceil(4)
    }

    /// Context-window management: drops the *oldest* messages until the
    /// estimated prompt fits `max_prompt_tokens`, replacing them with a
    /// single summary stub. The structured context artifacts are never
    /// pruned — that is the point of the paper's design: conversational
    /// prose is disposable, typed state is not ("a structured context
    /// keeps the latest solved state … so only affected layers are
    /// recomputed", §3.1). Returns the number of messages dropped.
    pub fn prune_to(&mut self, max_prompt_tokens: u64) -> usize {
        let mut dropped = 0usize;
        while self.prompt_tokens() > max_prompt_tokens && self.messages.len() > 2 {
            self.messages.remove(0);
            dropped += 1;
        }
        if dropped > 0 {
            let at_s = self.messages.first().map(|m| m.at_s).unwrap_or(0.0);
            self.messages.insert(
                0,
                Message {
                    role: Role::Agent,
                    content: format!(
                        "[context window: {dropped} earlier message(s) summarized away; \
                         structured artifacts retained]"
                    ),
                    at_s,
                },
            );
        }
        dropped
    }
}

/// Read-only view of the conversation handed to planners/backends.
#[derive(Clone, Debug)]
pub struct ConversationView<'a> {
    /// Agent name.
    pub agent: &'a str,
    /// System prompt.
    pub system_prompt: &'a str,
    /// The utterance being handled.
    pub user_input: &'a str,
    /// Prior messages.
    pub messages: &'a [Message],
    /// Structured context artifacts.
    pub context: &'a BTreeMap<String, Value>,
    /// The turn's transition list, lent by the agent loop: each tool call
    /// made earlier in this same turn and its result, where a failed
    /// call's result is a [`ToolFailure`] on the wire.
    pub pending_results: &'a [(ToolCall, Value)],
}

impl<'a> ConversationView<'a> {
    /// Renders the prompt as the backend would see it (used for token
    /// accounting).
    pub fn rendered_prompt(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str(self.system_prompt);
        for m in self.messages {
            s.push('\n');
            s.push_str(&m.content);
        }
        for (call, result) in self.pending_results {
            s.push('\n');
            s.push_str(&call.tool);
            s.push_str(&result.to_string());
        }
        s.push('\n');
        s.push_str(self.user_input);
        s
    }

    /// Fetches a context artifact.
    pub fn context_value(&self, key: &str) -> Option<&Value> {
        self.context.get(key)
    }

    /// The turn's transitions in order: each call, and either what it
    /// returned or the failure that stands in its place.
    pub fn transitions(
        &self,
    ) -> impl Iterator<Item = (&'a ToolCall, Result<&'a Value, ToolFailure>)> {
        self.pending_results.iter().map(|(call, result)| {
            (
                call,
                match ToolFailure::from_wire(result) {
                    Ok(failure) => Err(failure),
                    Err(_) => Ok(result),
                },
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn push_and_view() {
        let mut m = AgentMemory::new("acopf", "be rigorous");
        m.push(Role::User, "solve 118", 0.0);
        m.push(Role::Agent, "done", 3.4);
        let v = m.view("now modify it");
        assert_eq!(v.messages.len(), 2);
        assert!(v.rendered_prompt().contains("be rigorous"));
        assert!(v.rendered_prompt().contains("now modify it"));
    }

    #[test]
    fn context_round_trip() {
        let mut m = AgentMemory::new("a", "p");
        m.put_context("acopf_solution", json!({"objective_cost": 129704.74}));
        assert_eq!(
            m.get_context("acopf_solution").unwrap()["objective_cost"],
            json!(129704.74)
        );
        assert!(m.remove_context("acopf_solution").is_some());
        assert!(m.get_context("acopf_solution").is_none());
    }

    #[test]
    fn serialization_round_trip() {
        let mut m = AgentMemory::new("ca", "check things");
        m.push(Role::User, "run n-1", 1.0);
        m.put_context("active_case", json!("case118"));
        let blob = m.to_json();
        let restored = AgentMemory::from_json(&blob).unwrap();
        assert_eq!(restored.agent, "ca");
        assert_eq!(restored.messages.len(), 1);
        assert_eq!(
            restored.get_context("active_case").unwrap(),
            &json!("case118")
        );
    }

    #[test]
    fn pruning_respects_budget_and_keeps_artifacts() {
        let mut m = AgentMemory::new("a", "short system prompt");
        m.put_context("acopf_solution", json!({"objective_cost": 123.0}));
        for i in 0..200 {
            m.push(
                Role::User,
                format!("message number {i} with some padding text"),
                i as f64,
            );
        }
        let before = m.prompt_tokens();
        assert!(before > 1500);
        let dropped = m.prune_to(500);
        assert!(dropped > 100, "only dropped {dropped}");
        assert!(
            m.prompt_tokens() <= 520,
            "still {} tokens",
            m.prompt_tokens()
        );
        // The summary stub marks the elision…
        assert!(m.messages[0].content.contains("summarized away"));
        // …and the typed artifact survived.
        assert!(m.get_context("acopf_solution").is_some());
        // Recent messages survive in order.
        assert!(m.messages.last().unwrap().content.contains("199"));
    }

    #[test]
    fn pruning_is_noop_under_budget() {
        let mut m = AgentMemory::new("a", "p");
        m.push(Role::User, "hello", 0.0);
        assert_eq!(m.prune_to(10_000), 0);
        assert_eq!(m.messages.len(), 1);
    }

    #[test]
    fn pending_results_lookup() {
        let m = AgentMemory::new("a", "p");
        let mut v = m.view("x");
        assert!(v.transitions().last().is_none());
        let call = |tool: &str| ToolCall {
            tool: tool.into(),
            args: json!({"bus_id": 10}),
        };
        let pending = [
            (call("solve"), json!({"ok": true})),
            (call("modify"), json!({"error": "no case loaded"})),
        ];
        v.pending_results = &pending[..1];
        let (first, result) = v.transitions().last().unwrap();
        assert_eq!(
            (first, result.unwrap()),
            (&call("solve"), &json!({"ok": true}))
        );
        // Latest wins, and a failure object reads back as a failure.
        v.pending_results = &pending;
        let (last, result) = v.transitions().last().unwrap();
        assert_eq!(last, &call("modify"));
        assert_eq!(result.unwrap_err().error, "no case loaded");
        // The prompt renders a transition as the tool name and its result.
        assert!(v
            .rendered_prompt()
            .contains("\nsolve{\"ok\":true}\nmodify{"));
    }
}
