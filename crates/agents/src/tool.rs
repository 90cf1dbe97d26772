//! Typed tools and the tool registry.
//!
//! Tools are the only path from agent reasoning to numbers (§3.2.1: "Never
//! fabricate solver outputs; always call tools for numerical data"). Each
//! tool declares input and output schemas; the registry validates both
//! directions on every invocation and appends an [`InvocationRecord`] to
//! the provenance log, so every figure an agent reports is traceable to a
//! validated tool output.

use crate::clock::VirtualClock;
use crate::schema::{Schema, SchemaViolation};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Static description of a tool (the capability descriptor the planner
/// matches subtasks against).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ToolSpec {
    /// Unique tool name, e.g. `solve_acopf_case`.
    pub name: String,
    /// What the tool does, for planner capability matching.
    pub description: String,
    /// Input schema.
    pub input: Schema,
    /// Output schema.
    pub output: Schema,
}

/// Tool invocation failure.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ToolError {
    /// No tool by that name.
    UnknownTool {
        /// Requested name.
        name: String,
    },
    /// Arguments rejected by the input schema.
    InvalidArgs {
        /// Violations.
        violations: Vec<SchemaViolation>,
    },
    /// The tool's own result failed its output schema — the §3.3 safety
    /// net against silently corrupted downstream reasoning.
    InvalidOutput {
        /// Violations.
        violations: Vec<SchemaViolation>,
    },
    /// Domain failure inside the tool (solver divergence, unknown case…).
    Execution {
        /// Tool-reported message.
        message: String,
        /// Whether the agent may retry with adjusted arguments.
        recoverable: bool,
    },
}

impl ToolError {
    /// A domain failure retrying cannot fix (unknown case, missing
    /// element, malformed request), carrying `e`'s rendering.
    pub fn fatal(e: impl std::fmt::Display) -> ToolError {
        ToolError::Execution {
            message: e.to_string(),
            recoverable: false,
        }
    }

    /// A domain failure the agent may retry with adjusted arguments
    /// (solver divergence, no case loaded yet), carrying `e`'s rendering.
    pub fn recoverable(e: impl std::fmt::Display) -> ToolError {
        ToolError::Execution {
            message: e.to_string(),
            recoverable: true,
        }
    }
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::UnknownTool { name } => write!(f, "unknown tool {name:?}"),
            ToolError::InvalidArgs { violations } => write!(
                f,
                "invalid arguments: {}",
                violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
            ToolError::InvalidOutput { violations } => write!(
                f,
                "tool output failed validation: {}",
                violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
            ToolError::Execution { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ToolError {}

/// A callable tool.
pub trait Tool: Send + Sync {
    /// The tool's static spec.
    fn spec(&self) -> &ToolSpec;
    /// Executes with already-validated arguments.
    fn call(&self, args: &Value) -> Result<Value, ToolError>;
}

/// Boxed tool body signature.
type ToolBody = Box<dyn Fn(&Value) -> Result<Value, ToolError> + Send + Sync>;

/// A tool built from a closure (the common case).
pub struct FnTool {
    spec: ToolSpec,
    f: ToolBody,
}

impl FnTool {
    /// Wraps a closure with a spec.
    pub fn new(
        spec: ToolSpec,
        f: impl Fn(&Value) -> Result<Value, ToolError> + Send + Sync + 'static,
    ) -> FnTool {
        FnTool {
            spec,
            f: Box::new(f),
        }
    }
}

impl Tool for FnTool {
    fn spec(&self) -> &ToolSpec {
        &self.spec
    }
    fn call(&self, args: &Value) -> Result<Value, ToolError> {
        (self.f)(args)
    }
}

/// Full audit record of one tool invocation (the provenance trail of
/// §3.2.1 "Trust and auditability").
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct InvocationRecord {
    /// Monotonic invocation id within the registry.
    pub seq: u64,
    /// Tool name.
    pub tool: String,
    /// Arguments as passed.
    pub args: Value,
    /// Result value (present on success).
    pub result: Option<Value>,
    /// Error text (present on failure).
    pub error: Option<String>,
    /// Virtual timestamp when the call started (s).
    pub started_at_s: f64,
    /// Wall-clock duration of the tool body (s).
    pub duration_s: f64,
}

/// Registry of tools with validation, invocation, and provenance.
pub struct ToolRegistry {
    tools: HashMap<String, Arc<dyn Tool>>,
    log: RwLock<Vec<InvocationRecord>>,
    seq: RwLock<u64>,
    clock: VirtualClock,
}

impl ToolRegistry {
    /// Empty registry sharing the given clock.
    pub fn new(clock: VirtualClock) -> Self {
        ToolRegistry {
            tools: HashMap::new(),
            log: RwLock::new(Vec::new()),
            seq: RwLock::new(0),
            clock,
        }
    }

    /// Registers a tool. New analytical tools can be added without
    /// refactoring core logic (§3.1); the planner discovers them through
    /// [`ToolRegistry::specs`].
    pub fn register(&mut self, tool: impl Tool + 'static) {
        self.tools.insert(tool.spec().name.clone(), Arc::new(tool));
    }

    /// Names of all registered tools.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tools.keys().cloned().collect();
        v.sort();
        v
    }

    /// All tool specs (capability descriptors).
    pub fn specs(&self) -> Vec<ToolSpec> {
        let mut v: Vec<ToolSpec> = self.tools.values().map(|t| t.spec().clone()).collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Invokes a tool with full input/output validation and provenance
    /// logging.
    pub fn invoke(&self, name: &str, args: &Value) -> Result<Value, ToolError> {
        let tool = self
            .tools
            .get(name)
            .ok_or_else(|| ToolError::UnknownTool { name: name.into() })?
            .clone();
        if let Err(violations) = tool.spec().input.validate(args) {
            return Err(ToolError::InvalidArgs { violations });
        }
        let _span = gm_telemetry::span!(format!("tool.{name}"));
        gm_telemetry::counter_add("tool.invocations", 1);
        let started_at_s = self.clock.now();
        let (result, duration_s) = self.clock.measure(|| tool.call(args));
        gm_telemetry::histogram_record("tool.duration_s", duration_s);
        if result.is_err() {
            gm_telemetry::counter_add("tool.errors", 1);
        }
        let seq = {
            let mut s = self.seq.write();
            *s += 1;
            *s
        };
        let record = |result: Option<Value>, error: Option<String>| InvocationRecord {
            seq,
            tool: name.to_string(),
            args: args.clone(),
            result,
            error,
            started_at_s,
            duration_s,
        };
        match result {
            Ok(value) => {
                if let Err(violations) = tool.spec().output.validate(&value) {
                    let err = ToolError::InvalidOutput { violations };
                    self.log.write().push(record(None, Some(err.to_string())));
                    return Err(err);
                }
                self.log.write().push(record(Some(value.clone()), None));
                Ok(value)
            }
            Err(e) => {
                self.log.write().push(record(None, Some(e.to_string())));
                Err(e)
            }
        }
    }

    /// Snapshot of the provenance log.
    pub fn provenance(&self) -> Vec<InvocationRecord> {
        self.log.read().clone()
    }

    /// Number of invocations so far.
    pub fn invocation_count(&self) -> u64 {
        *self.seq.read()
    }

    /// The shared clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;
    use serde_json::json;

    fn adder() -> FnTool {
        FnTool::new(
            ToolSpec {
                name: "add".into(),
                description: "adds two numbers".into(),
                input: Schema::object(vec![
                    Field::required("a", Schema::number(), "lhs"),
                    Field::required("b", Schema::number(), "rhs"),
                ]),
                output: Schema::object(vec![Field::required("sum", Schema::number(), "a+b")]),
            },
            |args| {
                let a = args["a"].as_f64().unwrap();
                let b = args["b"].as_f64().unwrap();
                Ok(json!({"sum": a + b}))
            },
        )
    }

    fn registry() -> ToolRegistry {
        let mut r = ToolRegistry::new(VirtualClock::new());
        r.register(adder());
        r
    }

    #[test]
    fn invoke_happy_path() {
        let r = registry();
        let out = r.invoke("add", &json!({"a": 2.0, "b": 3.0})).unwrap();
        assert_eq!(out["sum"], json!(5.0));
        let log = r.provenance();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].tool, "add");
        assert!(log[0].result.is_some());
        assert_eq!(log[0].seq, 1);
    }

    #[test]
    fn unknown_tool() {
        let r = registry();
        assert!(matches!(
            r.invoke("nope", &json!({})),
            Err(ToolError::UnknownTool { .. })
        ));
    }

    #[test]
    fn invalid_args_rejected_before_execution() {
        let r = registry();
        let err = r.invoke("add", &json!({"a": 2.0})).unwrap_err();
        assert!(matches!(err, ToolError::InvalidArgs { .. }));
        // Not logged as an invocation (never started).
        assert_eq!(r.provenance().len(), 0);
    }

    #[test]
    fn invalid_output_caught() {
        let mut r = ToolRegistry::new(VirtualClock::new());
        r.register(FnTool::new(
            ToolSpec {
                name: "bad".into(),
                description: "returns garbage".into(),
                input: Schema::Any,
                output: Schema::object(vec![Field::required("x", Schema::number(), "")]),
            },
            |_| Ok(json!({"y": "oops"})),
        ));
        let err = r.invoke("bad", &json!({})).unwrap_err();
        assert!(matches!(err, ToolError::InvalidOutput { .. }));
        // The failed attempt IS in the provenance log.
        let log = r.provenance();
        assert_eq!(log.len(), 1);
        assert!(log[0].error.is_some());
    }

    #[test]
    fn execution_errors_logged() {
        let mut r = ToolRegistry::new(VirtualClock::new());
        r.register(FnTool::new(
            ToolSpec {
                name: "fail".into(),
                description: "always fails".into(),
                input: Schema::Any,
                output: Schema::Any,
            },
            |_| Err(ToolError::recoverable("solver diverged")),
        ));
        let err = r.invoke("fail", &json!({})).unwrap_err();
        assert!(err.to_string().contains("diverged"));
        assert_eq!(r.provenance().len(), 1);
    }

    #[test]
    fn specs_sorted_and_discoverable() {
        let mut r = registry();
        r.register(FnTool::new(
            ToolSpec {
                name: "aardvark".into(),
                description: "first alphabetically".into(),
                input: Schema::Any,
                output: Schema::Any,
            },
            |_| Ok(json!(null)),
        ));
        assert_eq!(r.names(), vec!["aardvark".to_string(), "add".to_string()]);
        assert_eq!(r.specs()[0].name, "aardvark");
    }

    #[test]
    fn clock_advances_with_invocations() {
        let r = registry();
        let before = r.clock().now();
        r.invoke("add", &json!({"a": 1.0, "b": 1.0})).unwrap();
        assert!(r.clock().now() >= before);
        assert_eq!(r.invocation_count(), 1);
    }
}
