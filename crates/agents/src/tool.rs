//! Typed tools and the tool registry.
//!
//! Tools are the only path from agent reasoning to numbers (§3.2.1: "Never
//! fabricate solver outputs; always call tools for numerical data"). A
//! tool body returns a declared result type ([`Wire`]); its output schema
//! is generated from that declaration. The registry validates both
//! directions on every invocation and appends an [`InvocationRecord`] to
//! the provenance log, so every figure an agent reports is traceable to a
//! validated tool output.

use crate::clock::VirtualClock;
use crate::schema::{Schema, SchemaViolation};
use crate::wire::Wire;
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::any::TypeId;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

/// Static description of a tool (the capability descriptor the planner
/// matches subtasks against).
#[derive(Clone, Debug)]
pub struct ToolSpec {
    /// Unique tool name, e.g. `solve_acopf_case`.
    pub name: String,
    /// What the tool does, for planner capability matching.
    pub description: String,
    /// Input schema: the one generated from the tool's declared argument
    /// type, shared like the output schema.
    pub input: Arc<Schema>,
    /// Output schema: the one generated from the tool's declared result
    /// type, shared by every registry the tool is registered in.
    pub output: Arc<Schema>,
}

/// `T`'s generated schema, built once per process. Every session
/// registers the same tools, and a generated schema runs to dozens of
/// `Field`s with their descriptions: rebuilt per session it cost more
/// than a cache-hit turn and some 50 kB of each session's memory.
fn shared_schema<T: Wire + 'static>() -> Arc<Schema> {
    static SCHEMAS: OnceLock<Mutex<HashMap<TypeId, Arc<Schema>>>> = OnceLock::new();
    let mut schemas = SCHEMAS.get_or_init(Default::default).lock();
    let schema = schemas.entry(TypeId::of::<T>());
    schema.or_insert_with(|| Arc::new(T::schema())).clone()
}

crate::tool_output! {
    /// Class of a domain failure. Recovery keys on this, never on the
    /// message text; each domain error type maps to its code in one
    /// place (`gridmind_core::failure`).
    #[derive(Serialize, Deserialize)]
    pub enum ErrorCode {
        /// No case is loaded in the session — fixed by loading one.
        NoActiveCase = "no_active_case",
        /// The named case is not in the library.
        UnknownCase = "unknown_case",
        /// The named bus is not in the active case.
        UnknownBus = "unknown_bus",
        /// The named line, transformer or unit is not in the active case.
        UnknownElement = "unknown_element",
        /// An argument the request cannot be carried out with.
        BadArgument = "bad_argument",
        /// Every solver rung failed numerically.
        NotConverged = "not_converged",
        /// The network itself fails validation.
        InvalidNetwork = "invalid_network",
    }
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
        /// What class of failure it is.
        code: ErrorCode,
        /// Tool-reported message.
        message: String,
    },
}

impl ToolError {
    /// The failure's class: a domain failure's own code, `bad_argument`
    /// for arguments the input schema rejected, none for a framework
    /// fault (unknown tool, invalid output).
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ToolError::Execution { code, .. } => Some(*code),
            ToolError::InvalidArgs { .. } => Some(ErrorCode::BadArgument),
            ToolError::UnknownTool { .. } | ToolError::InvalidOutput { .. } => None,
        }
    }
}

crate::tool_output! {
    /// What a planner sees in place of a result when the call failed.
    pub struct ToolFailure {
        code: Option<ErrorCode> = "failure class; absent for a framework fault",
        error: String = "rendered failure message",
    }
}

impl From<&ToolError> for ToolFailure {
    fn from(e: &ToolError) -> ToolFailure {
        ToolFailure {
            code: e.code(),
            error: e.to_string(),
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
    /// Wraps a closure from the declared argument type `A` to the
    /// declared result type `T`: the tool's input and output schemas are
    /// `A`'s and `T`'s generated ones, the closure receives the arguments
    /// lifted into `A`, and its result goes onto the wire as `T` lowers
    /// it. The closure's error is whatever classifies into a
    /// [`ToolError`].
    pub fn new<A, T, E>(
        name: &str,
        description: &str,
        f: impl Fn(A) -> Result<T, E> + Send + Sync + 'static,
    ) -> FnTool
    where
        A: Wire + 'static,
        T: Wire + 'static,
        E: Into<ToolError>,
    {
        FnTool {
            spec: ToolSpec {
                name: name.into(),
                description: description.into(),
                input: shared_schema::<A>(),
                output: shared_schema::<T>(),
            },
            f: Box::new(move |args| {
                let args = A::from_wire(args).map_err(|message| ToolError::InvalidArgs {
                    violations: vec![SchemaViolation {
                        path: "$".into(),
                        message,
                    }],
                })?;
                f(args).map(|out| out.to_wire()).map_err(Into::into)
            }),
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
    /// Failure class (present on a classified failure).
    pub code: Option<ErrorCode>,
    /// Virtual timestamp when the call started (s).
    pub started_at_s: f64,
    /// Wall-clock duration of the tool body (s).
    pub duration_s: f64,
}

/// Provenance records a registry keeps: the most recent this many. A
/// served session lives as long as its client keeps talking, and each
/// record holds a copy of a whole result.
pub const PROVENANCE_KEEP: usize = 256;

/// Registry of tools with validation, invocation, and provenance.
pub struct ToolRegistry {
    tools: HashMap<String, Arc<dyn Tool>>,
    log: RwLock<VecDeque<InvocationRecord>>,
    seq: RwLock<u64>,
    clock: VirtualClock,
}

impl ToolRegistry {
    /// Empty registry sharing the given clock.
    pub fn new(clock: VirtualClock) -> Self {
        ToolRegistry {
            tools: HashMap::new(),
            log: RwLock::new(VecDeque::new()),
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
        let result = result.and_then(|value| match tool.spec().output.validate(&value) {
            Ok(()) => Ok(value),
            Err(violations) => Err(ToolError::InvalidOutput { violations }),
        });
        if result.is_err() {
            gm_telemetry::counter_add("tool.errors", 1);
        }
        let seq = {
            let mut s = self.seq.write();
            *s += 1;
            *s
        };
        let record = InvocationRecord {
            seq,
            tool: name.to_string(),
            args: args.clone(),
            result: result.as_ref().ok().cloned(),
            error: result.as_ref().err().map(|e| e.to_string()),
            code: result.as_ref().err().and_then(ToolError::code),
            started_at_s,
            duration_s,
        };
        let dropped = {
            let mut log = self.log.write();
            let full = log.len() == PROVENANCE_KEEP;
            if full {
                log.pop_front();
            }
            log.push_back(record);
            full
        };
        if dropped {
            gm_telemetry::counter_add("tool.provenance.dropped", 1);
        }
        result
    }

    /// Snapshot of the provenance log: the most recent
    /// [`PROVENANCE_KEEP`] records, oldest first.
    pub fn provenance(&self) -> Vec<InvocationRecord> {
        self.log.read().iter().cloned().collect()
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
    use serde_json::json;

    crate::tool_output! {
        struct Operands {
            a: f64 = "lhs",
            b: f64 = "rhs",
        }
    }

    crate::tool_output! {
        struct Sum {
            sum: f64 = "a+b",
        }
    }

    fn adder() -> FnTool {
        FnTool::new("add", "adds two numbers", |args: Operands| {
            Ok::<_, ToolError>(Sum {
                sum: args.a + args.b,
            })
        })
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
        assert_eq!(err.code(), Some(ErrorCode::BadArgument));
        // Not logged as an invocation (never started).
        assert_eq!(r.provenance().len(), 0);
    }

    #[test]
    fn invalid_output_caught() {
        // 1e308 + 1e308 overflows to infinity, which has no wire form:
        // the generated schema rejects the result.
        let r = registry();
        let err = r
            .invoke("add", &json!({"a": 1e308, "b": 1e308}))
            .unwrap_err();
        assert!(matches!(err, ToolError::InvalidOutput { .. }), "{err}");
        assert_eq!(err.code(), None);
        // The failed attempt IS in the provenance log.
        let log = r.provenance();
        assert_eq!(log.len(), 1);
        assert!(log[0].error.is_some() && log[0].result.is_none());
    }

    #[test]
    fn execution_errors_logged() {
        let mut r = ToolRegistry::new(VirtualClock::new());
        r.register(FnTool::new(
            "fail",
            "always fails",
            |_: ()| -> Result<Sum, ToolError> {
                Err(ToolError::Execution {
                    code: ErrorCode::NotConverged,
                    message: "solver diverged".into(),
                })
            },
        ));
        let err = r.invoke("fail", &json!({})).unwrap_err();
        assert!(err.to_string().contains("diverged"));
        let log = r.provenance();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].code, Some(ErrorCode::NotConverged));
        let failure = ToolFailure::from(&err).to_wire();
        assert_eq!(
            failure,
            json!({"code": "not_converged", "error": "solver diverged"})
        );
        assert_eq!(
            ToolFailure::from_wire(&failure).unwrap().code,
            Some(ErrorCode::NotConverged)
        );
    }

    #[test]
    fn provenance_keeps_the_most_recent_records() {
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        let r = registry();
        for i in 0..2 * PROVENANCE_KEEP {
            r.invoke("add", &json!({"a": i as f64, "b": 0.0})).unwrap();
        }
        let log = r.provenance();
        assert_eq!(log.len(), PROVENANCE_KEEP);
        assert_eq!(log[0].seq, PROVENANCE_KEEP as u64 + 1, "oldest dropped");
        assert!(log.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        assert_eq!(r.invocation_count(), 2 * PROVENANCE_KEEP as u64);
        assert_eq!(
            reg.counter_value("tool.provenance.dropped"),
            PROVENANCE_KEEP as u64
        );
    }

    #[test]
    fn specs_sorted_and_discoverable() {
        let mut r = registry();
        r.register(FnTool::new(
            "aardvark",
            "first alphabetically",
            |_: ()| -> Result<Sum, ToolError> { Ok(Sum { sum: 0.0 }) },
        ));
        assert_eq!(r.names(), vec!["aardvark".to_string(), "add".to_string()]);
        assert_eq!(r.specs()[0].name, "aardvark");
        assert!(matches!(
            &*r.specs()[0].output,
            Schema::Object { closed: true, .. }
        ));
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
