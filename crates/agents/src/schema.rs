//! Typed value schemas and validation — the "Pydantic" role.
//!
//! Every tool input and output in GridMind is validated against an
//! explicit schema before the agent is allowed to reason about it (§3.3:
//! "malformed or incomplete tool returns trigger automatic recovery paths
//! instead of silently corrupting downstream reasoning"). Values are
//! `serde_json::Value`; schemas are a compact structural language with
//! numeric ranges, enums, required fields, and nested objects/arrays.

use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::ops::{RangeFrom, RangeInclusive};

/// A structural schema for JSON-like values.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Schema {
    /// Any value accepted.
    Any,
    /// Boolean.
    Bool,
    /// Double-precision number with optional inclusive range.
    Number {
        /// Lower bound.
        min: Option<f64>,
        /// Upper bound.
        max: Option<f64>,
    },
    /// Integer with optional inclusive range.
    Integer {
        /// Lower bound.
        min: Option<i64>,
        /// Upper bound.
        max: Option<i64>,
    },
    /// String, optionally restricted to an enumeration.
    Str {
        /// Allowed values (empty = unrestricted).
        one_of: Vec<String>,
    },
    /// Homogeneous array.
    Array {
        /// Element schema.
        item: Box<Schema>,
    },
    /// Object with named fields; unknown fields are rejected when
    /// `closed`.
    Object {
        /// Field definitions.
        fields: Vec<Field>,
        /// Reject fields not listed.
        closed: bool,
    },
    /// Any one of several shapes (an untagged union).
    OneOf {
        /// The alternatives.
        variants: Vec<Schema>,
    },
}

/// One object field.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field schema.
    pub schema: Schema,
    /// Whether the field must be present.
    pub required: bool,
    /// Human/planner-readable description (the "semantic anchor" of
    /// §3.3).
    pub description: String,
}

impl Field {
    /// Required field shorthand.
    pub fn required(name: &str, schema: Schema, description: &str) -> Field {
        Field {
            name: name.into(),
            schema,
            required: true,
            description: description.into(),
        }
    }

    /// Optional field shorthand.
    pub fn optional(name: &str, schema: Schema, description: &str) -> Field {
        Field {
            name: name.into(),
            schema,
            required: false,
            description: description.into(),
        }
    }
}

/// A declared bound (`1..`, `0.0..=10.0`) as `(lo, hi)`; an open end is
/// infinite.
pub trait Bounds {
    /// The bound's ends.
    fn ends(&self) -> (f64, f64);
}

impl<T: Copy + Into<f64>> Bounds for RangeInclusive<T> {
    fn ends(&self) -> (f64, f64) {
        ((*self.start()).into(), (*self.end()).into())
    }
}

impl<T: Copy + Into<f64>> Bounds for RangeFrom<T> {
    fn ends(&self) -> (f64, f64) {
        (self.start.into(), f64::INFINITY)
    }
}

impl Schema {
    /// Unbounded number.
    pub fn number() -> Schema {
        Schema::Number {
            min: None,
            max: None,
        }
    }

    /// Free string.
    pub fn string() -> Schema {
        Schema::Str { one_of: vec![] }
    }

    /// String restricted to the given values.
    pub fn string_enum(values: &[&str]) -> Schema {
        Schema::Str {
            one_of: values.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Closed object.
    pub fn object(fields: Vec<Field>) -> Schema {
        Schema::Object {
            fields,
            closed: true,
        }
    }

    /// Array of `item`.
    pub fn array(item: Schema) -> Schema {
        Schema::Array {
            item: Box::new(item),
        }
    }

    /// This schema with a declared bound: each finite end of `bound`
    /// replaces a number's or an integer's own; any other schema has no
    /// range to bound.
    pub fn within(self, bound: &impl Bounds) -> Schema {
        fn end<T>(own: Option<T>, bound: f64, to: impl Fn(f64) -> T) -> Option<T> {
            if bound.is_finite() {
                Some(to(bound))
            } else {
                own
            }
        }
        let (lo, hi) = bound.ends();
        match self {
            Schema::Number { min, max } => Schema::Number {
                min: end(min, lo, |x| x),
                max: end(max, hi, |x| x),
            },
            Schema::Integer { min, max } => Schema::Integer {
                min: end(min, lo, |x| x.ceil() as i64),
                max: end(max, hi, |x| x.floor() as i64),
            },
            other => other,
        }
    }

    /// The fields of an object schema (empty for any other), for a
    /// struct that flattens this one into its own.
    pub fn into_fields(self) -> Vec<Field> {
        match self {
            Schema::Object { fields, .. } => fields,
            _ => Vec::new(),
        }
    }

    /// Validates a value, collecting every violation with its JSON path.
    pub fn validate(&self, value: &Value) -> Result<(), Vec<SchemaViolation>> {
        let mut violations = Vec::new();
        self.check(value, Path::Root, &mut violations);
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }

    fn check(&self, value: &Value, path: Path<'_>, out: &mut Vec<SchemaViolation>) {
        match self {
            Schema::Any => {}
            Schema::Bool => {
                if !value.is_boolean() {
                    out.push(SchemaViolation::wrong_type(path, "boolean", value));
                }
            }
            Schema::Number { min, max } => match value.as_f64() {
                None => out.push(SchemaViolation::wrong_type(path, "number", value)),
                Some(x) => {
                    if let Some(lo) = min {
                        if x < *lo {
                            out.push(SchemaViolation::out_of_range(path, x, *lo, *max));
                        }
                    }
                    if let Some(hi) = max {
                        if x > *hi {
                            out.push(SchemaViolation::out_of_range(
                                path,
                                x,
                                min.unwrap_or(f64::NEG_INFINITY),
                                Some(*hi),
                            ));
                        }
                    }
                }
            },
            Schema::Integer { min, max } => match value.as_i64() {
                None => out.push(SchemaViolation::wrong_type(path, "integer", value)),
                Some(x) => {
                    if min.map(|lo| x < lo).unwrap_or(false)
                        || max.map(|hi| x > hi).unwrap_or(false)
                    {
                        out.push(SchemaViolation::out_of_range(
                            path,
                            x as f64,
                            min.map(|v| v as f64).unwrap_or(f64::NEG_INFINITY),
                            max.map(|v| v as f64),
                        ));
                    }
                }
            },
            Schema::Str { one_of } => match value.as_str() {
                None => out.push(SchemaViolation::wrong_type(path, "string", value)),
                Some(s) => {
                    if !one_of.is_empty() && !one_of.iter().any(|v| v == s) {
                        out.push(SchemaViolation {
                            path: path.to_string(),
                            message: format!("value {s:?} not in enum {one_of:?}"),
                        });
                    }
                }
            },
            Schema::Array { item } => match value.as_array() {
                None => out.push(SchemaViolation::wrong_type(path, "array", value)),
                Some(items) => {
                    for (i, v) in items.iter().enumerate() {
                        item.check(v, Path::Index(&path, i), out);
                    }
                }
            },
            Schema::Object { fields, closed } => match value.as_object() {
                None => out.push(SchemaViolation::wrong_type(path, "object", value)),
                Some(map) => {
                    for f in fields {
                        match map.get(&f.name) {
                            Some(v) => f.schema.check(v, Path::Field(&path, &f.name), out),
                            None if f.required => out.push(SchemaViolation {
                                path: format!("{path}.{}", f.name),
                                message: "required field missing".to_string(),
                            }),
                            None => {}
                        }
                    }
                    if *closed {
                        for key in map.keys() {
                            if !fields.iter().any(|f| &f.name == key) {
                                out.push(SchemaViolation {
                                    path: format!("{path}.{key}"),
                                    message: "unexpected field".to_string(),
                                });
                            }
                        }
                    }
                }
            },
            Schema::OneOf { variants } => {
                let mut closest: Option<Vec<SchemaViolation>> = None;
                for variant in variants {
                    let mut misses = Vec::new();
                    variant.check(value, path, &mut misses);
                    if misses.is_empty() {
                        return;
                    }
                    if closest.as_ref().is_none_or(|c| misses.len() < c.len()) {
                        closest = Some(misses);
                    }
                }
                // No alternative fits: report the nearest miss.
                out.extend(closest.unwrap_or_default());
            }
        }
    }
}

/// Where a value sits in the document. Rendered (`$.rows[3].label`) only
/// when a violation is reported, so validating a value that conforms
/// builds no path strings.
#[derive(Clone, Copy)]
enum Path<'a> {
    Root,
    Field(&'a Path<'a>, &'a str),
    Index(&'a Path<'a>, usize),
}

impl std::fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Path::Root => f.write_str("$"),
            Path::Field(parent, name) => write!(f, "{parent}.{name}"),
            Path::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// One schema violation with its JSON path.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchemaViolation {
    /// JSON path, e.g. `$.bus_id`.
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl SchemaViolation {
    fn wrong_type(path: Path<'_>, expected: &str, got: &Value) -> SchemaViolation {
        SchemaViolation {
            path: path.to_string(),
            message: format!("expected {expected}, got {}", type_name(got)),
        }
    }

    fn out_of_range(path: Path<'_>, x: f64, lo: f64, hi: Option<f64>) -> SchemaViolation {
        SchemaViolation {
            path: path.to_string(),
            message: match hi {
                Some(hi) => format!("value {x} outside [{lo}, {hi}]"),
                None => format!("value {x} below minimum {lo}"),
            },
        }
    }
}

impl std::fmt::Display for SchemaViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.path, self.message)
    }
}

/// The JSON type of `v`, as violation messages name it.
pub fn type_name(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::Number(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn load_schema() -> Schema {
        Schema::object(vec![
            Field::required(
                "bus_id",
                Schema::Integer {
                    min: None,
                    max: None,
                },
                "external bus id",
            ),
            Field::required(
                "p_mw",
                Schema::number().within(&(0.0..=10_000.0)),
                "new load in MW",
            ),
            Field::optional("q_mvar", Schema::number(), "reactive demand"),
        ])
    }

    #[test]
    fn accepts_valid_object() {
        assert!(load_schema()
            .validate(&json!({"bus_id": 10, "p_mw": 50.0}))
            .is_ok());
    }

    #[test]
    fn missing_required_field() {
        let errs = load_schema().validate(&json!({"p_mw": 50.0})).unwrap_err();
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].path, "$.bus_id");
        assert!(errs[0].message.contains("missing"));
    }

    #[test]
    fn wrong_type_reported_with_path() {
        let errs = load_schema()
            .validate(&json!({"bus_id": "ten", "p_mw": 50.0}))
            .unwrap_err();
        assert!(errs[0].message.contains("expected integer"));
        assert_eq!(errs[0].path, "$.bus_id");
    }

    #[test]
    fn range_enforced() {
        let errs = load_schema()
            .validate(&json!({"bus_id": 10, "p_mw": -5.0}))
            .unwrap_err();
        assert!(errs[0].message.contains("outside"));
    }

    #[test]
    fn unexpected_field_rejected_when_closed() {
        let errs = load_schema()
            .validate(&json!({"bus_id": 1, "p_mw": 1.0, "bogus": true}))
            .unwrap_err();
        assert!(errs.iter().any(|e| e.path == "$.bogus"));
    }

    #[test]
    fn enum_strings() {
        let s = Schema::string_enum(&["line", "trafo"]);
        assert!(s.validate(&json!("line")).is_ok());
        assert!(s.validate(&json!("bus")).is_err());
    }

    #[test]
    fn nested_arrays_with_paths() {
        let s = Schema::array(Schema::object(vec![Field::required(
            "v",
            Schema::number(),
            "",
        )]));
        let errs = s.validate(&json!([{"v": 1.0}, {"v": "x"}])).unwrap_err();
        assert_eq!(errs[0].path, "$[1].v");
    }

    #[test]
    fn multiple_violations_collected() {
        let errs = load_schema()
            .validate(&json!({"bus_id": "x", "p_mw": -1.0, "junk": 0}))
            .unwrap_err();
        assert_eq!(errs.len(), 3);
    }

    #[test]
    fn optional_field_validated_when_present() {
        let errs = load_schema()
            .validate(&json!({"bus_id": 1, "p_mw": 1.0, "q_mvar": "lots"}))
            .unwrap_err();
        assert_eq!(errs[0].path, "$.q_mvar");
    }
}
