//! Every tool's arguments are one declaration, and its schema and its
//! lift agree.
//!
//! The registry validates a call against `A::schema()` and the tool body
//! receives `A::from_wire(args)`. If the two ever disagreed, a call could
//! pass validation and then be read as something else (a `u64` above
//! `i64::MAX`, a bus id above `u32::MAX`), or pass the lift and be refused
//! by validation. This property feeds both the same random objects —
//! every field in range, each field just outside its bound, a wrong JSON
//! type, a missing required field, one extra key — and requires the same
//! verdict.

use gm_agents::{Schema, Wire};
use gridmind_core::tools_acopf::{CaseChoice, GenLimitsEdit, LoadEdit, SolveCase};
use gridmind_core::tools_batch::BatchArgs;
use gridmind_core::tools_ca::{GenN1Args, N1Args, SpecificArgs};
use gridmind_core::{build_acopf_agent, build_ca_agent, ModelProfile, SessionContext};
use proptest::prelude::*;
use serde_json::{json, Map, Value};

/// A value `schema` accepts, placed by `t` ∈ [0, 1] within its range.
fn inside(schema: &Schema, t: f64, pick: usize) -> Value {
    match schema {
        Schema::Integer { min, max } => {
            let lo = min.unwrap_or(-1_000_000) as f64;
            let hi = max.map_or(lo + 2_000_000.0, |hi| hi as f64);
            // `as i64` saturates, and a saturated end is still in range.
            json!(((lo + t * (hi - lo)).round() as i64)
                .clamp(min.unwrap_or(i64::MIN), max.unwrap_or(i64::MAX)))
        }
        Schema::Number { min, max } => {
            let lo = min.unwrap_or(-1e6);
            let hi = max.unwrap_or(lo + 2e6);
            json!(lo + t * (hi - lo))
        }
        Schema::Str { one_of } if !one_of.is_empty() => json!(one_of[pick % one_of.len()]),
        Schema::Str { .. } => json!(format!("case{}", 14 + pick % 300)),
        Schema::Bool => json!(pick.is_multiple_of(2)),
        _ => Value::Null,
    }
}

/// Values just outside `schema`'s bound (and, for integers, past the
/// ends of `i64`, where `u64` numbers live).
fn outside(schema: &Schema) -> Vec<Value> {
    match schema {
        Schema::Integer { min, max } => {
            let mut v = vec![json!(u64::MAX), json!(1.5), json!(2.0)];
            v.extend(min.and_then(|lo| lo.checked_sub(1)).map(|n| json!(n)));
            // One past `i64::MAX` is a `u64` on the wire.
            v.extend(
                max.and_then(|hi| u64::try_from(hi).ok())
                    .map(|n| json!(n + 1)),
            );
            v
        }
        Schema::Number { min, max } => {
            let mut v = Vec::new();
            v.extend(min.map(|lo| json!(lo.next_down())));
            v.extend(max.map(|hi| json!(hi.next_up())));
            v
        }
        Schema::Str { one_of } if !one_of.is_empty() => vec![json!("none_of_these")],
        _ => Vec::new(),
    }
}

/// A value of another JSON type than `schema` takes.
fn wrong_type(schema: &Schema) -> Value {
    match schema {
        Schema::Str { .. } => json!(7),
        _ => json!("seven"),
    }
}

/// Whether `A`'s schema and its lift give `v` the same verdict.
fn agree<A: Wire>(v: &Value) -> Result<(), TestCaseError> {
    let valid = A::schema().validate(v).is_ok();
    let lifted = A::from_wire(v);
    prop_assert_eq!(valid, lifted.is_ok(), "{v}: lift says {:?}", lifted.err());
    Ok(())
}

/// Runs the whole family of objects derived from one random draw through
/// [`agree`] for `A`; the all-in-range object must also be accepted.
fn check<A: Wire>(t: &[f64], pick: usize, present: u64) -> Result<(), TestCaseError> {
    let Schema::Object { fields, .. } = A::schema() else {
        return Err(TestCaseError::fail("argument schema is not an object"));
    };
    let mut base = Map::new();
    for (i, f) in fields.iter().enumerate() {
        if f.required || (present >> i) & 1 == 1 {
            base.insert(f.name.clone(), inside(&f.schema, t[i % t.len()], pick + i));
        }
    }
    let ok = Value::Object(base.clone());
    prop_assert!(A::schema().validate(&ok).is_ok(), "{ok}");
    agree::<A>(&ok)?;

    let with = |name: &str, v: Value| {
        let mut obj = base.clone();
        obj.insert(name.to_string(), v);
        Value::Object(obj)
    };
    for f in &fields {
        for v in outside(&f.schema) {
            agree::<A>(&with(&f.name, v))?;
        }
        agree::<A>(&with(&f.name, wrong_type(&f.schema)))?;
        agree::<A>(&with(&f.name, Value::Null))?;
        if f.required {
            let mut obj = base.clone();
            obj.remove(&f.name);
            agree::<A>(&Value::Object(obj))?;
        }
    }
    agree::<A>(&with("unexpected_key", json!(1)))?;
    agree::<A>(&json!([ok]))?;
    agree::<A>(&Value::Null)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_argument_schema_and_lift_agree(
        t in prop::collection::vec(0.0f64..=1.0, 1..8),
        pick in 0usize..1000,
        present in 0u64..64,
    ) {
        check::<SolveCase>(&t, pick, present)?;
        check::<LoadEdit>(&t, pick, present)?;
        check::<GenLimitsEdit>(&t, pick, present)?;
        check::<CaseChoice>(&t, pick, present)?;
        check::<BatchArgs>(&t, pick, present)?;
        check::<N1Args>(&t, pick, present)?;
        check::<SpecificArgs>(&t, pick, present)?;
        check::<GenN1Args>(&t, pick, present)?;
        check::<()>(&t, pick, present)?;
    }
}

#[test]
fn the_property_covers_every_registered_tool() {
    let schemas = [
        SolveCase::schema(),
        LoadEdit::schema(),
        GenLimitsEdit::schema(),
        CaseChoice::schema(),
        BatchArgs::schema(),
        N1Args::schema(),
        SpecificArgs::schema(),
        GenN1Args::schema(),
        <()>::schema(),
    ]
    .map(|s| format!("{s:?}"));
    let profile = ModelProfile::by_name("GPT-5").unwrap();
    let (session, clock) = (SessionContext::new(), gm_agents::VirtualClock::new());
    let mut specs = build_acopf_agent(profile.clone(), session.clone(), clock.clone())
        .tools
        .specs();
    specs.extend(build_ca_agent(profile, session, clock).tools.specs());
    assert_eq!(specs.len(), 11);
    for spec in specs {
        let input = format!("{:?}", spec.input);
        assert!(schemas.contains(&input), "{}: {input}", spec.name);
    }
}
