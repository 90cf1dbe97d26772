//! The generated schema is the real shape.
//!
//! Each tool's output schema is generated from the one declaration of
//! its result type (`gm_agents::tool_output!`). These tests hold the
//! other end: what the tools actually put on the wire validates against
//! that closed schema, a non-finite number cannot get past it, and the
//! six wire keys the validators read each still name a declared field.

use gm_agents::{
    Agent, FnTool, Schema, SimulatedLlm, ToolError, ToolRegistry, ToolSpec, VirtualClock, Wire,
};
use gridmind_core::planners::AcopfPlanner;
use gridmind_core::tools_acopf::SolveResult;
use gridmind_core::validators::ANCHOR_KEYS;
use gridmind_core::{build_acopf_agent, build_ca_agent, ModelProfile, SessionContext};
use serde_json::json;
use std::sync::Arc;

/// Every field name a schema declares at its top level.
fn top_level_fields(schema: &Schema) -> Vec<String> {
    match schema {
        Schema::Object { fields, .. } => fields.iter().map(|f| f.name.clone()).collect(),
        Schema::OneOf { variants } => variants.iter().flat_map(top_level_fields).collect(),
        _ => Vec::new(),
    }
}

/// Whether every object in the schema rejects undeclared fields.
fn closed_throughout(schema: &Schema) -> bool {
    match schema {
        Schema::Object { fields, closed } => {
            *closed && fields.iter().all(|f| closed_throughout(&f.schema))
        }
        Schema::OneOf { variants } => variants.iter().all(closed_throughout),
        Schema::Array { item } => closed_throughout(item),
        Schema::Any => false,
        _ => true,
    }
}

#[test]
fn every_tool_output_on_case14_validates_against_its_generated_schema() {
    let profile = ModelProfile::by_name("GPT-5").unwrap();
    let session = SessionContext::new();
    let clock = VirtualClock::new();
    let acopf = build_acopf_agent(profile.clone(), session.clone(), clock.clone());
    let ca = build_ca_agent(profile, session, clock);

    // Both answers of each status tool, then every other tool, in an
    // order that leaves each one something to work on.
    let script = [
        (&acopf, "get_network_status", json!({})),
        (&acopf, "solve_acopf_case", json!({"case_name": "case14"})),
        (&ca, "get_contingency_status", json!({})),
        (
            &acopf,
            "modify_bus_load",
            json!({"bus_id": 10, "p_mw": 50.0}),
        ),
        (
            &acopf,
            "modify_gen_limits",
            json!({"bus_id": 2, "p_min_mw": 10.0, "p_max_mw": 60.0}),
        ),
        (&acopf, "solve_security_constrained", json!({})),
        (
            &acopf,
            "batch_study",
            json!({"kind": "load_sweep", "steps": 3}),
        ),
        (&acopf, "get_network_status", json!({})),
        (&ca, "solve_base_case", json!({})),
        (&ca, "run_n1_contingency_analysis", json!({"top_k": 20})),
        (
            &ca,
            "analyze_specific_contingency",
            json!({"element": "line", "index": 3}),
        ),
        (&ca, "run_generator_contingency_analysis", json!({})),
        (&ca, "get_contingency_status", json!({})),
    ];
    let mut exercised: Vec<&str> = Vec::new();
    for (agent, tool, args) in &script {
        let spec: ToolSpec = agent
            .tools
            .specs()
            .into_iter()
            .find(|s| s.name == *tool)
            .unwrap();
        assert!(closed_throughout(&spec.output), "{tool}: {:?}", spec.output);
        // `invoke` validates too; doing it again here keeps the test
        // honest if the registry ever stops.
        let out = agent.tools.invoke(tool, args).unwrap();
        if let Err(violations) = spec.output.validate(&out) {
            panic!("{tool}: {violations:?}\n{out}");
        }
        exercised.push(tool);
    }
    let mut registered = acopf.tools.names();
    registered.extend(ca.tools.names());
    assert_eq!(registered.len(), 11);
    for tool in &registered {
        assert!(exercised.contains(&tool.as_str()), "{tool} never ran");
    }
}

#[test]
fn a_nan_in_a_result_is_invalid_output_and_narrates_as_a_failure() {
    // A real result first, then the same shape with one number spoiled.
    let profile = ModelProfile::by_name("GPT-5").unwrap();
    let clock = VirtualClock::new();
    let real = build_acopf_agent(profile.clone(), SessionContext::new(), clock.clone());
    let good = real
        .tools
        .invoke("solve_acopf_case", &json!({"case_name": "case14"}))
        .unwrap();
    let mut spoiled = SolveResult::from_wire(&good).unwrap();
    spoiled.dispatch.summary.objective_cost = f64::NAN;

    let mut tools = ToolRegistry::new(clock.clone());
    tools.register(FnTool::new(
        "solve_acopf_case",
        "a solver whose cost came out NaN",
        move |_: gridmind_core::tools_acopf::CaseChoice| -> Result<SolveResult, ToolError> {
            Ok(spoiled.clone())
        },
    ));
    let err = tools.invoke("solve_acopf_case", &json!({})).unwrap_err();
    match &err {
        ToolError::InvalidOutput { violations } => {
            assert_eq!(violations[0].path, "$.objective_cost", "{violations:?}")
        }
        other => panic!("expected InvalidOutput, got {other:?}"),
    }

    let llm = Arc::new(SimulatedLlm::new(profile, AcopfPlanner));
    let mut agent = Agent::new("ACOPF Agent", "never fabricate", llm, tools, clock);
    let reply = agent.handle("solve case14");
    assert!(reply.completed);
    assert!(!reply.tool_calls[0].ok);
    assert!(
        reply
            .text
            .contains("The solve_acopf_case call failed: tool output failed validation"),
        "{}",
        reply.text
    );
    assert!(
        !reply.text.contains("NaN") && !reply.text.contains("$/h"),
        "{}",
        reply.text
    );
}

#[test]
fn every_validator_anchor_key_names_a_declared_field() {
    let profile = ModelProfile::by_name("GPT-5").unwrap();
    let session = SessionContext::new();
    let clock = VirtualClock::new();
    let mut specs = build_acopf_agent(profile.clone(), session.clone(), clock.clone())
        .tools
        .specs();
    specs.extend(build_ca_agent(profile, session, clock).tools.specs());
    for key in ANCHOR_KEYS {
        let declared_by: Vec<&str> = specs
            .iter()
            .filter(|s| top_level_fields(&s.output).iter().any(|f| f == key))
            .map(|s| s.name.as_str())
            .collect();
        assert!(
            !declared_by.is_empty(),
            "validators read {key:?}, which no tool result declares any more"
        );
    }
}
