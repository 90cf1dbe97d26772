//! The ACOPF agent's function tools (Appendix B.3.1):
//! `solve_acopf_case`, `modify_bus_load`, `get_network_status`.
//!
//! Every tool reads and writes the shared
//! [`SessionContext`](crate::session::SessionContext), returns a
//! schema-validated JSON object whose field names are the semantic
//! anchors the planner narrates from (`objective_cost`,
//! `min_voltage_pu`, …), and deposits typed artifacts for other agents.

use crate::quality;
use crate::recovery::{solve_acopf_recovered, solve_scopf_recovered, with_caveat};
use crate::session::SharedSession;
use gm_acopf::{AcopfOptions, AcopfSolution, ScopfOptions};
use gm_agents::{Field, FnTool, Schema, ToolError, ToolSpec, VirtualClock};
use gm_network::{Modification, Network};
use serde_json::{json, Value};

/// JSON summary of an ACOPF solution (the `ACOPFSolution` wire shape).
pub fn solution_to_json(sol: &AcopfSolution, quality_overall: f64) -> Value {
    let largest_units_mw = {
        let mut d = sol.gen_dispatch_mw.clone();
        d.sort_by(|a, b| b.total_cmp(a));
        d.truncate(5);
        d
    };
    json!({
        "case_name": sol.case_name,
        "solved": sol.solved,
        "objective_cost": sol.objective_cost,
        "total_generation_mw": sol.total_generation_mw,
        "total_load_mw": sol.total_load_mw,
        "losses_mw": sol.losses_mw,
        "min_voltage_pu": sol.min_voltage_pu,
        "max_voltage_pu": sol.max_voltage_pu,
        "max_thermal_loading_pct": sol.max_thermal_loading_pct,
        "iterations": sol.iterations,
        "solve_time_s": sol.solve_time_s,
        "binding_constraints": sol.binding_constraints,
        "power_balance_error_mw": sol.power_balance_error_mw(),
        "quality_overall": quality_overall,
        "n_generators": sol.gen_dispatch_mw.len(),
        "largest_units_mw": largest_units_mw,
        "lmp_min": sol.bus_lmp.iter().cloned().fold(f64::INFINITY, f64::min),
        "lmp_max": sol.bus_lmp.iter().cloned().fold(0.0f64, f64::max),
    })
}

fn solution_output_schema() -> Schema {
    Schema::Object {
        fields: vec![
            Field::required("case_name", Schema::string(), "case identifier"),
            Field::required("solved", Schema::Bool, "convergence flag"),
            Field::required(
                "objective_cost",
                Schema::number(),
                "total generation cost ($/h)",
            ),
            Field::required("total_generation_mw", Schema::number(), "dispatched MW"),
            Field::required("total_load_mw", Schema::number(), "system demand MW"),
            Field::required("losses_mw", Schema::number(), "network losses MW"),
            Field::required("min_voltage_pu", Schema::number(), "lowest bus voltage"),
            Field::required("max_voltage_pu", Schema::number(), "highest bus voltage"),
            Field::required(
                "max_thermal_loading_pct",
                Schema::number(),
                "worst branch loading",
            ),
            Field::required("iterations", Schema::integer(), "IPM iterations"),
            Field::required(
                "quality_overall",
                Schema::number_range(0.0, 10.0),
                "0-10 score",
            ),
        ],
        closed: false,
    }
}

/// Scores a freshly solved dispatch, deposits it as the session's ACOPF
/// artifact and renders the tool output, carrying the recovery caveat
/// when a fallback rung produced the numbers.
fn publish_solution(
    session: &SharedSession,
    clock: &VirtualClock,
    net: &Network,
    sol: &AcopfSolution,
    degraded: Option<String>,
) -> Value {
    let q = quality::assess(net, sol);
    session.put_acopf(sol.clone(), clock.now());
    with_caveat(solution_to_json(sol, q.overall_score), degraded)
}

/// `solve_acopf_case` — load and solve an IEEE case.
pub fn solve_acopf_case_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "solve_acopf_case".into(),
            description: "Load a standard IEEE test case (14, 30, 57, 118, 300 bus) and solve the AC optimal power flow, returning cost, dispatch, voltages, and loading.".into(),
            input: Schema::object(vec![Field::required(
                "case_name",
                Schema::string(),
                "case reference, e.g. 'case118' or 'IEEE 118'",
            )]),
            output: solution_output_schema(),
        },
        move |args| {
            let name = args["case_name"].as_str().unwrap_or_default();
            let (net, confidence) = session.load_case(name).map_err(ToolError::fatal)?;
            let (sol, degraded) = solve_acopf_recovered(
                session.solver_cache.as_ref(),
                &net,
                &AcopfOptions::default(),
            )
            .map_err(ToolError::recoverable)?;
            let mut out = publish_solution(&session, &clock, &net, &sol, degraded);
            out["identification_confidence"] = json!(confidence);
            out["network_summary"] = serde_json::to_value(net.summary()).unwrap();
            Ok(out)
        },
    )
}

/// `modify_bus_load` — change a bus load and re-solve.
pub fn modify_bus_load_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "modify_bus_load".into(),
            description: "Set the active (and optionally reactive) demand at a bus of the active case, then re-solve the ACOPF and report the economic impact.".into(),
            input: Schema::object(vec![
                Field::required("bus_id", Schema::Integer { min: Some(1), max: None }, "external bus number"),
                Field::required(
                    "p_mw",
                    Schema::number_range(0.0, 100_000.0),
                    "new active demand (MW)",
                ),
                Field::optional("q_mvar", Schema::number(), "new reactive demand (MVAr); omitted keeps the power factor"),
            ]),
            output: Schema::Object {
                fields: vec![
                    Field::required("solved", Schema::Bool, "convergence flag"),
                    Field::required("objective_cost", Schema::number(), "new cost ($/h)"),
                    Field::required("previous_cost", Schema::number(), "cost before the change ($/h)"),
                    Field::required("cost_delta", Schema::number(), "cost change ($/h)"),
                ],
                closed: false,
            },
        },
        move |args| {
            let bus_id = args["bus_id"].as_u64().unwrap() as u32;
            let p_mw = args["p_mw"].as_f64().unwrap();
            let q_mvar = args.get("q_mvar").and_then(|v| v.as_f64());
            let previous_cost = session
                .any_acopf()
                .map(|(s, _)| s.objective_cost)
                .unwrap_or(0.0);
            session
                .apply(Modification::SetBusLoad {
                    bus_id,
                    p_mw,
                    q_mvar,
                })
                .map_err(ToolError::fatal)?;
            let net = session.current_network().map_err(ToolError::fatal)?;
            let (sol, degraded) = solve_acopf_recovered(
                session.solver_cache.as_ref(),
                &net,
                &AcopfOptions::default(),
            )
            .map_err(|e| {
                ToolError::recoverable(format!("re-solve after modification failed: {e}"))
            })?;
            let mut out = publish_solution(&session, &clock, &net, &sol, degraded);
            out["previous_cost"] = json!(previous_cost);
            out["cost_delta"] = json!(sol.objective_cost - previous_cost);
            out["modified_bus"] = json!(bus_id);
            Ok(out)
        },
    )
}

/// `modify_gen_limits` — change a unit's active power limits and
/// re-solve (Fig. 4 capability 2: "modifying system parameters (loads,
/// generation limits, etc.) and re-solving").
pub fn modify_gen_limits_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "modify_gen_limits".into(),
            description: "Set the active power limits of the generator(s) at a bus of the active case, then re-solve the ACOPF and report the economic impact.".into(),
            input: Schema::object(vec![
                Field::required("bus_id", Schema::Integer { min: Some(1), max: None }, "external bus number of the unit"),
                Field::required("p_min_mw", Schema::number_range(0.0, 100_000.0), "new minimum output (MW)"),
                Field::required("p_max_mw", Schema::number_range(0.0, 100_000.0), "new maximum output (MW)"),
            ]),
            output: Schema::Object {
                fields: vec![
                    Field::required("solved", Schema::Bool, "convergence flag"),
                    Field::required("objective_cost", Schema::number(), "new cost ($/h)"),
                    Field::required("cost_delta", Schema::number(), "cost change ($/h)"),
                ],
                closed: false,
            },
        },
        move |args| {
            let bus_id = args["bus_id"].as_u64().unwrap() as u32;
            let p_min = args["p_min_mw"].as_f64().unwrap();
            let p_max = args["p_max_mw"].as_f64().unwrap();
            let net0 = session.current_network().map_err(ToolError::fatal)?;
            let bus = net0.bus_index(bus_id).ok_or_else(|| {
                ToolError::fatal(format!("bus {bus_id} does not exist in {}", net0.name))
            })?;
            let gens: Vec<usize> = net0
                .gens
                .iter()
                .enumerate()
                .filter(|(_, g)| g.bus == bus)
                .map(|(i, _)| i)
                .collect();
            if gens.is_empty() {
                return Err(ToolError::fatal(format!("bus {bus_id} hosts no generator")));
            }
            let previous_cost = session
                .any_acopf()
                .map(|(s, _)| s.objective_cost)
                .unwrap_or(0.0);
            for gi in &gens {
                session
                    .apply(Modification::SetGenLimits {
                        index: *gi,
                        p_min_mw: p_min,
                        p_max_mw: p_max,
                    })
                    .map_err(ToolError::fatal)?;
            }
            let net = session.current_network().map_err(ToolError::fatal)?;
            let (sol, degraded) = solve_acopf_recovered(
                session.solver_cache.as_ref(),
                &net,
                &AcopfOptions::default(),
            )
            .map_err(|e| {
                ToolError::recoverable(format!("re-solve after limit change failed: {e}"))
            })?;
            let mut out = publish_solution(&session, &clock, &net, &sol, degraded);
            out["previous_cost"] = json!(previous_cost);
            out["cost_delta"] = json!(sol.objective_cost - previous_cost);
            out["modified_bus"] = json!(bus_id);
            out["units_modified"] = json!(gens.len());
            Ok(out)
        },
    )
}

/// `solve_security_constrained` — preventive SCOPF on the active case.
///
/// Registered beyond the paper's original three tools to exercise the
/// §3.1 claim that "new analytical tools can be registered with a schema;
/// the planner notices capabilities without refactoring core logic".
pub fn solve_security_constrained_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "solve_security_constrained".into(),
            description: "Solve the preventive security-constrained OPF (SCOPF) for the active case: the cheapest dispatch whose LODF-estimated post-contingency flows respect emergency ratings. Reports the security premium over the economic dispatch.".into(),
            input: Schema::object(vec![Field::optional(
                "case_name",
                Schema::string(),
                "case to load when none is active",
            )]),
            output: Schema::Object {
                fields: vec![
                    Field::required("solved", Schema::Bool, "convergence flag"),
                    Field::required("objective_cost", Schema::number(), "secure dispatch cost ($/h)"),
                    Field::required("economic_cost", Schema::number(), "unconstrained optimum ($/h)"),
                    Field::required("security_premium", Schema::number(), "cost of security ($/h)"),
                    Field::required(
                        "n_security_constraints",
                        Schema::integer(),
                        "screened post-contingency constraints",
                    ),
                ],
                closed: false,
            },
        },
        move |args| {
            if let Some(name) = args.get("case_name").and_then(|v| v.as_str()) {
                session.load_case(name).map_err(ToolError::fatal)?;
            }
            let net = session.current_network().map_err(ToolError::fatal)?;
            let (scopf, degraded) = solve_scopf_recovered(
                session.solver_cache.as_ref(),
                &net,
                &ScopfOptions::default(),
            )
            .map_err(ToolError::recoverable)?;
            let mut out = publish_solution(&session, &clock, &net, &scopf.solution, degraded);
            out["economic_cost"] = json!(scopf.economic_cost);
            out["security_premium"] = json!(scopf.security_premium);
            out["n_security_constraints"] = json!(scopf.n_security_constraints);
            Ok(out)
        },
    )
}

/// `get_network_status` — current network and solution status.
pub fn get_network_status_tool(session: SharedSession, _clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "get_network_status".into(),
            description: "Report the active case, applied modifications, and whether a fresh ACOPF solution exists.".into(),
            input: Schema::object(vec![]),
            output: Schema::Object {
                fields: vec![Field::required("has_active_case", Schema::Bool, "whether a case is loaded")],
                closed: false,
            },
        },
        move |_args| {
            let Some(case) = session.active_case() else {
                return Ok(json!({
                    "has_active_case": false,
                    "message": "no case loaded yet",
                }));
            };
            let net = session.current_network().map_err(ToolError::fatal)?;
            let (solution, stale) = match session.any_acopf() {
                Some((sol, stale)) => (Some(solution_to_json(&sol, 0.0)), stale),
                None => (None, false),
            };
            Ok(json!({
                "has_active_case": true,
                "active_case": case,
                "network_summary": serde_json::to_value(net.summary()).unwrap(),
                "modifications": session.diff_descriptions(),
                "has_solution": solution.is_some(),
                "solution_stale": stale,
                "solution": solution,
            }))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionContext;
    use gm_agents::ToolRegistry;

    fn registry() -> (SharedSession, ToolRegistry) {
        let session = SessionContext::new();
        let clock = VirtualClock::new();
        let mut reg = ToolRegistry::new(clock.clone());
        reg.register(solve_acopf_case_tool(session.clone(), clock.clone()));
        reg.register(modify_bus_load_tool(session.clone(), clock.clone()));
        reg.register(get_network_status_tool(session.clone(), clock));
        (session, reg)
    }

    #[test]
    fn solve_tool_returns_validated_solution() {
        let (session, reg) = registry();
        let out = reg
            .invoke("solve_acopf_case", &json!({"case_name": "case14"}))
            .unwrap();
        assert_eq!(out["solved"], json!(true));
        assert!(out["objective_cost"].as_f64().unwrap() > 8000.0);
        assert!(out["quality_overall"].as_f64().unwrap() > 5.0);
        assert_eq!(out["identification_confidence"], json!(1.0));
        assert!(session.fresh_acopf().is_some());
    }

    #[test]
    fn modify_tool_reports_cost_delta() {
        let (_s, reg) = registry();
        reg.invoke("solve_acopf_case", &json!({"case_name": "case14"}))
            .unwrap();
        let out = reg
            .invoke("modify_bus_load", &json!({"bus_id": 10, "p_mw": 50.0}))
            .unwrap();
        assert_eq!(out["solved"], json!(true));
        assert!(
            out["cost_delta"].as_f64().unwrap() > 0.0,
            "load up, cost up"
        );
        assert_eq!(out["modified_bus"], json!(10));
    }

    #[test]
    fn modify_without_case_fails_cleanly() {
        let (_s, reg) = registry();
        let err = reg
            .invoke("modify_bus_load", &json!({"bus_id": 1, "p_mw": 5.0}))
            .unwrap_err();
        assert!(err.to_string().contains("no case loaded"));
    }

    #[test]
    fn status_tool_reflects_session() {
        let (_s, reg) = registry();
        let out = reg.invoke("get_network_status", &json!({})).unwrap();
        assert_eq!(out["has_active_case"], json!(false));
        reg.invoke("solve_acopf_case", &json!({"case_name": "ieee 30"}))
            .unwrap();
        reg.invoke("modify_bus_load", &json!({"bus_id": 5, "p_mw": 99.0}))
            .unwrap();
        let out = reg.invoke("get_network_status", &json!({})).unwrap();
        assert_eq!(out["has_active_case"], json!(true));
        assert_eq!(out["active_case"], json!("case30"));
        assert_eq!(out["modifications"].as_array().unwrap().len(), 1);
        assert_eq!(out["has_solution"], json!(true));
        assert_eq!(out["solution_stale"], json!(false));
    }

    #[test]
    fn unknown_case_is_nonrecoverable_error() {
        let (_s, reg) = registry();
        let err = reg
            .invoke("solve_acopf_case", &json!({"case_name": "case9000"}))
            .unwrap_err();
        assert!(err.to_string().contains("unknown case"));
    }

    #[test]
    fn bad_args_rejected_by_schema() {
        let (_s, reg) = registry();
        let err = reg
            .invoke("modify_bus_load", &json!({"bus_id": 1, "p_mw": -5.0}))
            .unwrap_err();
        assert!(matches!(err, ToolError::InvalidArgs { .. }));
    }
}
