//! The contingency analysis agent's function tools (Appendix B.3.2):
//! `solve_base_case`, `run_n1_contingency_analysis`,
//! `analyze_specific_contingency`, `get_contingency_status`.

use crate::recovery::{run_n1_recovered, solve_base_recovered, with_caveat};
use crate::session::SharedSession;
use gm_agents::{Field, FnTool, Schema, ToolError, ToolSpec, VirtualClock};
use gm_contingency::{
    evaluate_outage, run_gen_n1, CaOptions, ContingencyReport, Outage, RankingStrategy,
};
use gm_network::{BranchKind, Snapshot};
use gm_powerflow::{PfError, PfReport};
use serde_json::{json, Value};

fn strategy_from_str(s: Option<&str>) -> RankingStrategy {
    match s {
        Some("overload_first") => RankingStrategy::OverloadFirst,
        Some("voltage_first") => RankingStrategy::VoltageFirst,
        _ => RankingStrategy::Composite,
    }
}

fn base_case_failed(e: PfError) -> ToolError {
    ToolError::recoverable(format!("base case power flow failed: {e}"))
}

/// The base case an outage study starts from: the session's fresh
/// artifact when there is one, else a solve down the recovery ladder —
/// whose caveat, if any, the tool must attach to its answer.
fn base_case(
    session: &SharedSession,
    net: &Snapshot,
    opts: &CaOptions,
) -> Result<(PfReport, Option<String>), ToolError> {
    match session.fresh_base_pf() {
        Some(rep) => Ok((rep, None)),
        None => {
            solve_base_recovered(session.solver_cache.as_ref(), net, opts).map_err(base_case_failed)
        }
    }
}

/// JSON summary of a contingency report, with the top-`k` ranking
/// expanded (default 10).
pub fn report_to_json(rep: &ContingencyReport, k: usize) -> Value {
    let ranking: Vec<Value> = rep
        .ranking
        .iter()
        .take(k)
        .map(|r| {
            let o = &rep.outcomes[r.outcome_index];
            json!({
                "rank": r.rank,
                "label": r.label,
                "score": r.score,
                "justification": r.justification,
                "max_loading_pct": o.max_loading_pct,
                "min_voltage_pu": o.min_vm.0,
                "min_voltage_bus": o.min_vm.1,
                "n_thermal": o.n_thermal(),
                "n_voltage": o.n_voltage(),
                "islands": o.islands,
                "load_shed_mw": o.load_shed_mw,
            })
        })
        .collect();
    json!({
        "case_name": rep.case_name,
        "n_contingencies": rep.n_contingencies,
        "n_lines": rep.n_lines,
        "n_trafos": rep.n_trafos,
        "total_violations": rep.total_violations,
        "outages_with_overloads": rep.outages_with_overloads,
        "outages_with_voltage_issues": rep.outages_with_voltage_issues,
        "max_overload_pct": rep.max_overload_pct.0,
        "voltage_band": [rep.voltage_band.0, rep.voltage_band.1],
        "sweep_time_s": rep.sweep_time_s,
        // The sweep's fidelity is part of the answer: a cascade report
        // says how many outages were classified from the DC estimate
        // alone versus AC-verified.
        "mode": rep.mode.as_str(),
        "screened_out": rep.screened_out,
        "ac_verified": rep.ac_verified,
        "ranking": ranking,
    })
}

/// `solve_base_case` — solve the pre-contingency power flow.
pub fn solve_base_case_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "solve_base_case".into(),
            description: "Solve the base-case AC power flow for the active case (loading a case first if named), as the reference point for contingency analysis.".into(),
            input: Schema::object(vec![Field::optional(
                "case_name",
                Schema::string(),
                "case to load when none is active",
            )]),
            output: Schema::Object {
                fields: vec![
                    Field::required("converged", Schema::Bool, "power flow convergence"),
                    Field::required("losses_mw", Schema::number(), "network losses"),
                    Field::required("min_voltage_pu", Schema::number(), "lowest voltage"),
                ],
                closed: false,
            },
        },
        move |args| {
            if let Some(name) = args.get("case_name").and_then(|v| v.as_str()) {
                session.load_case(name).map_err(ToolError::fatal)?;
            }
            let net = session.current_network().map_err(ToolError::fatal)?;
            let opts = CaOptions::default();
            let (rep, degraded) = solve_base_recovered(session.solver_cache.as_ref(), &net, &opts)
                .map_err(ToolError::recoverable)?;
            session.put_base_pf(rep.clone(), clock.now());
            let out = json!({
                "converged": rep.converged,
                "iterations": rep.iterations,
                "losses_mw": rep.losses_mw,
                "min_voltage_pu": rep.min_vm.0,
                "min_voltage_bus": rep.min_vm.1,
                "max_voltage_pu": rep.max_vm.0,
                "max_loading_pct": rep.max_loading.0,
                "total_load_mw": net.total_load_mw(),
                "network_summary": serde_json::to_value(net.summary()).unwrap(),
            });
            Ok(with_caveat(out, degraded))
        },
    )
}

/// `run_n1_contingency_analysis` — the full T-1 sweep.
pub fn run_n1_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "run_n1_contingency_analysis".into(),
            description: "Run the comprehensive N-1 contingency sweep over all lines and transformers of the active case, returning violation statistics and the ranked critical elements.".into(),
            input: Schema::object(vec![
                Field::optional(
                    "strategy",
                    Schema::string_enum(&["composite", "overload_first", "voltage_first"]),
                    "criticality ranking strategy",
                ),
                Field::optional(
                    "top_k",
                    Schema::Integer { min: Some(1), max: Some(50) },
                    "ranking entries to include (default 10)",
                ),
                Field::optional(
                    "mode",
                    Schema::string_enum(&["cascade", "full"]),
                    "cascade (default): DC screening with compensated AC verification of suspects; full: brute AC sweep of every outage",
                ),
            ]),
            output: Schema::Object {
                fields: vec![
                    Field::required("n_contingencies", Schema::integer(), "outages analyzed"),
                    Field::required("total_violations", Schema::integer(), "violation count"),
                    Field::required("max_overload_pct", Schema::number(), "worst loading"),
                    Field::required("ranking", Schema::array(Schema::Any), "critical elements"),
                ],
                closed: false,
            },
        },
        move |args| {
            let strategy = strategy_from_str(args.get("strategy").and_then(|v| v.as_str()));
            let top_k = args
                .get("top_k")
                .and_then(|v| v.as_u64())
                .unwrap_or(10) as usize;
            let net = session.current_network().map_err(ToolError::fatal)?;
            let mode = match args.get("mode").and_then(|v| v.as_str()) {
                Some("full") | Some("brute") => gm_contingency::SweepMode::Brute,
                _ => gm_contingency::SweepMode::Cascade,
            };
            let opts = CaOptions {
                strategy,
                mode,
                ..Default::default()
            };
            let base = session.fresh_base_pf();
            let (rep, degraded) = run_n1_recovered(
                session.solver_cache.as_ref(),
                &net,
                &opts,
                base.as_ref(),
                &session.cache,
            )
            .map_err(base_case_failed)?;
            session.put_contingency(rep.clone(), clock.now());
            Ok(with_caveat(report_to_json(&rep, top_k), degraded))
        },
    )
}

/// `analyze_specific_contingency` — one element in detail.
pub fn analyze_specific_tool(session: SharedSession, _clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "analyze_specific_contingency".into(),
            description: "Analyze the outage of one named element (e.g. line 171 or trafo 0) in detail: convergence, violations, worst loading and voltage.".into(),
            input: Schema::object(vec![
                Field::required(
                    "element",
                    Schema::string_enum(&["line", "trafo"]),
                    "element kind",
                ),
                Field::required(
                    "index",
                    Schema::Integer { min: Some(0), max: None },
                    "kind-relative element index",
                ),
            ]),
            output: Schema::Object {
                fields: vec![
                    Field::required("label", Schema::string(), "element label"),
                    Field::required("converged", Schema::Bool, "post-outage convergence"),
                ],
                closed: false,
            },
        },
        move |args| {
            let element = args["element"].as_str().unwrap();
            let index = args["index"].as_u64().unwrap() as usize;
            let net = session.current_network().map_err(ToolError::fatal)?;
            // Resolve the kind-relative index to a branch index.
            let want_kind = if element == "line" {
                BranchKind::Line
            } else {
                BranchKind::Transformer
            };
            let branch = net
                .branches
                .iter()
                .enumerate()
                .filter(|(_, b)| b.kind == want_kind)
                .nth(index)
                .map(|(bi, _)| bi)
                .ok_or_else(|| {
                    ToolError::fatal(format!("{element} {index} does not exist in {}", net.name))
                })?;
            let opts = CaOptions::default();
            // Warm start from the base solution.
            let (base, degraded) = base_case(&session, &net, &opts)?;
            let v0 = base.voltages();
            let outage = Outage {
                branch,
                kind: want_kind,
            };
            let o = evaluate_outage(&net, &opts, &v0, outage, index);
            let violations: Vec<Value> = o
                .violations
                .iter()
                .map(|v| serde_json::to_value(v).unwrap())
                .collect();
            let out = json!({
                "label": outage.label(index),
                "branch_index": branch,
                "converged": o.converged,
                "islands": o.islands,
                "stranded_buses": o.stranded_buses,
                "load_shed_mw": o.load_shed_mw,
                "max_loading_pct": o.max_loading_pct,
                "min_voltage_pu": o.min_vm.0,
                "min_voltage_bus": o.min_vm.1,
                "n_violations": o.violations.len(),
                "violations": violations,
            });
            Ok(with_caveat(out, degraded))
        },
    )
}

/// `run_generator_contingency_analysis` — unit (T-1) outage sweep.
///
/// Registered beyond the paper's original four CA tools (§3.1: tools can
/// be added "without refactoring core logic"): the paper defines T-1 over
/// "system assets", and generating units are assets too.
pub fn run_gen_n1_tool(session: SharedSession, _clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "run_generator_contingency_analysis".into(),
            description: "Simulate the outage of every in-service generating unit of the active case: slack pickup, violations, and the units whose loss stresses the system most.".into(),
            input: Schema::object(vec![Field::optional(
                "top_k",
                Schema::Integer { min: Some(1), max: Some(20) },
                "entries to report (default 5)",
            )]),
            output: Schema::Object {
                fields: vec![
                    Field::required("n_units", Schema::integer(), "units analyzed"),
                    Field::required("ranking", Schema::array(Schema::Any), "most critical units"),
                ],
                closed: false,
            },
        },
        move |args| {
            let top_k = args.get("top_k").and_then(|v| v.as_u64()).unwrap_or(5) as usize;
            let net = session.current_network().map_err(ToolError::fatal)?;
            let opts = CaOptions::default();
            let (base, degraded) = base_case(&session, &net, &opts)?;
            let outcomes = run_gen_n1(&net, &opts, Some(&base)).map_err(base_case_failed)?;
            // Rank: reference loss > non-convergence > violations > lost MW.
            let mut scored: Vec<(f64, &gm_contingency::GenOutageOutcome)> = outcomes
                .iter()
                .map(|o| {
                    let s = if o.loses_reference {
                        10_000.0 + o.lost_mw
                    } else if !o.converged {
                        9_000.0 + o.lost_mw
                    } else {
                        50.0 * o.violations.len() as f64 + o.lost_mw
                    };
                    (s, o)
                })
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            let ranking: Vec<Value> = scored
                .iter()
                .take(top_k)
                .map(|(score, o)| {
                    json!({
                        "gen": o.gen,
                        "bus_id": o.bus_id,
                        "lost_mw": o.lost_mw,
                        "score": score,
                        "converged": o.converged,
                        "loses_reference": o.loses_reference,
                        "n_violations": o.violations.len(),
                        "slack_pickup_mw": o.slack_pickup_mw,
                        "min_voltage_pu": o.min_vm.0,
                    })
                })
                .collect();
            let out = json!({
                "n_units": outcomes.len(),
                "units_not_converged": outcomes.iter().filter(|o| !o.converged).count(),
                "units_with_violations": outcomes.iter().filter(|o| !o.violations.is_empty()).count(),
                "ranking": ranking,
            });
            Ok(with_caveat(out, degraded))
        },
    )
}

/// `get_contingency_status` — cached analysis state.
pub fn get_contingency_status_tool(session: SharedSession, _clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "get_contingency_status".into(),
            description: "Report whether a fresh contingency analysis exists for the current network state, and summarize it.".into(),
            input: Schema::object(vec![]),
            output: Schema::Object {
                fields: vec![Field::required(
                    "has_analysis",
                    Schema::Bool,
                    "fresh analysis available",
                )],
                closed: false,
            },
        },
        move |_args| match session.fresh_contingency() {
            Some(rep) => {
                let mut out = report_to_json(&rep, 5);
                out["has_analysis"] = json!(true);
                Ok(out)
            }
            None => Ok(json!({
                "has_analysis": false,
                "message": "no fresh contingency analysis for the current network state",
            })),
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
        reg.register(solve_base_case_tool(session.clone(), clock.clone()));
        reg.register(run_n1_tool(session.clone(), clock.clone()));
        reg.register(analyze_specific_tool(session.clone(), clock.clone()));
        reg.register(get_contingency_status_tool(session.clone(), clock));
        (session, reg)
    }

    #[test]
    fn base_case_then_sweep() {
        let (session, reg) = registry();
        let base = reg
            .invoke("solve_base_case", &json!({"case_name": "case14"}))
            .unwrap();
        assert_eq!(base["converged"], json!(true));
        assert!(session.fresh_base_pf().is_some());
        let rep = reg
            .invoke("run_n1_contingency_analysis", &json!({}))
            .unwrap();
        assert_eq!(rep["n_contingencies"], json!(20));
        assert!(rep["ranking"].as_array().unwrap().len() <= 10);
        assert!(session.fresh_contingency().is_some());
    }

    #[test]
    fn strategy_changes_ranking() {
        let (_s, reg) = registry();
        reg.invoke("solve_base_case", &json!({"case_name": "case118"}))
            .unwrap();
        let comp = reg
            .invoke(
                "run_n1_contingency_analysis",
                &json!({"strategy": "composite", "top_k": 5}),
            )
            .unwrap();
        let over = reg
            .invoke(
                "run_n1_contingency_analysis",
                &json!({"strategy": "overload_first", "top_k": 5}),
            )
            .unwrap();
        let labels = |v: &Value| -> Vec<String> {
            v["ranking"]
                .as_array()
                .unwrap()
                .iter()
                .map(|r| r["label"].as_str().unwrap().to_string())
                .collect()
        };
        // Different strategies produce (at least partly) different top-5s
        // or orders.
        assert_ne!(labels(&comp), labels(&over));
    }

    #[test]
    fn specific_contingency_detail() {
        let (_s, reg) = registry();
        reg.invoke("solve_base_case", &json!({"case_name": "case14"}))
            .unwrap();
        let out = reg
            .invoke(
                "analyze_specific_contingency",
                &json!({"element": "trafo", "index": 0}),
            )
            .unwrap();
        assert_eq!(out["label"], json!("trafo 0"));
        assert!(out["converged"].as_bool().unwrap() || out["islands"].as_bool().unwrap());
    }

    #[test]
    fn nonexistent_element_rejected() {
        let (_s, reg) = registry();
        reg.invoke("solve_base_case", &json!({"case_name": "case14"}))
            .unwrap();
        let err = reg
            .invoke(
                "analyze_specific_contingency",
                &json!({"element": "trafo", "index": 99}),
            )
            .unwrap_err();
        assert!(err.to_string().contains("does not exist"));
    }

    #[test]
    fn status_reflects_freshness() {
        let (session, reg) = registry();
        reg.invoke("solve_base_case", &json!({"case_name": "case14"}))
            .unwrap();
        let st = reg.invoke("get_contingency_status", &json!({})).unwrap();
        assert_eq!(st["has_analysis"], json!(false));
        reg.invoke("run_n1_contingency_analysis", &json!({}))
            .unwrap();
        let st = reg.invoke("get_contingency_status", &json!({})).unwrap();
        assert_eq!(st["has_analysis"], json!(true));
        // A modification stales the analysis.
        session
            .apply(gm_network::Modification::ScaleAllLoads { factor: 1.05 })
            .unwrap();
        let st = reg.invoke("get_contingency_status", &json!({})).unwrap();
        assert_eq!(st["has_analysis"], json!(false));
    }

    #[test]
    fn sweep_without_case_fails_recoverably() {
        let (_s, reg) = registry();
        let err = reg
            .invoke("run_n1_contingency_analysis", &json!({}))
            .unwrap_err();
        assert!(err.to_string().contains("no case loaded"));
    }
}
