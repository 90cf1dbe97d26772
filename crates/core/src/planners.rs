//! Deterministic domain planners for the two GridMind agents.
//!
//! These implement [`gm_agents::Planner`]: the intent parsing, tool-call
//! planning, recovery, and narration the paper delegates to the remote
//! LLM. The plan shapes mirror the paper's numbered reasoning traces
//! ("1. (understand the case to be solved) -> reasoning … 4. (invoke
//! ACOPF solver) -> function tools …"), and every number in a narration is
//! read from a pending tool result — never invented.

use gm_agents::{
    classify, extract_entities, AnalysisStyle, ConversationView, IntentRule, ModelTurn, Planner,
    ToolCall, TurnAction,
};
use serde_json::{json, Value};

fn f(v: &Value, key: &str) -> f64 {
    v[key].as_f64().unwrap_or(f64::NAN)
}

/// Returns the error text of a pending result, if it is an error object.
fn error_of(result: &Value) -> Option<&str> {
    result.get("error").and_then(|e| e.as_str())
}

/// Appends the distinct `degraded_caveat` lines carried by this turn's
/// tool results to a narration. The recovery ladder
/// ([`crate::recovery`]) attaches these when an answer was produced by a
/// fallback solver; the contract is that they are surfaced verbatim —
/// a degraded answer is never narrated as a clean one. Scanning *all*
/// pending results (not just the narrated one) keeps the caveat alive
/// across chained calls, e.g. a degraded base case feeding an N-1 sweep.
fn with_caveats(view: &ConversationView, text: String) -> String {
    let mut out = text;
    let mut seen: Vec<&str> = Vec::new();
    for (_, result) in &view.pending_results {
        if let Some(c) = result.get("degraded_caveat").and_then(|v| v.as_str()) {
            if !seen.contains(&c) {
                seen.push(c);
                out.push_str("\n\n");
                out.push_str(c);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// ACOPF agent planner
// ---------------------------------------------------------------------

/// Planner for the ACOPF agent (tools of Appendix B.3.1).
pub struct AcopfPlanner;

impl AcopfPlanner {
    fn rules() -> Vec<IntentRule> {
        vec![
            IntentRule::new(
                "solve_case",
                &["solve", "run", "optimize", "dispatch", "load"],
                &["acopf", "opf"],
                0.1,
            ),
            IntentRule::new(
                "modify_load",
                &["set", "change", "adjust", "load", "demand"],
                &["increase", "decrease", "modify", "raise", "lower"],
                0.0,
            ),
            IntentRule::new(
                "modify_gen",
                &["limit", "limits", "capacity", "derate", "unit", "output"],
                &["generator", "generation", "gen"],
                0.0,
            ),
            IntentRule::new(
                "secure_dispatch",
                &["n-1", "preventive", "scopf", "dispatch"],
                &["secure", "security-constrained", "security"],
                0.0,
            ),
            IntentRule::new(
                "status",
                &["current", "show", "what", "summary", "state"],
                &["status"],
                0.0,
            ),
            IntentRule::new(
                "batch_study",
                &["study", "scenarios", "hourly", "profile", "day", "batch"],
                &["sweep", "across", "batch"],
                0.0,
            ),
        ]
    }

    /// Builds the `batch_study` call from the utterance: the scenario
    /// family from its wording, the range from percent pairs, and the
    /// scenario count from a "… in N steps" entity.
    fn batch_call(view: &ConversationView) -> ToolCall {
        let ents = extract_entities(view.user_input);
        let lower = view.user_input.to_lowercase();
        let mut args = json!({});
        let case = ents.case.clone().or_else(|| {
            view.context_value("active_case")
                .and_then(|v| v.as_str().map(String::from))
        });
        if let Some(case) = case {
            args["case_name"] = json!(case);
        }
        if lower.contains("day") || lower.contains("hour") {
            args["kind"] = json!("daily_profile");
        } else if let Some(&bus) = ents.buses.first() {
            args["kind"] = json!("bus_profile");
            args["bus_id"] = json!(bus);
        } else {
            args["kind"] = json!("load_sweep");
        }
        if ents.percent.len() >= 2 {
            args["from_percent"] = json!(ents.percent[0]);
            args["to_percent"] = json!(ents.percent[1]);
        }
        if let Some(steps) = ents.steps {
            args["steps"] = json!(steps);
        }
        ToolCall {
            tool: "batch_study".into(),
            args,
        }
    }

    fn narrate_batch(out: &Value) -> String {
        let rows = out["rows"].as_array().cloned().unwrap_or_default();
        let mut table = String::new();
        for r in &rows {
            if r["converged"].as_bool() == Some(true) {
                table.push_str(&format!(
                    "  {:<16} cost {:>10.2} $/h | {} violation(s) | max loading {:>5.1}% \
                     | min V {:.4} p.u.{}\n",
                    r["label"].as_str().unwrap_or("?"),
                    f(r, "cost_per_hour"),
                    r["violations"],
                    f(r, "max_loading_pct"),
                    f(r, "min_voltage_pu"),
                    if r["degraded"].as_bool() == Some(true) {
                        " (approximate)"
                    } else {
                        ""
                    },
                ));
            } else {
                table.push_str(&format!(
                    "  {:<16} unsolved: {}\n",
                    r["label"].as_str().unwrap_or("?"),
                    r["error"].as_str().unwrap_or("solver failure"),
                ));
            }
        }
        let mut text = format!(
            "Batched study of {}: {} scenarios solved in one pass \
             ({} warm-started, {} flat restart(s)).\n\n{}",
            out["case_name"].as_str().unwrap_or("the case"),
            out["scenarios"],
            out["warm_hits"],
            out["flat_restarts"],
            table,
        );
        if out["cheapest"].is_object() && out["costliest"].is_object() {
            text.push_str(&format!(
                "\nCheapest operating point: {} at {:.2} $/h; costliest: {} at {:.2} $/h.",
                out["cheapest"]["label"].as_str().unwrap_or("?"),
                f(&out["cheapest"], "cost_per_hour"),
                out["costliest"]["label"].as_str().unwrap_or("?"),
                f(&out["costliest"], "cost_per_hour"),
            ));
        }
        match out["worst_violations"]["count"].as_u64() {
            Some(n) if n > 0 => text.push_str(&format!(
                " Most violations: {} in scenario {}.",
                n,
                out["worst_violations"]["label"].as_str().unwrap_or("?"),
            )),
            Some(_) => {
                text.push_str(" No voltage or thermal violations in any scenario.");
            }
            None => {}
        }
        text
    }

    fn narrate_solution(sol: &Value) -> String {
        let net = &sol["network_summary"];
        format!(
            "Solved ACOPF for {}.\n\
             \n\
             Case summary: {} buses, {} generators, {} lines, {} transformers, {} loads; \
             total system load {:.1} MW against {:.1} MW installed capacity.\n\
             \n\
             OPF solution: converged in {} interior-point iterations. \
             Objective value (generation cost): {:.2} $/h. Total generation dispatched {:.2} MW, \
             network losses {:.2} MW, power balance error {:.3} MW.\n\
             Voltage profile: min {:.4} p.u., max {:.4} p.u.; no limits violated. \
             Max branch loading {:.1}% of thermal rating with {} binding constraints. \
             Nodal prices span {:.2}-{:.2} $/MWh.\n\
             Solution quality assessment: Overall={:.1}/10.",
            sol["case_name"].as_str().unwrap_or("the case"),
            net["buses"],
            net["generators"],
            net["lines"],
            net["transformers"],
            net["loads"],
            f(net, "total_load_mw"),
            f(net, "total_gen_capacity_mw"),
            sol["iterations"],
            f(sol, "objective_cost"),
            f(sol, "total_generation_mw"),
            f(sol, "losses_mw"),
            f(sol, "power_balance_error_mw"),
            f(sol, "min_voltage_pu"),
            f(sol, "max_voltage_pu"),
            f(sol, "max_thermal_loading_pct"),
            sol["binding_constraints"],
            f(sol, "lmp_min"),
            f(sol, "lmp_max"),
            f(sol, "quality_overall"),
        )
    }

    fn narrate_modification(out: &Value) -> String {
        format!(
            "Re-solved the ACOPF after setting the load at bus {}. \
             New objective cost {:.2} $/h (previously {:.2} $/h, a change of {:+.2} $/h). \
             Losses are now {:.2} MW; voltage range [{:.4}, {:.4}] p.u.; \
             max branch loading {:.1}%. Quality assessment: Overall={:.1}/10.",
            out["modified_bus"],
            f(out, "objective_cost"),
            f(out, "previous_cost"),
            f(out, "cost_delta"),
            f(out, "losses_mw"),
            f(out, "min_voltage_pu"),
            f(out, "max_voltage_pu"),
            f(out, "max_thermal_loading_pct"),
            f(out, "quality_overall"),
        )
    }

    fn narrate_scopf(out: &Value) -> String {
        format!(
            "Solved the security-constrained OPF. Secure dispatch cost {:.2} $/h against an \
             unconstrained economic optimum of {:.2} $/h — a security premium of {:+.2} $/h \
             covering {} screened post-contingency flow constraints. Losses {:.2} MW; voltage \
             range [{:.4}, {:.4}] p.u. Quality assessment: Overall={:.1}/10.",
            f(out, "objective_cost"),
            f(out, "economic_cost"),
            f(out, "security_premium"),
            out["n_security_constraints"],
            f(out, "losses_mw"),
            f(out, "min_voltage_pu"),
            f(out, "max_voltage_pu"),
            f(out, "quality_overall"),
        )
    }

    fn narrate_status(st: &Value) -> String {
        if st["has_active_case"] == json!(false) {
            return "No case is loaded yet. Ask me to solve one of the IEEE test cases \
                    (14, 30, 57, 118, or 300 bus) to get started."
                .to_string();
        }
        let mods = st["modifications"]
            .as_array()
            .map(|a| {
                a.iter()
                    .filter_map(|m| m.as_str())
                    .collect::<Vec<_>>()
                    .join("; ")
            })
            .unwrap_or_default();
        format!(
            "Active case: {}. Applied modifications: {}. {}",
            st["active_case"].as_str().unwrap_or("?"),
            if mods.is_empty() { "none" } else { &mods },
            if st["has_solution"] == json!(true) {
                if st["solution_stale"] == json!(true) {
                    "An ACOPF solution exists but is stale relative to the latest modifications."
                } else {
                    "A fresh ACOPF solution is available."
                }
            } else {
                "No ACOPF solution has been computed yet."
            }
        )
    }
}

impl Planner for AcopfPlanner {
    fn plan(&self, view: &ConversationView, _style: AnalysisStyle) -> ModelTurn {
        // ---- Later rounds: react to tool results.
        if let Some((tool, result)) = view.pending_results.last() {
            if let Some(err) = error_of(result) {
                // Recovery path: a modification attempted before any case
                // was loaded can be fixed by loading the case first.
                let ents = extract_entities(view.user_input);
                let known_case = ents.case.clone().or_else(|| {
                    view.context_value("active_case")
                        .and_then(|v| v.as_str().map(String::from))
                });
                if let Some(case) =
                    known_case.filter(|_| err.contains("no case loaded") && view.round < 3)
                {
                    return ModelTurn {
                        reasoning: vec![
                            "(recovery: no case in context — load and solve it first)".into()
                        ],
                        action: TurnAction::Calls(vec![ToolCall {
                            tool: "solve_acopf_case".into(),
                            args: json!({"case_name": case}),
                        }]),
                    };
                }
                return ModelTurn {
                    reasoning: vec!["(tool failed; report the failure transparently)".into()],
                    action: TurnAction::Respond(format!(
                        "The {tool} call failed: {err}. No numerical results are available for \
                         this request; please adjust it and try again."
                    )),
                };
            }
            // A successful result: either continue a recovery chain or
            // narrate.
            match tool.as_str() {
                "solve_acopf_case" => {
                    // If the original intent was a modification or a
                    // batched study, the solve was a recovery step: now
                    // do the actual work.
                    let ents = extract_entities(view.user_input);
                    let wanted = classify(view.user_input, &Self::rules()).map(|m| m.intent);
                    if wanted.as_deref() == Some("batch_study") && view.round < 4 {
                        return ModelTurn {
                            reasoning: vec!["(case ready; run the batched study)".into()],
                            action: TurnAction::Calls(vec![Self::batch_call(view)]),
                        };
                    }
                    let wanted_modify = wanted.as_deref() == Some("modify_load");
                    if wanted_modify && !ents.buses.is_empty() && !ents.mw.is_empty() {
                        return ModelTurn {
                            reasoning: vec!["(case ready; apply the requested load change)".into()],
                            action: TurnAction::Calls(vec![ToolCall {
                                tool: "modify_bus_load".into(),
                                args: json!({
                                    "bus_id": ents.buses[0],
                                    "p_mw": ents.mw[0],
                                }),
                            }]),
                        };
                    }
                    return ModelTurn {
                        reasoning: vec!["(validate results)".into(), "(narrate findings)".into()],
                        action: TurnAction::Respond(with_caveats(
                            view,
                            Self::narrate_solution(result),
                        )),
                    };
                }
                "modify_bus_load" => {
                    return ModelTurn {
                        reasoning: vec!["(validate results)".into(), "(summary)".into()],
                        action: TurnAction::Respond(with_caveats(
                            view,
                            Self::narrate_modification(result),
                        )),
                    };
                }
                "modify_gen_limits" => {
                    return ModelTurn {
                        reasoning: vec!["(validate results)".into(), "(summary)".into()],
                        action: TurnAction::Respond(with_caveats(
                            view,
                            format!(
                                "Re-solved after changing the limits of {} unit(s) at bus {}. \
                                 New objective cost {:.2} $/h (a change of {:+.2} $/h); losses \
                                 {:.2} MW; max loading {:.1}%.",
                                result["units_modified"],
                                result["modified_bus"],
                                f(result, "objective_cost"),
                                f(result, "cost_delta"),
                                f(result, "losses_mw"),
                                f(result, "max_thermal_loading_pct"),
                            ),
                        )),
                    };
                }
                "solve_security_constrained" => {
                    return ModelTurn {
                        reasoning: vec![
                            "(validate the secure dispatch)".into(),
                            "(compare against the economic optimum)".into(),
                        ],
                        action: TurnAction::Respond(with_caveats(
                            view,
                            Self::narrate_scopf(result),
                        )),
                    };
                }
                "batch_study" => {
                    return ModelTurn {
                        reasoning: vec![
                            "(validate per-scenario results)".into(),
                            "(narrate the study table)".into(),
                        ],
                        action: TurnAction::Respond(with_caveats(
                            view,
                            Self::narrate_batch(result),
                        )),
                    };
                }
                "get_network_status" => {
                    return ModelTurn {
                        reasoning: vec!["(summarize current state)".into()],
                        action: TurnAction::Respond(with_caveats(
                            view,
                            Self::narrate_status(result),
                        )),
                    };
                }
                _ => {}
            }
        }

        // ---- First round: parse intent and plan.
        let ents = extract_entities(view.user_input);
        let intent = classify(view.user_input, &Self::rules());
        let active_case = view
            .context_value("active_case")
            .and_then(|v| v.as_str().map(String::from));

        match intent.as_ref().map(|m| m.intent.as_str()) {
            Some("modify_load") if !ents.buses.is_empty() && !ents.mw.is_empty() => ModelTurn {
                reasoning: vec![
                    "(understand the task to solve)".into(),
                    "(retrieve current net status)".into(),
                    "(prepare data for tools)".into(),
                    "(invoke ACOPF solver again)".into(),
                ],
                action: TurnAction::Calls(vec![ToolCall {
                    tool: "modify_bus_load".into(),
                    args: json!({"bus_id": ents.buses[0], "p_mw": ents.mw[0]}),
                }]),
            },
            Some("status") => ModelTurn {
                reasoning: vec![
                    "(understand the task)".into(),
                    "(query stored state)".into(),
                ],
                action: TurnAction::Calls(vec![ToolCall {
                    tool: "get_network_status".into(),
                    args: json!({}),
                }]),
            },
            Some("modify_gen")
                if !ents.buses.is_empty() && ents.numbers.len() + ents.mw.len() >= 2 =>
            {
                // "limit the generator at bus 2 to between 10 and 60 MW"
                let mut vals: Vec<f64> = ents.mw.clone();
                vals.extend(
                    ents.numbers
                        .iter()
                        .copied()
                        .filter(|v| *v != ents.buses[0] as f64),
                );
                vals.sort_by(|a, b| a.total_cmp(b));
                let (lo, hi) = (vals[0], *vals.last().unwrap());
                ModelTurn {
                    reasoning: vec![
                        "(understand the task: generator limit change)".into(),
                        "(apply limits and re-solve)".into(),
                    ],
                    action: TurnAction::Calls(vec![ToolCall {
                        tool: "modify_gen_limits".into(),
                        args: json!({
                            "bus_id": ents.buses[0],
                            "p_min_mw": lo,
                            "p_max_mw": hi,
                        }),
                    }]),
                }
            }
            Some("secure_dispatch") => {
                let mut args = json!({});
                if let Some(case) = ents.case.clone().or(active_case.clone()) {
                    args["case_name"] = json!(case);
                }
                ModelTurn {
                    reasoning: vec![
                        "(understand the task: security-constrained operation)".into(),
                        "(screen contingencies and solve the SCOPF)".into(),
                    ],
                    action: TurnAction::Calls(vec![ToolCall {
                        tool: "solve_security_constrained".into(),
                        args,
                    }]),
                }
            }
            Some("batch_study") => ModelTurn {
                reasoning: vec![
                    "(understand the task: a family of operating points)".into(),
                    "(build the scenario set)".into(),
                    "(one batched power-flow run, then summarize)".into(),
                ],
                action: TurnAction::Calls(vec![Self::batch_call(view)]),
            },
            Some("solve_case") | Some("modify_load") | None => {
                let case = ents.case.clone().or(active_case);
                match case {
                    Some(case) => ModelTurn {
                        reasoning: vec![
                            "(understand the case to be solved)".into(),
                            "(extract relevant parameters)".into(),
                            "(plan solution strategy)".into(),
                            "(invoke ACOPF solver)".into(),
                        ],
                        action: TurnAction::Calls(vec![ToolCall {
                            tool: "solve_acopf_case".into(),
                            args: json!({"case_name": case}),
                        }]),
                    },
                    None => ModelTurn {
                        reasoning: vec!["(cannot identify a target case)".into()],
                        action: TurnAction::Respond(
                            "I could not identify which IEEE case you mean. Supported cases: \
                             case14, case30, case57, case118, case300 — for example, \"solve \
                             IEEE 118\"."
                                .to_string(),
                        ),
                    },
                }
            }
            Some(_) => ModelTurn {
                reasoning: vec!["(intent outside my capabilities)".into()],
                action: TurnAction::Respond(
                    "I handle ACOPF solving, load modifications, and network status for the \
                     IEEE test cases."
                        .to_string(),
                ),
            },
        }
    }
}

// ---------------------------------------------------------------------
// Contingency analysis agent planner
// ---------------------------------------------------------------------

/// Planner for the contingency analysis agent (tools of Appendix B.3.2).
pub struct CaPlanner;

impl CaPlanner {
    fn rules() -> Vec<IntentRule> {
        vec![
            IntentRule::new(
                "full_analysis",
                &[
                    "n-1",
                    "t-1",
                    "outages",
                    "reliability",
                    "security",
                    "vulnerab",
                    "run",
                ],
                &["contingency", "contingencies", "critical"],
                0.1,
            ),
            IntentRule::new(
                "specific",
                &["analyze", "outage", "remove", "removing", "trip", "impact"],
                &["specific"],
                0.0,
            ),
            IntentRule::new(
                "gen_outages",
                &["unit", "units", "outage", "loss", "losing", "trip"],
                &["generator", "generators", "gen"],
                0.0,
            ),
            IntentRule::new(
                "base_case",
                &["solve", "base", "power", "flow"],
                &["base"],
                0.0,
            ),
            IntentRule::new("status", &["current", "show", "summary"], &["status"], 0.0),
        ]
    }

    fn strategy_for(style: AnalysisStyle) -> &'static str {
        match style {
            AnalysisStyle::Composite => "composite",
            AnalysisStyle::OverloadFirst => "overload_first",
        }
    }

    fn narrate_report(rep: &Value, top_k: usize) -> String {
        let ranking = rep["ranking"].as_array().cloned().unwrap_or_default();
        let top: Vec<String> = ranking
            .iter()
            .take(top_k)
            .map(|r| {
                format!(
                    "  {}. {} — {}",
                    r["rank"].as_u64().unwrap_or(0) + 1,
                    r["label"].as_str().unwrap_or("?"),
                    r["justification"].as_str().unwrap_or(""),
                )
            })
            .collect();
        let max_overload = f(rep, "max_overload_pct");
        // Honest fidelity statement: a cascade sweep must say how many
        // outages were classified from the DC estimate alone.
        let screened_out = rep["screened_out"].as_u64().unwrap_or(0);
        let fidelity = match rep["mode"].as_str() {
            Some("cascade") if screened_out > 0 => format!(
                " The sweep used DC screening with AC verification: {} outages were \
                 AC-verified and {} were classified secure from the linear screen alone.",
                rep["ac_verified"], screened_out
            ),
            _ => String::new(),
        };
        let mut s = format!(
            "I ran a full N-1 contingency analysis on {} (lines and transformers), after \
             solving the base case.\n\
             \n\
             Contingencies analyzed: {} ({} lines + {} transformers).{} \
             Total violation occurrences: {}; {} outages cause thermal overloads and {} cause \
             voltage violations against the {}\u{2013}{} p.u. band. \
             Maximum post-contingency loading observed: {:.0}%.\n\
             \n\
             Most critical elements:\n{}\n",
            rep["case_name"].as_str().unwrap_or("the case"),
            rep["n_contingencies"],
            rep["n_lines"],
            rep["n_trafos"],
            fidelity,
            rep["total_violations"],
            rep["outages_with_overloads"],
            rep["outages_with_voltage_issues"],
            rep["voltage_band"][0].as_f64().unwrap_or(0.95),
            rep["voltage_band"][1].as_f64().unwrap_or(1.05),
            max_overload,
            top.join("\n"),
        );
        s.push_str("\nRecommendations:\n");
        if max_overload > 100.0 {
            s.push_str(
                "  - Reinforce or redispatch around the overloaded corridors above; verify \
                 ratings before operating close to them.\n",
            );
        }
        if rep["outages_with_voltage_issues"].as_u64().unwrap_or(0) > 0 {
            s.push_str(
                "  - Add reactive support (shunt capacitors / SVC) near the depressed buses \
                 and review transformer tap setpoints.\n",
            );
        }
        s.push_str(
            "  - Re-run the N-1 screen after any corrective action to validate the mitigation.",
        );
        s
    }

    fn narrate_specific(out: &Value) -> String {
        if out["islands"] == json!(true) {
            return format!(
                "Outage of {} splits the network: {} buses would be stranded, shedding \
                 {:.1} MW of load. This is a categorical reliability violation.",
                out["label"].as_str().unwrap_or("?"),
                out["stranded_buses"],
                f(out, "load_shed_mw"),
            );
        }
        if out["converged"] == json!(false) {
            return format!(
                "Outage of {}: the post-contingency power flow does not converge, indicating \
                 voltage-collapse risk. Treat this contingency as critical.",
                out["label"].as_str().unwrap_or("?"),
            );
        }
        format!(
            "Outage of {}: converged. {} violations ({} total); max branch loading {:.1}%, \
             lowest voltage {:.3} p.u. at bus {}.",
            out["label"].as_str().unwrap_or("?"),
            if out["n_violations"].as_u64().unwrap_or(0) == 0 {
                "No".to_string()
            } else {
                out["n_violations"].to_string()
            },
            out["n_violations"],
            f(out, "max_loading_pct"),
            f(out, "min_voltage_pu"),
            out["min_voltage_bus"],
        )
    }
}

impl Planner for CaPlanner {
    fn plan(&self, view: &ConversationView, style: AnalysisStyle) -> ModelTurn {
        let ents = extract_entities(view.user_input);
        let top_k = ents.top_k.unwrap_or(5);

        // ---- React to pending results.
        if let Some((tool, result)) = view.pending_results.last() {
            if let Some(err) = error_of(result) {
                let known_case = ents.case.clone().or_else(|| {
                    view.context_value("active_case")
                        .and_then(|v| v.as_str().map(String::from))
                });
                if let Some(case) =
                    known_case.filter(|_| err.contains("no case loaded") && view.round < 3)
                {
                    return ModelTurn {
                        reasoning: vec!["(recovery: solve the base case first)".into()],
                        action: TurnAction::Calls(vec![ToolCall {
                            tool: "solve_base_case".into(),
                            args: json!({"case_name": case}),
                        }]),
                    };
                }
                return ModelTurn {
                    reasoning: vec!["(tool failed; report transparently)".into()],
                    action: TurnAction::Respond(format!(
                        "The {tool} call failed: {err}. I cannot report contingency results \
                         without a successful analysis."
                    )),
                };
            }
            match tool.as_str() {
                "solve_base_case" => {
                    return ModelTurn {
                        reasoning: vec![
                            "(base case validated; run the N-1 sweep)".into(),
                            "(run contingency analysis)".into(),
                        ],
                        action: TurnAction::Calls(vec![ToolCall {
                            tool: "run_n1_contingency_analysis".into(),
                            args: json!({
                                "strategy": Self::strategy_for(style),
                                "top_k": top_k.max(10),
                            }),
                        }]),
                    };
                }
                "run_n1_contingency_analysis" => {
                    return ModelTurn {
                        reasoning: vec![
                            "(validate the sweep results)".into(),
                            "(rank critical elements and justify)".into(),
                        ],
                        action: TurnAction::Respond(with_caveats(
                            view,
                            Self::narrate_report(result, top_k),
                        )),
                    };
                }
                "analyze_specific_contingency" => {
                    return ModelTurn {
                        reasoning: vec!["(interpret the outage result)".into()],
                        action: TurnAction::Respond(with_caveats(
                            view,
                            Self::narrate_specific(result),
                        )),
                    };
                }
                "run_generator_contingency_analysis" => {
                    let ranking = result["ranking"].as_array().cloned().unwrap_or_default();
                    let lines: Vec<String> = ranking
                        .iter()
                        .map(|r| {
                            let tag = if r["loses_reference"] == json!(true) {
                                " [loses the reference machine]".to_string()
                            } else if r["converged"] == json!(false) {
                                " [post-outage power flow does not converge]".to_string()
                            } else {
                                format!(
                                    " ({} violations, slack pickup {:.0} MW)",
                                    r["n_violations"],
                                    f(r, "slack_pickup_mw")
                                )
                            };
                            format!(
                                "  - unit {} at bus {} losing {:.0} MW{}",
                                r["gen"],
                                r["bus_id"],
                                f(r, "lost_mw"),
                                tag
                            )
                        })
                        .collect();
                    return ModelTurn {
                        reasoning: vec!["(rank unit outages by system stress)".into()],
                        action: TurnAction::Respond(with_caveats(
                            view,
                            format!(
                                "I simulated the outage of all {} in-service generating units. \
                                 {} did not converge and {} caused violations. Most critical unit \
                                 outages:\n{}",
                                result["n_units"],
                                result["units_not_converged"],
                                result["units_with_violations"],
                                lines.join("\n"),
                            ),
                        )),
                    };
                }
                "get_contingency_status" => {
                    let text = if result["has_analysis"] == json!(true) {
                        Self::narrate_report(result, top_k)
                    } else {
                        "No fresh contingency analysis exists for the current network state; \
                         ask me to run the N-1 analysis."
                            .to_string()
                    };
                    return ModelTurn {
                        reasoning: vec!["(summarize cached analysis)".into()],
                        action: TurnAction::Respond(with_caveats(view, text)),
                    };
                }
                _ => {}
            }
        }

        // ---- First round.
        let intent = classify(view.user_input, &Self::rules());
        match intent.as_ref().map(|m| m.intent.as_str()) {
            Some("specific") if !ents.elements.is_empty() => {
                let (kind, index) = ents.elements[0].clone();
                ModelTurn {
                    reasoning: vec![
                        "(understand task)".into(),
                        "(analyze the specific element outage)".into(),
                    ],
                    action: TurnAction::Calls(vec![ToolCall {
                        tool: "analyze_specific_contingency".into(),
                        args: json!({"element": kind, "index": index}),
                    }]),
                }
            }
            Some("status") => ModelTurn {
                reasoning: vec!["(check analysis status)".into()],
                action: TurnAction::Calls(vec![ToolCall {
                    tool: "get_contingency_status".into(),
                    args: json!({}),
                }]),
            },
            Some("gen_outages") => ModelTurn {
                reasoning: vec![
                    "(understand task: unit T-1 outages)".into(),
                    "(sweep generator outages)".into(),
                ],
                action: TurnAction::Calls(vec![ToolCall {
                    tool: "run_generator_contingency_analysis".into(),
                    args: json!({"top_k": top_k}),
                }]),
            },
            Some("base_case") => {
                let mut args = json!({});
                if let Some(case) = &ents.case {
                    args["case_name"] = json!(case);
                }
                ModelTurn {
                    reasoning: vec!["(solve the base case)".into()],
                    action: TurnAction::Calls(vec![ToolCall {
                        tool: "solve_base_case".into(),
                        args,
                    }]),
                }
            }
            _ => {
                // Full analysis (also the default for anything
                // contingency-flavoured): ensure a base case, then sweep.
                let mut args = json!({});
                if let Some(case) = &ents.case {
                    args["case_name"] = json!(case);
                }
                ModelTurn {
                    reasoning: vec![
                        "(understand task)".into(),
                        "(solve base case before contingencies)".into(),
                    ],
                    action: TurnAction::Calls(vec![ToolCall {
                        tool: "solve_base_case".into(),
                        args,
                    }]),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_agents::AgentMemory;

    fn turn_of(planner: &dyn Planner, input: &str) -> ModelTurn {
        let memory = AgentMemory::new("t", "p");
        let view = memory.view(input);
        planner.plan(&view, AnalysisStyle::Composite)
    }

    #[test]
    fn acopf_solve_intent_plans_solver_call() {
        let t = turn_of(&AcopfPlanner, "solve IEEE 118");
        match t.action {
            TurnAction::Calls(calls) => {
                assert_eq!(calls[0].tool, "solve_acopf_case");
                assert_eq!(calls[0].args["case_name"], json!("case118"));
            }
            other => panic!("expected calls, got {other:?}"),
        }
        assert!(t.reasoning.iter().any(|r| r.contains("understand")));
    }

    #[test]
    fn acopf_modify_intent_extracts_entities() {
        let t = turn_of(&AcopfPlanner, "Increase the load for bus 10 to 50MW");
        match t.action {
            TurnAction::Calls(calls) => {
                assert_eq!(calls[0].tool, "modify_bus_load");
                assert_eq!(calls[0].args["bus_id"], json!(10));
                assert_eq!(calls[0].args["p_mw"], json!(50.0));
            }
            other => panic!("expected calls, got {other:?}"),
        }
    }

    #[test]
    fn acopf_unknown_case_asks_for_clarification() {
        let t = turn_of(&AcopfPlanner, "solve the grid");
        match t.action {
            TurnAction::Respond(text) => assert!(text.contains("could not identify")),
            other => panic!("expected respond, got {other:?}"),
        }
    }

    #[test]
    fn acopf_uses_active_case_from_context() {
        let mut memory = AgentMemory::new("t", "p");
        memory.put_context("active_case", json!("case57"));
        let view = memory.view("solve it again");
        let t = AcopfPlanner.plan(&view, AnalysisStyle::Composite);
        match t.action {
            TurnAction::Calls(calls) => {
                assert_eq!(calls[0].args["case_name"], json!("case57"));
            }
            other => panic!("expected calls, got {other:?}"),
        }
    }

    #[test]
    fn ca_full_analysis_starts_with_base_case() {
        let t = turn_of(
            &CaPlanner,
            "what's the most critical contingencies in this network",
        );
        match t.action {
            TurnAction::Calls(calls) => assert_eq!(calls[0].tool, "solve_base_case"),
            other => panic!("expected calls, got {other:?}"),
        }
    }

    #[test]
    fn ca_base_result_chains_to_sweep_with_style() {
        let memory = AgentMemory::new("t", "p");
        let mut view = memory.view("find the top 5 critical lines");
        view.pending_results
            .push(("solve_base_case".into(), json!({"converged": true})));
        let t = CaPlanner.plan(&view, AnalysisStyle::OverloadFirst);
        match t.action {
            TurnAction::Calls(calls) => {
                assert_eq!(calls[0].tool, "run_n1_contingency_analysis");
                assert_eq!(calls[0].args["strategy"], json!("overload_first"));
            }
            other => panic!("expected calls, got {other:?}"),
        }
    }

    #[test]
    fn ca_specific_element_plan() {
        let t = turn_of(&CaPlanner, "analyze the outage of line 171");
        match t.action {
            TurnAction::Calls(calls) => {
                assert_eq!(calls[0].tool, "analyze_specific_contingency");
                assert_eq!(calls[0].args["element"], json!("line"));
                assert_eq!(calls[0].args["index"], json!(171));
            }
            other => panic!("expected calls, got {other:?}"),
        }
    }

    #[test]
    fn narration_quotes_tool_numbers() {
        let rep = json!({
            "case_name": "IEEE 118-bus system",
            "n_contingencies": 186, "n_lines": 175, "n_trafos": 11,
            "total_violations": 665,
            "outages_with_overloads": 3, "outages_with_voltage_issues": 40,
            "max_overload_pct": 137.0,
            "voltage_band": [0.95, 1.05],
            "ranking": [
                {"rank": 0, "label": "line 6", "justification": "2 thermal overloads up to 137%",
                 "max_loading_pct": 137.0, "min_voltage_pu": 0.94, "min_voltage_bus": 52,
                 "n_thermal": 2, "n_voltage": 1, "islands": false, "load_shed_mw": 0.0},
            ],
        });
        let text = CaPlanner::narrate_report(&rep, 5);
        assert!(text.contains("186"));
        assert!(text.contains("137"));
        assert!(text.contains("line 6"));
        assert!(text.contains("Recommendations"));
    }

    #[test]
    fn narration_discloses_cascade_screening() {
        // Through the real wire format (report_to_json), not a hand-built
        // JSON: the narrated answer for a cascade sweep must disclose how
        // many outages were screened out vs AC-verified.
        let net = gm_network::cases::load(gm_network::CaseId::Ieee118);
        let opts = gm_contingency::CaOptions::default();
        let rep = gm_contingency::run_n1(&net, &opts, None).expect("sweep");
        assert!(rep.screened_out > 0, "cascade screened nothing out");
        let j = crate::tools_ca::report_to_json(&rep, 5);
        assert_eq!(j["mode"], json!("cascade"));
        let text = CaPlanner::narrate_report(&j, 5);
        assert!(
            text.contains("classified secure from the linear screen alone"),
            "cascade narration hides the screening: {text}"
        );
        assert!(text.contains(&format!("{}", rep.ac_verified)));
    }

    #[test]
    fn degraded_results_carry_their_caveat_into_narration() {
        let caveat = crate::recovery::caveat(
            "AC optimal power flow",
            "barrier stall",
            "DC optimal power flow",
        );
        let memory = AgentMemory::new("t", "p");
        let mut view = memory.view("solve case14");
        // A degraded base case earlier in the turn, then a clean sweep:
        // the caveat must survive the chain into the final narration.
        view.pending_results.push((
            "solve_base_case".into(),
            json!({"converged": true, "degraded_caveat": caveat}),
        ));
        view.pending_results.push((
            "run_n1_contingency_analysis".into(),
            json!({"case_name": "case14", "n_contingencies": 20, "ranking": []}),
        ));
        let t = CaPlanner.plan(&view, AnalysisStyle::Composite);
        match t.action {
            TurnAction::Respond(text) => {
                assert!(
                    text.contains(crate::recovery::CAVEAT_PREFIX),
                    "degraded answers must be caveated, got: {text}"
                );
                assert!(text.contains("barrier stall"));
            }
            other => panic!("expected respond, got {other:?}"),
        }
    }

    #[test]
    fn error_results_narrated_transparently() {
        let memory = AgentMemory::new("t", "p");
        let mut view = memory.view("solve case118");
        view.pending_results.push((
            "solve_acopf_case".into(),
            json!({"error": "ACOPF did not converge", "recoverable": true}),
        ));
        let t = AcopfPlanner.plan(&view, AnalysisStyle::Composite);
        match t.action {
            TurnAction::Respond(text) => {
                assert!(text.contains("failed"));
                assert!(text.contains("did not converge"));
            }
            other => panic!("expected respond, got {other:?}"),
        }
    }
}
