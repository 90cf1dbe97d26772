//! Deterministic domain planners for the two GridMind agents.
//!
//! These implement [`gm_agents::Planner`]: the intent parsing, tool-call
//! planning, recovery, and narration the paper delegates to the remote
//! LLM, in the shape of the paper's numbered reasoning traces. One driver
//! runs both agents as a state machine (DESIGN.md §5j): it folds the
//! turn's transitions into a `Step` and reads the agent's `Table`.
//! Every number in a narration is read from a tool result lifted once
//! into the type its tool declared ([`tool_output!`](gm_agents::tool_output));
//! one that does not lift is narrated as a failure, and recovery keys on
//! the failure's [`ErrorCode`], never on its text.

// The planner does not index outside tests: the utterance is outside
// input, so what it yields is read with `first()` / `get`, never `[i]`
// (the crate-level gate in `lib.rs` already denies unwrap and panic).
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::recovery::Degraded;
use crate::tools_acopf::{
    CaseChoice, EditResult, GenLimitsEdit, GenLimitsResult, LoadEdit, NetworkStatus, ScopfResult,
    SolveCase, SolveResult,
};
use crate::tools_batch::{BatchArgs, BatchResult, BatchRow, StudyKind};
use crate::tools_ca::{
    AnalysisStatus, ElementKind, GenN1Args, N1Args, N1Report, Ranking, SpecificArgs,
    SpecificResult, UnitOutageReport,
};
use gm_agents::{
    classify, extract_entities, AnalysisStyle, ConversationView, Entities, ErrorCode, IntentRule,
    ModelTurn, Planner, ToolCall, TurnAction, Wire,
};
use serde_json::Value;

fn turn(reasoning: &[&str], action: TurnAction) -> ModelTurn {
    let reasoning = reasoning.iter().map(|s| s.to_string()).collect();
    ModelTurn { reasoning, action }
}

/// A turn that finishes with `text`.
fn respond(reasoning: &[&str], text: String) -> ModelTurn {
    turn(reasoning, TurnAction::Respond(text))
}

/// A turn that invokes one tool with its declared arguments.
fn call(reasoning: &[&str], tool: &str, args: impl Wire) -> ModelTurn {
    let tool = tool.into();
    turn(
        reasoning,
        TurnAction::Calls(vec![ToolCall {
            tool,
            args: args.to_wire(),
        }]),
    )
}

/// The case a request is about: the one it names, else the session's.
fn known_case(view: &ConversationView, ents: &Entities) -> Option<String> {
    ents.case.clone().or_else(|| {
        view.context_value("active_case")
            .and_then(|v| v.as_str().map(String::from))
    })
}

/// Appends the distinct caveats carried by this turn's tool results to a
/// narration. The recovery ladder ([`crate::recovery`]) attaches these
/// when an answer was produced by a fallback solver; the contract is
/// that they are surfaced verbatim — a degraded answer is never narrated
/// as a clean one. Scanning *all* pending results (not just the narrated
/// one) keeps the caveat alive across chained calls, e.g. a degraded
/// base case feeding an N-1 sweep.
fn with_caveats(view: &ConversationView, mut text: String) -> String {
    let mut seen: Vec<String> = Vec::new();
    let caveats = view.pending_results.iter().filter_map(|(_, result)| {
        Degraded::from_members(result.as_object()?)
            .ok()?
            .degraded_caveat
    });
    for caveat in caveats {
        if !seen.contains(&caveat) {
            text.push_str("\n\n");
            text.push_str(&caveat);
            seen.push(caveat);
        }
    }
    text
}

/// Narrates `result` as the type its tool declared. A result that does
/// not lift into that type is a failure sentence, never a number.
fn narrate<T: Wire>(result: &Value, say: impl FnOnce(&T) -> String) -> Result<String, String> {
    T::from_wire(result)
        .map(|out| say(&out))
        .map_err(|e| format!("its result does not have the declared shape ({e})"))
}

/// A signed cost change to the cent. One that rounds to nothing is
/// "+0.00" whatever the sign of the solver tolerance behind it.
fn signed_cents(delta: f64) -> String {
    let cents = format!("{delta:+.2}");
    if cents == "-0.00" {
        String::from("+0.00")
    } else {
        cents
    }
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// One agent, as the driver reads it.
struct Table {
    rules: &'static [IntentRule],
    /// The intent's first call or reply.
    understand: fn(&ConversationView, &Entities, Option<&str>) -> ModelTurn,
    tools: &'static [ToolRow],
    /// The tool that loads `{"case_name": …}`, and the reasoning line of
    /// the Repair that calls it.
    load: (&'static str, &'static str),
    /// What follows a load made outside a repair, if not its narration.
    chain: Option<fn(&Entities, AnalysisStyle) -> ModelTurn>,
    /// The reasoning line and the closing sentence of a failure.
    failed: (&'static str, &'static str),
}

/// One tool: the reasoning lines that narrate its result, the line that
/// retries it after a repair, and its narrator.
struct ToolRow {
    tool: &'static str,
    reasoning: &'static [&'static str],
    retry: &'static str,
    narrate: fn(&Value, &Entities) -> Result<String, String>,
}

/// Where the turn stands.
enum Step<'a> {
    Understand,
    /// The turn's first `no_active_case` failure: the call and its error.
    Repair(&'a ToolCall, String),
    Retry(&'a ToolCall),
    Chain(fn(&Entities, AnalysisStyle) -> ModelTurn),
    Narrate(&'a str, &'a Value),
    Fail(&'a str, String),
}

impl Table {
    /// Folds the turn's transitions into the step that comes next. One
    /// repair per turn: a second `no_active_case` is a failure.
    fn step<'a>(&self, view: &ConversationView<'a>) -> Step<'a> {
        let (mut step, mut repaired) = (Step::Understand, false);
        for (call, result) in view.transitions() {
            step = match (result, step) {
                (Err(e), _) if e.code == Some(ErrorCode::NoActiveCase) && !repaired => {
                    repaired = true;
                    Step::Repair(call, e.error)
                }
                (Err(e), _) => Step::Fail(&call.tool, e.error),
                (Ok(_), Step::Repair(failed, _)) if call.tool == self.load.0 => Step::Retry(failed),
                (Ok(result), _) => match self.chain.filter(|_| call.tool == self.load.0) {
                    Some(chain) => Step::Chain(chain),
                    None => Step::Narrate(&call.tool, result),
                },
            };
        }
        step
    }

    fn row(&self, tool: &str) -> Result<&'static ToolRow, String> {
        let row = self.tools.iter().find(|row| row.tool == tool);
        row.ok_or_else(|| "it is not one of this agent's tools".into())
    }

    fn failure(&self, tool: &str, err: &str) -> ModelTurn {
        let (reasoning, closing) = self.failed;
        let text = format!("The {tool} call failed: {err}. {closing}");
        respond(&[reasoning], text)
    }

    fn plan(&self, view: &ConversationView, style: AnalysisStyle) -> ModelTurn {
        let ents = extract_entities(view.user_input);
        match self.step(view) {
            Step::Understand => {
                let intent = classify(view.user_input, self.rules);
                (self.understand)(view, &ents, intent.as_ref().map(|m| m.intent.as_str()))
            }
            Step::Repair(failed, err) => match known_case(view, &ents) {
                Some(case) => call(&[self.load.1], self.load.0, SolveCase { case_name: case }),
                None => self.failure(&failed.tool, &err),
            },
            Step::Retry(failed) => {
                let retry = self.row(&failed.tool).map_or("", |row| row.retry);
                turn(&[retry], TurnAction::Calls(vec![failed.clone()]))
            }
            Step::Chain(chain) => chain(&ents, style),
            Step::Narrate(tool, result) => {
                let narrated = self.row(tool).and_then(|row| {
                    let text = (row.narrate)(result, &ents)?;
                    Ok(respond(row.reasoning, with_caveats(view, text)))
                });
                narrated.unwrap_or_else(|err| self.failure(tool, &err))
            }
            Step::Fail(tool, err) => self.failure(tool, &err),
        }
    }
}

// ---------------------------------------------------------------------
// ACOPF agent planner
// ---------------------------------------------------------------------

/// Planner for the ACOPF agent (tools of Appendix B.3.1).
pub struct AcopfPlanner;

static ACOPF_RULES: [IntentRule; 6] = [
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
];

static ACOPF: Table = Table {
    rules: &ACOPF_RULES,
    understand: AcopfPlanner::understand,
    tools: &[
        ToolRow {
            tool: "solve_acopf_case",
            reasoning: &["(validate results)", "(narrate findings)"],
            retry: "(case ready; solve it)",
            narrate: |v, _| narrate(v, AcopfPlanner::narrate_solution),
        },
        ToolRow {
            tool: "modify_bus_load",
            reasoning: &["(validate results)", "(summary)"],
            retry: "(case ready; apply the requested load change)",
            narrate: |v, _| narrate(v, AcopfPlanner::narrate_modification),
        },
        ToolRow {
            tool: "modify_gen_limits",
            reasoning: &["(validate results)", "(summary)"],
            retry: "(case ready; apply the requested limit change)",
            narrate: |v, _| narrate(v, AcopfPlanner::narrate_gen_limits),
        },
        ToolRow {
            tool: "solve_security_constrained",
            reasoning: &[
                "(validate the secure dispatch)",
                "(compare against the economic optimum)",
            ],
            retry: "(case ready; solve the SCOPF)",
            narrate: |v, _| narrate(v, AcopfPlanner::narrate_scopf),
        },
        ToolRow {
            tool: "batch_study",
            reasoning: &[
                "(validate per-scenario results)",
                "(narrate the study table)",
            ],
            retry: "(case ready; run the batched study)",
            narrate: |v, _| narrate(v, AcopfPlanner::narrate_batch),
        },
        ToolRow {
            tool: "get_network_status",
            reasoning: &["(summarize current state)"],
            retry: "(case ready; query stored state)",
            narrate: |v, _| narrate(v, AcopfPlanner::narrate_status),
        },
    ],
    load: (
        "solve_acopf_case",
        "(recovery: no case in context — load and solve it first)",
    ),
    chain: None,
    failed: (
        "(tool failed; report the failure transparently)",
        "No numerical results are available for this request; please adjust it and try again.",
    ),
};

impl AcopfPlanner {
    fn understand(view: &ConversationView, ents: &Entities, intent: Option<&str>) -> ModelTurn {
        match (intent, ents.buses.first(), ents.mw.first()) {
            (Some("status"), ..) => call(
                &["(understand the task)", "(query stored state)"],
                "get_network_status",
                (),
            ),
            (Some("modify_gen"), Some(&bus_id), _) if ents.numbers.len() + ents.mw.len() >= 2 => {
                // "limit the generator at bus 2 to between 10 and 60 MW"
                let bare = ents.numbers.iter().filter(|v| **v != bus_id as f64);
                let (p_min_mw, p_max_mw) = (ents.mw.iter().chain(bare))
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                        (lo.min(*v), hi.max(*v))
                    });
                call(
                    &[
                        "(understand the task: generator limit change)",
                        "(apply limits and re-solve)",
                    ],
                    "modify_gen_limits",
                    GenLimitsEdit {
                        bus_id,
                        p_min_mw,
                        p_max_mw,
                    },
                )
            }
            (Some("secure_dispatch"), ..) => call(
                &[
                    "(understand the task: security-constrained operation)",
                    "(screen contingencies and solve the SCOPF)",
                ],
                "solve_security_constrained",
                CaseChoice {
                    case_name: known_case(view, ents),
                },
            ),
            (Some("batch_study"), ..) => Self::batch_call(view, ents),
            (Some("modify_load"), Some(&bus_id), Some(&p_mw)) => call(
                &[
                    "(understand the task to solve)",
                    "(retrieve current net status)",
                    "(prepare data for tools)",
                    "(invoke ACOPF solver again)",
                ],
                "modify_bus_load",
                LoadEdit {
                    bus_id,
                    p_mw,
                    q_mvar: None,
                },
            ),
            (Some("solve_case" | "modify_load") | None, ..) => match known_case(view, ents) {
                Some(case_name) => call(
                    &[
                        "(understand the case to be solved)",
                        "(extract relevant parameters)",
                        "(plan solution strategy)",
                        "(invoke ACOPF solver)",
                    ],
                    "solve_acopf_case",
                    SolveCase { case_name },
                ),
                None => respond(
                    &["(cannot identify a target case)"],
                    "I could not identify which IEEE case you mean. Supported cases: \
                     case14, case30, case57, case118, case300 — for example, \"solve \
                     IEEE 118\"."
                        .to_string(),
                ),
            },
            (Some(_), ..) => respond(
                &["(intent outside my capabilities)"],
                "I handle ACOPF solving, load modifications, and network status for the \
                 IEEE test cases."
                    .to_string(),
            ),
        }
    }

    /// Builds the `batch_study` call from the utterance: the scenario
    /// family from its wording, the range from percent pairs, and the
    /// scenario count from a "… in N steps" entity.
    fn batch_call(view: &ConversationView, ents: &Entities) -> ModelTurn {
        let lower = view.user_input.to_lowercase();
        let (kind, bus_id) = match ents.buses.first() {
            _ if lower.contains("day") || lower.contains("hour") => (StudyKind::DailyProfile, None),
            Some(&bus) => (StudyKind::BusProfile, Some(bus)),
            None => (StudyKind::LoadSweep, None),
        };
        let (from_percent, to_percent) = match ents.percent.as_slice() {
            [from, to, ..] => (Some(*from), Some(*to)),
            _ => (None, None),
        };
        let args = BatchArgs {
            case_name: known_case(view, ents),
            kind: Some(kind),
            from_percent,
            to_percent,
            steps: ents.steps,
            bus_id,
        };
        call(
            &[
                "(understand the task: a family of operating points)",
                "(build the scenario set)",
                "(one batched power-flow run, then summarize)",
            ],
            "batch_study",
            args,
        )
    }

    fn narrate_batch(out: &BatchResult) -> String {
        let mut table = String::new();
        for row in &out.rows {
            match row {
                BatchRow::Solved(r) => table.push_str(&format!(
                    "  {:<16} cost {:>10.2} $/h | {} violation(s) | max loading {:>5.1}% \
                     | min V {:.4} p.u.{}\n",
                    r.label,
                    r.cost_per_hour,
                    r.violations,
                    r.max_loading_pct,
                    r.min_voltage_pu,
                    if r.degraded == Some(true) {
                        " (approximate)"
                    } else {
                        ""
                    },
                )),
                BatchRow::Unsolved(r) => {
                    table.push_str(&format!("  {:<16} unsolved: {}\n", r.label, r.error))
                }
            }
        }
        let mut text = format!(
            "Batched study of {}: {} scenarios solved in one pass \
             ({} warm-started, {} flat restart(s)).\n\n{}",
            out.case_name, out.scenarios, out.warm_hits, out.flat_restarts, table,
        );
        if let (Some(cheapest), Some(costliest)) = (&out.cheapest, &out.costliest) {
            text.push_str(&format!(
                "\nCheapest operating point: {} at {:.2} $/h; costliest: {} at {:.2} $/h.",
                cheapest.label, cheapest.cost_per_hour, costliest.label, costliest.cost_per_hour,
            ));
        }
        match &out.worst_violations {
            Some(worst) if worst.count > 0 => text.push_str(&format!(
                " Most violations: {} in scenario {}.",
                worst.count, worst.label,
            )),
            Some(_) => text.push_str(" No voltage or thermal violations in any scenario."),
            None => {}
        }
        text
    }

    fn narrate_solution(out: &SolveResult) -> String {
        let net = &out.network_summary;
        let sol = &out.dispatch.summary;
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
            sol.case_name,
            net.buses,
            net.generators,
            net.lines,
            net.transformers,
            net.loads,
            net.total_load_mw,
            net.total_gen_capacity_mw,
            sol.iterations,
            sol.objective_cost,
            sol.total_generation_mw,
            sol.losses_mw,
            sol.power_balance_error_mw,
            sol.min_voltage_pu,
            sol.max_voltage_pu,
            sol.max_thermal_loading_pct,
            sol.binding_constraints,
            sol.lmp_min,
            sol.lmp_max,
            out.dispatch.quality_overall,
        )
    }

    fn narrate_modification(out: &EditResult) -> String {
        let sol = &out.dispatch.summary;
        // Without an earlier ACOPF in the session there is no baseline
        // to compare against, and the narration claims none.
        let against = match out.previous_cost.zip(out.cost_delta) {
            Some((previous, delta)) => {
                let delta = signed_cents(delta);
                format!(" (previously {previous:.2} $/h, a change of {delta} $/h)")
            }
            None => String::new(),
        };
        format!(
            "Re-solved the ACOPF after setting the load at bus {}. \
             New objective cost {:.2} $/h{against}. \
             Losses are now {:.2} MW; voltage range [{:.4}, {:.4}] p.u.; \
             max branch loading {:.1}%. Quality assessment: Overall={:.1}/10.",
            out.modified_bus,
            sol.objective_cost,
            sol.losses_mw,
            sol.min_voltage_pu,
            sol.max_voltage_pu,
            sol.max_thermal_loading_pct,
            out.dispatch.quality_overall,
        )
    }

    fn narrate_gen_limits(out: &GenLimitsResult) -> String {
        let sol = &out.edit.dispatch.summary;
        let against = match out.edit.cost_delta {
            Some(delta) => format!(" (a change of {} $/h)", signed_cents(delta)),
            None => String::new(),
        };
        format!(
            "Re-solved after changing the limits of {} unit(s) at bus {}. \
             New objective cost {:.2} $/h{against}; losses \
             {:.2} MW; max loading {:.1}%.",
            out.units_modified,
            out.edit.modified_bus,
            sol.objective_cost,
            sol.losses_mw,
            sol.max_thermal_loading_pct,
        )
    }

    fn narrate_scopf(out: &ScopfResult) -> String {
        let sol = &out.dispatch.summary;
        format!(
            "Solved the security-constrained OPF. Secure dispatch cost {:.2} $/h against an \
             unconstrained economic optimum of {:.2} $/h — a security premium of {} $/h \
             covering {} screened post-contingency flow constraints. Losses {:.2} MW; voltage \
             range [{:.4}, {:.4}] p.u. Quality assessment: Overall={:.1}/10.",
            sol.objective_cost,
            out.economic_cost,
            signed_cents(out.security_premium),
            out.n_security_constraints,
            sol.losses_mw,
            sol.min_voltage_pu,
            sol.max_voltage_pu,
            out.dispatch.quality_overall,
        )
    }

    fn narrate_status(status: &NetworkStatus) -> String {
        let st = match status {
            NetworkStatus::Active(st) => st,
            NetworkStatus::Empty(_) => {
                return "No case is loaded yet. Ask me to solve one of the IEEE test cases \
                        (14, 30, 57, 118, or 300 bus) to get started."
                    .to_string()
            }
        };
        let mods = st.modifications.join("; ");
        format!(
            "Active case: {}. Applied modifications: {}. {}",
            st.active_case,
            if mods.is_empty() { "none" } else { &mods },
            match (st.has_solution, st.solution_stale) {
                (true, true) =>
                    "An ACOPF solution exists but is stale relative to the latest modifications.",
                (true, false) => "A fresh ACOPF solution is available.",
                (false, _) => "No ACOPF solution has been computed yet.",
            }
        )
    }
}

// ---------------------------------------------------------------------
// Contingency analysis agent planner
// ---------------------------------------------------------------------

/// Planner for the contingency analysis agent (tools of Appendix B.3.2).
pub struct CaPlanner;

static CA_RULES: [IntentRule; 5] = [
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
];

static CA: Table = Table {
    rules: &CA_RULES,
    understand: CaPlanner::understand,
    tools: &[
        ToolRow {
            tool: "run_n1_contingency_analysis",
            reasoning: &[
                "(validate the sweep results)",
                "(rank critical elements and justify)",
            ],
            retry: "(base case ready; run contingency analysis)",
            narrate: |v, ents| narrate(v, |rep| CaPlanner::narrate_report(rep, top_k(ents))),
        },
        ToolRow {
            tool: "analyze_specific_contingency",
            reasoning: &["(interpret the outage result)"],
            retry: "(base case ready; analyze the specific element outage)",
            narrate: |v, _| narrate(v, CaPlanner::narrate_specific),
        },
        ToolRow {
            tool: "run_generator_contingency_analysis",
            reasoning: &["(rank unit outages by system stress)"],
            retry: "(base case ready; sweep generator outages)",
            narrate: |v, _| narrate(v, CaPlanner::narrate_unit_outages),
        },
        ToolRow {
            tool: "get_contingency_status",
            reasoning: &["(summarize cached analysis)"],
            retry: "(base case ready; check analysis status)",
            narrate: |v, ents| narrate(v, |status| CaPlanner::narrate_status(status, top_k(ents))),
        },
    ],
    load: ("solve_base_case", "(recovery: solve the base case first)"),
    chain: Some(CaPlanner::sweep),
    failed: (
        "(tool failed; report transparently)",
        "I cannot report contingency results without a successful analysis.",
    ),
};

/// How many ranked elements an answer lists.
fn top_k(ents: &Entities) -> usize {
    ents.top_k.unwrap_or(5)
}

impl CaPlanner {
    fn understand(_: &ConversationView, ents: &Entities, intent: Option<&str>) -> ModelTurn {
        let element = ents.elements.first().and_then(|(kind, index)| {
            Some(SpecificArgs {
                element: ElementKind::parse(kind)?,
                index: *index,
            })
        });
        match (intent, element) {
            (Some("specific"), Some(element)) => call(
                &["(understand task)", "(analyze the specific element outage)"],
                "analyze_specific_contingency",
                element,
            ),
            (Some("status"), _) => call(&["(check analysis status)"], "get_contingency_status", ()),
            (Some("gen_outages"), _) => call(
                &[
                    "(understand task: unit T-1 outages)",
                    "(sweep generator outages)",
                ],
                "run_generator_contingency_analysis",
                GenN1Args {
                    top_k: Some(top_k(ents)),
                },
            ),
            // Full analysis (also the default for anything
            // contingency-flavoured): ensure a base case; Chain sweeps.
            (intent, _) => call(
                match intent {
                    Some("base_case") => &["(solve the base case)"],
                    _ => &[
                        "(understand task)",
                        "(solve base case before contingencies)",
                    ],
                },
                "solve_base_case",
                CaseChoice {
                    case_name: ents.case.clone(),
                },
            ),
        }
    }

    /// The Chain: after a base case, the N-1 sweep in the model's style.
    fn sweep(ents: &Entities, style: AnalysisStyle) -> ModelTurn {
        let strategy = match style {
            AnalysisStyle::Composite => Ranking::Composite,
            AnalysisStyle::OverloadFirst => Ranking::OverloadFirst,
        };
        call(
            &[
                "(base case validated; run the N-1 sweep)",
                "(run contingency analysis)",
            ],
            "run_n1_contingency_analysis",
            N1Args {
                strategy: Some(strategy),
                top_k: Some(top_k(ents).max(10)),
                mode: None,
            },
        )
    }

    fn narrate_status(status: &AnalysisStatus, top_k: usize) -> String {
        match status {
            AnalysisStatus::Fresh(fresh) => Self::narrate_report(&fresh.report, top_k),
            AnalysisStatus::Absent(_) => "No fresh contingency analysis exists for the current \
                                          network state; ask me to run the N-1 analysis."
                .to_string(),
        }
    }

    fn narrate_report(rep: &N1Report, top_k: usize) -> String {
        let top: Vec<String> = rep
            .ranking
            .iter()
            .take(top_k)
            .map(|r| format!("  {}. {} — {}", r.rank + 1, r.label, r.justification))
            .collect();
        // Honest fidelity statement: a cascade sweep must say how many
        // outages were classified from the DC estimate alone.
        let fidelity = if rep.mode == "cascade" && rep.screened_out > 0 {
            format!(
                " The sweep used DC screening with AC verification: {} outages were \
                 AC-verified and {} were classified secure from the linear screen alone.",
                rep.ac_verified, rep.screened_out
            )
        } else {
            String::new()
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
            rep.case_name,
            rep.n_contingencies,
            rep.n_lines,
            rep.n_trafos,
            fidelity,
            rep.total_violations,
            rep.outages_with_overloads,
            rep.outages_with_voltage_issues,
            rep.voltage_band[0],
            rep.voltage_band[1],
            rep.max_overload_pct,
            top.join("\n"),
        );
        s.push_str("\nRecommendations:\n");
        if rep.max_overload_pct > 100.0 {
            s.push_str(
                "  - Reinforce or redispatch around the overloaded corridors above; verify \
                 ratings before operating close to them.\n",
            );
        }
        if rep.outages_with_voltage_issues > 0 {
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

    fn narrate_specific(out: &SpecificResult) -> String {
        if out.islands {
            return format!(
                "Outage of {} splits the network: {} buses would be stranded, shedding \
                 {:.1} MW of load. This is a categorical reliability violation.",
                out.label, out.stranded_buses, out.load_shed_mw,
            );
        }
        if !out.converged {
            return format!(
                "Outage of {}: the post-contingency power flow does not converge, indicating \
                 voltage-collapse risk. Treat this contingency as critical.",
                out.label,
            );
        }
        format!(
            "Outage of {}: converged. {} violations ({} total); max branch loading {:.1}%, \
             lowest voltage {:.3} p.u. at bus {}.",
            out.label,
            if out.n_violations == 0 {
                "No".to_string()
            } else {
                out.n_violations.to_string()
            },
            out.n_violations,
            out.max_loading_pct,
            out.min_voltage_pu,
            out.min_voltage_bus,
        )
    }

    fn narrate_unit_outages(out: &UnitOutageReport) -> String {
        let lines: Vec<String> = out
            .ranking
            .iter()
            .map(|r| {
                let tag = if r.loses_reference {
                    " [loses the reference machine]".to_string()
                } else if !r.converged {
                    " [post-outage power flow does not converge]".to_string()
                } else {
                    format!(
                        " ({} violations, slack pickup {:.0} MW)",
                        r.n_violations, r.slack_pickup_mw
                    )
                };
                format!(
                    "  - unit {} at bus {} losing {:.0} MW{}",
                    r.gen, r.bus_id, r.lost_mw, tag
                )
            })
            .collect();
        format!(
            "I simulated the outage of all {} in-service generating units. \
             {} did not converge and {} caused violations. Most critical unit \
             outages:\n{}",
            out.n_units,
            out.units_not_converged,
            out.units_with_violations,
            lines.join("\n"),
        )
    }
}

impl Planner for AcopfPlanner {
    fn plan(&self, view: &ConversationView, style: AnalysisStyle) -> ModelTurn {
        ACOPF.plan(view, style)
    }
}

impl Planner for CaPlanner {
    fn plan(&self, view: &ConversationView, style: AnalysisStyle) -> ModelTurn {
        CA.plan(view, style)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_agents::{AgentMemory, ToolFailure};
    use serde_json::json;

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

    /// The turn `planner` takes after `pending`, the calls made so far
    /// in the turn (made with no arguments).
    fn turn_after(
        planner: &dyn Planner,
        input: &str,
        style: AnalysisStyle,
        pending: &[(String, Value)],
    ) -> ModelTurn {
        let pending: Vec<(ToolCall, Value)> = pending
            .iter()
            .map(|(tool, result)| {
                (
                    ToolCall {
                        tool: tool.clone(),
                        args: json!({}),
                    },
                    result.clone(),
                )
            })
            .collect();
        turn_after_calls(planner, input, style, &pending)
    }

    /// The turn `planner` takes after the transitions `pending`.
    fn turn_after_calls(
        planner: &dyn Planner,
        input: &str,
        style: AnalysisStyle,
        pending: &[(ToolCall, Value)],
    ) -> ModelTurn {
        let memory = AgentMemory::new("t", "p");
        let mut view = memory.view(input);
        view.pending_results = pending;
        planner.plan(&view, style)
    }

    fn response_of(turn: ModelTurn) -> String {
        match turn.action {
            TurnAction::Respond(text) => text,
            other => panic!("expected respond, got {other:?}"),
        }
    }

    #[test]
    fn ca_base_result_chains_to_sweep_with_style() {
        let t = turn_after(
            &CaPlanner,
            "find the top 5 critical lines",
            AnalysisStyle::OverloadFirst,
            &[("solve_base_case".into(), json!({"converged": true}))],
        );
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

    fn case14_report() -> N1Report {
        let net = gm_network::cases::load(gm_network::CaseId::Ieee14);
        let rep = gm_contingency::run_n1(&net, &Default::default(), None).expect("sweep");
        N1Report::new(&rep, 5, None)
    }

    #[test]
    fn narration_quotes_tool_numbers() {
        let mut rep = case14_report();
        rep.n_contingencies = 186;
        rep.max_overload_pct = 137.0;
        rep.ranking[0].label = "line 6".into();
        let text = CaPlanner::narrate_report(&rep, 5);
        assert!(text.contains("186"));
        assert!(text.contains("137"));
        assert!(text.contains("line 6"));
        assert!(text.contains("Recommendations"));
    }

    #[test]
    fn narration_discloses_cascade_screening() {
        // Through the tool's own result type, not a hand-built one: the
        // narrated answer for a cascade sweep must disclose how many
        // outages were screened out vs AC-verified.
        let net = gm_network::cases::load(gm_network::CaseId::Ieee118);
        let opts = gm_contingency::CaOptions::default();
        let rep = gm_contingency::run_n1(&net, &opts, None).expect("sweep");
        assert!(rep.screened_out > 0, "cascade screened nothing out");
        let out = N1Report::new(&rep, 5, None);
        assert_eq!(out.mode, "cascade");
        let text = CaPlanner::narrate_report(&out, 5);
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
        // A degraded base case earlier in the turn, then a clean sweep:
        // the caveat must survive the chain into the final narration.
        let text = response_of(turn_after(
            &CaPlanner,
            "solve case14",
            AnalysisStyle::Composite,
            &[
                (
                    "solve_base_case".into(),
                    json!({"converged": true, "degraded_caveat": caveat}),
                ),
                (
                    "run_n1_contingency_analysis".into(),
                    case14_report().to_wire(),
                ),
            ],
        ));
        assert!(
            text.contains(crate::recovery::CAVEAT_PREFIX),
            "degraded answers must be caveated, got: {text}"
        );
        assert!(text.contains("barrier stall"));
    }

    #[test]
    fn error_results_narrated_transparently() {
        let failure = ToolFailure {
            code: Some(ErrorCode::NotConverged),
            error: "ACOPF did not converge".into(),
        };
        let text = response_of(turn_after(
            &AcopfPlanner,
            "solve case118",
            AnalysisStyle::Composite,
            &[("solve_acopf_case".into(), failure.to_wire())],
        ));
        assert!(text.contains("failed"));
        assert!(text.contains("did not converge"));
    }

    #[test]
    fn recovery_keys_on_the_code_not_the_message() {
        // Same words, different class: only `no_active_case` is repaired
        // by loading the case the utterance names.
        let plan = |code| {
            let failure = ToolFailure {
                code,
                error: "no case loaded; ask to solve a case first".into(),
            };
            turn_after(
                &AcopfPlanner,
                "set the load at bus 10 of case14 to 50 MW",
                AnalysisStyle::Composite,
                &[("modify_bus_load".into(), failure.to_wire())],
            )
        };
        match plan(Some(ErrorCode::NoActiveCase)).action {
            TurnAction::Calls(calls) => assert_eq!(calls[0].tool, "solve_acopf_case"),
            other => panic!("expected the load-then-retry call, got {other:?}"),
        }
        for code in [Some(ErrorCode::UnknownBus), None] {
            assert!(response_of(plan(code)).contains("call failed"));
        }
    }

    #[test]
    fn a_result_that_does_not_parse_is_a_failure_sentence() {
        // A renamed field must not narrate "NaN $/h": the result no
        // longer lifts into the declared type, and the answer says so.
        let net = gm_network::library::case(gm_network::CaseId::Ieee14);
        let rep = gm_powerflow::solve(&net, &Default::default()).expect("base case");
        let mut wire = serde_json::to_value(&rep).expect("serializes");
        wire["objective_cost"] = json!(8081.53);
        let text = response_of(turn_after(
            &AcopfPlanner,
            "solve case14",
            AnalysisStyle::Composite,
            &[("solve_acopf_case".into(), wire)],
        ));
        assert!(text.contains("The solve_acopf_case call failed"), "{text}");
        assert!(text.contains("declared shape"), "{text}");
        assert!(!text.contains("8081") && !text.contains("NaN"), "{text}");
    }

    fn no_case() -> Value {
        ToolFailure {
            code: Some(ErrorCode::NoActiveCase),
            error: "no case loaded; ask to solve a case first".into(),
        }
        .to_wire()
    }

    fn plan(planner: &dyn Planner, input: &str, pending: &[(ToolCall, Value)]) -> ModelTurn {
        turn_after_calls(planner, input, AnalysisStyle::Composite, pending)
    }

    /// Each agent's first call for an utterance that names case14, and
    /// its load tool.
    fn agents() -> [(&'static dyn Planner, &'static str, &'static str); 4] {
        [
            (
                &AcopfPlanner,
                "set the load at bus 10 of case14 to 50 MW",
                "solve_acopf_case",
            ),
            (
                &AcopfPlanner,
                "limit the generator at bus 2 of case14 to between 10 and 60 MW",
                "solve_acopf_case",
            ),
            (
                &CaPlanner,
                "analyze the outage of line 3 in case14",
                "solve_base_case",
            ),
            (
                &CaPlanner,
                "what happens if we lose each generator unit in case14",
                "solve_base_case",
            ),
        ]
    }

    fn first_call(planner: &dyn Planner, input: &str) -> ToolCall {
        match plan(planner, input, &[]).action {
            TurnAction::Calls(mut calls) => calls.remove(0),
            other => panic!("{input:?}: expected a call, got {other:?}"),
        }
    }

    #[test]
    fn a_repaired_call_is_retried_with_its_arguments() {
        for (planner, input, load) in agents() {
            let failed = first_call(planner, input);
            let repair = match plan(planner, input, &[(failed.clone(), no_case())]).action {
                TurnAction::Calls(mut calls) => calls.remove(0),
                other => panic!("{input:?}: expected the repair, got {other:?}"),
            };
            assert_eq!(repair.tool, load, "{input:?}");
            assert_eq!(repair.args, json!({"case_name": "case14"}), "{input:?}");
            let retry = plan(
                planner,
                input,
                &[
                    (failed.clone(), no_case()),
                    (repair, json!({"converged": true})),
                ],
            );
            assert_eq!(retry.action, TurnAction::Calls(vec![failed]), "{input:?}");
        }
    }

    #[test]
    fn a_turn_repairs_once() {
        for (planner, input, load) in agents() {
            let failed = first_call(planner, input);
            let repair = ToolCall {
                tool: load.into(),
                args: json!({"case_name": "case14"}),
            };
            let turn = plan(
                planner,
                input,
                &[
                    (failed.clone(), no_case()),
                    (repair, json!({"converged": true})),
                    (failed.clone(), no_case()),
                ],
            );
            match turn.action {
                TurnAction::Respond(text) => {
                    assert!(
                        text.starts_with(&format!(
                            "The {} call failed: no case loaded",
                            failed.tool
                        )),
                        "{input:?}: {text}"
                    );
                }
                other => panic!("{input:?}: repaired twice: {other:?}"),
            }
        }
    }
}
