//! The `batch_study` tool: one symbolic analysis, many scenarios.
//!
//! Turns a scenario specification (a load sweep, a 24-hour profile, or
//! a per-bus ramp) into a [`gm_powerflow::ScenarioSet`], runs it through
//! the batched engine via [`crate::solver_cache::memoized`], and
//! returns one table the planner narrates: per-scenario cost and
//! violation counts plus min/max/argmax summaries.
//!
//! Failure policy mirrors the rest of the tool layer: a scenario whose
//! warm-started Newton diverges is *never* a hard error. The engine
//! itself retries from a flat start (counted in `batch.flat_restarts`),
//! and anything still failing after that is walked down the
//! [`crate::recovery`] ladder here, producing a caveated approximate row
//! instead of losing the whole study. Degraded rows are never cached —
//! the memo only stores all-converged reports.

use crate::recovery::{caveat, pf_ladder};
use crate::session::SharedSession;
use crate::solver_cache::memoized;
use gm_agents::{Field, FnTool, Schema, ToolError, ToolSpec, VirtualClock};
use gm_network::Network;
use gm_numeric::Fnv1a;
use gm_powerflow::{run_batch, PfOptions, PfReport, ScenarioSet};
use serde_json::{json, Value};

/// Voltage band and thermal threshold used for the violation counts.
const VMIN_PU: f64 = 0.95;
const VMAX_PU: f64 = 1.05;
const OVERLOAD_PCT: f64 = 100.0;

/// Default 24-hour load shape (fraction of nominal demand, hour 0–23):
/// overnight valley, morning ramp, flat afternoon, evening peak.
const DAILY_FACTORS: [f64; 24] = [
    0.74, 0.71, 0.69, 0.68, 0.70, 0.75, 0.83, 0.91, 0.96, 0.99, 1.01, 1.02, 1.02, 1.01, 1.00, 0.99,
    1.00, 1.03, 1.06, 1.08, 1.05, 0.98, 0.89, 0.80,
];

/// Solver-cache parameters of a batch study: the power-flow options
/// *and* the scenario set. `SolverCacheKey` only folds the network hash
/// and an option fingerprint, and the set is neither — two studies over
/// the same base network with the same options but different sweeps
/// would alias if it were left out. [`ScenarioSet::canonical_bytes`]
/// length-prefixes every variable field inside the set, and the set goes
/// in as one length-prefixed field after the fixed-width options, so the
/// stream parses back to exactly one `(options, set)` pair.
pub(crate) fn batch_params(opts: &PfOptions, set: &ScenarioSet) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(opts.fingerprint());
    h.field(&set.canonical_bytes());
    h.finish()
}

/// Total production cost ($/h) of a solved scenario. No scenario delta
/// touches a unit's cost curve or service flag — the dispatch a delta
/// sets arrives through `rep` — so the base network prices every
/// scenario.
fn scenario_cost(net: &Network, rep: &PfReport) -> f64 {
    net.gens
        .iter()
        .zip(&rep.gens)
        .filter(|(g, _)| g.in_service)
        .map(|(g, r)| g.cost.eval(r.p_mw))
        .sum()
}

/// Violation count: buses outside the voltage band plus overloaded
/// branches.
fn scenario_violations(rep: &PfReport) -> usize {
    rep.voltage_violations(VMIN_PU, VMAX_PU).len() + rep.overloads(OVERLOAD_PCT).len()
}

fn row_json(label: &str, rep: &PfReport, cost: f64, warm: bool, flat: bool) -> Value {
    json!({
        "label": label,
        "converged": rep.converged,
        "cost_per_hour": cost,
        "violations": scenario_violations(rep),
        "max_loading_pct": rep.max_loading.0,
        "min_voltage_pu": rep.min_vm.0,
        "losses_mw": rep.losses_mw,
        "warm_started": warm,
        "flat_restarted": flat,
    })
}

/// Builds the [`ScenarioSet`] described by the tool arguments.
fn scenario_set_from_args(args: &Value, net: &Network) -> Result<ScenarioSet, ToolError> {
    let kind = args["kind"].as_str().unwrap_or("load_sweep");
    let from = args["from_percent"].as_f64().unwrap_or(80.0) / 100.0;
    let to = args["to_percent"].as_f64().unwrap_or(120.0) / 100.0;
    let steps = args["steps"].as_u64().unwrap_or(9).clamp(2, 256) as usize;
    match kind {
        "load_sweep" => Ok(ScenarioSet::load_sweep(from, to, steps)),
        "daily_profile" => Ok(ScenarioSet::daily_profile(&DAILY_FACTORS)),
        "bus_profile" => {
            let Some(bus_id) = args["bus_id"].as_u64() else {
                return Err(ToolError::fatal("bus_profile needs a bus_id"));
            };
            let bus_id = u32::try_from(bus_id).unwrap_or(u32::MAX);
            let Some(bus_ix) = net.buses.iter().position(|b| b.id == bus_id) else {
                return Err(ToolError::fatal(format!(
                    "bus {bus_id} not found in {}",
                    net.name
                )));
            };
            let base_p: f64 = net
                .loads
                .iter()
                .filter(|l| l.bus == bus_ix && l.in_service)
                .map(|l| l.p_mw)
                .sum();
            // A bus with no load ramps from 0 up to `to_percent` of the
            // system average load instead of sweeping 0..0.
            let anchor = if base_p.abs() > 1e-9 {
                base_p
            } else {
                net.total_load_mw() / net.n_bus().max(1) as f64
            };
            let levels: Vec<f64> = (0..steps)
                .map(|i| {
                    let t = i as f64 / (steps - 1) as f64;
                    anchor * (from + t * (to - from))
                })
                .collect();
            Ok(ScenarioSet::bus_profile(bus_id, &levels))
        }
        other => Err(ToolError::fatal(format!(
            "unknown study kind '{other}' (expected load_sweep, daily_profile, or bus_profile)"
        ))),
    }
}

fn output_schema() -> Schema {
    Schema::Object {
        fields: vec![
            Field::required("case_name", Schema::string(), "case identifier"),
            Field::required("scenarios", Schema::integer(), "scenarios in the study"),
            Field::required(
                "converged_scenarios",
                Schema::integer(),
                "scenarios with a full AC answer",
            ),
            Field::required("warm_hits", Schema::integer(), "warm-started solves"),
            Field::required(
                "flat_restarts",
                Schema::integer(),
                "scenarios retried from flat start",
            ),
            Field::required(
                "rows",
                Schema::array(Schema::Object {
                    fields: vec![
                        Field::required("label", Schema::string(), "scenario label"),
                        Field::required("converged", Schema::Bool, "AC convergence flag"),
                        Field::required("cost_per_hour", Schema::number(), "production cost $/h"),
                        Field::required(
                            "violations",
                            Schema::integer(),
                            "voltage + thermal violations",
                        ),
                        Field::required("max_loading_pct", Schema::number(), "worst loading"),
                        Field::required("min_voltage_pu", Schema::number(), "lowest voltage"),
                    ],
                    closed: false,
                }),
                "per-scenario results in specification order",
            ),
        ],
        closed: false,
    }
}

/// `batch_study` — solve a whole family of operating points in one call.
pub fn batch_study_tool(session: SharedSession, _clock: VirtualClock) -> FnTool {
    FnTool::new(
        ToolSpec {
            name: "batch_study".into(),
            description: "Solve many what-if scenarios of the active case in one batched \
                          power-flow run (load sweep, 24-hour daily profile, or per-bus ramp) \
                          and return a per-scenario table of cost and violations with \
                          min/max summaries."
                .into(),
            input: Schema::object(vec![
                Field::optional(
                    "case_name",
                    Schema::string(),
                    "case to study; defaults to the session's active case",
                ),
                Field::optional(
                    "kind",
                    Schema::string_enum(&["load_sweep", "daily_profile", "bus_profile"]),
                    "scenario family (default load_sweep)",
                ),
                Field::optional(
                    "from_percent",
                    Schema::number_range(1.0, 500.0),
                    "sweep start as percent of nominal load (default 80)",
                ),
                Field::optional(
                    "to_percent",
                    Schema::number_range(1.0, 500.0),
                    "sweep end as percent of nominal load (default 120)",
                ),
                Field::optional(
                    "steps",
                    Schema::integer(),
                    "number of scenarios in a sweep (default 9)",
                ),
                Field::optional(
                    "bus_id",
                    Schema::integer(),
                    "bus to ramp when kind is bus_profile",
                ),
            ]),
            output: output_schema(),
        },
        move |args| {
            let net = match args["case_name"].as_str() {
                Some(name) if !name.is_empty() => {
                    session.load_case(name).map_err(ToolError::fatal)?.0
                }
                _ => session.current_network().map_err(ToolError::recoverable)?,
            };
            let set = scenario_set_from_args(args, &net)?;
            let opts = PfOptions::default();
            let batch = memoized(
                session.solver_cache.as_ref(),
                &net,
                batch_params(&opts, &set),
                || run_batch(&net, &opts, &set),
            )
            .map_err(ToolError::fatal)?;

            let mut rows = Vec::with_capacity(batch.outcomes.len());
            let mut converged = 0usize;
            let mut caveats: Vec<String> = Vec::new();
            for (outcome, scenario) in batch.outcomes.iter().zip(&set.scenarios) {
                match &outcome.report {
                    Ok(rep) => {
                        converged += 1;
                        rows.push(row_json(
                            &outcome.label,
                            rep,
                            scenario_cost(&net, rep),
                            outcome.warm_started,
                            outcome.flat_restarted,
                        ));
                    }
                    Err(err) => {
                        // The batch engine already burned its flat
                        // restart; descend the remaining ladder rungs
                        // for an approximate, clearly-caveated row.
                        gm_telemetry::counter_add("recovery.attempts", 1);
                        gm_telemetry::flight_event(
                            "recovery.descent",
                            format!("ladder=batch scenario={} reason={err}", outcome.label),
                        );
                        // Only a failed scenario needs a network of
                        // its own, for the ladder to re-solve.
                        let net_k = scenario.materialize(&net).map_err(ToolError::fatal)?;
                        match pf_ladder(&net_k, &opts, &err.to_string()) {
                            Some((rep, cav)) => {
                                let mut row = row_json(
                                    &outcome.label,
                                    &rep,
                                    scenario_cost(&net, &rep),
                                    outcome.warm_started,
                                    outcome.flat_restarted,
                                );
                                row["degraded"] = json!(true);
                                rows.push(row);
                                caveats.push(cav);
                            }
                            None => {
                                rows.push(json!({
                                    "label": outcome.label,
                                    "converged": false,
                                    "cost_per_hour": 0.0,
                                    "violations": 0,
                                    "max_loading_pct": 0.0,
                                    "min_voltage_pu": 0.0,
                                    "error": err.to_string(),
                                }));
                                caveats.push(caveat(
                                    &format!("power flow for scenario '{}'", outcome.label),
                                    &err.to_string(),
                                    "none — every recovery rung also failed; the scenario \
                                     is reported unsolved",
                                ));
                            }
                        }
                    }
                }
            }

            // Min/max/argmax over rows that carry real numbers.
            let priced: Vec<(&str, f64, u64)> = rows
                .iter()
                .filter(|r| r["converged"].as_bool() == Some(true))
                .map(|r| {
                    (
                        r["label"].as_str().unwrap_or(""),
                        r["cost_per_hour"].as_f64().unwrap_or(0.0),
                        r["violations"].as_u64().unwrap_or(0),
                    )
                })
                .collect();
            let mut out = json!({
                "case_name": batch.case_name,
                "scenarios": batch.scenarios,
                "converged_scenarios": converged,
                "warm_hits": batch.warm_hits,
                "flat_restarts": batch.flat_restarts,
                "rows": rows,
            });
            if let Some((label, cost, _)) =
                priced.iter().min_by(|a, b| a.1.total_cmp(&b.1)).copied()
            {
                out["cheapest"] = json!({ "label": label, "cost_per_hour": cost });
            }
            if let Some((label, cost, _)) =
                priced.iter().max_by(|a, b| a.1.total_cmp(&b.1)).copied()
            {
                out["costliest"] = json!({ "label": label, "cost_per_hour": cost });
            }
            if let Some((label, _, v)) = priced.iter().max_by_key(|r| r.2).copied() {
                out["worst_violations"] = json!({ "label": label, "count": v });
            }
            if !caveats.is_empty() {
                out["degraded_caveat"] = json!(caveats.join(" "));
            }
            Ok(out)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_powerflow::{Scenario, ScenarioDelta};

    #[test]
    fn batch_naive_concat_collision_is_fixed() {
        // A naive fingerprint that concatenates scenario labels without
        // length prefixes cannot tell ["ab","c"] from ["a","bc"]: the
        // byte streams are identical, so the keys collide and one
        // study's table would be served for the other.
        let labelled = |labels: [&str; 2]| {
            ScenarioSet::new(
                labels
                    .iter()
                    .map(|l| Scenario {
                        label: l.to_string(),
                        deltas: vec![],
                    })
                    .collect(),
            )
        };
        let (a, b) = (labelled(["ab", "c"]), labelled(["a", "bc"]));
        let naive = |set: &ScenarioSet| -> u64 {
            let mut h = Fnv1a::new();
            for sc in &set.scenarios {
                h.bytes(sc.label.as_bytes());
            }
            h.finish()
        };
        assert_eq!(naive(&a), naive(&b), "the naive concat collapses the pair");
        let opts = PfOptions::default();
        assert_ne!(
            batch_params(&opts, &a),
            batch_params(&opts, &b),
            "the canonical length-prefixed encoding must separate it"
        );
        // Option changes must also miss: same set, different tolerance.
        let tight = PfOptions {
            tol_pu: 1e-10,
            ..PfOptions::default()
        };
        assert_ne!(batch_params(&opts, &a), batch_params(&tight, &a));
        // And a delta-value change inside one scenario must miss.
        let mut c = a.clone();
        c.scenarios[0]
            .deltas
            .push(ScenarioDelta::ScaleAllLoads { factor: 1.1 });
        assert_ne!(batch_params(&opts, &a), batch_params(&opts, &c));
    }
}
