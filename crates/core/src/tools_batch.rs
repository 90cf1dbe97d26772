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

use crate::failure::DomainError;
use crate::recovery::{caveat, pf_ladder, Degraded};
use crate::session::SharedSession;
use crate::solver_cache::memoized;
use crate::tools_acopf::network_for;
use gm_agents::{tool_output, ErrorCode, FnTool, VirtualClock};
// The violation counts use the N-1 sweep's voltage band and thermal
// threshold.
use gm_contingency::engine::{THERMAL_THRESHOLD_PCT, VMAX_PU, VMIN_PU};
use gm_network::Network;
use gm_numeric::Fnv1a;
use gm_powerflow::{run_batch, PfOptions, PfReport, ScenarioOutcome, ScenarioSet};

/// Default 24-hour load shape (fraction of nominal demand, hour 0–23):
/// overnight valley, morning ramp, flat afternoon, evening peak.
const DAILY_FACTORS: [f64; 24] = [
    0.74, 0.71, 0.69, 0.68, 0.70, 0.75, 0.83, 0.91, 0.96, 0.99, 1.01, 1.02, 1.02, 1.01, 1.00, 0.99,
    1.00, 1.03, 1.06, 1.08, 1.05, 0.98, 0.89, 0.80,
];

tool_output! {
    /// The scenario family of a batch study: every load scaled, the
    /// 24-hour shape, or one bus's load ramped.
    pub enum StudyKind {
        LoadSweep = "load_sweep",
        DailyProfile = "daily_profile",
        BusProfile = "bus_profile",
    }
}

tool_output! {
    /// Arguments of `batch_study`.
    pub struct BatchArgs {
        case_name: Option<String> = "case to study; defaults to the session's active case",
        kind: Option<StudyKind> = "scenario family (default load_sweep)",
        from_percent: Option<f64> = "sweep start as percent of nominal load (default 80)" in 1.0..=500.0,
        to_percent: Option<f64> = "sweep end as percent of nominal load (default 120)" in 1.0..=500.0,
        steps: Option<usize> = "number of scenarios in a sweep (default 9)" in 2..=256,
        bus_id: Option<u32> = "bus to ramp when kind is bus_profile",
    }
}

tool_output! {
    /// A scenario with numbers: solved by the batch engine, or — marked
    /// `degraded` — by a recovery rung.
    pub struct SolvedRow {
        label: String = "scenario label",
        converged: bool = "power flow convergence",
        cost_per_hour: f64 = "production cost ($/h)",
        violations: usize = "buses outside the voltage band plus overloaded branches",
        max_loading_pct: f64 = "worst branch loading (% of rating)",
        min_voltage_pu: f64 = "lowest bus voltage (p.u.)",
        losses_mw: f64 = "network losses (MW)",
        warm_started: bool = "seeded from a solved neighbour's voltages",
        flat_restarted: bool = "re-run from a flat start after the seeded solve diverged",
        degraded: Option<bool> = "present and true when a recovery rung produced the row",
    }
}

tool_output! {
    /// A scenario every rung failed on: it has a reason, not numbers.
    pub struct UnsolvedRow {
        label: String = "scenario label",
        converged: bool = "power flow convergence (false here)",
        error: String = "why the scenario has no numbers",
    }
}

tool_output! {
    /// One row of the study table.
    pub enum BatchRow {
        /// Carries numbers.
        Solved(SolvedRow),
        /// Carries the failure.
        Unsolved(UnsolvedRow),
    }
}

tool_output! {
    /// The cheapest or costliest solved scenario.
    pub struct CostExtreme {
        label: String = "scenario label",
        cost_per_hour: f64 = "production cost ($/h)",
    }
}

tool_output! {
    /// The solved scenario with the most violations.
    pub struct WorstViolations {
        label: String = "scenario label",
        count: usize = "violations in that scenario",
    }
}

tool_output! {
    /// Result of `batch_study`.
    pub struct BatchResult {
        ..degraded: Degraded,
        case_name: String = "case identifier",
        scenarios: usize = "scenarios in the study",
        converged_scenarios: usize = "scenarios with a full AC answer",
        warm_hits: u64 = "warm-started solves",
        flat_restarts: u64 = "scenarios retried from a flat start",
        rows: Vec<BatchRow> = "per-scenario results in specification order",
        cheapest: Option<CostExtreme> = "cheapest solved scenario",
        costliest: Option<CostExtreme> = "costliest solved scenario",
        worst_violations: Option<WorstViolations> = "solved scenario with the most violations",
    }
}

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

/// The table row of a scenario that `rep` answers; `degraded` says a
/// recovery rung, not the batch engine, produced `rep`.
fn solved_row(
    net: &Network,
    outcome: &ScenarioOutcome,
    rep: &PfReport,
    degraded: bool,
) -> SolvedRow {
    SolvedRow {
        label: outcome.label.clone(),
        converged: rep.converged,
        cost_per_hour: scenario_cost(net, rep),
        // Buses outside the voltage band plus overloaded branches.
        violations: rep.voltage_violations(VMIN_PU, VMAX_PU).len()
            + rep.overloads(THERMAL_THRESHOLD_PCT).len(),
        max_loading_pct: rep.max_loading.0,
        min_voltage_pu: rep.min_vm.0,
        losses_mw: rep.losses_mw,
        warm_started: outcome.warm_started,
        flat_restarted: outcome.flat_restarted,
        degraded: degraded.then_some(true),
    }
}

/// Builds the [`ScenarioSet`] described by the tool arguments.
fn scenario_set(args: &BatchArgs, net: &Network) -> Result<ScenarioSet, DomainError> {
    let from = args.from_percent.unwrap_or(80.0) / 100.0;
    let to = args.to_percent.unwrap_or(120.0) / 100.0;
    let steps = args.steps.unwrap_or(9);
    match args.kind.unwrap_or(StudyKind::LoadSweep) {
        StudyKind::LoadSweep => Ok(ScenarioSet::load_sweep(from, to, steps)),
        StudyKind::DailyProfile => Ok(ScenarioSet::daily_profile(&DAILY_FACTORS)),
        StudyKind::BusProfile => {
            let Some(bus_id) = args.bus_id else {
                return Err(DomainError::new(
                    ErrorCode::BadArgument,
                    "bus_profile needs a bus_id",
                ));
            };
            let Some(bus_ix) = net.buses.iter().position(|b| b.id == bus_id) else {
                return Err(DomainError::new(
                    ErrorCode::UnknownBus,
                    format!("bus {bus_id} not found in {}", net.name),
                ));
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
    }
}

/// `batch_study` — solve a whole family of operating points in one call.
pub fn batch_study_tool(session: SharedSession, _clock: VirtualClock) -> FnTool {
    FnTool::new(
        "batch_study",
        "Solve many what-if scenarios of the active case in one batched power-flow run (load \
         sweep, 24-hour daily profile, or per-bus ramp) and return a per-scenario table of \
         cost and violations with min/max summaries.",
        move |args: BatchArgs| -> Result<BatchResult, DomainError> {
            // An empty name means the active case, as no name does.
            let case_name = args.case_name.as_deref().filter(|name| !name.is_empty());
            let net = network_for(&session, case_name)?;
            let set = scenario_set(&args, &net)?;
            let opts = PfOptions::default();
            let batch = memoized(
                session.solver_cache.as_ref(),
                &net,
                batch_params(&opts, &set),
                || run_batch(&net, &opts, &set),
            )?;

            let mut rows = Vec::with_capacity(batch.outcomes.len());
            let mut converged_scenarios = 0usize;
            let mut caveats: Vec<String> = Vec::new();
            for (outcome, scenario) in batch.outcomes.iter().zip(&set.scenarios) {
                let err = match &outcome.report {
                    Ok(rep) => {
                        converged_scenarios += 1;
                        rows.push(BatchRow::Solved(solved_row(&net, outcome, rep, false)));
                        continue;
                    }
                    Err(err) => err.to_string(),
                };
                // The batch engine already burned its flat restart;
                // descend the remaining ladder rungs for an approximate,
                // clearly-caveated row.
                gm_telemetry::counter_add("recovery.attempts", 1);
                gm_telemetry::flight_event(
                    "recovery.descent",
                    format!("ladder=batch scenario={} reason={err}", outcome.label),
                );
                // Only a failed scenario needs a network of its own, for
                // the ladder to re-solve.
                let net_k = scenario.materialize(&net)?;
                match pf_ladder(&net_k, &opts, &err) {
                    Some((rep, cav)) => {
                        rows.push(BatchRow::Solved(solved_row(&net, outcome, &rep, true)));
                        caveats.push(cav);
                    }
                    None => {
                        caveats.push(caveat(
                            &format!("power flow for scenario '{}'", outcome.label),
                            &err,
                            "none — every recovery rung also failed; the scenario is reported \
                             unsolved",
                        ));
                        rows.push(BatchRow::Unsolved(UnsolvedRow {
                            label: outcome.label.clone(),
                            converged: false,
                            error: err,
                        }));
                    }
                }
            }

            // Min/max/argmax over the rows that carry numbers.
            let priced = || {
                rows.iter().filter_map(|row| match row {
                    BatchRow::Solved(r) => Some(r),
                    BatchRow::Unsolved(_) => None,
                })
            };
            let extreme = |r: &SolvedRow| CostExtreme {
                label: r.label.clone(),
                cost_per_hour: r.cost_per_hour,
            };
            Ok(BatchResult {
                degraded: Degraded {
                    degraded_caveat: (!caveats.is_empty()).then(|| caveats.join(" ")),
                },
                case_name: batch.case_name.clone(),
                scenarios: batch.scenarios,
                converged_scenarios,
                warm_hits: batch.warm_hits,
                flat_restarts: batch.flat_restarts,
                cheapest: priced()
                    .min_by(|a, b| a.cost_per_hour.total_cmp(&b.cost_per_hour))
                    .map(extreme),
                costliest: priced()
                    .max_by(|a, b| a.cost_per_hour.total_cmp(&b.cost_per_hour))
                    .map(extreme),
                worst_violations: priced()
                    .max_by_key(|r| r.violations)
                    .map(|r| WorstViolations {
                        label: r.label.clone(),
                        count: r.violations,
                    }),
                rows,
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_agents::Wire;
    use gm_powerflow::{Scenario, ScenarioDelta};
    use serde_json::json;

    #[test]
    fn an_unsolved_row_carries_a_reason_and_no_placeholder_numbers() {
        let row = BatchRow::Unsolved(UnsolvedRow {
            label: "load 400.0%".into(),
            converged: false,
            error: "power flow diverged".into(),
        });
        let wire = row.to_wire();
        assert_eq!(
            wire,
            json!({"label": "load 400.0%", "converged": false, "error": "power flow diverged"}),
            "no cost_per_hour / min_voltage_pu of 0.0 on the wire"
        );
        assert!(BatchRow::schema().validate(&wire).is_ok());
        assert_eq!(BatchRow::from_wire(&wire).unwrap(), row);
        // A row claiming numbers must have all of them.
        let half = json!({"label": "x", "converged": true, "cost_per_hour": 0.0});
        assert!(BatchRow::schema().validate(&half).is_err());
    }

    #[test]
    fn arguments_the_body_used_to_clamp_are_bad_arguments() {
        let session = crate::session::SessionContext::new();
        let clock = VirtualClock::new();
        let mut reg = gm_agents::ToolRegistry::new(clock.clone());
        reg.register(batch_study_tool(session.clone(), clock));
        session.load_case("case14").unwrap();
        let ok = reg.invoke("batch_study", &json!({"steps": 3})).unwrap();
        assert_eq!(ok["scenarios"], json!(3));
        for (args, field, bound) in [
            // Clamped or defaulted by the body before: 9, 2 and 256
            // scenarios.
            (json!({"steps": -5}), "steps", "[2, 256]"),
            (json!({"steps": 1}), "steps", "[2, 256]"),
            (json!({"steps": 100000}), "steps", "[2, 256]"),
            // Answered "bus_profile needs a bus_id" before.
            (
                json!({"kind": "bus_profile", "bus_id": -3}),
                "bus_id",
                "[0, 4294967295]",
            ),
        ] {
            let err = reg.invoke("batch_study", &args).unwrap_err();
            assert_eq!(err.code(), Some(ErrorCode::BadArgument), "{args}: {err}");
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("$.{field}")) && msg.contains(bound),
                "{msg}"
            );
        }
    }

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
        // Option changes must also miss: same set, another iteration
        // budget.
        let longer = PfOptions {
            max_iter: 60,
            ..PfOptions::default()
        };
        assert_ne!(batch_params(&opts, &a), batch_params(&longer, &a));
        // And a delta-value change inside one scenario must miss.
        let mut c = a.clone();
        c.scenarios[0]
            .deltas
            .push(ScenarioDelta::ScaleAllLoads { factor: 1.1 });
        assert_ne!(batch_params(&opts, &a), batch_params(&opts, &c));
    }
}
