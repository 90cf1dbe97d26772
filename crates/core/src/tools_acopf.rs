//! The ACOPF agent's function tools (Appendix B.3.1):
//! `solve_acopf_case`, `modify_bus_load`, `get_network_status`.
//!
//! Every tool reads and writes the shared
//! [`SessionContext`](crate::session::SessionContext), returns a result
//! type declared here with [`tool_output!`] — whose field names are the
//! semantic anchors on the wire (`objective_cost`, `min_voltage_pu`, …)
//! and whose closed schema the registry validates against — and deposits
//! typed artifacts for other agents.

use crate::failure::DomainError;
use crate::quality::{self, SolutionQuality};
use crate::recovery::{solve_acopf_recovered, solve_scopf_recovered, Degraded};
use crate::session::SharedSession;
use gm_acopf::{AcopfOptions, AcopfSolution, ScopfOptions};
use gm_agents::{tool_output, ErrorCode, FnTool, VirtualClock};
use gm_network::{Modification, Network, Snapshot};

tool_output! {
    /// Arguments of `solve_acopf_case`.
    pub struct SolveCase {
        case_name: String = "case reference, e.g. 'case118' or 'IEEE 118'",
    }
}

tool_output! {
    /// Arguments of `modify_bus_load`.
    pub struct LoadEdit {
        bus_id: u32 = "external bus number" in 1..,
        p_mw: f64 = "new active demand (MW)" in 0.0..=100_000.0,
        q_mvar: Option<f64> = "new reactive demand (MVAr); omitted keeps the power factor",
    }
}

tool_output! {
    /// Arguments of `modify_gen_limits`.
    pub struct GenLimitsEdit {
        bus_id: u32 = "external bus number of the unit" in 1..,
        p_min_mw: f64 = "new minimum output (MW)" in 0.0..=100_000.0,
        p_max_mw: f64 = "new maximum output (MW)" in 0.0..=100_000.0,
    }
}

tool_output! {
    /// Arguments of `solve_security_constrained` and `solve_base_case`.
    pub struct CaseChoice {
        case_name: Option<String> = "case to load when none is active",
    }
}

tool_output! {
    /// Inventory counts of a case (the wire form of
    /// [`gm_network::NetworkSummary`]).
    pub struct CaseSummary {
        case_name: String = "case name",
        buses: usize = "bus count",
        generators: usize = "generator count",
        loads: usize = "load count",
        lines: usize = "AC line count",
        transformers: usize = "transformer count",
        total_load_mw: f64 = "total active demand (MW)",
        total_gen_capacity_mw: f64 = "total generation capacity (MW)",
    }
}

impl From<&Network> for CaseSummary {
    fn from(net: &Network) -> CaseSummary {
        let s = net.summary();
        CaseSummary {
            case_name: s.case_name,
            buses: s.buses,
            generators: s.generators,
            loads: s.loads,
            lines: s.lines,
            transformers: s.transformers,
            total_load_mw: s.total_load_mw,
            total_gen_capacity_mw: s.total_gen_capacity_mw,
        }
    }
}

tool_output! {
    /// An ACOPF solution in summary (the `ACOPFSolution` wire shape).
    pub struct AcopfSummary {
        case_name: String = "case identifier",
        solved: bool = "convergence flag",
        objective_cost: f64 = "total generation cost ($/h)",
        total_generation_mw: f64 = "dispatched generation (MW)",
        total_load_mw: f64 = "system demand (MW)",
        losses_mw: f64 = "network losses (MW)",
        min_voltage_pu: f64 = "lowest bus voltage (p.u.)",
        max_voltage_pu: f64 = "highest bus voltage (p.u.)",
        max_thermal_loading_pct: f64 = "worst branch loading (% of rating)",
        iterations: usize = "interior-point iterations",
        binding_constraints: usize = "constraints active at the optimum",
        power_balance_error_mw: f64 = "generation minus load minus losses (MW)",
        n_generators: usize = "dispatched units",
        largest_units_mw: Vec<f64> = "the five largest unit outputs (MW), descending",
        lmp_min: f64 = "lowest nodal price ($/MWh)",
        lmp_max: f64 = "highest nodal price ($/MWh)",
    }
}

impl From<&AcopfSolution> for AcopfSummary {
    fn from(sol: &AcopfSolution) -> AcopfSummary {
        let mut largest_units_mw = sol.gen_dispatch_mw.clone();
        largest_units_mw.sort_by(|a, b| b.total_cmp(a));
        largest_units_mw.truncate(5);
        AcopfSummary {
            case_name: sol.case_name.clone(),
            solved: sol.solved,
            objective_cost: sol.objective_cost,
            total_generation_mw: sol.total_generation_mw,
            total_load_mw: sol.total_load_mw,
            losses_mw: sol.losses_mw,
            min_voltage_pu: sol.min_voltage_pu,
            max_voltage_pu: sol.max_voltage_pu,
            max_thermal_loading_pct: sol.max_thermal_loading_pct,
            iterations: sol.iterations,
            binding_constraints: sol.binding_constraints,
            power_balance_error_mw: sol.power_balance_error_mw(),
            n_generators: sol.gen_dispatch_mw.len(),
            largest_units_mw,
            lmp_min: sol.bus_lmp.iter().cloned().fold(f64::INFINITY, f64::min),
            lmp_max: sol
                .bus_lmp
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

tool_output! {
    /// A freshly solved and scored dispatch — the part every solving
    /// tool's result extends.
    pub struct Dispatch {
        ..summary: AcopfSummary,
        ..degraded: Degraded,
        quality_overall: f64 = "0-10 solution quality score" in 0.0..=10.0,
    }
}

tool_output! {
    /// Result of `solve_acopf_case`.
    pub struct SolveResult {
        ..dispatch: Dispatch,
        identification_confidence: f64 = "confidence (0-1) that the case name was understood",
        network_summary: CaseSummary = "inventory of the solved case",
    }
}

tool_output! {
    /// Result of `modify_bus_load`, and the part `modify_gen_limits`
    /// extends: the re-solved dispatch against the session's last one.
    pub struct EditResult {
        ..dispatch: Dispatch,
        previous_cost: Option<f64> = "cost of the session's last ACOPF before the change ($/h); absent when there was none",
        cost_delta: Option<f64> = "cost change against previous_cost ($/h)",
        modified_bus: u32 = "external bus number that was edited",
    }
}

tool_output! {
    /// Result of `modify_gen_limits`.
    pub struct GenLimitsResult {
        ..edit: EditResult,
        units_modified: usize = "units at the bus whose limits changed",
    }
}

tool_output! {
    /// Result of `solve_security_constrained`.
    pub struct ScopfResult {
        ..dispatch: Dispatch,
        economic_cost: f64 = "unconstrained economic optimum ($/h)",
        security_premium: f64 = "cost of security over the economic optimum ($/h)",
        n_security_constraints: usize = "screened post-contingency flow constraints",
    }
}

tool_output! {
    /// `get_network_status` with no case loaded.
    pub struct NoCase {
        has_active_case: bool = "whether a case is loaded (false here)",
        message: String = "what to do about it",
    }
}

tool_output! {
    /// `get_network_status` with a case loaded.
    pub struct ActiveStatus {
        has_active_case: bool = "whether a case is loaded (true here)",
        active_case: String = "canonical name of the active case",
        network_summary: CaseSummary = "inventory of the current network",
        modifications: Vec<String> = "applied modifications, chronological",
        has_solution: bool = "whether the session holds an ACOPF solution",
        solution_stale: bool = "whether that solution predates the latest modification",
        solution: Option<AcopfSummary> = "the session's last ACOPF solution",
    }
}

tool_output! {
    /// Result of `get_network_status`.
    pub enum NetworkStatus {
        /// A case is loaded.
        Active(ActiveStatus),
        /// Nothing is loaded yet.
        Empty(NoCase),
    }
}

/// Reports a solved dispatch's score, deposits the dispatch as the
/// session's ACOPF artifact and renders it, carrying the recovery caveat
/// when a fallback rung produced the numbers.
fn publish_solution(
    session: &SharedSession,
    clock: &VirtualClock,
    sol: &AcopfSolution,
    quality: &SolutionQuality,
    degraded_caveat: Option<String>,
) -> Dispatch {
    quality::publish(quality);
    session.put_acopf(sol.clone(), clock.now());
    Dispatch {
        summary: sol.into(),
        degraded: Degraded { degraded_caveat },
        quality_overall: quality.overall_score,
    }
}

/// Cost of the session's last ACOPF, stale or not — the baseline an
/// edit's `cost_delta` is measured against, if there is one.
fn previous_cost(session: &SharedSession) -> Option<f64> {
    session.any_acopf().map(|(s, _)| s.objective_cost)
}

/// Re-solves the ACOPF on the session's just-edited network and reports
/// it against `previous_cost`.
fn resolve_edit(
    session: &SharedSession,
    clock: &VirtualClock,
    modified_bus: u32,
    previous_cost: Option<f64>,
    what: &str,
) -> Result<EditResult, DomainError> {
    let net = session.current_network()?;
    let (scored, degraded) = solve_acopf_recovered(
        session.solver_cache.as_ref(),
        &net,
        &AcopfOptions::default(),
    )
    .map_err(|e| DomainError::from(e).during(what))?;
    let sol = &scored.solution;
    Ok(EditResult {
        dispatch: publish_solution(session, clock, sol, &scored.quality, degraded),
        previous_cost,
        cost_delta: previous_cost.map(|before| sol.objective_cost - before),
        modified_bus,
    })
}

/// Loads `case_name` when the call names one, then hands back the
/// session's current network.
pub(crate) fn network_for(
    session: &SharedSession,
    case_name: Option<&str>,
) -> Result<Snapshot, DomainError> {
    if let Some(name) = case_name {
        session.load_case(name)?;
    }
    Ok(session.current_network()?)
}

/// `solve_acopf_case` — load and solve an IEEE case.
pub fn solve_acopf_case_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        "solve_acopf_case",
        "Load a standard IEEE test case (14, 30, 57, 118, 300 bus) and solve the AC optimal \
         power flow, returning cost, dispatch, voltages, and loading.",
        move |args: SolveCase| -> Result<SolveResult, DomainError> {
            let (net, confidence) = session.load_case(&args.case_name)?;
            let (scored, degraded) = solve_acopf_recovered(
                session.solver_cache.as_ref(),
                &net,
                &AcopfOptions::default(),
            )?;
            Ok(SolveResult {
                dispatch: publish_solution(
                    &session,
                    &clock,
                    &scored.solution,
                    &scored.quality,
                    degraded,
                ),
                identification_confidence: confidence,
                network_summary: CaseSummary::from(&*net),
            })
        },
    )
}

/// `modify_bus_load` — change a bus load and re-solve.
pub fn modify_bus_load_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        "modify_bus_load",
        "Set the active (and optionally reactive) demand at a bus of the active case, then \
         re-solve the ACOPF and report the economic impact.",
        move |LoadEdit {
                  bus_id,
                  p_mw,
                  q_mvar,
              }|
              -> Result<EditResult, DomainError> {
            let before = previous_cost(&session);
            session.apply(Modification::SetBusLoad {
                bus_id,
                p_mw,
                q_mvar,
            })?;
            resolve_edit(
                &session,
                &clock,
                bus_id,
                before,
                "re-solve after modification failed",
            )
        },
    )
}

/// `modify_gen_limits` — change a unit's active power limits and
/// re-solve (Fig. 4 capability 2: "modifying system parameters (loads,
/// generation limits, etc.) and re-solving").
pub fn modify_gen_limits_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        "modify_gen_limits",
        "Set the active power limits of the generator(s) at a bus of the active case, then \
         re-solve the ACOPF and report the economic impact.",
        move |GenLimitsEdit {
                  bus_id,
                  p_min_mw,
                  p_max_mw,
              }|
              -> Result<GenLimitsResult, DomainError> {
            let net0 = session.current_network()?;
            let bus = net0.bus_index(bus_id).ok_or_else(|| {
                DomainError::new(
                    ErrorCode::UnknownBus,
                    format!("bus {bus_id} does not exist in {}", net0.name),
                )
            })?;
            let gens: Vec<usize> = net0
                .gens
                .iter()
                .enumerate()
                .filter(|(_, g)| g.bus == bus)
                .map(|(i, _)| i)
                .collect();
            if gens.is_empty() {
                return Err(DomainError::new(
                    ErrorCode::UnknownElement,
                    format!("bus {bus_id} hosts no generator"),
                ));
            }
            let before = previous_cost(&session);
            for &index in &gens {
                session.apply(Modification::SetGenLimits {
                    index,
                    p_min_mw,
                    p_max_mw,
                })?;
            }
            Ok(GenLimitsResult {
                edit: resolve_edit(
                    &session,
                    &clock,
                    bus_id,
                    before,
                    "re-solve after limit change failed",
                )?,
                units_modified: gens.len(),
            })
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
        "solve_security_constrained",
        "Solve the preventive security-constrained OPF (SCOPF) for the active case: the \
         cheapest dispatch whose LODF-estimated post-contingency flows respect emergency \
         ratings. Reports the security premium over the economic dispatch.",
        move |args: CaseChoice| -> Result<ScopfResult, DomainError> {
            let net = network_for(&session, args.case_name.as_deref())?;
            let (scored, degraded) = solve_scopf_recovered(
                session.solver_cache.as_ref(),
                &net,
                &ScopfOptions::default(),
            )?;
            let scopf = &scored.solution;
            Ok(ScopfResult {
                dispatch: publish_solution(
                    &session,
                    &clock,
                    &scopf.solution,
                    &scored.quality,
                    degraded,
                ),
                economic_cost: scopf.economic_cost,
                security_premium: scopf.security_premium,
                n_security_constraints: scopf.n_security_constraints,
            })
        },
    )
}

/// `get_network_status` — current network and solution status.
pub fn get_network_status_tool(session: SharedSession, _clock: VirtualClock) -> FnTool {
    FnTool::new(
        "get_network_status",
        "Report the active case, applied modifications, and whether a fresh ACOPF solution \
         exists.",
        move |()| -> Result<NetworkStatus, DomainError> {
            let Some(active_case) = session.active_case() else {
                return Ok(NetworkStatus::Empty(NoCase {
                    has_active_case: false,
                    message: "no case loaded yet".into(),
                }));
            };
            let net = session.current_network()?;
            let last = session.any_acopf();
            Ok(NetworkStatus::Active(ActiveStatus {
                has_active_case: true,
                active_case,
                network_summary: CaseSummary::from(&*net),
                modifications: session.diff_descriptions(),
                has_solution: last.is_some(),
                solution_stale: last.as_ref().is_some_and(|(_, stale)| *stale),
                solution: last.map(|(sol, _)| AcopfSummary::from(&sol)),
            }))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionContext;
    use gm_agents::{ToolError, ToolRegistry};
    use serde_json::json;

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
    fn an_all_negative_price_vector_spans_its_own_extremes() {
        let net = gm_network::library::case(gm_network::CaseId::Ieee14);
        let mut sol = gm_acopf::solve_acopf(&net, &AcopfOptions::default()).unwrap();
        sol.bus_lmp = vec![-3.0, -1.5, -7.25];
        let summary = AcopfSummary::from(&sol);
        assert_eq!((summary.lmp_min, summary.lmp_max), (-7.25, -1.5));
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
        let (session, reg) = registry();
        reg.invoke("solve_acopf_case", &json!({"case_name": "case14"}))
            .unwrap();
        for (args, field, bound) in [
            (json!({"bus_id": 1, "p_mw": -5.0}), "p_mw", "[0, 100000]"),
            // 2^32 + 10: read as `u64 as u32`, it used to edit bus 10.
            (
                json!({"bus_id": 4_294_967_306u64, "p_mw": 50}),
                "bus_id",
                "[1, 4294967295]",
            ),
        ] {
            let err = reg.invoke("modify_bus_load", &args).unwrap_err();
            assert!(matches!(err, ToolError::InvalidArgs { .. }), "{err}");
            assert_eq!(err.code(), Some(ErrorCode::BadArgument));
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("$.{field}")) && msg.contains(bound),
                "{msg}"
            );
            assert!(
                session.diff_descriptions().is_empty(),
                "{args} edited the case"
            );
        }
    }
}
