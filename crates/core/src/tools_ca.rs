//! The contingency analysis agent's function tools (Appendix B.3.2):
//! `solve_base_case`, `run_n1_contingency_analysis`,
//! `analyze_specific_contingency`, `get_contingency_status`.
//!
//! Each tool's result type is declared here once with [`tool_output!`];
//! the registry validates against the schema that declaration generates
//! and the planner narrates from the same type.

use crate::failure::DomainError;
use crate::recovery::{run_n1_recovered, solve_base_recovered, Degraded};
use crate::session::SharedSession;
use crate::tools_acopf::{network_for, CaseChoice, CaseSummary};
use gm_agents::{tool_output, ErrorCode, FnTool, VirtualClock};
use gm_contingency::{
    evaluate_outage, run_gen_n1, CaOptions, ContingencyReport, Outage, RankingStrategy, SweepMode,
    Violation,
};
use gm_network::{BranchKind, Snapshot};
use gm_powerflow::{PfError, PfReport};

tool_output! {
    /// How `run_n1_contingency_analysis` ranks outages
    /// ([`RankingStrategy`]).
    pub enum Ranking {
        Composite = "composite",
        OverloadFirst = "overload_first",
        VoltageFirst = "voltage_first",
    }
}

tool_output! {
    /// The fidelity of an N-1 sweep ([`SweepMode`]; `full` is
    /// [`SweepMode::Brute`]).
    pub enum Sweep {
        Cascade = "cascade",
        Full = "full",
    }
}

tool_output! {
    /// Arguments of `run_n1_contingency_analysis`.
    pub struct N1Args {
        strategy: Option<Ranking> = "criticality ranking strategy",
        top_k: Option<usize> = "ranking entries to include (default 10)" in 1..=50,
        mode: Option<Sweep> = "cascade (default): DC screening with compensated AC verification of \
                               suspects; full: brute AC sweep of every outage",
    }
}

tool_output! {
    /// The kind of branch `analyze_specific_contingency` takes out
    /// ([`BranchKind`]).
    pub enum ElementKind {
        Line = "line",
        Trafo = "trafo",
    }
}

tool_output! {
    /// Arguments of `analyze_specific_contingency`.
    pub struct SpecificArgs {
        element: ElementKind = "element kind",
        index: usize = "kind-relative element index",
    }
}

tool_output! {
    /// Arguments of `run_generator_contingency_analysis`.
    pub struct GenN1Args {
        top_k: Option<usize> = "entries to report (default 5)" in 1..=20,
    }
}

tool_output! {
    /// Result of `solve_base_case`.
    pub struct BaseCaseResult {
        ..degraded: Degraded,
        converged: bool = "power flow convergence",
        iterations: usize = "Newton iterations",
        losses_mw: f64 = "network losses (MW)",
        min_voltage_pu: f64 = "lowest bus voltage (p.u.)",
        min_voltage_bus: u32 = "bus with the lowest voltage",
        max_voltage_pu: f64 = "highest bus voltage (p.u.)",
        max_loading_pct: f64 = "worst branch loading (% of rating)",
        total_load_mw: f64 = "system demand (MW)",
        network_summary: CaseSummary = "inventory of the solved network",
    }
}

tool_output! {
    /// One ranked outage of an N-1 report.
    pub struct RankingRow {
        rank: usize = "rank, 0 = most critical",
        label: String = "element label, e.g. 'line 6' or 'trafo 0'",
        score: f64 = "criticality score (higher = worse)",
        justification: String = "why it ranks here, grounded in the solver outputs",
        max_loading_pct: f64 = "worst post-outage branch loading (%)",
        min_voltage_pu: f64 = "lowest post-outage voltage (p.u.)",
        min_voltage_bus: u32 = "bus with the lowest post-outage voltage",
        n_thermal: usize = "thermal overloads",
        n_voltage: usize = "voltage violations",
        islands: bool = "whether the outage splits the network",
        load_shed_mw: f64 = "load stranded by the split (MW)",
    }
}

tool_output! {
    /// Result of `run_n1_contingency_analysis`: sweep statistics and the
    /// top of the ranking.
    pub struct N1Report {
        ..degraded: Degraded,
        case_name: String = "case identifier",
        n_contingencies: usize = "outages analyzed",
        n_lines: usize = "line outages analyzed",
        n_trafos: usize = "transformer outages analyzed",
        total_violations: usize = "violation occurrences across all outages",
        outages_with_overloads: usize = "outages causing a thermal overload",
        outages_with_voltage_issues: usize = "outages causing a voltage violation",
        max_overload_pct: f64 = "worst post-contingency loading (%)",
        voltage_band: [f64; 2] = "voltage band violations are counted against (p.u.)",
        sweep_time_s: f64 = "sweep wall time (s)",
        mode: String = "sweep fidelity: cascade (DC screen + AC verification) or brute",
        screened_out: usize = "outages classified secure from the DC screen alone",
        ac_verified: usize = "outages verified with an AC solve",
        ranking: Vec<RankingRow> = "most critical outages first",
    }
}

impl N1Report {
    /// Wire summary of `rep` with the top-`k` ranking expanded.
    pub fn new(rep: &ContingencyReport, k: usize, degraded_caveat: Option<String>) -> N1Report {
        let ranking = rep.ranking.iter().take(k).map(|r| {
            let o = &rep.outcomes[r.outcome_index];
            RankingRow {
                rank: r.rank,
                label: r.label.clone(),
                score: r.score,
                justification: r.justification.clone(),
                max_loading_pct: o.max_loading_pct,
                min_voltage_pu: o.min_vm.0,
                min_voltage_bus: o.min_vm.1,
                n_thermal: o.n_thermal(),
                n_voltage: o.n_voltage(),
                islands: o.islands,
                load_shed_mw: o.load_shed_mw,
            }
        });
        N1Report {
            degraded: Degraded { degraded_caveat },
            case_name: rep.case_name.clone(),
            n_contingencies: rep.n_contingencies,
            n_lines: rep.n_lines,
            n_trafos: rep.n_trafos,
            total_violations: rep.total_violations,
            outages_with_overloads: rep.outages_with_overloads,
            outages_with_voltage_issues: rep.outages_with_voltage_issues,
            max_overload_pct: rep.max_overload_pct.0,
            voltage_band: [rep.voltage_band.0, rep.voltage_band.1],
            sweep_time_s: rep.sweep_time_s,
            // The sweep's fidelity is part of the answer: a cascade
            // report says how many outages were classified from the DC
            // estimate alone versus AC-verified.
            mode: rep.mode.as_str().into(),
            screened_out: rep.screened_out,
            ac_verified: rep.ac_verified,
            ranking: ranking.collect(),
        }
    }
}

tool_output! {
    /// A branch over its thermal rating.
    pub struct BranchOverload {
        branch: usize = "branch index",
        loading_pct: f64 = "loading (% of rating)",
    }
}

tool_output! {
    /// A bus outside the voltage band.
    pub struct BusVoltage {
        bus_id: u32 = "external bus id",
        vm_pu: f64 = "voltage magnitude (p.u.)",
    }
}

tool_output! {
    /// One limit violation, keyed by its kind — exactly one member is
    /// present (the wire form of [`gm_contingency::Violation`]).
    #[allow(non_snake_case)]
    pub struct ViolationOut {
        ThermalOverload: Option<BranchOverload> = "branch loaded above its thermal rating",
        LowVoltage: Option<BusVoltage> = "bus voltage below the band",
        HighVoltage: Option<BusVoltage> = "bus voltage above the band",
    }
}

impl From<&Violation> for ViolationOut {
    fn from(v: &Violation) -> ViolationOut {
        let mut out = ViolationOut {
            ThermalOverload: None,
            LowVoltage: None,
            HighVoltage: None,
        };
        match *v {
            Violation::ThermalOverload {
                branch,
                loading_pct,
            } => {
                out.ThermalOverload = Some(BranchOverload {
                    branch,
                    loading_pct,
                })
            }
            Violation::LowVoltage { bus_id, vm_pu } => {
                out.LowVoltage = Some(BusVoltage { bus_id, vm_pu })
            }
            Violation::HighVoltage { bus_id, vm_pu } => {
                out.HighVoltage = Some(BusVoltage { bus_id, vm_pu })
            }
        }
        out
    }
}

tool_output! {
    /// Result of `analyze_specific_contingency`.
    pub struct SpecificResult {
        ..degraded: Degraded,
        label: String = "element label",
        branch_index: usize = "index of the element in the branch table",
        converged: bool = "post-outage power flow convergence",
        islands: bool = "whether the outage splits the network",
        stranded_buses: usize = "buses cut off from the reference by the split",
        load_shed_mw: f64 = "load stranded by the split (MW)",
        max_loading_pct: f64 = "worst post-outage branch loading (%)",
        min_voltage_pu: f64 = "lowest post-outage voltage (p.u.)",
        min_voltage_bus: u32 = "bus with the lowest post-outage voltage",
        n_violations: usize = "limit violations found",
        violations: Vec<ViolationOut> = "every violation in detail",
    }
}

tool_output! {
    /// One ranked unit outage.
    pub struct UnitOutageRow {
        gen: usize = "generator index",
        bus_id: u32 = "external id of the unit's bus",
        lost_mw: f64 = "lost injection: the unit's pre-outage dispatch (MW)",
        score: f64 = "system-stress score (higher = worse)",
        converged: bool = "post-outage power flow convergence",
        loses_reference: bool = "whether the outage removes the reference machine",
        n_violations: usize = "limit violations found",
        slack_pickup_mw: f64 = "what the reference had to pick up (MW)",
        min_voltage_pu: f64 = "lowest post-outage voltage (p.u.)",
    }
}

tool_output! {
    /// Result of `run_generator_contingency_analysis`.
    pub struct UnitOutageReport {
        ..degraded: Degraded,
        n_units: usize = "in-service units analyzed",
        units_not_converged: usize = "unit outages whose power flow did not converge",
        units_with_violations: usize = "unit outages causing a violation",
        ranking: Vec<UnitOutageRow> = "most critical unit outages first",
    }
}

tool_output! {
    /// `get_contingency_status` with a fresh analysis to summarize.
    pub struct FreshAnalysis {
        ..report: N1Report,
        has_analysis: bool = "fresh analysis available (true here)",
    }
}

tool_output! {
    /// `get_contingency_status` with nothing fresh.
    pub struct NoAnalysis {
        has_analysis: bool = "fresh analysis available (false here)",
        message: String = "what is missing",
    }
}

tool_output! {
    /// Result of `get_contingency_status`.
    pub enum AnalysisStatus {
        /// A report computed on the current network.
        Fresh(FreshAnalysis),
        /// No report, or a stale one.
        Absent(NoAnalysis),
    }
}

fn base_case_failed(e: PfError) -> DomainError {
    DomainError::from(e).during("base case power flow failed")
}

/// The base case an outage study starts from: the session's fresh
/// artifact when there is one, else a solve down the recovery ladder —
/// whose caveat, if any, the tool must attach to its answer.
fn base_case(
    session: &SharedSession,
    net: &Snapshot,
    opts: &CaOptions,
) -> Result<(PfReport, Option<String>), DomainError> {
    match session.fresh_base_pf() {
        Some(rep) => Ok((rep, None)),
        None => {
            solve_base_recovered(session.solver_cache.as_ref(), net, opts).map_err(base_case_failed)
        }
    }
}

/// `solve_base_case` — solve the pre-contingency power flow.
pub fn solve_base_case_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        "solve_base_case",
        "Solve the base-case AC power flow for the active case (loading a case first if \
         named), as the reference point for contingency analysis.",
        move |args: CaseChoice| -> Result<BaseCaseResult, DomainError> {
            let net = network_for(&session, args.case_name.as_deref())?;
            let opts = CaOptions::default();
            let (rep, degraded_caveat) =
                solve_base_recovered(session.solver_cache.as_ref(), &net, &opts)?;
            session.put_base_pf(rep.clone(), clock.now());
            Ok(BaseCaseResult {
                degraded: Degraded { degraded_caveat },
                converged: rep.converged,
                iterations: rep.iterations,
                losses_mw: rep.losses_mw,
                min_voltage_pu: rep.min_vm.0,
                min_voltage_bus: rep.min_vm.1,
                max_voltage_pu: rep.max_vm.0,
                max_loading_pct: rep.max_loading.0,
                total_load_mw: net.total_load_mw(),
                network_summary: CaseSummary::from(&*net),
            })
        },
    )
}

/// `run_n1_contingency_analysis` — the full T-1 sweep.
pub fn run_n1_tool(session: SharedSession, clock: VirtualClock) -> FnTool {
    FnTool::new(
        "run_n1_contingency_analysis",
        "Run the comprehensive N-1 contingency sweep over all lines and transformers of the \
         active case, returning violation statistics and the ranked critical elements.",
        move |args: N1Args| -> Result<N1Report, DomainError> {
            let net = session.current_network()?;
            let opts = CaOptions {
                strategy: match args.strategy.unwrap_or(Ranking::Composite) {
                    Ranking::Composite => RankingStrategy::Composite,
                    Ranking::OverloadFirst => RankingStrategy::OverloadFirst,
                    Ranking::VoltageFirst => RankingStrategy::VoltageFirst,
                },
                mode: match args.mode.unwrap_or(Sweep::Cascade) {
                    Sweep::Cascade => SweepMode::Cascade,
                    Sweep::Full => SweepMode::Brute,
                },
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
            Ok(N1Report::new(&rep, args.top_k.unwrap_or(10), degraded))
        },
    )
}

/// `analyze_specific_contingency` — one element in detail.
pub fn analyze_specific_tool(session: SharedSession, _clock: VirtualClock) -> FnTool {
    FnTool::new(
        "analyze_specific_contingency",
        "Analyze the outage of one named element (e.g. line 171 or trafo 0) in detail: \
         convergence, violations, worst loading and voltage.",
        move |SpecificArgs { element, index }| -> Result<SpecificResult, DomainError> {
            let net = session.current_network()?;
            // Resolve the kind-relative index to a branch index.
            let want_kind = match element {
                ElementKind::Line => BranchKind::Line,
                ElementKind::Trafo => BranchKind::Transformer,
            };
            let branch = net
                .branches
                .iter()
                .enumerate()
                .filter(|(_, b)| b.kind == want_kind)
                .nth(index)
                .map(|(bi, _)| bi)
                .ok_or_else(|| {
                    DomainError::new(
                        ErrorCode::UnknownElement,
                        format!(
                            "{} {index} does not exist in {}",
                            element.as_str(),
                            net.name
                        ),
                    )
                })?;
            let opts = CaOptions::default();
            // Warm start from the base solution.
            let (base, degraded_caveat) = base_case(&session, &net, &opts)?;
            let v0 = base.voltages();
            let outage = Outage {
                branch,
                kind: want_kind,
            };
            let o = evaluate_outage(&net, &opts, &v0, outage, index);
            Ok(SpecificResult {
                degraded: Degraded { degraded_caveat },
                label: outage.label(index),
                branch_index: branch,
                converged: o.converged,
                islands: o.islands,
                stranded_buses: o.stranded_buses,
                load_shed_mw: o.load_shed_mw,
                max_loading_pct: o.max_loading_pct,
                min_voltage_pu: o.min_vm.0,
                min_voltage_bus: o.min_vm.1,
                n_violations: o.violations.len(),
                violations: o.violations.iter().map(ViolationOut::from).collect(),
            })
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
        "run_generator_contingency_analysis",
        "Simulate the outage of every in-service generating unit of the active case: slack \
         pickup, violations, and the units whose loss stresses the system most.",
        move |args: GenN1Args| -> Result<UnitOutageReport, DomainError> {
            let net = session.current_network()?;
            let opts = CaOptions::default();
            let (base, degraded_caveat) = base_case(&session, &net, &opts)?;
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
            let ranking = scored
                .iter()
                .take(args.top_k.unwrap_or(5))
                .map(|&(score, o)| UnitOutageRow {
                    gen: o.gen,
                    bus_id: o.bus_id,
                    lost_mw: o.lost_mw,
                    score,
                    converged: o.converged,
                    loses_reference: o.loses_reference,
                    n_violations: o.violations.len(),
                    slack_pickup_mw: o.slack_pickup_mw,
                    min_voltage_pu: o.min_vm.0,
                });
            Ok(UnitOutageReport {
                degraded: Degraded { degraded_caveat },
                n_units: outcomes.len(),
                units_not_converged: outcomes.iter().filter(|o| !o.converged).count(),
                units_with_violations: outcomes.iter().filter(|o| !o.violations.is_empty()).count(),
                ranking: ranking.collect(),
            })
        },
    )
}

/// `get_contingency_status` — cached analysis state.
pub fn get_contingency_status_tool(session: SharedSession, _clock: VirtualClock) -> FnTool {
    FnTool::new(
        "get_contingency_status",
        "Report whether a fresh contingency analysis exists for the current network state, \
         and summarize it.",
        move |()| -> Result<AnalysisStatus, DomainError> {
            Ok(match session.fresh_contingency() {
                Some(rep) => AnalysisStatus::Fresh(FreshAnalysis {
                    report: N1Report::new(&rep, 5, None),
                    has_analysis: true,
                }),
                None => AnalysisStatus::Absent(NoAnalysis {
                    has_analysis: false,
                    message: "no fresh contingency analysis for the current network state".into(),
                }),
            })
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionContext;
    use gm_agents::ToolRegistry;
    use serde_json::{json, Value};

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
