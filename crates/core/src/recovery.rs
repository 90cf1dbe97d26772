//! Solver recovery ladder: graceful degradation for the tool boundary.
//!
//! When a primary solver call fails with a *numerical* error (Newton
//! divergence, singular factorization, IPM barrier stall), the tools do
//! not surface the raw failure to the planner. Instead they walk a fixed
//! ladder of progressively cruder but more robust methods:
//!
//! 1. **Newton, warm/cached** — the ordinary path through
//!    [`crate::solver_cache`].
//! 2. **Newton flat-start with Iwamoto damping** and a doubled iteration
//!    budget: discards a possibly poisoned warm start.
//! 3. **Fast-decoupled (XB)** without Q-limit enforcement: linearly
//!    convergent but far less start-point sensitive.
//! 4. **DC approximation** (lossless, flat voltage): always solvable on
//!    a connected network.
//!
//! Four ladders live here, one per solver entry the tools use:
//! [`solve_base_recovered`] (the rungs above), `run_n1_recovered` (the
//! N-1 sweep re-run from a base case rebuilt down the same rungs),
//! [`solve_acopf_recovered`] (interior point → DC OPF) and
//! [`solve_scopf_recovered`] (constrained → unconstrained dispatch). No
//! tool carries a ladder of its own.
//!
//! Every rung is recorded as a `recovery.*` telemetry counter, and any
//! answer produced below rung 1 carries an explicit caveat string that
//! the planners must surface verbatim in the narration — a degraded
//! answer is **never** silently substituted for a converged one.
//!
//! Invariant relied on by the determinism/bench gates: when the primary
//! call succeeds (the universal case without fault injection), this
//! module adds *zero* work, *zero* counters, and returns the primary
//! result unchanged — and fallback results are never written back into
//! the shared solver cache, so a degraded answer cannot leak into later
//! sessions as a cache hit.
//!
//! Validation errors ([`PfError::InvalidNetwork`] /
//! [`AcopfError::InvalidNetwork`]) are *not* recoverable by switching
//! algorithms and pass through untouched.

use crate::solver_cache::{memoized, SharedSolverCache};
use gm_acopf::{
    solve_acopf, solve_dcopf, solve_scopf, AcopfError, AcopfOptions, AcopfSolution, BranchLoading,
    IpmOptions, ScopfOptions, ScopfSolution,
};
use gm_contingency::{run_n1_cached, solve_base, CaOptions, ContingencyCache, ContingencyReport};
use gm_network::{Network, Snapshot};
use gm_powerflow::types::{BranchFlow, BusResult, GenResult, InitStrategy, PfError, PfOptions};
use gm_powerflow::PfReport;

/// Marker every degraded-answer caveat starts with. The planners append
/// caveat lines verbatim, and the serve-layer chaos gate greps responses
/// for this prefix to pair degraded answers with `recovery.*` counters.
pub const CAVEAT_PREFIX: &str = "CAVEAT (degraded result):";

/// Renders the caveat for an answer served by a fallback rung.
///
/// The wording contract (see DESIGN.md, fault-model appendix): the line
/// starts with [`CAVEAT_PREFIX`], names the primary method and why it
/// failed, names the fallback that produced the numbers, and flags the
/// answer as approximate.
pub fn caveat(primary: &str, reason: &str, fallback: &str) -> String {
    format!(
        "{CAVEAT_PREFIX} the {primary} failed ({reason}); this answer was \
         produced by the {fallback} fallback and should be treated as \
         approximate."
    )
}

gm_agents::tool_output! {
    /// The part of a tool result that says a fallback rung produced it.
    /// Every result that can be degraded flattens this in, and the
    /// planners surface the caveat verbatim.
    pub struct Degraded {
        degraded_caveat: Option<String> = "caveat naming the failed method and the fallback that produced these numbers",
    }
}

/// Maps an injected fault at the power-flow boundary to the solver error
/// it imitates. Non-powerflow kinds scripted at this site are ignored.
fn injected_pf_error(site: &str) -> Option<PfError> {
    match gm_faults::inject(site) {
        Some(gm_faults::FaultKind::NewtonDiverge) => Some(PfError::Diverged {
            iterations: 0,
            mismatch_pu: f64::INFINITY,
        }),
        Some(gm_faults::FaultKind::LuSingular) => Some(PfError::SingularJacobian { iteration: 0 }),
        _ => None,
    }
}

/// Whether a power-flow error is a numerical failure the ladder can
/// recover from (as opposed to a malformed network).
fn pf_recoverable(e: &PfError) -> bool {
    matches!(
        e,
        PfError::Diverged { .. } | PfError::SingularJacobian { .. }
    )
}

/// The descent both power-flow ladders share. Consults the `pf.base`
/// fault site, runs `primary`, and on a recoverable failure counts the
/// attempt, walks [`pf_ladder`] for a base case and hands it to
/// `rebuild` to produce the degraded answer. A clean primary returns
/// untouched, with no caveat and no counter.
fn descend_pf<T>(
    net: &Network,
    pf: &PfOptions,
    primary: impl FnOnce() -> Result<T, PfError>,
    rebuild: impl FnOnce(PfReport) -> Result<T, PfError>,
) -> Result<(T, Option<String>), PfError> {
    let primary = match injected_pf_error("pf.base") {
        Some(e) => Err(e),
        None => primary(),
    };
    let err = match primary {
        Ok(out) => return Ok((out, None)),
        Err(e) if pf_recoverable(&e) => e,
        Err(e) => return Err(e),
    };
    gm_telemetry::counter_add("recovery.attempts", 1);
    gm_telemetry::flight_event("recovery.descent", format!("ladder=pf reason={err}"));
    match pf_ladder(net, pf, &err.to_string()) {
        Some((rep, cav)) => Ok((rebuild(rep)?, Some(cav))),
        None => Err(err),
    }
}

/// Base-case power flow with the full recovery ladder.
///
/// Returns the report plus `Some(caveat)` when a fallback rung produced
/// it. The fallback result is *not* written to the shared cache.
pub fn solve_base_recovered(
    cache: Option<&SharedSolverCache>,
    net: &Snapshot,
    opts: &CaOptions,
) -> Result<(PfReport, Option<String>), PfError> {
    descend_pf(
        net,
        &opts.pf,
        || memoized(cache, net, opts.fingerprint(), || solve_base(net, opts)),
        Ok,
    )
}

/// N-1 sweep with the recovery ladder under its base case.
///
/// The primary sweep warm-starts from `base` (the session's fresh base
/// case, if any) and reads and writes the per-outage cache `outages`
/// under the hash `net` carries — a key cannot describe any network but
/// the one swept. If its base solve fails numerically — or a `pf.base`
/// fault imitates that, bypassing the warm start too — the base case is
/// rebuilt down the ladder and the sweep re-run from it, bypassing both
/// caches so approximate outcomes can never be recalled as exact ones.
pub(crate) fn run_n1_recovered(
    cache: Option<&SharedSolverCache>,
    net: &Snapshot,
    opts: &CaOptions,
    base: Option<&PfReport>,
    outages: &ContingencyCache,
) -> Result<(ContingencyReport, Option<String>), PfError> {
    descend_pf(
        net,
        &opts.pf,
        // On a shared-cache miss the sweep still runs against the
        // per-outage cache.
        || {
            memoized(cache, net, opts.fingerprint(), || {
                run_n1_cached(net, opts, base, Some((outages, net.content_hash())))
            })
        },
        |rebuilt| run_n1_cached(net, opts, Some(&rebuilt), None),
    )
}

/// Rungs 2–4 of the power-flow ladder (the primary attempt has already
/// failed with `reason`). Returns the recovered report and its caveat,
/// or `None` when every rung fails. The batch tool walks it once per
/// failed scenario and bumps `recovery.attempts` itself.
///
/// Every rung factors on the thread's engine, so the analysis the failed
/// primary attempt paid for is already there: the flat-Newton retry and
/// the FDLF rung's Newton polish share that Jacobian pattern, and the DC
/// rung's `B'` outlives the ladder.
pub(crate) fn pf_ladder(net: &Network, pf: &PfOptions, reason: &str) -> Option<(PfReport, String)> {
    // Rung 2: flat-start damped Newton, doubled budget. An injected
    // `pf.retry` fault forces the ladder past this rung.
    if gm_faults::inject("pf.retry").is_none() {
        let retry = PfOptions {
            init: InitStrategy::Flat,
            iwamoto_damping: true,
            max_iter: pf.max_iter.saturating_mul(2),
            ..pf.clone()
        };
        if let Ok(rep) = gm_powerflow::solve_from(net, &retry, None) {
            gm_telemetry::counter_add("recovery.newton_flat", 1);
            return Some((
                rep,
                caveat(
                    "warm-start Newton power flow",
                    reason,
                    "flat-start damped Newton",
                ),
            ));
        }
    }

    // Rung 3: fast-decoupled without Q-limit juggling.
    if gm_faults::inject("pf.retry.fdlf").is_none() {
        let fd = PfOptions {
            enforce_q_limits: false,
            max_iter: pf.max_iter.max(30).saturating_mul(2),
            ..pf.clone()
        };
        if let Ok(rep) = gm_powerflow::solve_fast_decoupled(net, &fd) {
            gm_telemetry::counter_add("recovery.fdlf", 1);
            return Some((
                rep,
                caveat(
                    "Newton power flow",
                    reason,
                    "fast-decoupled power flow (Q-limits not enforced)",
                ),
            ));
        }
    }

    // Rung 4: DC approximation — report synthesized at flat voltage.
    match gm_powerflow::solve_dc(net) {
        Ok(dc) => {
            gm_telemetry::counter_add("recovery.dc", 1);
            Some((
                dc_to_pf_report(net, &dc),
                caveat(
                    "AC power flow",
                    reason,
                    "DC approximation (lossless, flat voltage; reactive \
                     quantities unavailable)",
                ),
            ))
        }
        Err(_) => None,
    }
}

/// Lifts a DC solution into the `PfReport` shape the tools and session
/// artifacts expect. Voltages are flat by construction, reactive
/// quantities zero, and losses zero (the DC model is lossless).
fn dc_to_pf_report(net: &Network, dc: &gm_powerflow::DcReport) -> PfReport {
    let (p_mw, _) = net.scheduled_injections();
    let buses: Vec<BusResult> = net
        .buses
        .iter()
        .enumerate()
        .map(|(i, b)| BusResult {
            id: b.id,
            vm_pu: 1.0,
            va_deg: dc.theta_rad.get(i).copied().unwrap_or(0.0).to_degrees(),
            p_mw: p_mw.get(i).copied().unwrap_or(0.0),
            q_mvar: 0.0,
        })
        .collect();
    let branches: Vec<BranchFlow> = net
        .branches
        .iter()
        .enumerate()
        .map(|(i, br)| {
            let flow = dc.flow_mw.get(i).copied().unwrap_or(0.0);
            BranchFlow {
                index: i,
                p_from_mw: flow,
                q_from_mvar: 0.0,
                p_to_mw: -flow,
                q_to_mvar: 0.0,
                loading_pct: if br.rating_mva > 0.0 {
                    100.0 * flow.abs() / br.rating_mva
                } else {
                    0.0
                },
            }
        })
        .collect();
    let slack = net.slack();
    let gens: Vec<GenResult> = net
        .gens
        .iter()
        .enumerate()
        .map(|(i, g)| GenResult {
            index: i,
            p_mw: if Some(g.bus) == slack {
                dc.slack_p_mw
            } else {
                g.p_mw
            },
            q_mvar: 0.0,
            at_q_limit: false,
        })
        .collect();
    let first_id = buses.first().map(|b| b.id).unwrap_or(0);
    let max_loading = branches
        .iter()
        .filter(|f| f.loading_pct > 0.0)
        .max_by(|a, b| a.loading_pct.total_cmp(&b.loading_pct))
        .map(|f| (f.loading_pct, f.index))
        .unwrap_or((0.0, usize::MAX));
    PfReport {
        converged: true,
        iterations: 0,
        q_limit_rounds: 0,
        max_mismatch_pu: 0.0,
        mismatch_history: Vec::new(),
        multipliers: Vec::new(),
        buses,
        branches,
        gens,
        losses_mw: 0.0,
        min_vm: (1.0, first_id),
        max_vm: (1.0, first_id),
        max_loading,
    }
}

/// ACOPF with the recovery ladder: interior point → DC OPF.
///
/// The degraded solution keeps the wire shape (`AcopfSolution`) the
/// tools narrate from: flat voltages, zero LMPs (the DC dual is not
/// comparable), zero losses, and a convergence message naming the
/// fallback.
pub fn solve_acopf_recovered(
    cache: Option<&SharedSolverCache>,
    net: &Snapshot,
    opts: &AcopfOptions,
) -> Result<(AcopfSolution, Option<String>), AcopfError> {
    let primary = match gm_faults::inject("acopf.ipm") {
        Some(gm_faults::FaultKind::IpmStall) => Err(AcopfError::NotConverged {
            iterations: 0,
            feascond: f64::INFINITY,
            message: "barrier stall: complementarity gap stopped shrinking".into(),
        }),
        _ => memoized(cache, net, opts.fingerprint(), || solve_acopf(net, opts)),
    };
    let err = match primary {
        Ok(sol) => return Ok((sol, None)),
        Err(e @ AcopfError::InvalidNetwork { .. }) => return Err(e),
        Err(e) => e,
    };
    gm_telemetry::counter_add("recovery.attempts", 1);
    let reason = err.to_string();
    gm_telemetry::flight_event("recovery.descent", format!("ladder=acopf reason={reason}"));
    match solve_dcopf(net, &IpmOptions::default()) {
        Ok(dc) => {
            gm_telemetry::counter_add("recovery.dcopf", 1);
            let sol = dcopf_to_acopf_solution(net, &dc);
            Ok((
                sol,
                Some(caveat(
                    "AC optimal power flow",
                    &reason,
                    "DC optimal power flow (lossless; voltages flat, LMPs \
                     unavailable)",
                )),
            ))
        }
        Err(_) => Err(err),
    }
}

/// Lifts a DC OPF solution into the `AcopfSolution` wire shape.
fn dcopf_to_acopf_solution(net: &Network, dc: &gm_acopf::DcOpfSolution) -> AcopfSolution {
    let n = net.n_bus();
    let branch_loading: Vec<BranchLoading> = net
        .branches
        .iter()
        .enumerate()
        .map(|(i, br)| {
            let flow = dc.flow_mw.get(i).copied().unwrap_or(0.0);
            BranchLoading {
                index: i,
                s_mva: flow.abs(),
                loading_pct: if br.rating_mva > 0.0 {
                    100.0 * flow.abs() / br.rating_mva
                } else {
                    0.0
                },
                p_from_mw: flow,
            }
        })
        .collect();
    let max_thermal_loading_pct = branch_loading
        .iter()
        .map(|b| b.loading_pct)
        .fold(0.0f64, f64::max);
    let total_generation_mw: f64 = dc.gen_dispatch_mw.iter().sum();
    AcopfSolution {
        case_name: net.name.clone(),
        solved: true,
        objective_cost: dc.objective_cost,
        gen_dispatch_mw: dc.gen_dispatch_mw.clone(),
        gen_dispatch_mvar: vec![0.0; net.gens.len()],
        bus_vm_pu: vec![1.0; n],
        bus_va_deg: dc.bus_va_deg.clone(),
        bus_lmp: vec![0.0; n],
        branch_loading,
        min_voltage_pu: 1.0,
        max_voltage_pu: 1.0,
        max_thermal_loading_pct,
        total_generation_mw,
        total_load_mw: net.total_load_mw(),
        losses_mw: 0.0,
        iterations: dc.iterations,
        solve_time_s: 0.0,
        convergence_message: "DC OPF fallback (primary ACOPF did not converge)".into(),
        binding_constraints: 0,
    }
}

/// SCOPF with the recovery ladder: on a numerical failure the tool falls
/// back to the *unconstrained* ACOPF ladder and reports a zero security
/// premium — with a caveat making the missing security enforcement
/// explicit.
pub fn solve_scopf_recovered(
    cache: Option<&SharedSolverCache>,
    net: &Snapshot,
    opts: &ScopfOptions,
) -> Result<(ScopfSolution, Option<String>), AcopfError> {
    let err = match memoized(cache, net, opts.fingerprint(), || solve_scopf(net, opts)) {
        Ok(s) => return Ok((s, None)),
        Err(e @ AcopfError::InvalidNetwork { .. }) => return Err(e),
        Err(e) => e,
    };
    gm_telemetry::counter_add("recovery.attempts", 1);
    let reason = err.to_string();
    gm_telemetry::flight_event("recovery.descent", format!("ladder=scopf reason={reason}"));
    let (sol, inner) = solve_acopf_recovered(cache, net, &opts.acopf)?;
    gm_telemetry::counter_add("recovery.scopf_unconstrained", 1);
    let cost = sol.objective_cost;
    let scopf = ScopfSolution {
        solution: sol,
        economic_cost: cost,
        security_premium: 0.0,
        n_security_constraints: 0,
    };
    let mut text = caveat(
        "security-constrained OPF",
        &reason,
        "unconstrained economic dispatch (post-contingency security NOT \
         enforced)",
    );
    if let Some(inner) = inner {
        text.push(' ');
        text.push_str(&inner);
    }
    Ok((scopf, Some(text)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver_cache::SolverCache;
    use gm_faults::{FaultInjector, FaultKind, FaultRule};
    use gm_network::{library, CaseId};

    fn net14() -> Snapshot {
        library::case(CaseId::Ieee14)
    }

    #[test]
    fn no_fault_means_no_caveat_and_no_counters() {
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        let (rep, cav) = solve_base_recovered(None, &net14(), &CaOptions::default()).unwrap();
        assert!(rep.converged);
        assert!(cav.is_none());
        let (sol, cav) = solve_acopf_recovered(None, &net14(), &AcopfOptions::default()).unwrap();
        assert!(sol.solved);
        assert!(cav.is_none());
        assert_eq!(reg.counter_value("recovery.attempts"), 0);
    }

    #[test]
    fn injected_divergence_recovers_via_flat_newton() {
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        let inj = FaultInjector::scripted(vec![FaultRule::new(
            "pf.base",
            FaultKind::NewtonDiverge,
            0,
            1,
        )]);
        let _g = inj.install();
        let (rep, cav) = solve_base_recovered(None, &net14(), &CaOptions::default()).unwrap();
        assert!(rep.converged);
        let cav = cav.expect("fallback answers must carry a caveat");
        assert!(cav.starts_with(CAVEAT_PREFIX), "{cav}");
        assert!(cav.contains("flat-start damped Newton"), "{cav}");
        assert_eq!(reg.counter_value("recovery.attempts"), 1);
        assert_eq!(reg.counter_value("recovery.newton_flat"), 1);
    }

    #[test]
    fn ladder_descends_to_fdlf_and_dc_when_rungs_are_skipped() {
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        // First call: kill the warm start and the flat-Newton rung.
        let inj = FaultInjector::scripted(vec![
            FaultRule::new("pf.base", FaultKind::LuSingular, 0, 2),
            FaultRule::new("pf.retry", FaultKind::NewtonDiverge, 0, 2),
            FaultRule::new("pf.retry.fdlf", FaultKind::NewtonDiverge, 1, 1),
        ]);
        let _g = inj.install();
        let (rep, cav) = solve_base_recovered(None, &net14(), &CaOptions::default()).unwrap();
        assert!(rep.converged);
        assert!(cav.unwrap().contains("fast-decoupled"), "rung 3 expected");
        // Second call: FDLF rung is skipped too → DC floor.
        let (rep, cav) = solve_base_recovered(None, &net14(), &CaOptions::default()).unwrap();
        assert!(rep.converged);
        assert_eq!(rep.losses_mw, 0.0, "DC model is lossless");
        assert_eq!(rep.min_vm.0, 1.0, "DC voltages are flat");
        let cav = cav.unwrap();
        assert!(cav.contains("DC approximation"), "{cav}");
        assert_eq!(reg.counter_value("recovery.fdlf"), 1);
        assert_eq!(reg.counter_value("recovery.dc"), 1);
        assert_eq!(reg.counter_value("recovery.attempts"), 2);
    }

    #[test]
    fn ipm_stall_falls_back_to_dcopf() {
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        let inj =
            FaultInjector::scripted(vec![FaultRule::new("acopf.ipm", FaultKind::IpmStall, 0, 1)]);
        let _g = inj.install();
        let net = net14();
        let (sol, cav) = solve_acopf_recovered(None, &net, &AcopfOptions::default()).unwrap();
        assert!(sol.solved);
        assert!(sol.objective_cost > 0.0);
        assert_eq!(sol.losses_mw, 0.0);
        assert_eq!(sol.bus_lmp, vec![0.0; net.n_bus()]);
        let cav = cav.expect("DC OPF answers must be caveated");
        assert!(cav.starts_with(CAVEAT_PREFIX), "{cav}");
        assert!(cav.contains("barrier stall"), "{cav}");
        assert_eq!(reg.counter_value("recovery.dcopf"), 1);
        // The degraded solution still balances generation against load.
        assert!(sol.power_balance_error_mw().abs() < 1.0);
    }

    #[test]
    fn fallback_is_not_written_to_the_shared_cache() {
        let net = net14();
        let cache = SolverCache::new(8);
        let inj = FaultInjector::scripted(vec![FaultRule::new(
            "pf.base",
            FaultKind::NewtonDiverge,
            0,
            1,
        )]);
        let g = inj.install();
        let (_, cav) = solve_base_recovered(Some(&cache), &net, &CaOptions::default()).unwrap();
        assert!(cav.is_some());
        drop(g);
        assert!(
            cache.is_empty(),
            "a degraded answer must never seed the shared cache"
        );
        // The next (fault-free) call computes and caches the real answer.
        let (rep, cav) = solve_base_recovered(Some(&cache), &net, &CaOptions::default()).unwrap();
        assert!(cav.is_none());
        assert!(rep.losses_mw > 0.0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn invalid_network_is_not_recovered() {
        let mut net = Network::clone(&net14());
        for b in &mut net.buses {
            b.kind = gm_network::BusKind::Pq; // no slack anywhere
        }
        let err =
            solve_base_recovered(None, &Snapshot::new(net), &CaOptions::default()).unwrap_err();
        assert!(matches!(err, PfError::InvalidNetwork { .. }));
    }
}
