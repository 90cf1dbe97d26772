//! The N-1 sweep engine.
//!
//! Enumerates single-element outages (lines and transformers) and scans
//! each post-contingency state for thermal and voltage violations. One
//! driver ([`run_n1_cached`]) owns the base solve, the enumeration, the
//! per-outage cache, the worker pool and the report; a sweep mode is
//! nothing but the per-outage plan it hands that driver:
//!
//! - **Brute** — the all-Newton plan: one full AC power flow per outage,
//!   warm-started from the base solution with a flat-start retry on
//!   divergence (the paper's reference sweep and automatic recovery
//!   path).
//! - **Cascade** (default) — the multi-fidelity screen-then-verify plan:
//!   LODFs computed once rank every outage by DC-estimated post-outage
//!   loading; outages above the screening cutoff (plus a safety band of
//!   top-ranked ones) are AC-verified against the base-case Jacobian
//!   factorization via Woodbury compensation, with the full-Newton path
//!   as fallback when compensation is ill-conditioned, stalls, or the
//!   outage islands the network; the rest is classified from the linear
//!   estimate alone.
//!
//! The sweep is embarrassingly parallel and runs on the crate's work-claiming
//! fan-out by default; the serial path is kept for the ablation benchmark.

use crate::cache::{CacheKey, ContingencyCache};
use crate::fan_out::fan_out;
use crate::ranking::rank;
use crate::types::{
    ContingencyOutcome, ContingencyReport, Outage, RankingStrategy, SweepMode, Violation,
};
use gm_network::{topology, BranchKind, Network};
use gm_numeric::{Complex, Fnv1a};
use gm_powerflow::{solve_from, CompensationBase, PfOptions, PfReport};

/// Lower edge of the voltage band checked post-contingency (p.u.). The
/// paper uses 0.95–1.05 in its Fig. 8 transcripts.
pub const VMIN_PU: f64 = 0.95;
/// Upper edge of the voltage band (p.u.).
pub const VMAX_PU: f64 = 1.05;
/// Loading (%) above which a branch counts as overloaded.
pub const THERMAL_THRESHOLD_PCT: f64 = 100.0;
/// Cascade: an outage is a suspect when its DC-estimated worst
/// post-outage loading reaches this fraction of any rating. The 1.0
/// margin less a 0.15 safety band absorbs the DC estimate's systematic
/// underestimate of MVA loading.
pub(crate) const SCREEN_CUTOFF: f64 = 1.0 - 0.15;
/// Cascade: this many top-DC-ranked outages are AC-verified even when
/// they fall below the cutoff, so the head of the criticality ranking
/// always rests on AC solutions.
const SCREEN_TOP_K: usize = 8;

/// Sweep options. Every in-service line and transformer is swept; the
/// voltage band (0.95–1.05 p.u.), the thermal threshold (100 %) and the
/// cascade's screening cutoff (0.85 of rating, plus the 8 top-ranked
/// outages) are fixed.
#[derive(Clone, Debug)]
pub struct CaOptions {
    /// Run the sweep's jobs on the work-claiming thread pool.
    pub parallel: bool,
    /// Ranking strategy for the criticality list.
    pub strategy: RankingStrategy,
    /// Sweep fidelity mode (default: the screening cascade).
    pub mode: SweepMode,
    /// Power flow controls for the post-contingency solves.
    pub pf: PfOptions,
}

impl Default for CaOptions {
    fn default() -> Self {
        CaOptions {
            parallel: true,
            strategy: RankingStrategy::Composite,
            mode: SweepMode::Cascade,
            pf: PfOptions {
                enforce_q_limits: false,
                max_iter: 25,
                ..Default::default()
            },
        }
    }
}

impl CaOptions {
    /// Deterministic fingerprint of every sweep control that can affect
    /// the report (ranking strategy, sweep mode, inner power-flow
    /// options), for cross-session solver-cache keys (gm-serve).
    /// `parallel` is excluded because serial and parallel sweeps produce
    /// identical reports.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.u64(self.outcome_fingerprint());
        h.u64(match self.strategy {
            RankingStrategy::Composite => 0,
            RankingStrategy::OverloadFirst => 1,
            RankingStrategy::VoltageFirst => 2,
        });
        h.finish()
    }

    /// Fingerprint of the controls a single outage's outcome can depend
    /// on — the sweep `mode` and the power-flow options; `parallel` and
    /// the ranking `strategy` only schedule or order finished outcomes.
    /// The per-outage cache keys on this. The destructuring is exhaustive
    /// on purpose: a new field fails to compile here until it is folded
    /// in (or explicitly left out).
    pub(crate) fn outcome_fingerprint(&self) -> u64 {
        let CaOptions {
            parallel: _,
            strategy: _,
            mode,
            pf,
        } = self;
        let mut h = Fnv1a::new();
        h.u64(match mode {
            SweepMode::Brute => 0,
            SweepMode::Cascade => 1,
        });
        h.u64(pf.fingerprint());
        h.finish()
    }
}

/// Solves the base case (no outages) with the sweep's power flow options.
pub fn solve_base(net: &Network, opts: &CaOptions) -> Result<PfReport, gm_powerflow::PfError> {
    gm_powerflow::solve(net, &opts.pf)
}

/// Enumerates the outage targets — every in-service line and
/// transformer — with kind-relative indices (PandaPower-style "line 6" /
/// "trafo 0" labels).
pub(crate) fn enumerate_targets(net: &Network) -> Vec<(Outage, usize)> {
    let mut targets: Vec<(Outage, usize)> = Vec::new();
    let mut line_idx = 0usize;
    let mut trafo_idx = 0usize;
    for (bi, br) in net.branches.iter().enumerate() {
        let counter = match br.kind {
            BranchKind::Line => &mut line_idx,
            BranchKind::Transformer => &mut trafo_idx,
        };
        let kind_index = *counter;
        *counter += 1;
        if br.in_service {
            targets.push((
                Outage {
                    branch: bi,
                    kind: br.kind,
                },
                kind_index,
            ));
        }
    }
    targets
}

/// Assembles the sweep report from per-outage outcomes.
fn assemble_report(
    net: &Network,
    opts: &CaOptions,
    outcomes: Vec<ContingencyOutcome>,
    started: std::time::Instant,
    mode: SweepMode,
) -> ContingencyReport {
    let total_violations: usize = outcomes.iter().map(|o| o.violations.len()).sum();
    let outages_with_overloads = outcomes.iter().filter(|o| o.n_thermal() > 0).count();
    let outages_with_voltage_issues = outcomes.iter().filter(|o| o.n_voltage() > 0).count();
    let max_overload_pct = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| (o.max_loading_pct, i))
        .fold((0.0f64, 0usize), |acc, v| if v.0 > acc.0 { v } else { acc });
    let ranking = rank(&outcomes, opts.strategy);
    let ac_verified = outcomes.iter().filter(|o| o.ac_solved).count();
    let screened_out = outcomes
        .iter()
        .filter(|o| !o.ac_solved && !o.islands)
        .count();

    ContingencyReport {
        case_name: net.name.clone(),
        n_contingencies: outcomes.len(),
        n_lines: outcomes
            .iter()
            .filter(|o| o.outage.kind == BranchKind::Line)
            .count(),
        n_trafos: outcomes
            .iter()
            .filter(|o| o.outage.kind == BranchKind::Transformer)
            .count(),
        outcomes,
        total_violations,
        outages_with_overloads,
        outages_with_voltage_issues,
        max_overload_pct,
        ranking,
        voltage_band: (VMIN_PU, VMAX_PU),
        sweep_time_s: started.elapsed().as_secs_f64(),
        parallel: opts.parallel,
        mode,
        screened_out,
        ac_verified,
    }
}

/// Runs the N-1 study in the mode selected by `opts.mode`.
///
/// `base` may be a previously solved base-case report (its voltages warm
/// start each outage solve); when `None` the base case is solved first.
pub fn run_n1(
    net: &Network,
    opts: &CaOptions,
    base: Option<&PfReport>,
) -> Result<ContingencyReport, gm_powerflow::PfError> {
    run_n1_cached(net, opts, base, None)
}

/// How the sweep driver evaluates one outage. A sweep mode is nothing
/// but the plan — one step per target — it hands [`run_n1_cached`].
#[derive(Clone, Copy)]
enum Step {
    /// Classified secure from the DC estimate (fraction of rating)
    /// alone: no solver runs and the per-outage cache is not touched.
    ScreenedOut(f64),
    /// Full Newton solve, warm-started from the base voltages.
    Newton,
    /// Woodbury-compensated solve against the base-case factorization
    /// (full-Newton fallback), with the DC estimate when there is one.
    Compensated(Option<f64>),
}

/// Runs the N-1 study with a per-outage result cache (§3.4: "each
/// outage evaluation is cached under a composite key (case + outage +
/// diff hash)").
///
/// `cache` is `(cache, net_hash)`, `net_hash` being the content hash of
/// `net` (a session's `Snapshot` carries it — case and diffs in one
/// number): outcomes are looked up / stored under it, the branch index,
/// and the fingerprint of every option an outcome can depend on, so a
/// repeated compound request recomputes only what an edit staled — and
/// neither cascade results nor a different power-flow setting can alias
/// a stored outcome.
pub fn run_n1_cached(
    net: &Network,
    opts: &CaOptions,
    base: Option<&PfReport>,
    cache: Option<(&ContingencyCache, u64)>,
) -> Result<ContingencyReport, gm_powerflow::PfError> {
    let label = match opts.mode {
        SweepMode::Brute => "full",
        SweepMode::Cascade => "cascade",
    };
    let _span = gm_telemetry::span!("ca.sweep", case = net.name, mode = label);
    let started = std::time::Instant::now();
    let owned_base;
    let base = match base {
        Some(b) => b,
        None => {
            owned_base = solve_base(net, opts)?;
            &owned_base
        }
    };
    let v0 = base.voltages();
    let targets = enumerate_targets(net);
    // Brute is the all-Newton plan — and so is a cascade whose DC screen
    // is unavailable, which reports itself as the brute sweep it ran.
    let cascade = match opts.mode {
        SweepMode::Brute => None,
        SweepMode::Cascade => cascade_plan(net, opts, base, &targets),
    };
    let (mode, steps, comp_base) = match cascade {
        Some((steps, comp_base)) => (SweepMode::Cascade, steps, comp_base),
        None => (SweepMode::Brute, vec![Step::Newton; targets.len()], None),
    };
    let plan: Vec<((Outage, usize), Step)> = targets.into_iter().zip(steps).collect();

    let options = opts.outcome_fingerprint();
    let eval = |&((outage, kind_index), step): &((Outage, usize), Step)| {
        let compensated = match step {
            Step::ScreenedOut(estimate) => {
                return screened_out_outcome(base, outage, kind_index, estimate)
            }
            Step::Newton => None,
            Step::Compensated(estimate) => Some(estimate),
        };
        let keyed = cache.map(|(cache, net_hash)| {
            let key = CacheKey {
                net_hash,
                outage_branch: outage.branch,
                options,
            };
            (cache, key)
        });
        if let Some(hit) = keyed.and_then(|(cache, key)| cache.get(&key)) {
            return hit;
        }
        let outcome = match compensated {
            Some(estimate) => evaluate_outage_cascade(
                net,
                opts,
                comp_base.as_ref(),
                &v0,
                outage,
                kind_index,
                estimate,
            ),
            None => evaluate_outage(net, opts, &v0, outage, kind_index),
        };
        if let Some((cache, key)) = keyed {
            cache.put(key, outcome.clone());
        }
        outcome
    };
    // Outage solves factor on a fresh engine, never on one that holds
    // whatever the thread solved before: within one outage evaluation
    // every Newton iteration and the flat-start retry share the
    // post-outage Jacobian's analysis; the serial sweep also shares it
    // across outages whose patterns collide (parallel branch pairs),
    // while the parallel fan-out gives each outage an engine of its own.
    let outcomes = gm_sparse::with_fresh_engine(|| fan_out(opts.parallel, &plan, eval));
    Ok(assemble_report(net, opts, outcomes, started, mode))
}

/// The multi-fidelity screening plan (default sweep mode); `None` when
/// the linear model itself is unavailable (e.g. a degenerate network)
/// and the sweep must degrade to brute rather than guess.
///
/// Phase 1 — screen: compute LODFs once from the base-case PTDF
/// machinery and rank every outage by its DC-estimated worst post-outage
/// MVA loading against ratings. Phase 2 — verify: outages at or above
/// the screening cutoff (0.85 of rating), the 8-outage DC-ranked head, and
/// anything the linear model cannot screen (islanding columns) get an AC
/// verification. Each verified solve goes through the base-case Jacobian
/// factorization with a Woodbury outage-block correction
/// ([`gm_powerflow::CompensationBase`], returned beside the steps);
/// ill-conditioned or stalled compensations fall back to a full Newton
/// solve, and islanding outages never reach a solver at all.
/// Screened-out outages are classified secure from the DC estimate with
/// `ac_solved = false` and counted honestly in the report.
fn cascade_plan(
    net: &Network,
    opts: &CaOptions,
    base: &PfReport,
    targets: &[(Outage, usize)],
) -> Option<(Vec<Step>, Option<CompensationBase>)> {
    let Ok(sens) = gm_powerflow::sensitivities_for_screening(net) else {
        gm_telemetry::counter_add("ca.screen.unavailable", 1);
        return None;
    };
    let (base_p, base_q) = screening_inputs(base);
    let estimates = fan_out(opts.parallel, targets, |&(outage, _)| {
        sens.worst_post_outage_loading_mva(net, &base_p, &base_q, outage.branch)
    });

    // Suspect set: estimate at or above the cutoff, unscreenable
    // (islanding column), or within the top-k safety band of the DC
    // ranking. A network with no rated branches gives the thermal screen
    // no signal at all — drop the cutoff below zero so every outage is
    // verified (the compensated sweep still beats brute) instead of
    // silently classifying everything secure.
    let rated = net
        .branches
        .iter()
        .any(|b| b.in_service && b.rating_mva > 0.0);
    if !rated {
        gm_telemetry::counter_add("ca.screen.unrated", 1);
    }
    let cutoff = if rated { SCREEN_CUTOFF } else { -1.0 };
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_by(|&a, &b| {
        let ea = estimates[a].unwrap_or(f64::INFINITY);
        let eb = estimates[b].unwrap_or(f64::INFINITY);
        eb.total_cmp(&ea).then(a.cmp(&b))
    });
    let mut steps = vec![Step::Newton; targets.len()];
    for (pos, &ti) in order.iter().enumerate() {
        steps[ti] = match estimates[ti] {
            Some(e) if pos >= SCREEN_TOP_K && e < cutoff => Step::ScreenedOut(e),
            estimate => Step::Compensated(estimate),
        };
    }
    let n_screened_out = steps
        .iter()
        .filter(|s| matches!(s, Step::ScreenedOut(_)))
        .count() as u64;
    gm_telemetry::counter_add("ca.screen.screened_out", n_screened_out);
    gm_telemetry::counter_add("ca.screen.verified", steps.len() as u64 - n_screened_out);

    // A failed base build (e.g. Q-limit options) routes every suspect
    // through the full-Newton fallback.
    let comp_base = match CompensationBase::new(net, &opts.pf, base) {
        Ok(cb) => Some(cb),
        Err(e) => {
            gm_telemetry::warn_event("ca.screen", format!("compensation base unavailable: {e}"));
            None
        }
    };
    Some((steps, comp_base))
}

/// The DC-secure outcome for a screened-out outage: no AC solve, loading
/// carried from the linear estimate, voltage carried from the base case.
fn screened_out_outcome(
    base: &PfReport,
    outage: Outage,
    kind_index: usize,
    estimate: f64,
) -> ContingencyOutcome {
    ContingencyOutcome {
        outage,
        kind_index,
        converged: true,
        islands: false,
        stranded_buses: 0,
        violations: Vec::new(),
        max_loading_pct: 100.0 * estimate,
        min_vm: base.min_vm,
        load_shed_mw: 0.0,
        ac_solved: false,
    }
}

/// The islanding outcome shared by every evaluation path. Islanding is
/// detected from topology before any solver runs — compensation is never
/// attempted for a bridge outage.
fn islanding_outcome(
    net: &Network,
    outage: Outage,
    kind_index: usize,
    stranded: &[usize],
) -> ContingencyOutcome {
    gm_telemetry::counter_add("ca.islanded", 1);
    // Summed from +0.0: `Sum` for f64 starts at -0.0, which an outage
    // stranding only load-free buses would narrate as "-0.0 MW".
    let load_shed = net
        .loads
        .iter()
        .filter(|l| l.in_service && stranded.contains(&l.bus))
        .fold(0.0, |mw, l| mw + l.p_mw);
    ContingencyOutcome {
        outage,
        kind_index,
        converged: false,
        islands: true,
        stranded_buses: stranded.len(),
        violations: Vec::new(),
        max_loading_pct: 0.0,
        min_vm: (0.0, 0),
        load_shed_mw: load_shed,
        ac_solved: false,
    }
}

/// Thermal and voltage violations of a solved post-outage report against
/// the fixed threshold and band (branch and generator sweeps alike).
pub(crate) fn violations_of(rep: &PfReport) -> Vec<Violation> {
    let mut violations = Vec::new();
    for bf in &rep.branches {
        if bf.loading_pct > THERMAL_THRESHOLD_PCT {
            violations.push(Violation::ThermalOverload {
                branch: bf.index,
                loading_pct: bf.loading_pct,
            });
        }
    }
    for b in &rep.buses {
        if b.vm_pu < VMIN_PU {
            violations.push(Violation::LowVoltage {
                bus_id: b.id,
                vm_pu: b.vm_pu,
            });
        } else if b.vm_pu > VMAX_PU {
            violations.push(Violation::HighVoltage {
                bus_id: b.id,
                vm_pu: b.vm_pu,
            });
        }
    }
    violations
}

/// The outcome of a solved post-outage report.
fn outcome_from_pf(rep: &PfReport, outage: Outage, kind_index: usize) -> ContingencyOutcome {
    ContingencyOutcome {
        outage,
        kind_index,
        converged: true,
        islands: false,
        stranded_buses: 0,
        violations: violations_of(rep),
        max_loading_pct: rep.max_loading.0,
        min_vm: rep.min_vm,
        load_shed_mw: 0.0,
        ac_solved: true,
    }
}

/// Analyzes one specific outage (the `analyze_specific_contingency` tool):
/// a Newton solve warm-started from `v0`, retried once from flat if that
/// fails. Both share one symbolic analysis of the post-outage Jacobian
/// on the thread's engine.
pub fn evaluate_outage(
    net: &Network,
    opts: &CaOptions,
    v0: &[Complex],
    outage: Outage,
    kind_index: usize,
) -> ContingencyOutcome {
    gm_telemetry::counter_add("ca.outages_evaluated", 1);
    // Island screening before any solve.
    let stranded = topology::stranded_buses(net, outage.branch);
    if !stranded.is_empty() {
        return islanding_outcome(net, outage, kind_index, &stranded);
    }

    let mut work = net.clone();
    work.branches[outage.branch].in_service = false;

    // Warm start from the base voltages; fall back to a flat start if the
    // warm-started Newton fails (automatic recovery, §3.2.1).
    let report = solve_from(&work, &opts.pf, Some(v0)).or_else(|_| {
        gm_telemetry::counter_add("ca.warm_start_retries", 1);
        let flat = PfOptions {
            init: gm_powerflow::InitStrategy::Flat,
            max_iter: opts.pf.max_iter + 15,
            ..opts.pf.clone()
        };
        solve_from(&work, &flat, None)
    });

    match report {
        Err(_) => ContingencyOutcome {
            outage,
            kind_index,
            converged: false,
            islands: false,
            stranded_buses: 0,
            violations: Vec::new(),
            max_loading_pct: 0.0,
            min_vm: (0.0, 0),
            load_shed_mw: 0.0,
            ac_solved: true,
        },
        Ok(rep) => outcome_from_pf(&rep, outage, kind_index),
    }
}

/// Cascade verification of one suspect outage: Woodbury-compensated solve
/// against the base factorization, full-Newton fallback on any typed
/// compensation failure — or when the `ca.compensate` fault site
/// (gm-faults) refuses the compensated solve. Islanding is detected
/// before either path.
fn evaluate_outage_cascade(
    net: &Network,
    opts: &CaOptions,
    comp_base: Option<&CompensationBase>,
    v0: &[Complex],
    outage: Outage,
    kind_index: usize,
    estimate: Option<f64>,
) -> ContingencyOutcome {
    let stranded = topology::stranded_buses(net, outage.branch);
    if !stranded.is_empty() {
        gm_telemetry::counter_add("ca.outages_evaluated", 1);
        return islanding_outcome(net, outage, kind_index, &stranded);
    }
    if let Some(cb) = comp_base.filter(|_| gm_faults::inject("ca.compensate").is_none()) {
        let mut work = net.clone();
        work.branches[outage.branch].in_service = false;
        match cb.solve_outage(&work, &opts.pf, &[outage.branch]) {
            Ok(rep) => {
                gm_telemetry::counter_add("ca.outages_evaluated", 1);
                gm_telemetry::counter_add("ca.screen.compensated", 1);
                if let Some(est) = estimate {
                    // Screening error: how far the DC estimate missed the
                    // AC answer, in loading percentage points.
                    gm_telemetry::histogram_record(
                        "ca.screen.error_pct",
                        (100.0 * est - rep.max_loading.0).abs(),
                    );
                }
                return outcome_from_pf(&rep, outage, kind_index);
            }
            Err(_) => {
                gm_telemetry::counter_add("ca.screen.fallback", 1);
            }
        }
    } else {
        gm_telemetry::counter_add("ca.screen.fallback", 1);
    }
    // Full-Newton fallback (counts its own evaluation).
    evaluate_outage(net, opts, v0, outage, kind_index)
}

/// Base-case `(P, |Q|)` branch flows the LODF screens (cascade plan and
/// N-2 preview) estimate post-outage loading from.
pub(crate) fn screening_inputs(base: &PfReport) -> (Vec<f64>, Vec<f64>) {
    let base_p: Vec<f64> = base.branches.iter().map(|b| b.p_from_mw).collect();
    let base_q: Vec<f64> = base
        .branches
        .iter()
        .map(|b| b.q_from_mvar.abs().max(b.q_to_mvar.abs()))
        .collect();
    (base_p, base_q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};

    fn brute_opts() -> CaOptions {
        CaOptions {
            mode: SweepMode::Brute,
            ..Default::default()
        }
    }

    #[test]
    fn ieee14_full_sweep_counts() {
        let net = cases::load(CaseId::Ieee14);
        let rep = run_n1(&net, &brute_opts(), None).unwrap();
        assert_eq!(rep.n_contingencies, 20);
        assert_eq!(rep.n_lines, 17);
        assert_eq!(rep.n_trafos, 3);
        assert_eq!(rep.outcomes.len(), 20);
        assert!(!rep.ranking.is_empty());
        assert_eq!(rep.mode, SweepMode::Brute);
        // Brute solves everything except islanding outages; nothing is
        // screened out.
        let islanders = rep.outcomes.iter().filter(|o| o.islands).count();
        assert_eq!(rep.ac_verified + islanders, 20);
        assert_eq!(rep.screened_out, 0);
    }

    /// Serial ≡ parallel through the single driver: the whole report is
    /// `{:?}`-identical but for how it ran and how long it took.
    fn assert_serial_matches_parallel(mode: SweepMode) {
        for id in [CaseId::Ieee30, CaseId::Ieee57] {
            let net = cases::load(id);
            let run = |parallel: bool| {
                let opts = CaOptions {
                    mode,
                    parallel,
                    ..Default::default()
                };
                let mut rep = run_n1(&net, &opts, None).unwrap();
                assert_eq!((rep.parallel, rep.mode), (parallel, mode));
                rep.parallel = false;
                rep.sweep_time_s = 0.0;
                format!("{rep:?}")
            };
            assert_eq!(run(true), run(false), "{mode:?} on {id:?}");
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        assert_serial_matches_parallel(SweepMode::Brute);
    }

    #[test]
    fn cascade_serial_and_parallel_agree() {
        assert_serial_matches_parallel(SweepMode::Cascade);
    }

    #[test]
    fn islanding_outage_detected() {
        // case14 line 7-8 is the only path to bus 8.
        let net = cases::load(CaseId::Ieee14);
        let rep = run_n1(&net, &brute_opts(), None).unwrap();
        let islanders: Vec<_> = rep.outcomes.iter().filter(|o| o.islands).collect();
        assert!(
            !islanders.is_empty(),
            "case14 has a radial branch (7-8) that must island"
        );
        for o in islanders {
            assert!(!o.converged);
            assert!(o.stranded_buses > 0);
        }
    }

    #[test]
    fn stranding_only_load_free_buses_sheds_plus_zero() {
        // case14 bus 8 (a synchronous condenser, no load) hangs off line
        // 7-8 alone: its outage strands no load, and the narration must
        // say "0.0 MW", not the "-0.0 MW" an empty f64 `Sum` gives.
        let net = cases::load(CaseId::Ieee14);
        let rep = run_n1(&net, &brute_opts(), None).unwrap();
        let ranked = rep
            .ranking
            .iter()
            .find(|r| rep.outcomes[r.outcome_index].islands)
            .unwrap();
        let shed = rep.outcomes[ranked.outcome_index].load_shed_mw;
        assert_eq!(shed.to_bits(), 0.0f64.to_bits(), "{shed:?}");
        assert!(
            ranked.justification.contains("stranding 0.0 MW"),
            "{}",
            ranked.justification
        );
    }

    #[test]
    fn ieee118_sweep_matches_paper_inventory() {
        // The paper's Fig. 8 run: 186 contingencies (175 lines + 11
        // transformers in our reconstruction; the authors' pandapower
        // conversion shows 173 + 13).
        let net = cases::load(CaseId::Ieee118);
        let rep = run_n1(&net, &brute_opts(), None).unwrap();
        assert_eq!(rep.n_contingencies, 186);
        assert_eq!(rep.n_lines, 175);
        assert_eq!(rep.n_trafos, 11);
        // Every outage either converges or is explained.
        for o in &rep.outcomes {
            assert!(
                o.converged || o.islands || o.violations.is_empty(),
                "unexplained outcome for branch {}",
                o.outage.branch
            );
        }
        // The synthetic case is built to have some N-1 thermal stress.
        assert!(
            rep.max_overload_pct.0 > 100.0,
            "expected at least one overload, max {}",
            rep.max_overload_pct.0
        );
    }

    #[test]
    fn reuses_provided_base_solution() {
        let net = cases::load(CaseId::Ieee30);
        let opts = CaOptions::default();
        let base = solve_base(&net, &opts).unwrap();
        let rep = run_n1(&net, &opts, Some(&base)).unwrap();
        assert_eq!(rep.n_contingencies, 41);
    }

    #[test]
    fn cascade_matches_brute_on_criticals_and_top5() {
        // The Table 1 invariant on the paper's case and on the largest
        // one: identical top-5 ranking, identical violation inventory on
        // every AC-verified outage, and a meaningful screened-out share.
        for id in [CaseId::Ieee118, CaseId::Ieee300] {
            let net = cases::load(id);
            let brute = run_n1(&net, &brute_opts(), None).unwrap();
            let cascade = run_n1(&net, &CaOptions::default(), None).unwrap();
            assert_eq!(cascade.n_contingencies, brute.n_contingencies, "{id:?}");
            assert_eq!(cascade.mode, SweepMode::Cascade);
            assert_eq!(cascade.top_labels(5), brute.top_labels(5), "{id:?}");
            for (b, c) in brute.outcomes.iter().zip(&cascade.outcomes) {
                if b.n_thermal() > 0 {
                    assert!(
                        c.ac_solved,
                        "{id:?}: outage of branch {} missed by the cascade screen",
                        b.outage.branch
                    );
                    assert_eq!(b.n_thermal(), c.n_thermal(), "{id:?}");
                }
            }
            assert!(
                cascade.screened_out > cascade.n_contingencies / 4,
                "{id:?}: cascade only screened out {}",
                cascade.screened_out
            );
            assert_eq!(
                cascade.screened_out
                    + cascade.ac_verified
                    + cascade.outcomes.iter().filter(|o| o.islands).count(),
                cascade.n_contingencies,
                "{id:?}"
            );
        }
    }

    #[test]
    fn refused_compensated_solves_take_the_newton_fallback() {
        // The `ca.compensate` fault site refusing every compensated solve
        // on case118: each suspect the unforced sweep compensated takes
        // the full-Newton fallback instead, and the answers still match
        // the brute sweep's as `cascade_matches_brute_on_criticals_and_top5`
        // checks them. Serial, so the sweep runs on the injector's thread.
        use gm_faults::{FaultInjector, FaultKind, FaultRule};
        let net = cases::load(CaseId::Ieee118);
        let serial = CaOptions {
            parallel: false,
            ..Default::default()
        };
        let sweep = |faults: Option<FaultInjector>| {
            let _faults = faults.as_ref().map(FaultInjector::install);
            let reg = gm_telemetry::Registry::new();
            let _guard = reg.install();
            (run_n1(&net, &serial, None).unwrap(), reg)
        };
        let (_, unforced) = sweep(None);
        let refuse_all = FaultRule::new("ca.compensate", FaultKind::LuSingular, 0, u64::MAX);
        let (forced, reg) = sweep(Some(FaultInjector::scripted(vec![refuse_all])));
        let compensated = unforced.counter_value("ca.screen.compensated");
        assert!(compensated > 0);
        assert_eq!(reg.counter_value("ca.screen.fallback"), compensated);
        assert_eq!(reg.counter_value("ca.screen.compensated"), 0);

        let brute = run_n1(&net, &brute_opts(), None).unwrap();
        assert_eq!(forced.top_labels(5), brute.top_labels(5));
        for (b, c) in brute.outcomes.iter().zip(&forced.outcomes) {
            if b.n_thermal() > 0 {
                assert!(c.ac_solved, "outage of branch {} missed", b.outage.branch);
                assert_eq!(b.n_thermal(), c.n_thermal());
            }
        }
    }

    #[test]
    fn refused_compensated_solves_fall_back_on_every_worker() {
        // The parallel twin of the test above: every worker of the
        // fan-out carries the sweep thread's injector, so a refuse-all
        // `ca.compensate` rule turns each compensated outage of the
        // parallel sweep into a counted fallback, and the report is the
        // forced serial sweep's.
        use gm_faults::{FaultInjector, FaultKind, FaultRule};
        let net = cases::load(CaseId::Ieee118);
        let sweep = |parallel: bool, faults: Option<FaultInjector>| {
            let _faults = faults.as_ref().map(FaultInjector::install);
            let reg = gm_telemetry::Registry::new();
            let _guard = reg.install();
            let opts = CaOptions {
                parallel,
                ..Default::default()
            };
            let mut rep = run_n1(&net, &opts, None).unwrap();
            rep.parallel = false;
            rep.sweep_time_s = 0.0;
            (format!("{rep:?}"), reg)
        };
        let refuse_all = || {
            FaultInjector::scripted(vec![FaultRule::new(
                "ca.compensate",
                FaultKind::LuSingular,
                0,
                u64::MAX,
            )])
        };
        let (_, unforced) = sweep(true, None);
        let compensated = unforced.counter_value("ca.screen.compensated");
        assert!(compensated > 0);
        let injector = refuse_all();
        let (parallel, reg) = sweep(true, Some(injector.clone()));
        assert_eq!(injector.injected_total(), compensated);
        assert_eq!(reg.counter_value("ca.screen.fallback"), compensated);
        assert_eq!(reg.counter_value("ca.screen.compensated"), 0);
        let (serial, _) = sweep(false, Some(refuse_all()));
        assert_eq!(parallel, serial);
    }

    #[test]
    fn cascade_faster_than_brute() {
        let net = cases::load(CaseId::Ieee118);
        let opts = CaOptions::default();
        let base = solve_base(&net, &opts).unwrap();
        let t0 = std::time::Instant::now();
        let _ = run_n1(&net, &brute_opts(), Some(&base)).unwrap();
        let brute_t = t0.elapsed();
        let t1 = std::time::Instant::now();
        let _ = run_n1(&net, &opts, Some(&base)).unwrap();
        let cascade_t = t1.elapsed();
        assert!(
            cascade_t < brute_t,
            "cascade {cascade_t:?} !< brute {brute_t:?}"
        );
    }

    #[test]
    fn cached_sweep_hits_on_repeat() {
        let net = cases::load(CaseId::Ieee14);
        let cache = crate::cache::ContingencyCache::new();
        let opts = brute_opts();
        let r1 = run_n1_cached(&net, &opts, None, Some((&cache, 42))).unwrap();
        let (h1, m1) = cache.stats();
        assert_eq!(h1, 0);
        assert_eq!(m1 as usize, r1.n_contingencies);
        // Same network hash: every outage served from the cache.
        let r2 = run_n1_cached(&net, &opts, None, Some((&cache, 42))).unwrap();
        let (h2, _) = cache.stats();
        assert_eq!(h2 as usize, r2.n_contingencies);
        assert_eq!(r1.total_violations, r2.total_violations);
        // Different hash (modified network state): cache misses again.
        let _ = run_n1_cached(&net, &opts, None, Some((&cache, 43))).unwrap();
        let (_, m3) = cache.stats();
        assert_eq!(m3 as usize, 2 * r1.n_contingencies);
    }

    #[test]
    fn cached_sweep_misses_when_outcome_options_change() {
        // Regression: the per-outage key used to be (case, outage, diff
        // hash, mode), so a second sweep differing only in an outcome
        // option (then the voltage band) was served the first sweep's
        // outcomes. Mode and power-flow controls are what a caller can
        // still set; each must miss.
        let net = cases::load(CaseId::Ieee30);
        let cache = crate::cache::ContingencyCache::new();
        let cached =
            |opts: &CaOptions| run_n1_cached(&net, opts, None, Some((&cache, 42))).unwrap();
        let brute = brute_opts();
        let n = cached(&brute).n_contingencies as u64;
        // A Q-limited post-outage solve is another answer: it must not be
        // served the unlimited sweep's outcomes.
        let q_limited = CaOptions {
            pf: PfOptions {
                enforce_q_limits: true,
                ..brute.pf.clone()
            },
            ..brute.clone()
        };
        let fresh = run_n1(&net, &q_limited, None).unwrap();
        let served = cached(&q_limited);
        assert_eq!(
            format!("{:?}", served.outcomes),
            format!("{:?}", fresh.outcomes)
        );
        assert_eq!(cache.stats(), (0, 2 * n), "a power-flow change must miss");
        // The iteration budget and the mode miss too ...
        let mut budget = brute.clone();
        budget.pf.max_iter += 1;
        cached(&budget);
        assert_eq!(cache.stats(), (0, 3 * n));
        let verified = cached(&CaOptions::default());
        let verified = (verified.n_contingencies - verified.screened_out) as u64;
        assert_eq!(cache.stats(), (0, 3 * n + verified));
        // ... while a strategy-only change still hits, as it always did.
        cached(&CaOptions {
            strategy: RankingStrategy::OverloadFirst,
            ..brute
        });
        assert_eq!(cache.stats(), (n, 3 * n + verified));
    }

    #[test]
    fn cascade_cache_covers_only_verified_outages() {
        let net = cases::load(CaseId::Ieee118);
        let cache = crate::cache::ContingencyCache::new();
        let opts = CaOptions::default();
        let r1 = run_n1_cached(&net, &opts, None, Some((&cache, 7))).unwrap();
        let (h1, m1) = cache.stats();
        assert_eq!(h1, 0);
        // Screened-out outages never touch the cache.
        assert_eq!(m1 as usize, r1.n_contingencies - r1.screened_out);
        let r2 = run_n1_cached(&net, &opts, None, Some((&cache, 7))).unwrap();
        let (h2, _) = cache.stats();
        assert_eq!(h2 as usize, r2.n_contingencies - r2.screened_out);
        // Identical reports either way.
        assert_eq!(r1.top_labels(5), r2.top_labels(5));
        assert_eq!(r1.total_violations, r2.total_violations);
    }

    #[test]
    fn fingerprint_distinguishes_modes() {
        let brute = brute_opts();
        let cascade = CaOptions::default();
        assert_ne!(brute.fingerprint(), cascade.fingerprint());
        // The post-outage power-flow controls are fingerprint-relevant too.
        let mut q_limited = CaOptions::default();
        q_limited.pf.enforce_q_limits = true;
        assert_ne!(cascade.fingerprint(), q_limited.fingerprint());
    }

    #[test]
    fn old_mix_collision_is_fixed() {
        // The pre-canonical solver-cache key xor-folded a mode flag and
        // the screening threshold into the options fingerprint,
        //   old(fp, s, t) = (((fp ^ s) * P) ^ t.bits) * P,
        // so old(fp, 1, t1) == old(fp, 0, t2) at
        // t2.bits = t1.bits ^ ((fp^1)*P) ^ (fp*P): a screening sweep could
        // be served a cached full sweep. The threshold is a constant now,
        // so no caller can pick `t2`, and the mode keeps its own lane in
        // the fixed-width encoding behind `fingerprint`.
        const P: u64 = 0x100000001b3;
        let old_mix = |fp: u64, screening: bool, t: f64| -> u64 {
            ((fp ^ u64::from(screening)).wrapping_mul(P) ^ t.to_bits()).wrapping_mul(P)
        };
        let fp = CaOptions::default().fingerprint();
        let t1 = SCREEN_CUTOFF;
        let t2 = f64::from_bits(t1.to_bits() ^ (fp ^ 1).wrapping_mul(P) ^ fp.wrapping_mul(P));
        assert_ne!(t1.to_bits(), t2.to_bits(), "a genuinely distinct threshold");
        assert_eq!(old_mix(fp, true, t1), old_mix(fp, false, t2));
        let new = |mode: SweepMode| {
            CaOptions {
                mode,
                ..Default::default()
            }
            .fingerprint()
        };
        assert_ne!(new(SweepMode::Cascade), new(SweepMode::Brute));
    }
}
