//! Preventive security-constrained OPF (SCOPF).
//!
//! Extends the ACOPF with post-contingency flow limits in the standard
//! industry form: DC (LODF-linearized) estimates of post-outage branch
//! flows are constrained to an emergency rating for a screened set of
//! `(outage, monitored branch)` pairs,
//!
//! ```text
//! | P_l(θ) + LODF(l,k) · P_k(θ) | ≤ emergency_factor · rating_l
//! ```
//!
//! which is linear in the voltage angles and slots directly into the same
//! interior point solver as extra inequality rows. This is the
//! "security-constrained operation" comparison the paper names in
//! Appendix B.4 and cites as [Wu & Conejo 2019]; the screened preventive
//! formulation keeps the problem tractable while demonstrably reducing
//! post-contingency overloads (see the `scopf_comparison` example).

use crate::acopf::{unpack_solution, AcopfOptions, AcopfProblem};
use crate::ipm::{self, Constants, Nlp, Stamp};
use crate::types::{AcopfError, AcopfSolution};
use gm_network::Network;
use gm_numeric::Fnv1a;
use gm_powerflow::sensitivities_for_screening;
use gm_sparse::{CsMat, Triplets};

/// One screened security constraint.
#[derive(Clone, Copy, Debug)]
pub struct SecurityConstraint {
    /// Outaged branch index.
    pub outage: usize,
    /// Monitored branch index.
    pub monitored: usize,
    /// LODF(monitored, outage).
    pub lodf: f64,
    /// Flow bound (p.u., both signs enforced).
    pub limit_pu: f64,
}

/// SCOPF options.
#[derive(Clone, Debug)]
pub struct ScopfOptions {
    /// Inner ACOPF/IPM options.
    pub acopf: AcopfOptions,
    /// Screen-in threshold: monitor pairs whose estimated post-outage
    /// loading at the *unconstrained* optimum exceeds this fraction.
    pub monitor_threshold: f64,
    /// Post-contingency flows may reach `emergency_factor × rating`.
    pub emergency_factor: f64,
    /// Cap on the number of security rows (most-loaded pairs first).
    pub max_constraints: usize,
    /// Constraint-generation rounds: after each solve, the screen re-runs
    /// at the new operating point and newly violated pairs are added
    /// until fixpoint (standard iterative SCOPF).
    pub max_rounds: usize,
}

impl ScopfOptions {
    /// Deterministic fingerprint of the SCOPF controls (inner ACOPF
    /// options included) for cross-session solver-cache keys; same
    /// construction as [`AcopfOptions::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        let ScopfOptions {
            acopf,
            monitor_threshold,
            emergency_factor,
            max_constraints,
            max_rounds,
        } = self;
        let mut h = Fnv1a::new();
        h.u64(acopf.fingerprint());
        h.u64(monitor_threshold.to_bits());
        h.u64(emergency_factor.to_bits());
        h.u64(*max_constraints as u64);
        h.u64(*max_rounds as u64);
        h.finish()
    }
}

impl Default for ScopfOptions {
    fn default() -> Self {
        let mut acopf = AcopfOptions::default();
        acopf.ipm.max_iter = 250;
        ScopfOptions {
            acopf,
            monitor_threshold: 0.90,
            emergency_factor: 0.94,
            max_constraints: 6000,
            max_rounds: 4,
        }
    }
}

/// SCOPF result: the secure dispatch plus what securing it cost.
#[derive(Clone, Debug)]
pub struct ScopfSolution {
    /// The security-constrained operating point.
    pub solution: AcopfSolution,
    /// The unconstrained (economic) optimum it is compared against.
    pub economic_cost: f64,
    /// Security premium: `solution.objective_cost − economic_cost` ($/h).
    pub security_premium: f64,
    /// Number of active security constraints in the final problem.
    pub n_security_constraints: usize,
}

pub(crate) struct ScopfProblem<'a> {
    pub(crate) base: AcopfProblem<'a>,
    pub(crate) security: Vec<SecurityConstraint>,
}

impl ScopfProblem<'_> {
    /// Angle columns and susceptance for a branch's DC flow
    /// `P = (θf − θt)·b`.
    fn branch_terms(&self, bi: usize) -> (usize, usize, f64) {
        let br = &self.base.net.branches[bi];
        (
            self.base.layout.th[br.from_bus],
            self.base.layout.th[br.to_bus],
            1.0 / br.x_pu,
        )
    }

    fn dc_flow(&self, x: &[f64], bi: usize) -> f64 {
        let (cf, ct, b) = self.branch_terms(bi);
        let thf = if cf == usize::MAX { 0.0 } else { x[cf] };
        let tht = if ct == usize::MAX { 0.0 } else { x[ct] };
        (thf - tht) * b
    }

    /// The Jacobian of the security rows, two per constraint (`+flow`
    /// and `−flow` against the limit). Linear in the angles, so constant
    /// for the solve and stated once. Which positions it holds is read
    /// off the constraint, not off the converted values: a pair whose
    /// LODF is exactly zero (the outage moves nothing onto the monitored
    /// branch) has no outage term, and two terms on a shared bus that
    /// happen to cancel keep their position as an explicit zero.
    fn security_rows(&self) -> CsMat<f64> {
        let mut t =
            Triplets::with_capacity(2 * self.security.len(), self.nx(), 8 * self.security.len());
        for (r2, sc) in self.security.iter().enumerate() {
            let (mf, mt, mb) = self.branch_terms(sc.monitored);
            let (of, ot, ob) = self.branch_terms(sc.outage);
            let monitored = [(mf, mb), (mt, -mb)];
            let outage = [(of, sc.lodf * ob), (ot, -sc.lodf * ob)];
            let terms = monitored
                .into_iter()
                .chain(outage.into_iter().filter(|_| sc.lodf != 0.0));
            for (col, coef) in terms.filter(|&(col, _)| col != usize::MAX) {
                t.push(2 * r2, col, coef);
                t.push(2 * r2 + 1, col, -coef);
            }
        }
        t.to_csr_structural()
    }
}

impl Nlp for ScopfProblem<'_> {
    fn nx(&self) -> usize {
        self.base.nx()
    }
    fn neq(&self) -> usize {
        self.base.neq()
    }
    fn niq(&self) -> usize {
        self.base.niq() + 2 * self.security.len()
    }
    fn x0(&self, x: &mut [f64]) {
        self.base.x0(x);
    }
    fn objective(&self, x: &[f64], df: &mut [f64]) -> f64 {
        self.base.objective(x, df)
    }
    fn equalities<S: Stamp>(&self, x: &[f64], g: &mut [f64], jg: &mut S) {
        self.base.equalities(x, g, jg);
    }

    /// The base rows are stamped per iterate; of the security rows only
    /// the values change, their Jacobian is stated in
    /// [`Nlp::constants`].
    fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], jh: &mut S) {
        let (h_base, h_sec) = h.split_at_mut(self.base.niq());
        self.base.inequalities(x, h_base, jh);
        for (sc, rows) in self.security.iter().zip(h_sec.chunks_exact_mut(2)) {
            let flow = self.dc_flow(x, sc.monitored) + sc.lodf * self.dc_flow(x, sc.outage);
            rows[0] = flow - sc.limit_pu;
            rows[1] = -flow - sc.limit_pu;
        }
    }

    fn lagrangian_hessian<S: Stamp>(&self, x: &[f64], lam: &[f64], mu: &[f64], hess: &mut S) {
        // The security rows are linear: only the base multipliers carry
        // curvature.
        self.base
            .lagrangian_hessian(x, lam, &mu[..self.base.niq()], hess);
    }

    fn constants(&self) -> Constants {
        Constants {
            jh: Some(self.security_rows()),
            ..Constants::default()
        }
    }
}

/// Solves the security-constrained OPF by iterative contingency
/// constraint generation: solve, screen at the solution, add violated
/// `(outage, monitored)` pairs, repeat until no new violations or the
/// round budget is spent.
pub fn solve_scopf(net: &Network, opts: &ScopfOptions) -> Result<ScopfSolution, AcopfError> {
    secure(net, opts).map(|(solution, _)| solution)
}

/// [`solve_scopf`] plus the security rows of its final problem.
pub(crate) fn secure(
    net: &Network,
    opts: &ScopfOptions,
) -> Result<(ScopfSolution, Vec<SecurityConstraint>), AcopfError> {
    let _span = gm_telemetry::span!("acopf.scopf.solve", case = net.name);
    gm_telemetry::counter_add("acopf.scopf.solves", 1);
    let economic = crate::solve_acopf(net, &opts.acopf)?;
    let sens = sensitivities_for_screening(net).map_err(|e| AcopfError::InvalidNetwork {
        problems: vec![e.to_string()],
    })?;
    let base = net.base_mva;

    let mut active: std::collections::BTreeMap<(usize, usize), SecurityConstraint> =
        std::collections::BTreeMap::new();
    let mut current = economic.clone();
    // Only the security rows change between rounds and relaxations: the
    // base problem (YBus, layout, limits, bounds) is built once.
    let Some(base_prob) = AcopfProblem::build(net, opts.acopf.warm_start) else {
        return Err(AcopfError::InvalidNetwork {
            problems: vec!["no slack bus".to_string()],
        });
    };
    let mut prob = ScopfProblem {
        base: base_prob,
        security: Vec::new(),
    };

    for _round in 0..opts.max_rounds {
        // ---- Screen at the current operating point.
        let flows_pu: Vec<f64> = current
            .branch_loading
            .iter()
            .map(|b| b.p_from_mw / base)
            .collect();
        let mut added = 0usize;
        for (k, brk) in net.branches.iter().enumerate() {
            if !brk.in_service || sens.lodf[(k, k)].is_nan() {
                continue;
            }
            for (l, brl) in net.branches.iter().enumerate() {
                if l == k || !brl.in_service || brl.rating_mva <= 0.0 {
                    continue;
                }
                if active.contains_key(&(k, l)) {
                    continue;
                }
                let d = sens.lodf[(l, k)];
                if d.is_nan() {
                    continue;
                }
                let post = flows_pu[l] + d * flows_pu[k];
                let loading = post.abs() / (brl.rating_mva / base);
                if loading >= opts.monitor_threshold && active.len() < opts.max_constraints {
                    active.insert(
                        (k, l),
                        SecurityConstraint {
                            outage: k,
                            monitored: l,
                            lodf: d,
                            limit_pu: opts.emergency_factor * brl.rating_mva / base,
                        },
                    );
                    added += 1;
                }
            }
        }
        if added == 0 {
            break; // fixpoint: no newly violated pairs at this optimum
        }
        gm_telemetry::counter_add("acopf.scopf.rounds", 1);
        gm_telemetry::counter_add("acopf.scopf.constraints_added", added as u64);

        // ---- Re-solve with the accumulated security rows. Not every
        // post-contingency overload is dispatchable away (a pocket fed by
        // two corridors keeps its load on the survivor, |LODF| ≈ 1), so an
        // infeasible round relaxes every security limit by 10 % and
        // retries — the standard soft-constraint treatment.
        let mut relaxations = 0usize;
        loop {
            let started = std::time::Instant::now();
            prob.security.clear();
            prob.security.extend(active.values().copied());
            let res = ipm::solve(&prob, &opts.acopf.ipm);
            if res.converged {
                current = unpack_solution(&prob.base, &res, started.elapsed().as_secs_f64());
                break;
            }
            relaxations += 1;
            gm_telemetry::counter_add("acopf.scopf.relaxations", 1);
            if relaxations > 4 {
                return Err(AcopfError::NotConverged {
                    iterations: res.iterations,
                    feascond: res.feascond,
                    message: format!(
                        "SCOPF with {} constraints infeasible even after {} relaxations: {}",
                        active.len(),
                        relaxations - 1,
                        res.message
                    ),
                });
            }
            for c in active.values_mut() {
                c.limit_pu *= 1.10;
            }
        }
    }

    let solution = ScopfSolution {
        economic_cost: economic.objective_cost,
        security_premium: current.objective_cost - economic.objective_cost,
        n_security_constraints: active.len(),
        solution: current,
    };
    Ok((solution, active.into_values().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};

    /// Applies a dispatch to the case so the contingency engine can
    /// evaluate its N-1 security.
    fn apply_dispatch(net: &Network, sol: &AcopfSolution) -> Network {
        let mut out = net.clone();
        for (gi, g) in out.gens.iter_mut().enumerate() {
            g.p_mw = sol.gen_dispatch_mw[gi];
            g.vm_setpoint_pu = sol.bus_vm_pu[g.bus];
        }
        out
    }

    fn n1_overload_outages(net: &Network) -> usize {
        gm_contingency_probe::run(net).expect("contingency sweep must complete")
    }

    /// Minimal local N-1 probe (avoids a dev-dependency cycle with
    /// gm-contingency): counts outages that cause a thermal overload.
    mod gm_contingency_probe {
        use gm_network::{topology, Network};
        use gm_powerflow::{solve, solve_from, PfOptions};

        pub fn run(net: &Network) -> Option<usize> {
            let opts = PfOptions {
                enforce_q_limits: false,
                ..Default::default()
            };
            let base = solve(net, &opts).ok()?;
            let v0 = base.voltages();
            let mut bad = 0;
            let mut work = net.clone();
            for k in 0..net.branches.len() {
                if !net.branches[k].in_service || topology::outage_islands(net, k) {
                    continue;
                }
                work.branches[k].in_service = false;
                if let Ok(rep) = solve_from(&work, &opts, Some(&v0)) {
                    // Count severe overloads: both dispatches ride binding
                    // base-case limits, so >100 % saturates trivially.
                    if rep.branches.iter().any(|b| b.loading_pct > 115.0) {
                        bad += 1;
                    }
                } else {
                    bad += 1;
                }
                work.branches[k].in_service = true;
            }
            Some(bad)
        }
    }

    #[test]
    fn scopf_reduces_post_contingency_overloads_on_case118() {
        let net = cases::load(CaseId::Ieee118);
        let scopf = solve_scopf(&net, &ScopfOptions::default()).unwrap();
        assert!(scopf.n_security_constraints > 0, "screen found nothing");
        assert!(
            scopf.security_premium >= -1e-6,
            "security cannot be cheaper than economic dispatch"
        );

        let economic = crate::solve_acopf(&net, &AcopfOptions::default()).unwrap();
        let eco_net = apply_dispatch(&net, &economic);
        let sec_net = apply_dispatch(&net, &scopf.solution);
        let eco_bad = n1_overload_outages(&eco_net);
        let sec_bad = n1_overload_outages(&sec_net);
        assert!(
            sec_bad < eco_bad,
            "SCOPF dispatch must reduce overload-causing outages: {sec_bad} !< {eco_bad}"
        );
    }

    #[test]
    fn scopf_premium_is_modest_on_case57() {
        let net = cases::load(CaseId::Ieee57);
        let scopf = solve_scopf(&net, &ScopfOptions::default()).unwrap();
        // Security should cost something but not blow the budget.
        assert!(scopf.security_premium >= 0.0);
        assert!(
            scopf.security_premium < 0.2 * scopf.economic_cost,
            "premium {:.1} implausible vs economic {:.1}",
            scopf.security_premium,
            scopf.economic_cost
        );
        assert!(scopf.solution.solved);
    }

    #[test]
    fn secure_case_returns_economic_dispatch() {
        // case14 has no branch ratings: nothing to screen, zero premium.
        let net = cases::load(CaseId::Ieee14);
        let scopf = solve_scopf(&net, &ScopfOptions::default()).unwrap();
        assert_eq!(scopf.n_security_constraints, 0);
        assert_eq!(scopf.security_premium, 0.0);
    }

    #[test]
    fn zero_lodf_row_keeps_one_pattern_for_the_whole_solve() {
        // A pair the outage does not load: the row is the monitored
        // branch's own DC limit, with no outage term to drop or keep.
        let net = cases::load(CaseId::Ieee14);
        let prob = ScopfProblem {
            base: AcopfProblem::build(&net, false).unwrap(),
            security: vec![SecurityConstraint {
                outage: 0,
                monitored: 3,
                lodf: 0.0,
                limit_pu: 2.0,
            }],
        };
        let rows = prob.security_rows();
        assert_eq!(rows.shape(), (2, prob.nx()));
        let (cols, plus) = rows.row(0);
        assert_eq!(cols.len(), 2, "monitored θf, θt only");
        assert_eq!(rows.row(1), (cols, &[-plus[0], -plus[1]][..]));

        let reg = gm_telemetry::Registry::new();
        let res = {
            let _guard = reg.install();
            ipm::solve(&prob, &ScopfOptions::default().acopf.ipm)
        };
        assert!(res.converged, "{}", res.message);
        assert_eq!(reg.counter_value("sparse.symbolic.build"), 1);
        assert_eq!(reg.counter_value("acopf.kkt.structure_builds"), 1);
        assert_eq!(reg.counter_value("acopf.kkt.lu_fallbacks"), 0);
    }
}
