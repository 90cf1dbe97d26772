//! DC optimal power flow baseline.
//!
//! Linear network model (lossless, unit voltage, angles only) with the
//! same quadratic cost objective and thermal limits as the ACOPF. Solved
//! by the same interior point core — the problem is just an NLP whose
//! constraints happen to be linear. Used as the paper-style comparison
//! baseline ("economic vs security-constrained operation", Appendix B.4)
//! and as a cross-check: DC-OPF cost should track ACOPF cost from below
//! on loss-dominated systems.

use crate::ipm::{self, Constants, IpmOptions, Nlp, Stamp};
use crate::types::AcopfError;
use gm_network::{Branch, Network};
use gm_sparse::Triplets;

/// DC-OPF solution.
#[derive(Clone, Debug)]
pub struct DcOpfSolution {
    /// Whether the IPM converged.
    pub solved: bool,
    /// Total cost ($/h).
    pub objective_cost: f64,
    /// MW per generator (aligned with `Network::gens`).
    pub gen_dispatch_mw: Vec<f64>,
    /// Branch MW flows (from → to).
    pub flow_mw: Vec<f64>,
    /// Bus angles (degrees).
    pub bus_va_deg: Vec<f64>,
    /// IPM iterations.
    pub iterations: usize,
}

pub(crate) struct DcOpfProblem<'a> {
    net: &'a Network,
    /// θ column per bus (MAX for slack).
    th: Vec<usize>,
    /// Pg column per in-service gen.
    pg: Vec<usize>,
    nx: usize,
    /// (branch index, limit p.u.) for rated in-service branches.
    limits: Vec<(usize, f64)>,
    pd: Vec<f64>,
}

impl<'a> DcOpfProblem<'a> {
    /// `None` when the network has no slack bus (surfaced by
    /// [`solve_dcopf`] as an invalid-network error — no panic path).
    pub(crate) fn build(net: &'a Network) -> Option<Self> {
        let n = net.n_bus();
        let slack = net.slack()?;
        let mut th = vec![usize::MAX; n];
        let mut k = 0;
        for (i, t) in th.iter_mut().enumerate() {
            if i != slack {
                *t = k;
                k += 1;
            }
        }
        let mut pg = vec![usize::MAX; net.gens.len()];
        for (gi, g) in net.gens.iter().enumerate() {
            if g.in_service {
                pg[gi] = k;
                k += 1;
            }
        }
        let limits = net
            .branches
            .iter()
            .enumerate()
            .filter(|(_, b)| b.in_service && b.rating_mva > 0.0)
            .map(|(i, b)| (i, b.rating_mva / net.base_mva))
            .collect();
        let mut pd = vec![0.0; n];
        for l in net.loads.iter().filter(|l| l.in_service) {
            pd[l.bus] += l.p_mw / net.base_mva;
        }
        Some(DcOpfProblem {
            net,
            th,
            pg,
            nx: k,
            limits,
            pd,
        })
    }

    fn angle(&self, x: &[f64], bus: usize) -> f64 {
        if self.th[bus] == usize::MAX {
            0.0
        } else {
            x[self.th[bus]]
        }
    }

    /// DC flow `(θf − θt)/x` on a branch, p.u.
    fn flow(&self, x: &[f64], br: &Branch) -> f64 {
        (self.angle(x, br.from_bus) - self.angle(x, br.to_bus)) * (1.0 / br.x_pu)
    }
}

/// Every constraint is linear and the cost quadratic, so the callbacks
/// write vectors only: the three matrices are constants, stated in
/// [`Nlp::constants`].
impl Nlp for DcOpfProblem<'_> {
    fn nx(&self) -> usize {
        self.nx
    }

    fn neq(&self) -> usize {
        self.net.n_bus()
    }

    fn niq(&self) -> usize {
        2 * self.limits.len() + 2 * self.pg.iter().filter(|&&c| c != usize::MAX).count()
    }

    fn x0(&self, x: &mut [f64]) {
        x.fill(0.0);
        for (gi, g) in self.net.gens.iter().enumerate() {
            if g.in_service {
                x[self.pg[gi]] = 0.5 * (g.p_min_mw + g.p_max_mw) / self.net.base_mva;
            }
        }
    }

    fn objective(&self, x: &[f64], df: &mut [f64]) -> f64 {
        let base = self.net.base_mva;
        let mut f = 0.0;
        df.fill(0.0);
        for (gi, g) in self.net.gens.iter().enumerate() {
            if !g.in_service {
                continue;
            }
            let p_mw = x[self.pg[gi]] * base;
            f += g.cost.eval(p_mw);
            df[self.pg[gi]] = g.cost.marginal(p_mw) * base;
        }
        f
    }

    fn equalities<S: Stamp>(&self, x: &[f64], g: &mut [f64], _jg: &mut S) {
        g.copy_from_slice(&self.pd);
        for br in self.net.branches.iter().filter(|b| b.in_service) {
            let flow = self.flow(x, br);
            g[br.from_bus] += flow;
            g[br.to_bus] -= flow;
        }
        for (gi, gen) in self.net.gens.iter().enumerate() {
            if gen.in_service {
                g[gen.bus] -= x[self.pg[gi]];
            }
        }
    }

    fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], _jh: &mut S) {
        let (h_flow, h_gen) = h.split_at_mut(2 * self.limits.len());
        for (&(bi, lim), rows) in self.limits.iter().zip(h_flow.chunks_exact_mut(2)) {
            let br = &self.net.branches[bi];
            let flow = self.flow(x, br);
            rows[0] = flow - lim;
            rows[1] = -flow - lim;
        }
        let base = self.net.base_mva;
        let in_service = self
            .net
            .gens
            .iter()
            .enumerate()
            .filter(|(_, g)| g.in_service);
        for ((gi, g), rows) in in_service.zip(h_gen.chunks_exact_mut(2)) {
            rows[0] = g.p_min_mw / base - x[self.pg[gi]];
            rows[1] = x[self.pg[gi]] - g.p_max_mw / base;
        }
    }

    fn lagrangian_hessian<S: Stamp>(&self, _x: &[f64], _l: &[f64], _m: &[f64], _hess: &mut S) {}

    fn constants(&self) -> Constants {
        let base = self.net.base_mva;
        let mut jg = Triplets::with_capacity(self.neq(), self.nx, 4 * self.net.branches.len());
        for br in self.net.branches.iter().filter(|b| b.in_service) {
            let b = 1.0 / br.x_pu;
            for (bus, sign) in [(br.from_bus, 1.0), (br.to_bus, -1.0)] {
                if self.th[br.from_bus] != usize::MAX {
                    jg.push(bus, self.th[br.from_bus], sign * b);
                }
                if self.th[br.to_bus] != usize::MAX {
                    jg.push(bus, self.th[br.to_bus], -sign * b);
                }
            }
        }
        for (gi, gen) in self.net.gens.iter().enumerate() {
            if gen.in_service {
                jg.push(gen.bus, self.pg[gi], -1.0);
            }
        }

        let niq = self.niq();
        let mut jh = Triplets::with_capacity(niq, self.nx, 4 * niq);
        let mut row = 0;
        for &(bi, _) in &self.limits {
            let br = &self.net.branches[bi];
            let b = 1.0 / br.x_pu;
            for sign in [1.0, -1.0] {
                if self.th[br.from_bus] != usize::MAX {
                    jh.push(row, self.th[br.from_bus], sign * b);
                }
                if self.th[br.to_bus] != usize::MAX {
                    jh.push(row, self.th[br.to_bus], -sign * b);
                }
                row += 1;
            }
        }
        let mut hess = Triplets::new(self.nx, self.nx);
        for (gi, g) in self.net.gens.iter().enumerate() {
            if !g.in_service {
                continue;
            }
            jh.push(row, self.pg[gi], -1.0);
            jh.push(row + 1, self.pg[gi], 1.0);
            row += 2;
            if g.cost.c2 != 0.0 {
                hess.push(self.pg[gi], self.pg[gi], 2.0 * g.cost.c2 * base * base);
            }
        }
        Constants {
            jg: Some(jg.to_csr()),
            jh: Some(jh.to_csr()),
            hess: Some(hess.to_csr()),
        }
    }
}

/// Solves the DC optimal power flow. Fails with
/// [`AcopfError::InvalidNetwork`] on a network that does not validate (or
/// has no slack bus) and [`AcopfError::NotConverged`] when the interior
/// point method stops short.
pub fn solve_dcopf(net: &Network, opts: &IpmOptions) -> Result<DcOpfSolution, AcopfError> {
    if let Err(p) = net.validate() {
        return Err(AcopfError::InvalidNetwork {
            problems: p.iter().map(|e| e.to_string()).collect(),
        });
    }
    let Some(prob) = DcOpfProblem::build(net) else {
        return Err(AcopfError::InvalidNetwork {
            problems: vec!["no slack bus".to_string()],
        });
    };
    let res = ipm::solve(&prob, opts);
    if !res.converged {
        return Err(AcopfError::NotConverged {
            iterations: res.iterations,
            feascond: res.feascond,
            message: format!("DC-OPF: {}", res.message),
        });
    }
    let base = net.base_mva;
    let mut gen_p = vec![0.0; net.gens.len()];
    let mut cost = 0.0;
    for (gi, g) in net.gens.iter().enumerate() {
        if g.in_service {
            gen_p[gi] = res.x[prob.pg[gi]] * base;
            cost += g.cost.eval(gen_p[gi]);
        }
    }
    let flow_mw = net
        .branches
        .iter()
        .map(|br| {
            if br.in_service {
                (prob.angle(&res.x, br.from_bus) - prob.angle(&res.x, br.to_bus)) / br.x_pu * base
            } else {
                0.0
            }
        })
        .collect();
    let bus_va_deg = (0..net.n_bus())
        .map(|i| prob.angle(&res.x, i).to_degrees())
        .collect();
    Ok(DcOpfSolution {
        solved: true,
        objective_cost: cost,
        gen_dispatch_mw: gen_p,
        flow_mw,
        bus_va_deg,
        iterations: res.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};

    #[test]
    fn solves_ieee14() {
        let net = cases::load(CaseId::Ieee14);
        let sol = solve_dcopf(&net, &IpmOptions::default()).unwrap();
        assert!(sol.solved);
        // Lossless: generation equals load.
        let total: f64 = sol.gen_dispatch_mw.iter().sum();
        assert!((total - net.total_load_mw()).abs() < 0.01);
    }

    #[test]
    fn cost_below_acopf_on_ieee14() {
        // DC ignores losses and voltage, so with the same cost curves its
        // optimum cannot exceed the AC optimum (no binding flow limits in
        // case14: unrated branches).
        let net = cases::load(CaseId::Ieee14);
        let dc = solve_dcopf(&net, &IpmOptions::default()).unwrap();
        let ac = crate::solve_acopf(&net, &crate::AcopfOptions::default()).unwrap();
        assert!(
            dc.objective_cost <= ac.objective_cost,
            "DC {} vs AC {}",
            dc.objective_cost,
            ac.objective_cost
        );
        assert!(dc.objective_cost > 0.8 * ac.objective_cost);
    }

    #[test]
    fn flow_limits_respected_on_ieee30() {
        let net = cases::load(CaseId::Ieee30);
        let sol = solve_dcopf(&net, &IpmOptions::default()).unwrap();
        for (idx, br) in net.branches.iter().enumerate() {
            if br.rating_mva > 0.0 && br.in_service {
                assert!(
                    sol.flow_mw[idx].abs() <= br.rating_mva * 1.001,
                    "branch {idx} flow {} exceeds {}",
                    sol.flow_mw[idx],
                    br.rating_mva
                );
            }
        }
    }

    #[test]
    fn matches_economic_dispatch_when_unconstrained() {
        // case14 has no branch ratings: DC-OPF should equal pure ED.
        let net = cases::load(CaseId::Ieee14);
        let dc = solve_dcopf(&net, &IpmOptions::default()).unwrap();
        let ed = crate::dispatch::economic_dispatch(&net, net.total_load_mw());
        assert!(
            (dc.objective_cost - ed.cost).abs() < 1.0,
            "DC {} vs ED {}",
            dc.objective_cost,
            ed.cost
        );
    }
}
