//! The AC optimal power flow problem, solved by the interior point method.
//!
//! Formulation (all quantities p.u. on the system base):
//!
//! - **Variables** `x = [θ (non-slack buses), Vm (all buses), Pg, Qg]`.
//! - **Objective** Σ c2·(Pg·S_b)² + c1·(Pg·S_b) + c0 over in-service
//!   units.
//! - **Equalities** nodal active/reactive balance at every bus, expressed
//!   as sums of branch-end flows (see [`crate::flows`]) plus shunts minus
//!   net generation.
//! - **Inequalities** squared MVA flow limits at both ends of every rated
//!   branch, plus box bounds on `Vm`, `Pg`, `Qg`.
//!
//! Gradients and Hessians are exact; the IPM is the MIPS-style solver in
//! [`crate::ipm`].

use crate::flows::{end_flow, EndFlow, THF, THT, VF, VT};
use crate::ipm::{self, IpmOptions, Nlp, Stamp};
use crate::types::{AcopfError, AcopfSolution, BranchLoading};
use gm_network::{Network, YBus};
use gm_numeric::Fnv1a;
use std::cell::{Ref, RefCell};

/// ACOPF solver options.
#[derive(Clone, Debug, Default)]
pub struct AcopfOptions {
    /// IPM controls.
    pub ipm: IpmOptions,
    /// Warm start voltages/dispatch from the case values instead of flat.
    pub warm_start: bool,
}

impl AcopfOptions {
    /// Deterministic fingerprint of every solver control that can affect
    /// the solution, for cross-session solver-cache keys (gm-serve). Two
    /// option sets with identical fields always fingerprint equal; any
    /// tolerance, iteration-limit, or warm-start change fingerprints
    /// different. The destructuring is exhaustive on purpose: a new
    /// field fails to compile here until it is folded in.
    pub fn fingerprint(&self) -> u64 {
        let AcopfOptions { ipm, warm_start } = self;
        let mut h = Fnv1a::new();
        h.u64(ipm.fingerprint());
        h.u64(u64::from(*warm_start));
        h.finish()
    }
}

/// Index bookkeeping for the variable vector.
pub(crate) struct Layout {
    /// θ column per bus (usize::MAX for the slack).
    pub(crate) th: Vec<usize>,
    /// Vm column per bus.
    pub(crate) vm: Vec<usize>,
    /// Pg column per in-service generator (MAX for off units).
    pub(crate) pg: Vec<usize>,
    /// Qg column per in-service generator.
    pub(crate) qg: Vec<usize>,
    pub(crate) nx: usize,
}

impl Layout {
    /// `None` when the network has no slack bus (callers surface it as
    /// [`AcopfError::InvalidNetwork`] — no panic path remains).
    fn build(net: &Network) -> Option<Layout> {
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
        let vm: Vec<usize> = (0..n).map(|i| k + i).collect();
        k += n;
        let mut pg = vec![usize::MAX; net.gens.len()];
        for (gi, g) in net.gens.iter().enumerate() {
            if g.in_service {
                pg[gi] = k;
                k += 1;
            }
        }
        let mut qg = vec![usize::MAX; net.gens.len()];
        for (gi, g) in net.gens.iter().enumerate() {
            if g.in_service {
                qg[gi] = k;
                k += 1;
            }
        }
        Some(Layout {
            th,
            vm,
            pg,
            qg,
            nx: k,
        })
    }
}

/// One rated branch end tracked as a flow-limit inequality.
struct FlowLimit {
    branch: usize,
    /// true = from end, false = to end.
    from_end: bool,
    /// Squared limit (p.u.²).
    smax2: f64,
}

/// The assembled NLP.
pub(crate) struct AcopfProblem<'a> {
    pub(crate) net: &'a Network,
    pub(crate) ybus: YBus,
    pub(crate) layout: Layout,
    limits: Vec<FlowLimit>,
    /// Bound rows appended after the flow limits: (variable column,
    /// coefficient, constant) representing `coef·x + const ≤ 0`.
    bounds: Vec<(usize, f64, f64)>,
    /// Load totals per bus in p.u. (P, Q).
    pd: Vec<f64>,
    qd: Vec<f64>,
    /// Shunt (g, b) per bus in p.u.
    shunt: Vec<(f64, f64)>,
    warm_start: bool,
    /// Branch-end flows at the iterate they were last asked for. The
    /// three constraint callbacks and [`unpack_solution`] all evaluate
    /// at the same `x`, so each iterate's flows are computed once.
    flows: RefCell<FlowMemo>,
}

/// Both ends of every branch (`None` when out of service) at `x`.
#[derive(Default)]
struct FlowMemo {
    x: Vec<f64>,
    ends: Vec<Option<(EndFlow, EndFlow)>>,
}

impl<'a> AcopfProblem<'a> {
    /// `None` when the network has no slack bus.
    pub(crate) fn build(net: &'a Network, warm_start: bool) -> Option<AcopfProblem<'a>> {
        let n = net.n_bus();
        let ybus = YBus::assemble(net);
        let layout = Layout::build(net)?;
        let base = net.base_mva;

        let mut limits = Vec::new();
        for (bi, br) in net.branches.iter().enumerate() {
            if br.in_service && br.rating_mva > 0.0 {
                let smax2 = (br.rating_mva / base).powi(2);
                limits.push(FlowLimit {
                    branch: bi,
                    from_end: true,
                    smax2,
                });
                limits.push(FlowLimit {
                    branch: bi,
                    from_end: false,
                    smax2,
                });
            }
        }

        let mut bounds = Vec::new();
        for (i, bus) in net.buses.iter().enumerate() {
            // vmin − Vm ≤ 0 ; Vm − vmax ≤ 0.
            bounds.push((layout.vm[i], -1.0, bus.vmin_pu));
            bounds.push((layout.vm[i], 1.0, -bus.vmax_pu));
        }
        for (gi, g) in net.gens.iter().enumerate() {
            if !g.in_service {
                continue;
            }
            bounds.push((layout.pg[gi], -1.0, g.p_min_mw / base));
            bounds.push((layout.pg[gi], 1.0, -g.p_max_mw / base));
            bounds.push((layout.qg[gi], -1.0, g.q_min_mvar / base));
            bounds.push((layout.qg[gi], 1.0, -g.q_max_mvar / base));
        }

        let mut pd = vec![0.0; n];
        let mut qd = vec![0.0; n];
        for l in net.loads.iter().filter(|l| l.in_service) {
            pd[l.bus] += l.p_mw / base;
            qd[l.bus] += l.q_mvar / base;
        }
        let mut shunt = vec![(0.0, 0.0); n];
        for s in net.shunts.iter().filter(|s| s.in_service) {
            shunt[s.bus].0 += s.g_mw / base;
            shunt[s.bus].1 += s.b_mvar / base;
        }

        Some(AcopfProblem {
            net,
            ybus,
            layout,
            limits,
            bounds,
            pd,
            qd,
            shunt,
            warm_start,
            flows: RefCell::default(),
        })
    }

    /// Decodes θ and Vm for a bus from the variable vector.
    #[inline]
    fn bus_state(&self, x: &[f64], bus: usize) -> (f64, f64) {
        let th = if self.layout.th[bus] == usize::MAX {
            0.0
        } else {
            x[self.layout.th[bus]]
        };
        (th, x[self.layout.vm[bus]])
    }

    /// Both ends of every in-service branch at `x`, evaluated on the
    /// first request for a new `x` and served from the memo after that.
    fn branch_flows(&self, x: &[f64]) -> Ref<'_, [Option<(EndFlow, EndFlow)>]> {
        let stale = {
            let memo = self.flows.borrow();
            memo.ends.len() != self.net.branches.len() || memo.x != x
        };
        if stale {
            let mut memo = self.flows.borrow_mut();
            memo.x.clear();
            memo.x.extend_from_slice(x);
            memo.ends.clear();
            memo.ends
                .extend(self.net.branches.iter().enumerate().map(|(bi, br)| {
                    if !br.in_service {
                        return None;
                    }
                    let blk = &self.ybus.branch[bi];
                    let (thf, vf) = self.bus_state(x, br.from_bus);
                    let (tht, vt) = self.bus_state(x, br.to_bus);
                    let from = end_flow(thf, tht, vf, vt, blk.yff, blk.yft);
                    let to = end_flow(tht, thf, vt, vf, blk.ytt, blk.ytf);
                    Some((from, to))
                }));
        }
        Ref::map(self.flows.borrow(), |memo| &memo.ends[..])
    }

    /// The four variable columns of a branch oriented for the given end.
    fn end_cols(&self, bi: usize, from_end: bool) -> [usize; 4] {
        let br = &self.net.branches[bi];
        let (fb, tb) = if from_end {
            (br.from_bus, br.to_bus)
        } else {
            (br.to_bus, br.from_bus)
        };
        [
            self.layout.th[fb],
            self.layout.th[tb],
            self.layout.vm[fb],
            self.layout.vm[tb],
        ]
    }
}

impl Nlp for AcopfProblem<'_> {
    fn nx(&self) -> usize {
        self.layout.nx
    }

    fn neq(&self) -> usize {
        2 * self.net.n_bus()
    }

    /// Two flow limits per rated branch, then the box bounds.
    fn niq(&self) -> usize {
        self.limits.len() + self.bounds.len()
    }

    fn x0(&self, x: &mut [f64]) {
        x.fill(0.0);
        let base = self.net.base_mva;
        for (i, bus) in self.net.buses.iter().enumerate() {
            let vm0 = if self.warm_start {
                bus.vm_pu.clamp(bus.vmin_pu + 0.005, bus.vmax_pu - 0.005)
            } else {
                0.5 * (bus.vmin_pu + bus.vmax_pu)
            };
            x[self.layout.vm[i]] = vm0;
            if self.layout.th[i] != usize::MAX && self.warm_start {
                x[self.layout.th[i]] = bus.va_deg.to_radians();
            }
        }
        for (gi, g) in self.net.gens.iter().enumerate() {
            if !g.in_service {
                continue;
            }
            let span = (g.p_max_mw - g.p_min_mw).max(1e-6);
            let p0 = if self.warm_start {
                g.p_mw
                    .clamp(g.p_min_mw + 0.02 * span, g.p_max_mw - 0.02 * span)
            } else {
                0.5 * (g.p_min_mw + g.p_max_mw)
            };
            x[self.layout.pg[gi]] = p0 / base;
            x[self.layout.qg[gi]] = 0.5 * (g.q_min_mvar + g.q_max_mvar) / base;
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
            let col = self.layout.pg[gi];
            let p_mw = x[col] * base;
            f += g.cost.eval(p_mw);
            df[col] = g.cost.marginal(p_mw) * base;
        }
        f
    }

    fn equalities<S: Stamp>(&self, x: &[f64], g: &mut [f64], jg: &mut S) {
        let n = self.net.n_bus();
        let flows = self.branch_flows(x);
        // Row layout: P balance rows 0..n, Q balance rows n..2n.
        g.fill(0.0);

        // Load and generation terms.
        for i in 0..n {
            g[i] += self.pd[i];
            g[n + i] += self.qd[i];
            // Shunt consumption: P = V²·gsh, Q = −V²·bsh.
            let (gsh, bsh) = self.shunt[i];
            let vm = x[self.layout.vm[i]];
            g[i] += vm * vm * gsh;
            g[n + i] -= vm * vm * bsh;
            if gsh != 0.0 {
                jg.add(i, self.layout.vm[i], 2.0 * vm * gsh);
            }
            if bsh != 0.0 {
                jg.add(n + i, self.layout.vm[i], -2.0 * vm * bsh);
            }
        }
        for (gi, gen) in self.net.gens.iter().enumerate() {
            if !gen.in_service {
                continue;
            }
            g[gen.bus] -= x[self.layout.pg[gi]];
            g[n + gen.bus] -= x[self.layout.qg[gi]];
            jg.add(gen.bus, self.layout.pg[gi], -1.0);
            jg.add(n + gen.bus, self.layout.qg[gi], -1.0);
        }

        // Branch-end contributions.
        for (bi, br) in self.net.branches.iter().enumerate() {
            let Some((from, to)) = &flows[bi] else {
                continue;
            };
            for (end, bus, from_end) in [(from, br.from_bus, true), (to, br.to_bus, false)] {
                g[bus] += end.p;
                g[n + bus] += end.q;
                let cols = self.end_cols(bi, from_end);
                for k in 0..4 {
                    if cols[k] == usize::MAX {
                        continue;
                    }
                    jg.add(bus, cols[k], end.dp[k]);
                    jg.add(n + bus, cols[k], end.dq[k]);
                }
            }
        }
    }

    fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], jh: &mut S) {
        let flows = self.branch_flows(x);

        for (r, lim) in self.limits.iter().enumerate() {
            let Some((from, to)) = flows[lim.branch].as_ref() else {
                // Limits are built for in-service branches only; an
                // out-of-service branch carries zero flow → h = -smax².
                h[r] = -lim.smax2;
                continue;
            };
            let end = if lim.from_end { from } else { to };
            h[r] = end.p * end.p + end.q * end.q - lim.smax2;
            let cols = self.end_cols(lim.branch, lim.from_end);
            for k in 0..4 {
                if cols[k] == usize::MAX {
                    continue;
                }
                jh.add(r, cols[k], 2.0 * (end.p * end.dp[k] + end.q * end.dq[k]));
            }
        }
        let off = self.limits.len();
        for (r, &(col, coef, konst)) in self.bounds.iter().enumerate() {
            h[off + r] = coef * x[col] + konst;
            jh.add(off + r, col, coef);
        }
    }

    fn lagrangian_hessian<S: Stamp>(&self, x: &[f64], lam: &[f64], mu: &[f64], hess: &mut S) {
        let n = self.net.n_bus();
        let base = self.net.base_mva;
        let flows = self.branch_flows(x);

        // Objective curvature: 2·c2·base² on each Pg.
        for (gi, g) in self.net.gens.iter().enumerate() {
            if g.in_service && g.cost.c2 != 0.0 {
                hess.add(
                    self.layout.pg[gi],
                    self.layout.pg[gi],
                    2.0 * g.cost.c2 * base * base,
                );
            }
        }

        // Shunt curvature in the balance equations.
        for i in 0..n {
            let (gsh, bsh) = self.shunt[i];
            if gsh != 0.0 || bsh != 0.0 {
                let w = lam[i] * 2.0 * gsh + lam[n + i] * (-2.0 * bsh);
                hess.add(self.layout.vm[i], self.layout.vm[i], w);
            }
        }

        // Branch-end curvature: balance equations weighted by λ, flow
        // limits weighted by μ.
        for (bi, br) in self.net.branches.iter().enumerate() {
            let Some((from, to)) = &flows[bi] else {
                continue;
            };
            for (end, bus, from_end) in [(from, br.from_bus, true), (to, br.to_bus, false)] {
                let cols = self.end_cols(bi, from_end);
                let (wp, wq) = (lam[bus], lam[n + bus]);
                scatter_4x4(hess, &cols, |r, c| wp * end.d2p[r][c] + wq * end.d2q[r][c]);
            }
        }
        for (r, lim) in self.limits.iter().enumerate() {
            let m = mu[r];
            let Some((from, to)) = flows[lim.branch].as_ref() else {
                continue; // zero flow on an out-of-service branch
            };
            let end = if lim.from_end { from } else { to };
            let cols = self.end_cols(lim.branch, lim.from_end);
            // ∇²(P²+Q²) = 2(∇P∇Pᵀ + P∇²P + ∇Q∇Qᵀ + Q∇²Q).
            scatter_4x4(hess, &cols, |r2, c2| {
                2.0 * m
                    * (end.dp[r2] * end.dp[c2]
                        + end.p * end.d2p[r2][c2]
                        + end.dq[r2] * end.dq[c2]
                        + end.q * end.d2q[r2][c2])
            });
        }
    }
}

/// Stamps a dense symmetric 4×4 block, skipping fixed (slack-θ) columns.
/// Zero values are stamped too: the Hessian pattern must not depend on
/// the iterate.
fn scatter_4x4<S: Stamp>(out: &mut S, cols: &[usize; 4], val: impl Fn(usize, usize) -> f64) {
    for r in [THF, THT, VF, VT] {
        if cols[r] == usize::MAX {
            continue;
        }
        for c in [THF, THT, VF, VT] {
            if cols[c] == usize::MAX {
                continue;
            }
            out.add(cols[r], cols[c], val(r, c));
        }
    }
}

/// Solves the ACOPF for a network.
pub fn solve_acopf(net: &Network, opts: &AcopfOptions) -> Result<AcopfSolution, AcopfError> {
    let _span = gm_telemetry::span!("acopf.solve", case = net.name, n_bus = net.n_bus());
    gm_telemetry::counter_add("acopf.solves", 1);
    if let Err(problems) = net.validate() {
        return Err(AcopfError::InvalidNetwork {
            problems: problems.iter().map(|p| p.to_string()).collect(),
        });
    }
    let started = std::time::Instant::now();
    let Some(prob) = AcopfProblem::build(net, opts.warm_start) else {
        return Err(AcopfError::InvalidNetwork {
            problems: vec!["no slack bus".to_string()],
        });
    };
    let res = ipm::solve(&prob, &opts.ipm);
    if !res.converged {
        return Err(AcopfError::NotConverged {
            iterations: res.iterations,
            feascond: res.feascond,
            message: res.message,
        });
    }
    let elapsed = started.elapsed().as_secs_f64();
    Ok(unpack_solution(&prob, &res, elapsed))
}

/// Converts a converged IPM result into the solution schema (shared by
/// the plain ACOPF and the SCOPF extension).
pub(crate) fn unpack_solution(
    prob: &AcopfProblem<'_>,
    res: &ipm::IpmResult,
    elapsed: f64,
) -> AcopfSolution {
    let net = prob.net;
    let base = net.base_mva;
    let x = &res.x;
    let n = net.n_bus();
    let bus_vm: Vec<f64> = (0..n).map(|i| x[prob.layout.vm[i]]).collect();
    let bus_va: Vec<f64> = (0..n)
        .map(|i| {
            if prob.layout.th[i] == usize::MAX {
                0.0
            } else {
                x[prob.layout.th[i]].to_degrees()
            }
        })
        .collect();
    // Active balance rows are 0..n; their multipliers are $/h per p.u.,
    // so dividing by the MVA base yields $/MWh nodal prices.
    let bus_lmp: Vec<f64> = (0..n).map(|i| res.lam[i] / base).collect();
    let mut gen_p = vec![0.0; net.gens.len()];
    let mut gen_q = vec![0.0; net.gens.len()];
    let mut cost = 0.0;
    for (gi, g) in net.gens.iter().enumerate() {
        if !g.in_service {
            continue;
        }
        gen_p[gi] = x[prob.layout.pg[gi]] * base;
        gen_q[gi] = x[prob.layout.qg[gi]] * base;
        cost += g.cost.eval(gen_p[gi]);
    }

    let flows = prob.branch_flows(x);
    let mut loading = Vec::with_capacity(net.branches.len());
    let mut losses = 0.0;
    let mut max_loading = 0.0f64;
    for (bi, br) in net.branches.iter().enumerate() {
        match &flows[bi] {
            None => loading.push(BranchLoading {
                index: bi,
                s_mva: 0.0,
                loading_pct: 0.0,
                p_from_mw: 0.0,
            }),
            Some((from, to)) => {
                losses += (from.p + to.p) * base;
                let s_from = (from.p * from.p + from.q * from.q).sqrt() * base;
                let s_to = (to.p * to.p + to.q * to.q).sqrt() * base;
                let s = s_from.max(s_to);
                let pct = if br.rating_mva > 0.0 {
                    100.0 * s / br.rating_mva
                } else {
                    0.0
                };
                max_loading = max_loading.max(pct);
                loading.push(BranchLoading {
                    index: bi,
                    s_mva: s,
                    loading_pct: pct,
                    p_from_mw: from.p * base,
                });
            }
        }
    }

    let min_v = bus_vm.iter().copied().fold(f64::INFINITY, f64::min);
    let max_v = bus_vm.iter().copied().fold(0.0f64, f64::max);
    let binding = res.mu.iter().filter(|&&m| m > 1e-4).count();
    let total_generation_mw: f64 = gen_p.iter().sum();

    AcopfSolution {
        case_name: net.name.clone(),
        solved: true,
        objective_cost: cost,
        gen_dispatch_mw: gen_p,
        gen_dispatch_mvar: gen_q,
        bus_vm_pu: bus_vm,
        bus_va_deg: bus_va,
        bus_lmp,
        branch_loading: loading,
        min_voltage_pu: min_v,
        max_voltage_pu: max_v,
        max_thermal_loading_pct: max_loading,
        total_generation_mw,
        total_load_mw: net.total_load_mw(),
        losses_mw: losses,
        iterations: res.iterations,
        solve_time_s: elapsed,
        convergence_message: res.message.clone(),
        binding_constraints: binding,
    }
}
