//! Generic primal-dual interior point method for smooth NLPs.
//!
//! The algorithm follows MATPOWER's MIPS solver (Wang et al.), the same
//! family as the PIPS solver behind `pandapower.runopp` that the paper
//! uses: perturbed-KKT Newton steps on
//!
//! ```text
//! min f(x)  s.t.  g(x) = 0,  h(x) + z = 0,  z > 0
//! ```
//!
//! with slack/dual elimination to the reduced symmetric system
//!
//! ```text
//! [ H + Jhᵀ·Z⁻¹M·Jh   Jgᵀ ] [Δx]   [ −N ]
//! [ Jg                 0  ] [Δλ] = [ −g ]
//! ```
//!
//! separate primal/dual step clipping, and the standard normalized
//! convergence criteria (feasibility, gradient, complementarity, cost).
//!
//! The reduced system is symmetric and its pattern is fixed for the
//! whole solve (the [`Nlp`] callbacks return structural patterns), so it
//! is factored by the static-order [`SparseLdl`]: one symbolic analysis
//! per solve, a numeric refactorization per barrier iteration. The
//! static order carries no stability guarantee, so every step is
//! verified instead — refined against the assembled system to a
//! relative residual of 1e-12 — and an iteration whose LDLᵀ breaks down or
//! cannot be refined that far takes its step from a one-shot pivoting
//! LU, counted as `acopf.kkt.lu_fallbacks`.

use gm_faults::FaultKind;
use gm_numeric::Fnv1a;
use gm_sparse::{CsMat, ScatterMap, SparseLdl, SparseLu, Triplets};

/// Relative residual (as [`SparseLdl::solve_refined`] measures it)
/// every LDLᵀ step is refined to before the IPM takes it.
const KKT_RESIDUAL_TOL: f64 = 1e-12;
/// Correction solves allowed per step before falling back to LU.
const KKT_REFINE_STEPS: usize = 12;

/// A smooth nonlinear program the IPM can solve.
///
/// The sparsity pattern of each returned matrix must depend only on the
/// problem, never on `x` or the multipliers: a derivative that happens
/// to be zero at some iterate is stored as an explicit zero
/// ([`Triplets::to_csr_structural`]), so the KKT pattern — and with it
/// the symbolic factorization — holds for the whole solve.
pub trait Nlp {
    /// Number of primal variables.
    fn nx(&self) -> usize;
    /// Initial point (will be used as-is; callers should interior-shift
    /// bound-constrained variables).
    fn x0(&self) -> Vec<f64>;
    /// Objective value and gradient.
    fn objective(&self, x: &[f64]) -> (f64, Vec<f64>);
    /// Equality constraint values and Jacobian (rows = constraints).
    fn equalities(&self, x: &[f64]) -> (Vec<f64>, CsMat<f64>);
    /// Inequality constraint values (`h ≤ 0` feasible) and Jacobian.
    fn inequalities(&self, x: &[f64]) -> (Vec<f64>, CsMat<f64>);
    /// Hessian of the Lagrangian `∇²f + Σλ·∇²g + Σμ·∇²h` (lower+upper,
    /// i.e. the full symmetric matrix).
    fn lagrangian_hessian(&self, x: &[f64], lam: &[f64], mu: &[f64]) -> CsMat<f64>;
}

/// IPM options.
#[derive(Clone, Debug)]
pub struct IpmOptions {
    /// Feasibility tolerance.
    pub feastol: f64,
    /// Gradient tolerance.
    pub gradtol: f64,
    /// Complementarity tolerance.
    pub comptol: f64,
    /// Cost-change tolerance.
    pub costtol: f64,
    /// Iteration budget.
    pub max_iter: usize,
    /// Centering parameter σ.
    pub sigma: f64,
    /// Step back-off ξ.
    pub xi: f64,
}

impl Default for IpmOptions {
    fn default() -> Self {
        IpmOptions {
            feastol: 1e-6,
            gradtol: 1e-6,
            comptol: 1e-6,
            costtol: 1e-6,
            max_iter: 150,
            sigma: 0.1,
            xi: 0.99995,
        }
    }
}

impl IpmOptions {
    /// Deterministic fingerprint of every IPM control, for cache keys.
    /// The destructuring is exhaustive on purpose: a new field fails to
    /// compile here until it is folded in.
    pub fn fingerprint(&self) -> u64 {
        let IpmOptions {
            feastol,
            gradtol,
            comptol,
            costtol,
            max_iter,
            sigma,
            xi,
        } = self;
        let mut h = Fnv1a::new();
        for tol in [feastol, gradtol, comptol, costtol] {
            h.u64(tol.to_bits());
        }
        h.u64(*max_iter as u64);
        h.u64(sigma.to_bits());
        h.u64(xi.to_bits());
        h.finish()
    }
}

/// Result of an IPM run.
#[derive(Clone, Debug)]
pub struct IpmResult {
    /// Whether all four convergence criteria were met.
    pub converged: bool,
    /// Final primal point.
    pub x: Vec<f64>,
    /// Final objective value.
    pub f: f64,
    /// Equality multipliers.
    pub lam: Vec<f64>,
    /// Inequality multipliers.
    pub mu: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final feasibility condition.
    pub feascond: f64,
    /// Final gradient condition.
    pub gradcond: f64,
    /// Final complementarity condition.
    pub compcond: f64,
    /// Human-readable status.
    pub message: String,
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// Solves the NLP.
pub fn solve<P: Nlp>(prob: &P, opts: &IpmOptions) -> IpmResult {
    let _span = gm_telemetry::span!("acopf.ipm.solve", nx = prob.nx());
    gm_telemetry::counter_add("acopf.ipm.solves", 1);
    if let Some(reg) = gm_telemetry::current() {
        // Log-scale buckets: the barrier parameter decays over ~10 decades.
        reg.register_histogram(
            "acopf.ipm.barrier_mu",
            &[1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0, 100.0],
        );
        reg.register_histogram(
            "acopf.kkt.residual",
            &[1e-16, 1e-15, 1e-14, 1e-13, 1e-12, 1e-9, 1e-6],
        );
    }
    let nx = prob.nx();
    let mut x = prob.x0();
    assert_eq!(x.len(), nx, "x0 length mismatch");

    let (mut f, mut df) = prob.objective(&x);
    let (mut g, mut jg) = prob.equalities(&x);
    let (mut h, mut jh) = prob.inequalities(&x);
    let neq = g.len();
    let niq = h.len();

    // Slack and dual initialization (MIPS defaults).
    let z0 = 1.0;
    let mut z: Vec<f64> = h.iter().map(|&hi| (-hi).max(z0)).collect();
    let mut gamma = 1.0f64;
    let mut mu: Vec<f64> = z.iter().map(|zi| gamma / zi).collect();
    let mut lam = vec![0.0f64; neq];

    let mut f_old = f;
    let mut iterations = 0usize;
    let mut message = String::from("iteration limit reached");
    let mut converged = false;

    let (mut feascond, mut gradcond, mut compcond) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);

    // KKT state, reused across barrier iterations: the stamping buffer,
    // the assembled matrix with its scatter plan, and the LDLᵀ analysis.
    let n_kkt = nx + neq;
    let mut kkt_t: Triplets<f64> = Triplets::new(n_kkt, n_kkt);
    let mut kkt: Option<(CsMat<f64>, ScatterMap, SparseLdl)> = None;
    let mut rhs: Vec<f64> = Vec::new();
    let mut sol: Vec<f64> = Vec::new();
    let mut solve_ws: Vec<f64> = Vec::new();

    for it in 0..=opts.max_iter {
        iterations = it;
        // Lagrangian gradient Lx = df + Jgᵀλ + Jhᵀμ.
        let mut lx = df.clone();
        let jgt_lam = jg.mul_vec_t(&lam);
        let jht_mu = jh.mul_vec_t(&mu);
        for i in 0..nx {
            lx[i] += jgt_lam[i] + jht_mu[i];
        }

        let maxh = h.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let norm_x = norm_inf(&x).max(norm_inf(&z));
        let norm_lam = norm_inf(&lam).max(norm_inf(&mu));
        feascond = norm_inf(&g).max(maxh.max(0.0)) / (1.0 + norm_x);
        gradcond = norm_inf(&lx) / (1.0 + norm_lam);
        compcond = z.iter().zip(&mu).map(|(zi, mi)| zi * mi).sum::<f64>() / (1.0 + norm_inf(&x));
        let costcond = (f - f_old).abs() / (1.0 + f_old.abs());

        if feascond < opts.feastol
            && gradcond < opts.gradtol
            && compcond < opts.comptol
            && (it > 0 && costcond < opts.costtol)
        {
            converged = true;
            message = format!("converged in {it} iterations");
            break;
        }
        if it == opts.max_iter {
            break;
        }

        // ---- Reduced KKT assembly.
        let hess = prob.lagrangian_hessian(&x, &lam, &mu);
        kkt_t.clear();
        let t = &mut kkt_t;
        for (i, j, v) in hess.iter() {
            t.push(i, j, v);
        }
        // Jhᵀ·(Z⁻¹M)·Jh: accumulate row-pair products per inequality row.
        for r in 0..niq {
            let wr = mu[r] / z[r];
            let (cols, vals) = jh.row(r);
            for (idx_a, (&ca, &va)) in cols.iter().zip(vals).enumerate() {
                for (&cb, &vb) in cols[idx_a..].iter().zip(&vals[idx_a..]) {
                    let prod = wr * va * vb;
                    t.push(ca, cb, prod);
                    if ca != cb {
                        t.push(cb, ca, prod);
                    }
                }
            }
        }
        // Light primal regularization keeps the factorization stable.
        for i in 0..nx {
            t.push(i, i, 1e-10);
        }
        for (r, j, v) in jg.iter() {
            t.push(nx + r, j, v);
            t.push(j, nx + r, v);
        }
        // Tiny dual regularization on the (2,2) block.
        for r in 0..neq {
            t.push(nx + r, nx + r, -1e-11);
        }
        // Same stamping sequence as the last iteration (always, with
        // structural callbacks): refresh the values in place. Otherwise
        // assemble afresh, zeros kept, and analyze the new pattern.
        let same_pattern = match &mut kkt {
            Some((m, map, _)) => map.scatter(&kkt_t, m),
            None => false,
        };
        if !same_pattern {
            let (m, map) = kkt_t.to_csr_structural_with_map();
            kkt = SparseLdl::analyze(&m).ok().map(|ldl| (m, map, ldl));
        }
        let Some((kkt_m, _, ldl)) = &mut kkt else {
            message = format!("KKT system not square at iteration {it}");
            break;
        };

        // RHS: [−N; −g], N = Lx + Jhᵀ·Z⁻¹·(γe + M·h).
        let zinv_term: Vec<f64> = (0..niq).map(|r| (gamma + mu[r] * h[r]) / z[r]).collect();
        let jht_zt = jh.mul_vec_t(&zinv_term);
        // N = Lx + Jhᵀ·Z⁻¹(γe + M·h), exactly as in MIPS: eliminating Δz
        // and Δμ folds the current duals (Z⁻¹·M·z = μ) back into the
        // barrier term.
        rhs.resize(n_kkt, 0.0);
        for i in 0..nx {
            rhs[i] = -(lx[i] + jht_zt[i]);
        }
        for r in 0..neq {
            rhs[nx + r] = -g[r];
        }

        let forced_fallback = gm_faults::inject("acopf.kkt.ldl") == Some(FaultKind::LuSingular);
        let refined = if forced_fallback {
            None
        } else {
            ldl.factor(kkt_m)
                .and_then(|()| {
                    ldl.solve_refined(
                        kkt_m,
                        &rhs,
                        &mut sol,
                        &mut solve_ws,
                        KKT_RESIDUAL_TOL,
                        KKT_REFINE_STEPS,
                    )
                })
                .ok()
        };
        match refined {
            Some(r) => {
                gm_telemetry::counter_add("acopf.kkt.refine_steps", r.steps as u64);
                gm_telemetry::histogram_record("acopf.kkt.residual", r.residual);
            }
            None => {
                // The static pivot order failed on these values: take
                // this one step from the pivoting LU instead.
                gm_telemetry::counter_add("acopf.kkt.lu_fallbacks", 1);
                let Ok(lu) = SparseLu::factor(kkt_m) else {
                    message = format!("singular KKT system at iteration {it}");
                    break;
                };
                sol.clone_from(&rhs);
                solve_ws.resize(n_kkt, 0.0);
                lu.solve_in_place(&mut sol, &mut solve_ws);
            }
        }
        let dx = &sol[..nx];
        let dlam = &sol[nx..];

        // Recover slack and dual steps.
        let jh_dx = jh.mul_vec(dx);
        let dz: Vec<f64> = (0..niq).map(|r| -(h[r] + z[r]) - jh_dx[r]).collect();
        let dmu: Vec<f64> = (0..niq)
            .map(|r| gamma / z[r] - mu[r] - (mu[r] / z[r]) * dz[r])
            .collect();

        // Step lengths.
        let mut alpha_p: f64 = 1.0;
        for r in 0..niq {
            if dz[r] < 0.0 {
                alpha_p = alpha_p.min(-opts.xi * z[r] / dz[r]);
            }
        }
        let mut alpha_d: f64 = 1.0;
        for r in 0..niq {
            if dmu[r] < 0.0 {
                alpha_d = alpha_d.min(-opts.xi * mu[r] / dmu[r]);
            }
        }
        if alpha_p < 1e-14 && alpha_d < 1e-14 {
            message = format!("numerically stuck at iteration {it}");
            break;
        }

        for i in 0..nx {
            x[i] += alpha_p * dx[i];
        }
        for r in 0..niq {
            z[r] = (z[r] + alpha_p * dz[r]).max(1e-14);
            mu[r] = (mu[r] + alpha_d * dmu[r]).max(1e-14);
        }
        for r in 0..neq {
            lam[r] += alpha_d * dlam[r];
        }
        gamma = opts.sigma * z.iter().zip(&mu).map(|(a, b)| a * b).sum::<f64>() / niq.max(1) as f64;
        gm_telemetry::histogram_record("acopf.ipm.barrier_mu", gamma);

        f_old = f;
        let (fnew, dfnew) = prob.objective(&x);
        f = fnew;
        df = dfnew;
        let (gnew, jgnew) = prob.equalities(&x);
        g = gnew;
        jg = jgnew;
        let (hnew, jhnew) = prob.inequalities(&x);
        h = hnew;
        jh = jhnew;
        if !f.is_finite() {
            message = format!("objective became non-finite at iteration {it}");
            break;
        }
    }

    gm_telemetry::counter_add("acopf.ipm.iterations", iterations as u64);
    gm_telemetry::histogram_record("acopf.ipm.iterations_per_solve", iterations as f64);
    gm_telemetry::counter_add(
        if converged {
            "acopf.ipm.converged"
        } else {
            "acopf.ipm.failed"
        },
        1,
    );
    IpmResult {
        converged,
        x,
        f,
        lam,
        mu,
        iterations,
        feascond,
        gradcond,
        compcond,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_sparse::Triplets;

    /// min (x−2)² + (y−1)²  s.t.  x + y = 2,  x ≥ 0.5  →  x* = 1.5, y* = 0.5
    struct Quadratic;

    impl Nlp for Quadratic {
        fn nx(&self) -> usize {
            2
        }
        fn x0(&self) -> Vec<f64> {
            vec![1.0, 1.0]
        }
        fn objective(&self, x: &[f64]) -> (f64, Vec<f64>) {
            let f = (x[0] - 2.0).powi(2) + (x[1] - 1.0).powi(2);
            (f, vec![2.0 * (x[0] - 2.0), 2.0 * (x[1] - 1.0)])
        }
        fn equalities(&self, x: &[f64]) -> (Vec<f64>, CsMat<f64>) {
            let mut t = Triplets::new(1, 2);
            t.push(0, 0, 1.0);
            t.push(0, 1, 1.0);
            (vec![x[0] + x[1] - 2.0], t.to_csr())
        }
        fn inequalities(&self, x: &[f64]) -> (Vec<f64>, CsMat<f64>) {
            // 0.5 − x ≤ 0
            let mut t = Triplets::new(1, 2);
            t.push(0, 0, -1.0);
            (vec![0.5 - x[0]], t.to_csr())
        }
        fn lagrangian_hessian(&self, _x: &[f64], _l: &[f64], _m: &[f64]) -> CsMat<f64> {
            let mut t = Triplets::new(2, 2);
            t.push(0, 0, 2.0);
            t.push(1, 1, 2.0);
            t.to_csr()
        }
    }

    #[test]
    fn solves_equality_constrained_quadratic() {
        let r = solve(&Quadratic, &IpmOptions::default());
        assert!(r.converged, "{}", r.message);
        assert!((r.x[0] - 1.5).abs() < 1e-5, "x = {:?}", r.x);
        assert!((r.x[1] - 0.5).abs() < 1e-5);
        assert!((r.f - 0.5).abs() < 1e-5);
    }

    /// min x² s.t. x ≥ 1 (active inequality at the optimum).
    struct Bound;

    impl Nlp for Bound {
        fn nx(&self) -> usize {
            1
        }
        fn x0(&self) -> Vec<f64> {
            vec![2.0]
        }
        fn objective(&self, x: &[f64]) -> (f64, Vec<f64>) {
            (x[0] * x[0], vec![2.0 * x[0]])
        }
        fn equalities(&self, _x: &[f64]) -> (Vec<f64>, CsMat<f64>) {
            (vec![], Triplets::new(0, 1).to_csr())
        }
        fn inequalities(&self, x: &[f64]) -> (Vec<f64>, CsMat<f64>) {
            let mut t = Triplets::new(1, 1);
            t.push(0, 0, -1.0);
            (vec![1.0 - x[0]], t.to_csr())
        }
        fn lagrangian_hessian(&self, _x: &[f64], _l: &[f64], _m: &[f64]) -> CsMat<f64> {
            let mut t = Triplets::new(1, 1);
            t.push(0, 0, 2.0);
            t.to_csr()
        }
    }

    #[test]
    fn active_inequality_binds() {
        let r = solve(&Bound, &IpmOptions::default());
        assert!(r.converged, "{}", r.message);
        assert!((r.x[0] - 1.0).abs() < 1e-5, "x = {:?}", r.x);
        // Multiplier for the active constraint is positive (≈ 2).
        assert!(r.mu[0] > 1.0);
    }

    /// Rosenbrock-flavoured nonlinear equality:
    /// min (x−1)² + (y−1)²  s.t.  x² + y² = 1.
    struct Circle;

    impl Nlp for Circle {
        fn nx(&self) -> usize {
            2
        }
        fn x0(&self) -> Vec<f64> {
            vec![0.5, 0.5]
        }
        fn objective(&self, x: &[f64]) -> (f64, Vec<f64>) {
            let f = (x[0] - 1.0).powi(2) + (x[1] - 1.0).powi(2);
            (f, vec![2.0 * (x[0] - 1.0), 2.0 * (x[1] - 1.0)])
        }
        fn equalities(&self, x: &[f64]) -> (Vec<f64>, CsMat<f64>) {
            let mut t = Triplets::new(1, 2);
            t.push(0, 0, 2.0 * x[0]);
            t.push(0, 1, 2.0 * x[1]);
            (vec![x[0] * x[0] + x[1] * x[1] - 1.0], t.to_csr())
        }
        fn inequalities(&self, _x: &[f64]) -> (Vec<f64>, CsMat<f64>) {
            (vec![], Triplets::new(0, 2).to_csr())
        }
        fn lagrangian_hessian(&self, _x: &[f64], lam: &[f64], _m: &[f64]) -> CsMat<f64> {
            let mut t = Triplets::new(2, 2);
            t.push(0, 0, 2.0 + 2.0 * lam[0]);
            t.push(1, 1, 2.0 + 2.0 * lam[0]);
            t.to_csr()
        }
    }

    #[test]
    fn nonlinear_equality_projects_onto_circle() {
        let r = solve(&Circle, &IpmOptions::default());
        assert!(r.converged, "{}", r.message);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((r.x[0] - s).abs() < 1e-5, "x = {:?}", r.x);
        assert!((r.x[1] - s).abs() < 1e-5);
    }
}
