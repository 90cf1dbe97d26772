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
//! whole solve, so everything that depends on the pattern alone is built
//! once: an [`Nlp`] states the structure of `Jg`, `Jh` and `H` one time
//! ([`Structure`]), the solver derives the KKT pattern, its slot program
//! and the static-order [`SparseLdl`] analysis from it, and a barrier
//! iteration only writes numbers — `vals[slot[k]] += c_k` in stamping
//! order ([`Stamper`]) — and refactors. The
//! static order carries no stability guarantee, so every step is
//! verified instead — refined against the assembled system to a
//! relative residual of 1e-12 — and an iteration whose LDLᵀ breaks down or
//! cannot be refined that far takes its step from a one-shot pivoting
//! LU, counted as `acopf.kkt.lu_fallbacks`.

use gm_faults::FaultKind;
use gm_numeric::Fnv1a;
use gm_sparse::{CsMat, SparseLdl, SparseLu, Triplets};
use std::time::Instant;

/// Relative residual (as [`SparseLdl::solve_refined`] measures it)
/// every LDLᵀ step is refined to before the IPM takes it.
const KKT_RESIDUAL_TOL: f64 = 1e-12;
/// Correction solves allowed per step before falling back to LU.
const KKT_REFINE_STEPS: usize = 12;

/// Where one stamping pass sends its elemental contributions: into a
/// [`Triplets`] buffer when the structure is stated, into a [`Stamper`]
/// — which ignores the position — on every iterate after that.
pub trait Stamp {
    /// Adds `v` at `(row, col)`; contributions to one position sum.
    fn add(&mut self, row: usize, col: usize, v: f64);
}

impl Stamp for Triplets<f64> {
    fn add(&mut self, row: usize, col: usize, v: f64) {
        self.push(row, col, v);
    }
}

/// One derivative matrix as the solver holds it: the CSR pattern, fixed
/// for the solve, and for each contribution of a stamping pass, in
/// stamping order, the value slot it sums into. Rows appended as
/// constants keep the values they came with.
#[derive(Clone, Debug)]
pub struct Stencil {
    mat: CsMat<f64>,
    slots: Vec<usize>,
    /// Leading values a pass rewrites; the rest are constants.
    varying: usize,
}

impl Stencil {
    /// The pattern one stamping pass touches, explicit zeros kept.
    pub fn stamped(pass: &Triplets<f64>) -> Stencil {
        let (mat, slots) = pass.to_csr_structural_with_slots();
        let varying = mat.nnz();
        Stencil {
            mat,
            slots,
            varying,
        }
    }

    /// A matrix no iterate changes: later passes must add nothing.
    pub fn constant(mat: CsMat<f64>) -> Stencil {
        Stencil {
            mat,
            slots: Vec::new(),
            varying: 0,
        }
    }

    /// Appends rows whose values never change (linear constraints).
    pub fn append_constant_rows(&mut self, rows: &CsMat<f64>) {
        self.mat = self.mat.vstack(rows);
    }

    /// The matrix with the values of the last pass.
    pub fn mat(&self) -> &CsMat<f64> {
        &self.mat
    }

    /// Zeroes the varying values and opens a pass over them.
    pub fn stamper(&mut self) -> Stamper<'_> {
        let vals = self.mat.values_mut();
        vals[..self.varying].fill(0.0);
        Stamper {
            vals,
            slots: &self.slots,
            next: 0,
        }
    }
}

/// One pass of values into a [`Stencil`]: the `k`-th contribution lands
/// in the slot the structure pass recorded for its `k`-th position.
pub struct Stamper<'a> {
    vals: &'a mut [f64],
    slots: &'a [usize],
    next: usize,
}

impl Stamp for Stamper<'_> {
    #[inline]
    fn add(&mut self, _row: usize, _col: usize, v: f64) {
        if let Some(&slot) = self.slots.get(self.next) {
            self.vals[slot] += v;
        }
        self.next += 1;
    }
}

impl Stamper<'_> {
    /// `Err` when the pass wrote a different number of contributions
    /// than the structure states (a surplus was dropped, not indexed).
    fn finish(self, what: &str) -> Result<(), String> {
        if self.next == self.slots.len() {
            Ok(())
        } else {
            Err(format!(
                "{what}: structure states {} contributions, {} written",
                self.slots.len(),
                self.next
            ))
        }
    }
}

/// What an [`Nlp`] states once per solve.
#[derive(Clone, Debug)]
pub struct Structure {
    /// Equality Jacobian, `neq × nx`.
    pub jg: Stencil,
    /// Inequality Jacobian, `niq × nx`.
    pub jh: Stencil,
    /// Lagrangian Hessian, `nx × nx` (the full symmetric matrix).
    pub hess: Stencil,
}

/// A smooth nonlinear program the IPM can solve.
///
/// The three derivative callbacks are stamping passes: each sends the
/// same sequence of positions to its sink whatever `x` and the
/// multipliers are — a derivative that happens to be zero at some iterate is added
/// as a zero — so the structure stated once holds for the whole solve.
/// Vectors are caller-owned and arrive with stale contents.
pub trait Nlp {
    /// Number of primal variables.
    fn nx(&self) -> usize;
    /// Number of equality constraints.
    fn neq(&self) -> usize;
    /// Number of inequality constraints.
    fn niq(&self) -> usize;
    /// Writes the initial point (used as-is; interior-shift
    /// bound-constrained variables).
    fn x0(&self, x: &mut [f64]);
    /// Objective value; writes the gradient.
    fn objective(&self, x: &[f64], df: &mut [f64]) -> f64;
    /// Writes the equality constraint values and stamps their Jacobian
    /// (rows = constraints).
    fn equalities<S: Stamp>(&self, x: &[f64], g: &mut [f64], jg: &mut S);
    /// Writes the inequality constraint values (`h ≤ 0` feasible) and
    /// stamps their Jacobian.
    fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], jh: &mut S);
    /// Stamps the Hessian of the Lagrangian `∇²f + Σλ·∇²g + Σμ·∇²h`
    /// (lower+upper, i.e. the full symmetric matrix).
    fn lagrangian_hessian<S: Stamp>(&self, x: &[f64], lam: &[f64], mu: &[f64], hess: &mut S);

    /// The structure of the three matrices, asked for once per solve:
    /// by default whatever one pass of each callback at `x0` touches. A
    /// problem with constant matrices states them here instead and
    /// stamps nothing per iterate.
    fn structure(&self) -> Structure {
        let mut x = vec![0.0; self.nx()];
        self.x0(&mut x);
        let [jg, jh, hess] = passes(self, &x, &vec![0.0; self.neq()], &vec![0.0; self.niq()]);
        Structure {
            jg: Stencil::stamped(&jg),
            jh: Stencil::stamped(&jh),
            hess: Stencil::stamped(&hess),
        }
    }
}

/// One stamping pass of each derivative callback into triplet buffers
/// (`Jg`, `Jh`, `H`): the positions, in order, and the values the
/// problem sends at this iterate.
pub(crate) fn passes<P: Nlp + ?Sized>(
    prob: &P,
    x: &[f64],
    lam: &[f64],
    mu: &[f64],
) -> [Triplets<f64>; 3] {
    let (nx, neq, niq) = (prob.nx(), prob.neq(), prob.niq());
    let mut jg = Triplets::new(neq, nx);
    prob.equalities(x, &mut vec![0.0; neq], &mut jg);
    let mut jh = Triplets::new(niq, nx);
    prob.inequalities(x, &mut vec![0.0; niq], &mut jh);
    let mut hess = Triplets::new(nx, nx);
    prob.lagrangian_hessian(x, lam, mu, &mut hess);
    [jg, jh, hess]
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

/// Stamps the reduced KKT matrix from the three derivative matrices and
/// the barrier weights `μ/z`. One sequence for the structure pass and
/// for every iterate's value pass.
fn stamp_kkt<S: Stamp>(s: &Structure, mu: &[f64], z: &[f64], out: &mut S) {
    let (hess, jh, jg) = (s.hess.mat(), s.jh.mat(), s.jg.mat());
    let nx = hess.rows();
    for i in 0..nx {
        let (cols, vals) = hess.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            out.add(i, j, v);
        }
    }
    // Jhᵀ·(Z⁻¹M)·Jh: accumulate row-pair products per inequality row.
    for r in 0..jh.rows() {
        let wr = mu[r] / z[r];
        let (cols, vals) = jh.row(r);
        for (idx_a, (&ca, &va)) in cols.iter().zip(vals).enumerate() {
            for (&cb, &vb) in cols[idx_a..].iter().zip(&vals[idx_a..]) {
                let prod = wr * va * vb;
                out.add(ca, cb, prod);
                if ca != cb {
                    out.add(cb, ca, prod);
                }
            }
        }
    }
    // Light primal regularization keeps the factorization stable.
    for i in 0..nx {
        out.add(i, i, 1e-10);
    }
    for r in 0..jg.rows() {
        let (cols, vals) = jg.row(r);
        for (&j, &v) in cols.iter().zip(vals) {
            out.add(nx + r, j, v);
            out.add(j, nx + r, v);
        }
    }
    // Tiny dual regularization on the (2,2) block.
    for r in 0..jg.rows() {
        out.add(nx + r, nx + r, -1e-11);
    }
}

/// Everything a solve evaluates at an iterate, in buffers sized once:
/// the problem's structure with its current values, the KKT matrix
/// stamped from it, and the vectors beside them.
pub(crate) struct System {
    pub(crate) s: Structure,
    pub(crate) df: Vec<f64>,
    pub(crate) g: Vec<f64>,
    pub(crate) h: Vec<f64>,
    /// Lagrangian gradient `df + Jgᵀλ + Jhᵀμ`.
    pub(crate) lx: Vec<f64>,
    pub(crate) kkt: Stencil,
    pub(crate) rhs: Vec<f64>,
    /// Scratch of length `nx` / `niq`.
    tx: Vec<f64>,
    tz: Vec<f64>,
}

impl System {
    /// Takes the structure the problem states and derives the KKT
    /// pattern and slot program from it.
    pub(crate) fn build<P: Nlp>(prob: &P) -> Result<System, String> {
        let (nx, neq, niq) = (prob.nx(), prob.neq(), prob.niq());
        let s = prob.structure();
        for (what, m, rows) in [
            ("Jg", s.jg.mat(), neq),
            ("Jh", s.jh.mat(), niq),
            ("H", s.hess.mat(), nx),
        ] {
            if m.shape() != (rows, nx) {
                let (r, c) = m.shape();
                return Err(format!("{what}: stated {r}x{c}, expected {rows}x{nx}"));
            }
        }
        let n_kkt = nx + neq;
        let nnz = |m: &Stencil| m.mat().nnz();
        let pushes = nnz(&s.hess) + 4 * nnz(&s.jh) + 2 * nnz(&s.jg) + n_kkt;
        let mut pass = Triplets::with_capacity(n_kkt, n_kkt, pushes);
        let ones = vec![1.0; niq];
        stamp_kkt(&s, &ones, &ones, &mut pass);
        gm_telemetry::counter_add("acopf.kkt.structure_builds", 1);
        Ok(System {
            kkt: Stencil::stamped(&pass),
            s,
            df: vec![0.0; nx],
            g: vec![0.0; neq],
            h: vec![0.0; niq],
            lx: vec![0.0; nx],
            rhs: vec![0.0; n_kkt],
            tx: vec![0.0; nx],
            tz: vec![0.0; niq],
        })
    }

    /// Objective, constraints and both Jacobians at `x`; returns `f`.
    pub(crate) fn evaluate<P: Nlp>(&mut self, prob: &P, x: &[f64]) -> Result<f64, String> {
        let f = prob.objective(x, &mut self.df);
        let mut jg = self.s.jg.stamper();
        prob.equalities(x, &mut self.g, &mut jg);
        jg.finish("Jg")?;
        let mut jh = self.s.jh.stamper();
        prob.inequalities(x, &mut self.h, &mut jh);
        jh.finish("Jh")?;
        Ok(f)
    }

    /// Lagrangian gradient `Lx = df + Jgᵀλ + Jhᵀμ`.
    pub(crate) fn gradient(&mut self, lam: &[f64], mu: &[f64]) {
        self.s.jg.mat().mul_vec_t_into(lam, &mut self.lx);
        self.s.jh.mat().mul_vec_t_into(mu, &mut self.tx);
        for ((l, &d), &t) in self.lx.iter_mut().zip(&self.df).zip(&self.tx) {
            *l = d + (*l + t);
        }
    }

    /// The reduced KKT matrix and right-hand side `[−N; −g]` at the
    /// iterate last evaluated.
    pub(crate) fn assemble<P: Nlp>(
        &mut self,
        prob: &P,
        x: &[f64],
        lam: &[f64],
        mu: &[f64],
        z: &[f64],
        gamma: f64,
    ) -> Result<(), String> {
        let mut hess = self.s.hess.stamper();
        prob.lagrangian_hessian(x, lam, mu, &mut hess);
        hess.finish("H")?;
        let mut kkt = self.kkt.stamper();
        stamp_kkt(&self.s, mu, z, &mut kkt);
        // N = Lx + Jhᵀ·Z⁻¹(γe + M·h), exactly as in MIPS: eliminating Δz
        // and Δμ folds the current duals (Z⁻¹·M·z = μ) back into the
        // barrier term.
        for r in 0..z.len() {
            self.tz[r] = (gamma + mu[r] * self.h[r]) / z[r];
        }
        self.s.jh.mat().mul_vec_t_into(&self.tz, &mut self.tx);
        let nx = x.len();
        for i in 0..nx {
            self.rhs[i] = -(self.lx[i] + self.tx[i]);
        }
        for (r, gr) in self.g.iter().enumerate() {
            self.rhs[nx + r] = -gr;
        }
        Ok(())
    }
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
    let mut x = vec![0.0; prob.nx()];
    prob.x0(&mut x);
    let mut res = IpmResult {
        converged: false,
        x,
        f: f64::NAN,
        lam: vec![0.0; prob.neq()],
        mu: vec![0.0; prob.niq()],
        iterations: 0,
        feascond: f64::INFINITY,
        gradcond: f64::INFINITY,
        compcond: f64::INFINITY,
        message: String::new(),
    };
    res.message = match barrier_iterations(prob, opts, &mut res) {
        Ok(()) => {
            res.converged = true;
            format!("converged in {} iterations", res.iterations)
        }
        Err(stopped) => stopped,
    };

    gm_telemetry::counter_add("acopf.ipm.iterations", res.iterations as u64);
    gm_telemetry::histogram_record("acopf.ipm.iterations_per_solve", res.iterations as f64);
    gm_telemetry::counter_add(
        if res.converged {
            "acopf.ipm.converged"
        } else {
            "acopf.ipm.failed"
        },
        1,
    );
    res
}

/// Runs the barrier iterations from `res.x`, leaving the final iterate
/// and its conditions in `res`. `Err` says why it stopped short of
/// convergence.
fn barrier_iterations<P: Nlp>(
    prob: &P,
    opts: &IpmOptions,
    res: &mut IpmResult,
) -> Result<(), String> {
    let IpmResult {
        x,
        f,
        lam,
        mu,
        iterations,
        feascond,
        gradcond,
        compcond,
        ..
    } = res;
    let (nx, neq, niq) = (x.len(), lam.len(), mu.len());
    let n_kkt = nx + neq;

    // Built once per solve: the structure, the KKT slot program, the
    // LDLᵀ analysis and every buffer the loop below writes into.
    let mut sys = System::build(prob)?;
    let mut ldl =
        SparseLdl::analyze(sys.kkt.mat()).map_err(|e| format!("KKT analysis failed: {e}"))?;
    let mut sol: Vec<f64> = Vec::with_capacity(n_kkt);
    let mut solve_ws: Vec<f64> = Vec::with_capacity(2 * n_kkt);
    let (mut dz, mut dmu) = (vec![0.0; niq], vec![0.0; niq]);

    *f = sys.evaluate(prob, x)?;

    // Slack and dual initialization (MIPS defaults).
    let z0 = 1.0;
    let mut z: Vec<f64> = sys.h.iter().map(|&hi| (-hi).max(z0)).collect();
    let mut gamma = 1.0f64;
    for (m, zi) in mu.iter_mut().zip(&z) {
        *m = gamma / zi;
    }
    let mut f_old = *f;

    for it in 0..=opts.max_iter {
        *iterations = it;
        sys.gradient(lam, mu);

        let maxh = sys.h.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let norm_x = norm_inf(x).max(norm_inf(&z));
        let norm_lam = norm_inf(lam).max(norm_inf(mu));
        *feascond = norm_inf(&sys.g).max(maxh.max(0.0)) / (1.0 + norm_x);
        *gradcond = norm_inf(&sys.lx) / (1.0 + norm_lam);
        *compcond =
            z.iter().zip(mu.iter()).map(|(zi, mi)| zi * mi).sum::<f64>() / (1.0 + norm_inf(x));
        let costcond = (*f - f_old).abs() / (1.0 + f_old.abs());

        if *feascond < opts.feastol
            && *gradcond < opts.gradtol
            && *compcond < opts.comptol
            && (it > 0 && costcond < opts.costtol)
        {
            return Ok(());
        }
        if it == opts.max_iter {
            break;
        }

        let t_assemble = Instant::now();
        sys.assemble(prob, x, lam, mu, &z, gamma)?;
        let t_factor = Instant::now();
        let kkt_m = sys.kkt.mat();

        let forced_fallback = gm_faults::inject("acopf.kkt.ldl") == Some(FaultKind::LuSingular);
        let refined = if forced_fallback {
            None
        } else {
            ldl.factor(kkt_m)
                .and_then(|()| {
                    ldl.solve_refined(
                        kkt_m,
                        &sys.rhs,
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
                    return Err(format!("singular KKT system at iteration {it}"));
                };
                sol.clone_from(&sys.rhs);
                solve_ws.resize(n_kkt, 0.0);
                lu.solve_in_place(&mut sol, &mut solve_ws);
            }
        }
        gm_telemetry::histogram_record("acopf.ipm.factor_s", t_factor.elapsed().as_secs_f64());
        gm_telemetry::histogram_record(
            "acopf.ipm.assemble_s",
            (t_factor - t_assemble).as_secs_f64(),
        );
        let dx = &sol[..nx];
        let dlam = &sol[nx..];

        // Recover slack and dual steps.
        let jh_dx = &mut sys.tz;
        sys.s.jh.mat().mul_vec_into(dx, jh_dx);
        for r in 0..niq {
            dz[r] = -(sys.h[r] + z[r]) - jh_dx[r];
            dmu[r] = gamma / z[r] - mu[r] - (mu[r] / z[r]) * dz[r];
        }

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
            return Err(format!("numerically stuck at iteration {it}"));
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
        gamma = opts.sigma * z.iter().zip(mu.iter()).map(|(a, b)| a * b).sum::<f64>()
            / niq.max(1) as f64;
        gm_telemetry::histogram_record("acopf.ipm.barrier_mu", gamma);

        f_old = *f;
        *f = sys.evaluate(prob, x)?;
        if !f.is_finite() {
            return Err(format!("objective became non-finite at iteration {it}"));
        }
    }
    Err(String::from("iteration limit reached"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// min (x−2)² + (y−1)²  s.t.  x + y = 2,  x ≥ 0.5  →  x* = 1.5, y* = 0.5
    struct Quadratic;

    impl Nlp for Quadratic {
        fn nx(&self) -> usize {
            2
        }
        fn neq(&self) -> usize {
            1
        }
        fn niq(&self) -> usize {
            1
        }
        fn x0(&self, x: &mut [f64]) {
            x.fill(1.0);
        }
        fn objective(&self, x: &[f64], df: &mut [f64]) -> f64 {
            df[0] = 2.0 * (x[0] - 2.0);
            df[1] = 2.0 * (x[1] - 1.0);
            (x[0] - 2.0).powi(2) + (x[1] - 1.0).powi(2)
        }
        fn equalities<S: Stamp>(&self, x: &[f64], g: &mut [f64], jg: &mut S) {
            g[0] = x[0] + x[1] - 2.0;
            jg.add(0, 0, 1.0);
            jg.add(0, 1, 1.0);
        }
        fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], jh: &mut S) {
            // 0.5 − x ≤ 0
            h[0] = 0.5 - x[0];
            jh.add(0, 0, -1.0);
        }
        fn lagrangian_hessian<S: Stamp>(&self, _x: &[f64], _l: &[f64], _m: &[f64], hess: &mut S) {
            hess.add(0, 0, 2.0);
            hess.add(1, 1, 2.0);
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
        fn neq(&self) -> usize {
            0
        }
        fn niq(&self) -> usize {
            1
        }
        fn x0(&self, x: &mut [f64]) {
            x[0] = 2.0;
        }
        fn objective(&self, x: &[f64], df: &mut [f64]) -> f64 {
            df[0] = 2.0 * x[0];
            x[0] * x[0]
        }
        fn equalities<S: Stamp>(&self, _x: &[f64], _g: &mut [f64], _jg: &mut S) {}
        fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], jh: &mut S) {
            h[0] = 1.0 - x[0];
            jh.add(0, 0, -1.0);
        }
        fn lagrangian_hessian<S: Stamp>(&self, _x: &[f64], _l: &[f64], _m: &[f64], hess: &mut S) {
            hess.add(0, 0, 2.0);
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
        fn neq(&self) -> usize {
            1
        }
        fn niq(&self) -> usize {
            0
        }
        fn x0(&self, x: &mut [f64]) {
            x.fill(0.5);
        }
        fn objective(&self, x: &[f64], df: &mut [f64]) -> f64 {
            df[0] = 2.0 * (x[0] - 1.0);
            df[1] = 2.0 * (x[1] - 1.0);
            (x[0] - 1.0).powi(2) + (x[1] - 1.0).powi(2)
        }
        fn equalities<S: Stamp>(&self, x: &[f64], g: &mut [f64], jg: &mut S) {
            g[0] = x[0] * x[0] + x[1] * x[1] - 1.0;
            jg.add(0, 0, 2.0 * x[0]);
            jg.add(0, 1, 2.0 * x[1]);
        }
        fn inequalities<S: Stamp>(&self, _x: &[f64], _h: &mut [f64], _jh: &mut S) {}
        fn lagrangian_hessian<S: Stamp>(&self, _x: &[f64], lam: &[f64], _m: &[f64], hess: &mut S) {
            hess.add(0, 0, 2.0 + 2.0 * lam[0]);
            hess.add(1, 1, 2.0 + 2.0 * lam[0]);
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

    /// [`Bound`] with a Jacobian entry that is only stamped where it is
    /// nonzero — the value-dependent pattern the contract forbids. At
    /// `x0 = 2` the structure states one contribution; `surplus` adds a
    /// second one from the first iterate on, otherwise the entry goes
    /// missing once `x < 1.5`.
    struct Inconsistent {
        surplus: bool,
    }

    impl Nlp for Inconsistent {
        fn nx(&self) -> usize {
            1
        }
        fn neq(&self) -> usize {
            0
        }
        fn niq(&self) -> usize {
            1
        }
        fn x0(&self, x: &mut [f64]) {
            x[0] = 2.0;
        }
        fn objective(&self, x: &[f64], df: &mut [f64]) -> f64 {
            Bound.objective(x, df)
        }
        fn equalities<S: Stamp>(&self, _x: &[f64], _g: &mut [f64], _jg: &mut S) {}
        fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], jh: &mut S) {
            h[0] = 1.0 - x[0];
            if self.surplus || x[0] >= 1.5 {
                jh.add(0, 0, -1.0);
            }
            if self.surplus && x[0] != 2.0 {
                jh.add(0, 0, 0.0);
            }
        }
        fn lagrangian_hessian<S: Stamp>(&self, x: &[f64], l: &[f64], m: &[f64], hess: &mut S) {
            Bound.lagrangian_hessian(x, l, m, hess);
        }
    }

    #[test]
    fn structure_and_values_disagreeing_is_a_failed_solve_not_a_panic() {
        for (surplus, written) in [(false, 0), (true, 2)] {
            let r = solve(&Inconsistent { surplus }, &IpmOptions::default());
            assert!(!r.converged);
            assert_eq!(
                r.message,
                format!("Jh: structure states 1 contributions, {written} written")
            );
            assert!(r.x[0] < 2.0, "a step was taken first: {r:?}");
        }
    }

    /// A stated shape that contradicts `neq` is refused before any value
    /// is written.
    struct WrongShape;

    impl Nlp for WrongShape {
        fn nx(&self) -> usize {
            1
        }
        fn neq(&self) -> usize {
            0
        }
        fn niq(&self) -> usize {
            1
        }
        fn x0(&self, x: &mut [f64]) {
            Bound.x0(x);
        }
        fn objective(&self, x: &[f64], df: &mut [f64]) -> f64 {
            Bound.objective(x, df)
        }
        fn equalities<S: Stamp>(&self, _x: &[f64], _g: &mut [f64], _jg: &mut S) {}
        fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], jh: &mut S) {
            Bound.inequalities(x, h, jh);
        }
        fn lagrangian_hessian<S: Stamp>(&self, x: &[f64], l: &[f64], m: &[f64], hess: &mut S) {
            Bound.lagrangian_hessian(x, l, m, hess);
        }
        fn structure(&self) -> Structure {
            Structure {
                jg: Stencil::constant(Triplets::new(2, 1).to_csr()),
                ..Bound.structure()
            }
        }
    }

    #[test]
    fn misstated_shape_is_a_failed_solve() {
        let r = solve(&WrongShape, &IpmOptions::default());
        assert!(!r.converged);
        assert_eq!(r.message, "Jg: stated 2x1, expected 0x1");
        assert_eq!(r.iterations, 0);
    }
}
