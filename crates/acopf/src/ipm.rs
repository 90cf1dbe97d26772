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
//! where `N = Lx + Jhᵀ·Z⁻¹(γ + M·h)` carries a per-row complementarity
//! target `γ`, separate primal/dual step clipping, and the standard
//! normalized convergence criteria (feasibility, gradient,
//! complementarity, cost).
//!
//! The centering is Mehrotra's predictor–corrector (Mehrotra, SIAM J.
//! Optim. 2, 1992) instead of MIPS's fixed σ = 0.1. Both solves of an
//! iteration share one matrix and one factor; only the right-hand side
//! moves. The predictor solves with `γ = 0` and takes the largest
//! primal and dual steps to the boundary, which gives the complementarity
//! `μ_aff` it would reach. The corrector solves with
//! `γ_r = σμ̄ − Δz_aff,r·Δμ_aff,r`, where `μ̄ = zᵀμ / niq` and
//! `σ = min(1, (μ_aff/μ̄)³)`: a predictor that makes good progress
//! centers little, and the second-order term corrects its linearization.
//! A problem without inequalities makes one solve.
//!
//! The reduced system is symmetric and its pattern is fixed for the
//! whole solve — and for every later solve of the same topology — so
//! everything that depends on the pattern alone is a **plan** built once
//! per pattern per thread: an [`Nlp`] states the structure of `Jg`, `Jh`
//! and `H` ([`Structure`]), the solver derives the KKT pattern, its slot
//! program and the static-order [`SparseLdl`] analysis from it, and a
//! barrier iteration only writes numbers — `vals[slot[k]] += c_k` in
//! stamping order ([`gm_sparse::Stamper`]) — and refactors. A kept plan
//! serves a solve only after an exact comparison: the constants the problem
//! states are compared with the plan's, and the first stamping pass of
//! each matrix is held, position by position, to the sequence the plan
//! was built from. Anything else is a fresh build, so an answer never
//! depends on what the thread solved before. The
//! static order carries no stability guarantee, so every step is
//! verified instead — both solves refined against the assembled system
//! to a relative residual of 1e-12 — and an iteration whose LDLᵀ breaks
//! down, or either of whose solves cannot be refined that far, takes both
//! solves from a one-shot pivoting LU, counted once as
//! `acopf.kkt.lu_fallbacks`.

use gm_faults::FaultKind;
use gm_numeric::Fnv1a;
use gm_sparse::{with_checked_out, CsMat, Mru, SparseLdl, SparseLu, Stencil, Triplets};
use std::cell::Cell;
use std::mem::size_of;
use std::time::Instant;

/// Relative residual (as [`SparseLdl::solve_refined`] measures it)
/// every LDLᵀ step is refined to before the IPM takes it.
const KKT_RESIDUAL_TOL: f64 = 1e-12;
/// Correction solves allowed per step before falling back to LU.
const KKT_REFINE_STEPS: usize = 12;

/// The sink of the [`Nlp`] callbacks' stamping passes, re-exported from
/// gm-sparse, where the [`Stencil`] it fills lives.
pub use gm_sparse::Stamp;

/// The rows of `Jg`, `Jh` and `H` no iterate changes, which a problem
/// states as matrices instead of stamping them: each one is the trailing
/// rows of its matrix (all of them when nothing is stamped).
#[derive(Clone, Debug, Default)]
pub struct Constants {
    /// Trailing rows of the equality Jacobian.
    pub jg: Option<CsMat<f64>>,
    /// Trailing rows of the inequality Jacobian.
    pub jh: Option<CsMat<f64>>,
    /// Trailing rows of the Lagrangian Hessian.
    pub hess: Option<CsMat<f64>>,
}

/// The structure of the three derivative matrices of an [`Nlp`].
#[derive(Clone, Debug)]
pub struct Structure {
    /// Equality Jacobian, `neq × nx`.
    pub jg: Stencil,
    /// Inequality Jacobian, `niq × nx`.
    pub jh: Stencil,
    /// Lagrangian Hessian, `nx × nx` (the full symmetric matrix).
    pub hess: Stencil,
}

impl Structure {
    /// What the problem states: above its [`Nlp::constants`], whatever
    /// one pass of each callback at `x0` touches. `Err` when a constant
    /// has another shape than its matrix allows, or a pass stamps
    /// outside its matrix — into a row stated as a constant, say.
    pub fn of<P: Nlp + ?Sized>(prob: &P) -> Result<Structure, String> {
        let mut x0 = vec![0.0; prob.nx()];
        prob.x0(&mut x0);
        Structure::above(prob, prob.constants(), &x0)
    }

    fn above<P: Nlp + ?Sized>(
        prob: &P,
        constants: Constants,
        x0: &[f64],
    ) -> Result<Structure, String> {
        let (nx, neq, niq) = (prob.nx(), prob.neq(), prob.niq());
        // Rows each pass stamps: those above the stated constants.
        let mut rows = [neq, niq, nx];
        let stated = [
            ("Jg", &constants.jg),
            ("Jh", &constants.jh),
            ("H", &constants.hess),
        ];
        for ((what, constant), rows) in stated.into_iter().zip(&mut rows) {
            if let Some((r, c)) = constant.as_ref().map(CsMat::shape) {
                if r > *rows || c != nx {
                    return Err(format!("{what}: stated {r}x{c}, expected {rows}x{nx}"));
                }
                *rows -= r;
            }
        }
        let [jg, jh, hess] = passes_into(prob, x0, &vec![0.0; neq], &vec![0.0; niq], rows);
        let stencil = |what: &str, pass: &Triplets<f64>, constant: Option<CsMat<f64>>| {
            let mut s = Stencil::stamped(pass, what)?;
            if let Some(rows) = constant {
                s.append_constant_rows(&rows);
            }
            Ok::<_, String>(s)
        };
        Ok(Structure {
            jg: stencil("Jg", &jg, constants.jg)?,
            jh: stencil("Jh", &jh, constants.jh)?,
            hess: stencil("H", &hess, constants.hess)?,
        })
    }
}

/// A smooth nonlinear program the IPM can solve.
///
/// The three derivative callbacks are stamping passes: each sends the
/// same sequence of positions to its sink whatever `x` and the
/// multipliers are — a derivative that happens to be zero at some iterate is added
/// as a zero — so the structure stated once holds for the whole solve,
/// and for every later solve that states the same one.
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

    /// The constant rows of the three matrices, asked for once per
    /// solve: a problem with linear constraints or a constant Hessian
    /// states them here and stamps nothing for those rows. None by
    /// default.
    fn constants(&self) -> Constants {
        Constants::default()
    }
}

/// One stamping pass of each derivative callback into triplet buffers
/// (`Jg`, `Jh`, `H`): the positions, in order, and the values the
/// problem sends at this iterate. What the oracle converts afresh.
#[cfg(test)]
pub(crate) fn passes<P: Nlp + ?Sized>(
    prob: &P,
    x: &[f64],
    lam: &[f64],
    mu: &[f64],
) -> [Triplets<f64>; 3] {
    passes_into(prob, x, lam, mu, [prob.neq(), prob.niq(), prob.nx()])
}

/// One stamping pass of each derivative callback into triplet buffers
/// of the given row counts (`Jg`, `Jh`, `H`).
fn passes_into<P: Nlp + ?Sized>(
    prob: &P,
    x: &[f64],
    lam: &[f64],
    mu: &[f64],
    rows: [usize; 3],
) -> [Triplets<f64>; 3] {
    let (nx, neq, niq) = (prob.nx(), prob.neq(), prob.niq());
    let mut jg = Triplets::new(rows[0], nx);
    prob.equalities(x, &mut vec![0.0; neq], &mut jg);
    let mut jh = Triplets::new(rows[1], nx);
    prob.inequalities(x, &mut vec![0.0; niq], &mut jh);
    let mut hess = Triplets::new(rows[2], nx);
    prob.lagrangian_hessian(x, lam, mu, &mut hess);
    [jg, jh, hess]
}

/// Feasibility, gradient, complementarity and cost-change tolerance
/// (the MIPS defaults): the IPM stops when all four conditions are below it.
const TOL: f64 = 1e-6;
/// Step back-off ξ.
const XI: f64 = 0.99995;

/// IPM options. The convergence tolerances (1e-6) and the step back-off
/// ξ = 0.99995 are fixed; the centering follows from each predictor.
#[derive(Clone, Debug)]
pub struct IpmOptions {
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for IpmOptions {
    fn default() -> Self {
        IpmOptions { max_iter: 150 }
    }
}

impl IpmOptions {
    /// Deterministic fingerprint of every IPM control, for cache keys.
    /// The destructuring is exhaustive on purpose: a new field fails to
    /// compile here until it is folded in.
    pub fn fingerprint(&self) -> u64 {
        let IpmOptions { max_iter } = self;
        let mut h = Fnv1a::new();
        h.u64(*max_iter as u64);
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
    /// When the problem being solved had stamped each matrix once at
    /// exactly the stated positions — the end of its first
    /// [`System::assemble`]. Passes verify until then.
    verified: Option<Instant>,
}

impl System {
    #[cfg(test)]
    pub(crate) fn build<P: Nlp>(prob: &P) -> Result<System, String> {
        System::above(prob, prob.constants(), &IpmResult::start(prob).x)
    }

    /// Takes the structure the problem states above `constants` — its
    /// passes run at `x0` — and derives the KKT pattern and slot program
    /// from it.
    fn above<P: Nlp>(prob: &P, constants: Constants, x0: &[f64]) -> Result<System, String> {
        let (nx, neq, niq) = (prob.nx(), prob.neq(), prob.niq());
        let s = Structure::above(prob, constants, x0)?;
        let n_kkt = nx + neq;
        let nnz = |m: &Stencil| m.mat().nnz();
        let pushes = nnz(&s.hess) + 4 * nnz(&s.jh) + 2 * nnz(&s.jg) + n_kkt;
        let mut pass = Triplets::with_capacity(n_kkt, n_kkt, pushes);
        let ones = vec![1.0; niq];
        stamp_kkt(&s, &ones, &ones, &mut pass);
        gm_telemetry::counter_add("acopf.kkt.structure_builds", 1);
        Ok(System {
            kkt: Stencil::stamped(&pass, "KKT")?,
            s,
            df: vec![0.0; nx],
            g: vec![0.0; neq],
            h: vec![0.0; niq],
            lx: vec![0.0; nx],
            rhs: vec![0.0; n_kkt],
            tx: vec![0.0; nx],
            tz: vec![0.0; niq],
            verified: None,
        })
    }

    /// Whether this system may have been built for a problem of these
    /// sizes stating these constants — everything about its structure
    /// that can be compared before a pass is run.
    fn may_serve(&self, (nx, neq, niq): (usize, usize, usize), constants: &Constants) -> bool {
        (self.df.len(), self.g.len(), self.h.len()) == (nx, neq, niq)
            && self.s.jg.has_constant_rows(constants.jg.as_ref())
            && self.s.jh.has_constant_rows(constants.jh.as_ref())
            && self.s.hess.has_constant_rows(constants.hess.as_ref())
    }

    /// Readies a kept system for another problem it [`System::may_serve`]:
    /// that problem's constants, vectors as a fresh build hands them to
    /// the callbacks, and every stamped position to be verified again.
    fn restate(&mut self, constants: &Constants) {
        self.s.jg.restate_constant_rows(constants.jg.as_ref());
        self.s.jh.restate_constant_rows(constants.jh.as_ref());
        self.s.hess.restate_constant_rows(constants.hess.as_ref());
        for v in [&mut self.df, &mut self.g, &mut self.h] {
            v.fill(0.0);
        }
        self.verified = None;
    }

    /// Objective, constraints and both Jacobians at `x`; returns `f`.
    pub(crate) fn evaluate<P: Nlp>(&mut self, prob: &P, x: &[f64]) -> Result<f64, String> {
        if self.verified.is_none() {
            self.evaluate_as::<true, P>(prob, x)
        } else {
            self.evaluate_as::<false, P>(prob, x)
        }
    }

    fn evaluate_as<const VERIFY: bool, P: Nlp>(
        &mut self,
        prob: &P,
        x: &[f64],
    ) -> Result<f64, String> {
        let f = prob.objective(x, &mut self.df);
        let mut jg = self.s.jg.stamper::<VERIFY>();
        prob.equalities(x, &mut self.g, &mut jg);
        jg.finish("Jg")?;
        let mut jh = self.s.jh.stamper::<VERIFY>();
        prob.inequalities(x, &mut self.h, &mut jh);
        jh.finish("Jh")?;
        Ok(f)
    }

    /// The Lagrangian Hessian at the iterate last evaluated.
    fn stamp_hessian<const VERIFY: bool, P: Nlp>(
        &mut self,
        prob: &P,
        x: &[f64],
        lam: &[f64],
        mu: &[f64],
    ) -> Result<(), String> {
        let mut hess = self.s.hess.stamper::<VERIFY>();
        prob.lagrangian_hessian(x, lam, mu, &mut hess);
        hess.finish("H")
    }

    /// Lagrangian gradient `Lx = df + Jgᵀλ + Jhᵀμ`.
    pub(crate) fn gradient(&mut self, lam: &[f64], mu: &[f64]) {
        self.s.jg.mat().mul_vec_t_into(lam, &mut self.lx);
        self.s.jh.mat().mul_vec_t_into(mu, &mut self.tx);
        for ((l, &d), &t) in self.lx.iter_mut().zip(&self.df).zip(&self.tx) {
            *l = d + (*l + t);
        }
    }

    /// The reduced KKT matrix at the iterate last evaluated.
    pub(crate) fn assemble<P: Nlp>(
        &mut self,
        prob: &P,
        x: &[f64],
        lam: &[f64],
        mu: &[f64],
        z: &[f64],
    ) -> Result<(), String> {
        if self.verified.is_none() {
            self.stamp_hessian::<true, P>(prob, x, lam, mu)?;
            self.verified = Some(Instant::now());
        } else {
            self.stamp_hessian::<false, P>(prob, x, lam, mu)?;
        }
        let mut kkt = self.kkt.stamper::<false>();
        stamp_kkt(&self.s, mu, z, &mut kkt);
        Ok(())
    }

    /// The right-hand side `[−N; −g]` for the per-row complementarity
    /// target `γ`, at the iterate last evaluated.
    pub(crate) fn load_rhs(&mut self, mu: &[f64], z: &[f64], target: &[f64]) {
        // N = Lx + Jhᵀ·Z⁻¹(γ + M·h), exactly as in MIPS: eliminating Δz
        // and Δμ folds the current duals (Z⁻¹·M·z = μ) back into the
        // barrier term.
        for r in 0..z.len() {
            self.tz[r] = (target[r] + mu[r] * self.h[r]) / z[r];
        }
        self.s.jh.mat().mul_vec_t_into(&self.tz, &mut self.tx);
        let nx = self.lx.len();
        for i in 0..nx {
            self.rhs[i] = -(self.lx[i] + self.tx[i]);
        }
        for (r, gr) in self.g.iter().enumerate() {
            self.rhs[nx + r] = -gr;
        }
    }

    /// The slack and inequality-dual steps a solution `dx` of the system
    /// for `target` implies.
    fn slack_steps(
        &mut self,
        dx: &[f64],
        (z, mu): (&[f64], &[f64]),
        target: &[f64],
        (dz, dmu): (&mut [f64], &mut [f64]),
    ) {
        let jh_dx = &mut self.tz;
        self.s.jh.mat().mul_vec_into(dx, jh_dx);
        for r in 0..z.len() {
            dz[r] = -(self.h[r] + z[r]) - jh_dx[r];
            dmu[r] = target[r] / z[r] - mu[r] - (mu[r] / z[r]) * dz[r];
        }
    }
}

/// The largest step `α ≤ 1` that keeps `v + α·dv` at least `1 − ξ` of
/// the way from the boundary (`ξ = 1`: all the way to it).
fn boundary_step(v: &[f64], dv: &[f64], xi: f64) -> f64 {
    let mut alpha: f64 = 1.0;
    for (&vi, &di) in v.iter().zip(dv) {
        if di < 0.0 {
            alpha = alpha.min(-xi * vi / di);
        }
    }
    alpha
}

/// One iteration's direction on the KKT matrix `solve` applies: the
/// predictor, then — when there are inequalities — the corrector,
/// leaving `(Δx, Δλ)` in `sol` and the slack and dual steps in
/// `dz` / `dmu`. Returns the centering target σμ̄, or `None` as soon as
/// `solve` fails.
pub(crate) fn predict_correct(
    sys: &mut System,
    (z, mu): (&[f64], &[f64]),
    target: &mut Vec<f64>,
    (dz, dmu): (&mut [f64], &mut [f64]),
    sol: &mut Vec<f64>,
    mut solve: impl FnMut(&System, &mut Vec<f64>) -> bool,
) -> Option<f64> {
    let (nx, niq) = (sys.lx.len(), z.len());
    target.clear();
    target.resize(niq, 0.0);
    sys.load_rhs(mu, z, target);
    if !solve(sys, sol) {
        return None;
    }
    sys.slack_steps(&sol[..nx], (z, mu), target, (&mut *dz, &mut *dmu));
    if niq == 0 {
        return Some(0.0);
    }
    let mu_bar = z.iter().zip(mu).map(|(a, b)| a * b).sum::<f64>() / niq as f64;
    let (alpha_p, alpha_d) = (boundary_step(z, dz, 1.0), boundary_step(mu, dmu, 1.0));
    let mu_aff = (0..niq)
        .map(|r| (z[r] + alpha_p * dz[r]) * (mu[r] + alpha_d * dmu[r]))
        .sum::<f64>()
        / niq as f64;
    let sigma = (mu_aff / mu_bar).powi(3).min(1.0);
    let centre = sigma * mu_bar;
    for r in 0..niq {
        target[r] = centre - dz[r] * dmu[r];
    }
    sys.load_rhs(mu, z, target);
    if !solve(sys, sol) {
        return None;
    }
    sys.slack_steps(&sol[..nx], (z, mu), target, (dz, dmu));
    Some(centre)
}

/// Everything about a solve that depends on the problem's pattern
/// alone: the [`System`] (three stencils, the KKT stencil derived from
/// them), the LDLᵀ analysis of that KKT pattern — made from it here and
/// kept beside it, so a factorization is a values-only
/// [`SparseLdl::replay`] — and the buffers of the barrier loop.
struct Plan {
    sys: System,
    ldl: SparseLdl,
    sol: Vec<f64>,
    solve_ws: Vec<f64>,
    z: Vec<f64>,
    dz: Vec<f64>,
    dmu: Vec<f64>,
    /// The per-row complementarity target of the solve in progress.
    target: Vec<f64>,
}

impl Plan {
    fn build<P: Nlp>(prob: &P, constants: Constants, x0: &[f64]) -> Result<Plan, String> {
        let sys = System::above(prob, constants, x0)?;
        let ldl =
            SparseLdl::analyze(sys.kkt.mat()).map_err(|e| format!("KKT analysis failed: {e}"))?;
        let (n_kkt, niq) = (sys.rhs.len(), sys.h.len());
        Ok(Plan {
            sys,
            ldl,
            sol: Vec::with_capacity(n_kkt),
            solve_ws: Vec::with_capacity(2 * n_kkt),
            z: Vec::with_capacity(niq),
            dz: vec![0.0; niq],
            dmu: vec![0.0; niq],
            target: Vec::with_capacity(niq),
        })
    }

    fn retained_bytes(&self) -> usize {
        let Plan {
            sys,
            ldl,
            sol,
            solve_ws,
            z,
            dz,
            dmu,
            target,
        } = self;
        let vectors = [
            &sys.df, &sys.g, &sys.h, &sys.lx, &sys.rhs, &sys.tx, &sys.tz, sol, solve_ws, z, dz,
            dmu, target,
        ];
        let stencils = [&sys.s.jg, &sys.s.jh, &sys.s.hess, &sys.kkt];
        stencils.map(Stencil::retained_bytes).iter().sum::<usize>()
            + vectors.iter().map(|v| v.capacity()).sum::<usize>() * size_of::<f64>()
            + ldl.retained_bytes()
    }
}

/// Plans a thread keeps, least recently used evicted first: one more
/// than the largest working set one thread of the `opf_dialogue`
/// benchmark shows — the four ACOPF patterns (case14 / 30 / 57 / 118)
/// plus the SCOPF case30 round patterns its seeded edits screen in, two
/// to four of them on seeds 101–110 and never more than the script's
/// five case30 dialogues. `cargo bench -p gm-bench --bench acopf`
/// (`repeat_solve`) prints what one plan retains.
const THREAD_PLANS: usize = 9;

thread_local! {
    /// Where the thread's plans rest between solves; checked out by
    /// [`solve`] under [`gm_sparse::with_checked_out`]'s rules.
    static PLANS: Cell<Option<Mru<Plan>>> = const { Cell::new(None) };
}

/// Why a solve stopped short of convergence.
enum Stop {
    /// A pass contradicted the structure it was written into.
    Mismatch(String),
    /// The iteration itself gave up.
    Short(String),
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
    let res = with_checked_out(
        &PLANS,
        || Mru::new(THREAD_PLANS),
        |plans| solve_planned(prob, opts, plans),
    );

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

/// Solves on a kept plan that states this problem's structure, or on
/// one built for it and kept afterwards.
fn solve_planned<P: Nlp>(prob: &P, opts: &IpmOptions, plans: &mut Mru<Plan>) -> IpmResult {
    let started = Instant::now();
    let start = IpmResult::start(prob);
    let constants = prob.constants();
    let dims = (prob.nx(), prob.neq(), prob.niq());
    for idx in 0..plans.len() {
        if !plans[idx].sys.may_serve(dims, &constants) {
            continue;
        }
        plans[idx].sys.restate(&constants);
        let (res, mismatch) = run(prob, opts, &mut plans[idx], start.clone());
        let verified = plans[idx].sys.verified;
        if mismatch && verified.is_none() {
            // Equal sizes and constants, other stamped positions: the
            // plan is somebody else's, and still good for them.
            continue;
        }
        gm_telemetry::counter_add("acopf.kkt.structure_reuse", 1);
        if let Some(verified) = verified {
            // What the lookup cost, the first pass of every matrix —
            // which any solve makes — included.
            let lookup = verified.duration_since(started);
            gm_telemetry::histogram_record("acopf.kkt.lookup_s", lookup.as_secs_f64());
        }
        if mismatch {
            // The problem broke its own structure mid-solve.
            plans.remove(idx);
        } else {
            plans.promote(idx);
        }
        return res;
    }

    let mut plan = match Plan::build(prob, constants, &start.x) {
        Ok(plan) => plan,
        Err(refused) => {
            return IpmResult {
                message: refused,
                ..start
            }
        }
    };
    gm_telemetry::histogram_record("acopf.kkt.build_s", started.elapsed().as_secs_f64());
    let (res, mismatch) = run(prob, opts, &mut plan, start);
    if !mismatch {
        let evicted = plans.insert(plan);
        if evicted > 0 {
            gm_telemetry::counter_add("acopf.kkt.structure_evict", evicted as u64);
        }
        let retained: usize = plans.iter().map(Plan::retained_bytes).sum();
        gm_telemetry::histogram_record("sparse.engine.retained_kb", retained as f64 / 1024.0);
    }
    res
}

/// One solve on `plan` from the state `res`; the flag says a pass
/// contradicted the plan's structure.
fn run<P: Nlp>(
    prob: &P,
    opts: &IpmOptions,
    plan: &mut Plan,
    mut res: IpmResult,
) -> (IpmResult, bool) {
    let (message, mismatch) = match barrier_iterations(prob, opts, plan, &mut res) {
        Ok(()) => {
            res.converged = true;
            (format!("converged in {} iterations", res.iterations), false)
        }
        Err(Stop::Short(why)) => (why, false),
        Err(Stop::Mismatch(which)) => (which, true),
    };
    res.message = message;
    (res, mismatch)
}

impl IpmResult {
    /// The state a solve starts from: `x0`, zero multipliers.
    fn start<P: Nlp>(prob: &P) -> IpmResult {
        let mut x = vec![0.0; prob.nx()];
        prob.x0(&mut x);
        IpmResult {
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
        }
    }
}

/// Runs the barrier iterations from `res.x`, leaving the final iterate
/// and its conditions in `res`. `Err` says why it stopped short of
/// convergence.
fn barrier_iterations<P: Nlp>(
    prob: &P,
    opts: &IpmOptions,
    plan: &mut Plan,
    res: &mut IpmResult,
) -> Result<(), Stop> {
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
    let Plan {
        sys,
        ldl,
        sol,
        solve_ws,
        z,
        dz,
        dmu,
        target,
    } = plan;

    *f = sys.evaluate(prob, x).map_err(Stop::Mismatch)?;

    // Slack and dual initialization (MIPS defaults).
    let z0 = 1.0;
    z.clear();
    z.extend(sys.h.iter().map(|&hi| (-hi).max(z0)));
    for (m, zi) in mu.iter_mut().zip(z.iter()) {
        *m = 1.0 / zi;
    }
    let mut f_old = *f;

    for it in 0..=opts.max_iter {
        *iterations = it;
        sys.gradient(lam, mu);

        let maxh = sys.h.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v));
        let norm_x = norm_inf(x).max(norm_inf(z));
        let norm_lam = norm_inf(lam).max(norm_inf(mu));
        *feascond = norm_inf(&sys.g).max(maxh.max(0.0)) / (1.0 + norm_x);
        *gradcond = norm_inf(&sys.lx) / (1.0 + norm_lam);
        *compcond =
            z.iter().zip(mu.iter()).map(|(zi, mi)| zi * mi).sum::<f64>() / (1.0 + norm_inf(x));
        let costcond = (*f - f_old).abs() / (1.0 + f_old.abs());

        if *feascond < TOL && *gradcond < TOL && *compcond < TOL && (it > 0 && costcond < TOL) {
            return Ok(());
        }
        if it == opts.max_iter {
            break;
        }

        let t_assemble = Instant::now();
        sys.assemble(prob, x, lam, mu, z).map_err(Stop::Mismatch)?;
        let t_factor = Instant::now();

        let forced_fallback = gm_faults::inject("acopf.kkt.ldl") == Some(FaultKind::LuSingular);
        // The analysis was made from this very matrix: values only.
        let replayed = !forced_fallback && ldl.replay(sys.kkt.mat().values()).is_ok();
        let ldl_solve = |sys: &System, sol: &mut Vec<f64>| {
            ldl.solve_refined(
                sys.kkt.mat(),
                &sys.rhs,
                sol,
                solve_ws,
                KKT_RESIDUAL_TOL,
                KKT_REFINE_STEPS,
            )
            .map(|r| {
                gm_telemetry::counter_add("acopf.kkt.refine_steps", r.steps as u64);
                gm_telemetry::histogram_record("acopf.kkt.residual", r.residual);
            })
            .is_ok()
        };
        let on_ldl = replayed
            .then(|| predict_correct(sys, (z, mu), target, (dz, dmu), sol, ldl_solve))
            .flatten();
        let centre = match on_ldl {
            Some(centre) => centre,
            None => {
                // The static pivot order failed on these values: take
                // both of this iteration's solves from the pivoting LU.
                gm_telemetry::counter_add("acopf.kkt.lu_fallbacks", 1);
                let singular = || Stop::Short(format!("singular KKT system at iteration {it}"));
                let lu = SparseLu::factor(sys.kkt.mat()).map_err(|_| singular())?;
                let lu_solve = |sys: &System, sol: &mut Vec<f64>| {
                    sol.clone_from(&sys.rhs);
                    solve_ws.resize(n_kkt, 0.0);
                    lu.solve_in_place(sol, solve_ws);
                    true
                };
                predict_correct(sys, (z, mu), target, (dz, dmu), sol, lu_solve)
                    .ok_or_else(singular)?
            }
        };
        gm_telemetry::histogram_record("acopf.ipm.factor_s", t_factor.elapsed().as_secs_f64());
        gm_telemetry::histogram_record(
            "acopf.ipm.assemble_s",
            (t_factor - t_assemble).as_secs_f64(),
        );
        gm_telemetry::histogram_record("acopf.ipm.barrier_mu", centre);
        let dx = &sol[..nx];
        let dlam = &sol[nx..];

        // Step lengths.
        let alpha_p = boundary_step(z, dz, XI);
        let alpha_d = boundary_step(mu, dmu, XI);
        if alpha_p < 1e-14 && alpha_d < 1e-14 {
            return Err(Stop::Short(format!("numerically stuck at iteration {it}")));
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

        f_old = *f;
        *f = sys.evaluate(prob, x).map_err(Stop::Mismatch)?;
        if !f.is_finite() {
            return Err(Stop::Short(format!(
                "objective became non-finite at iteration {it}"
            )));
        }
    }
    Err(Stop::Short(String::from("iteration limit reached")))
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

    /// min (x₀−2)² + (x₁−1)² + (x₂−1)²  s.t.  x₀ + x_k = 2,  x₀ ≥ 0.5,
    /// with `k` = 1 or 2: two problems of equal sizes and equal
    /// contribution counts whose `Jg` patterns differ in one column.
    struct Coupled {
        with_third: bool,
    }

    impl Coupled {
        fn partner(&self) -> usize {
            if self.with_third {
                2
            } else {
                1
            }
        }
    }

    impl Nlp for Coupled {
        fn nx(&self) -> usize {
            3
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
            let target = [2.0, 1.0, 1.0];
            for i in 0..3 {
                df[i] = 2.0 * (x[i] - target[i]);
            }
            (0..3).map(|i| (x[i] - target[i]).powi(2)).sum()
        }
        fn equalities<S: Stamp>(&self, x: &[f64], g: &mut [f64], jg: &mut S) {
            g[0] = x[0] + x[self.partner()] - 2.0;
            jg.add(0, 0, 1.0);
            jg.add(0, self.partner(), 1.0);
        }
        fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], jh: &mut S) {
            h[0] = 0.5 - x[0];
            jh.add(0, 0, -1.0);
        }
        fn lagrangian_hessian<S: Stamp>(&self, _x: &[f64], _l: &[f64], _m: &[f64], hess: &mut S) {
            for i in 0..3 {
                hess.add(i, i, 2.0);
            }
        }
    }

    fn counts(reg: &gm_telemetry::Registry) -> [u64; 2] {
        ["acopf.kkt.structure_builds", "acopf.kkt.structure_reuse"].map(|k| reg.counter_value(k))
    }

    #[test]
    fn equal_sizes_and_counts_with_another_pattern_is_a_fresh_build() {
        let reg = gm_telemetry::Registry::new();
        let _guard = reg.install();
        let opts = IpmOptions::default();
        let mut answers = Vec::new();
        for (with_third, want, so_far) in [
            (false, [1.5, 0.5, 1.0], [1, 0]),
            // Same nx / neq / niq, same number of contributions to every
            // matrix: only comparing the positions tells them apart.
            (true, [1.5, 1.0, 0.5], [2, 0]),
            (false, [1.5, 0.5, 1.0], [2, 1]),
            (true, [1.5, 1.0, 0.5], [2, 2]),
        ] {
            let r = solve(&Coupled { with_third }, &opts);
            assert!(r.converged, "{}", r.message);
            for (got, want) in r.x.iter().zip(want) {
                assert!((got - want).abs() < 1e-5, "x = {:?}", r.x);
            }
            assert_eq!(counts(&reg), so_far, "with_third = {with_third}");
            answers.push(r);
        }
        // A kept plan gives the bits a fresh build gave.
        for (warm, cold) in [(2, 0), (3, 1)] {
            let bits = |r: &IpmResult| -> Vec<u64> {
                (r.x.iter().chain(&r.lam).chain(&r.mu))
                    .map(|v| v.to_bits())
                    .chain([r.f.to_bits(), r.iterations as u64])
                    .collect()
            };
            assert_eq!(bits(&answers[warm]), bits(&answers[cold]));
        }
    }

    /// [`Quadratic`] stamping its two `Jg` entries in alternating order:
    /// same positions, same count, same CSR pattern even — but the value
    /// pass that follows the structure pass sends them the other way
    /// round, and would land each value in the other's slot.
    struct Misordered {
        calls: Cell<usize>,
    }

    impl Nlp for Misordered {
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
            Quadratic.x0(x);
        }
        fn objective(&self, x: &[f64], df: &mut [f64]) -> f64 {
            Quadratic.objective(x, df)
        }
        fn equalities<S: Stamp>(&self, x: &[f64], g: &mut [f64], jg: &mut S) {
            g[0] = x[0] + 3.0 * x[1] - 2.0;
            let call = self.calls.replace(self.calls.get() + 1);
            if call.is_multiple_of(2) {
                jg.add(0, 0, 1.0);
                jg.add(0, 1, 3.0);
            } else {
                jg.add(0, 1, 3.0);
                jg.add(0, 0, 1.0);
            }
        }
        fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], jh: &mut S) {
            Quadratic.inequalities(x, h, jh);
        }
        fn lagrangian_hessian<S: Stamp>(&self, x: &[f64], l: &[f64], m: &[f64], hess: &mut S) {
            Quadratic.lagrangian_hessian(x, l, m, hess);
        }
    }

    #[test]
    fn a_misordered_pass_is_a_failed_solve_and_its_plan_is_not_kept() {
        let reg = gm_telemetry::Registry::new();
        let _guard = reg.install();
        let prob = Misordered {
            calls: Cell::new(0),
        };
        let r = solve(&prob, &IpmOptions::default());
        assert!(!r.converged);
        assert_eq!(
            r.message,
            "Jg: contribution 0 at (0,1), structure has (0,0)"
        );
        assert_eq!(r.iterations, 0);
        // Nothing was kept: the well-behaved problem of the same sizes
        // and pattern builds its own plan, and that one is.
        for so_far in [[2, 0], [2, 1]] {
            assert!(solve(&Quadratic, &IpmOptions::default()).converged);
            assert_eq!(counts(&reg), so_far);
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
        fn constants(&self) -> Constants {
            Constants {
                jg: Some(Triplets::new(2, 1).to_csr()),
                ..Constants::default()
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

    /// [`Quadratic`] with a second `Jg` contribution in a row past `neq`.
    struct StampsOutside;

    impl Nlp for StampsOutside {
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
            Quadratic.x0(x);
        }
        fn objective(&self, x: &[f64], df: &mut [f64]) -> f64 {
            Quadratic.objective(x, df)
        }
        fn equalities<S: Stamp>(&self, x: &[f64], g: &mut [f64], jg: &mut S) {
            g[0] = x[0] + x[1] - 2.0;
            jg.add(0, 0, 1.0);
            jg.add(self.neq(), 0, 1.0);
        }
        fn inequalities<S: Stamp>(&self, x: &[f64], h: &mut [f64], jh: &mut S) {
            Quadratic.inequalities(x, h, jh);
        }
        fn lagrangian_hessian<S: Stamp>(&self, x: &[f64], l: &[f64], m: &[f64], hess: &mut S) {
            Quadratic.lagrangian_hessian(x, l, m, hess);
        }
    }

    #[test]
    fn a_structure_pass_outside_its_matrix_is_a_failed_solve_not_a_panic() {
        let r = solve(&StampsOutside, &IpmOptions::default());
        assert!(!r.converged);
        assert_eq!(r.message, "Jg: contribution 1 at (1,0) outside 1x2");
        assert_eq!(r.iterations, 0);
        assert_eq!(Structure::of(&StampsOutside).unwrap_err(), r.message);
    }
}
