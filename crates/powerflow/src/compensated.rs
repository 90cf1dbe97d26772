//! Compensated post-outage AC power flow (the compensation method of
//! Alsac, Stott & Tinney, "Sparsity-oriented compensation methods for
//! modified network solutions", IEEE Trans. PAS-102, 1983).
//!
//! A branch outage perturbs the polar Newton Jacobian, evaluated at a
//! fixed state, only in the rows and columns of its two endpoint buses —
//! a rank ≤ 4 update. Instead of assembling and factoring a fresh
//! Jacobian per outage (what the brute N-1 sweep does), this module
//! factors the *base-case* Jacobian once, and solves each suspect outage
//! with a fixed-Jacobian ("dishonest") Newton iteration whose linear
//! solves go through [`gm_sparse::CompensatedLu`]: base factorization +
//! Woodbury correction for the outage block. The mismatch is always the
//! *true* mismatch of the outaged network, so a converged answer meets
//! exactly the same tolerance as the full Newton solver — only the path
//! there is approximated, never the fixed point.
//!
//! The trade: per outage, `p ≤ 4` sparse solves and a tiny dense
//! factorization up front, then one sparse solve + `O(n·p)` per
//! iteration — versus one Jacobian assembly + LU factorization *per
//! Newton iteration* in the full solver. The fixed-point iteration
//! converges linearly instead of quadratically, which is the right trade
//! for mild perturbations (one branch out of hundreds) and the wrong one
//! for severe ones — so every failure mode (ill-conditioned capacitance,
//! stalled or diverging iteration, Q-limit enforcement) is a typed error
//! that routes the caller to the existing full-Newton fallback.
//!
//! A generating-unit outage changes no admittance, only targets
//! ([`CompensationBase::solve_unit_outage`]). Where the unit's bus keeps
//! its role the base factor solves the outaged system as it is. Where
//! the unit was a PV bus's only support the bus turns PQ, and the
//! system grows by that bus's `|V|` and Q mismatch: a one-row,
//! one-column border of the base Jacobian,
//!
//! ```text
//! [ J0  u ] [dx]   [f]      s  = d − wᵀ·J0⁻¹·u          (once per outage)
//! [ wᵀ  d ] [dv] = [g]      dv = (g − wᵀ·J0⁻¹·f) / s,  dx = J0⁻¹·f − J0⁻¹·u·dv
//! ```
//!
//! solved through the scalar Schur complement `s`. Both kinds of outage
//! and the branch outages above run one fixed-Jacobian loop
//! (`CompensationBase::chord`); they differ only in the linear solve and
//! the system whose mismatch it drives to zero.

use crate::newton::build_report;
use crate::polar::{effective_roles, targets_pu, BusDevices, Iterate, PolarIndex, Role};
use crate::types::{PfOptions, PfReport, TOL_PU};
use gm_network::{Network, YBus};
use gm_numeric::Complex;
use gm_sparse::{CompensateError, CompensatedLu, SparseLu, Stamp, Triplets};

/// Iteration budget for the fixed-Jacobian loop. Linear convergence
/// needs more headroom than Newton's default; past this, the outage is
/// severe enough that the full solver is the better tool anyway.
const COMP_MAX_ITER: usize = 40;

/// Consecutive non-improving iterations tolerated before declaring a
/// stall (the fixed-point map is contracting on the cases worth
/// compensating; a plateau means it is not).
const STALL_LIMIT: usize = 4;

/// Relative floor on a unit outage's Schur complement `d − wᵀ·J0⁻¹·u`
/// against the larger of its two terms: below it the bordered system is
/// numerically singular and the outage goes to the Newton path. As
/// conservative as the Woodbury capacitance floor in gm-sparse.
const SCHUR_RCOND_MIN: f64 = 1e-10;

/// Why a compensated outage solve could not produce a report.
#[derive(Clone, Debug)]
pub enum CompensatedPfError {
    /// The sweep options or network shape rule compensation out (e.g.
    /// Q-limit enforcement, which re-partitions the variable space
    /// mid-solve).
    Unsupported { reason: &'static str },
    /// The base-case Jacobian could not be factored.
    BaseSingular,
    /// The outage update (nearly) singularizes the base factorization —
    /// the Woodbury capacitance matrix is ill-conditioned.
    IllConditioned,
    /// The fixed-Jacobian iteration stalled or diverged before meeting
    /// tolerance.
    NotConverged { iterations: usize, mismatch_pu: f64 },
}

impl std::fmt::Display for CompensatedPfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompensatedPfError::Unsupported { reason } => {
                write!(f, "compensated solve unsupported: {reason}")
            }
            CompensatedPfError::BaseSingular => write!(f, "base-case Jacobian is singular"),
            CompensatedPfError::IllConditioned => {
                write!(f, "outage update ill-conditioned against the base factorization")
            }
            CompensatedPfError::NotConverged {
                iterations,
                mismatch_pu,
            } => write!(
                f,
                "fixed-Jacobian iteration stopped after {iterations} iterations at {mismatch_pu:.3e} p.u."
            ),
        }
    }
}

impl std::error::Error for CompensatedPfError {}

/// Base-case state shared by every compensated outage solve of one
/// sweep: fixed bus roles and variable maps, scheduled injections, the
/// base Ybus, the base voltages, and the base Jacobian factored once —
/// on the thread's engine, so a sweep that follows its base solve
/// replays that solve's analysis.
///
/// Immutable after construction, so one instance can back all parallel
/// sweep workers.
pub struct CompensationBase {
    ybus: YBus,
    role: Vec<Role>,
    idx: PolarIndex,
    p_spec: Vec<f64>,
    q_spec: Vec<f64>,
    slack: usize,
    /// The base state: voltages, their polar coordinates and the base
    /// injections (these feed the outage-block delta). Every outage
    /// iterate starts from a copy.
    x0: Iterate,
    /// Base Jacobian at `x0`, factored once.
    j0: SparseLu,
}

impl CompensationBase {
    /// Builds the shared base state from a solved base case. `opts` must
    /// have Q-limit enforcement off (the N-1 sweep default): PV→PQ
    /// switching re-partitions the variable space, which a fixed
    /// factorization cannot follow.
    pub fn new(
        net: &Network,
        opts: &PfOptions,
        base: &PfReport,
    ) -> Result<CompensationBase, CompensatedPfError> {
        if opts.enforce_q_limits {
            return Err(CompensatedPfError::Unsupported {
                reason: "Q-limit enforcement re-partitions the variable space",
            });
        }
        let n = net.n_bus();
        if base.buses.len() != n {
            return Err(CompensatedPfError::Unsupported {
                reason: "base report does not match the network",
            });
        }
        let Some(slack) = net.slack() else {
            return Err(CompensatedPfError::Unsupported {
                reason: "network has no slack bus",
            });
        };
        let ybus = YBus::assemble(net);

        // No Q-limit rounds, so roles and the variable map are fixed for
        // the whole sweep.
        let role = effective_roles(net, slack);
        let (p_spec, q_spec) = targets_pu(net);
        let idx = PolarIndex::new(&role);
        let nvar = idx.nvar();
        if nvar == 0 {
            return Err(CompensatedPfError::Unsupported {
                reason: "no free variables",
            });
        }

        let mut x0 = Iterate::default();
        let (vm0, va0): (Vec<f64>, Vec<f64>) = (base.buses.iter())
            .map(|b| (b.vm_pu, b.va_deg.to_radians()))
            .unzip();
        x0.set_polar(&vm0, &va0);
        idx.evaluate(&mut x0, &ybus, (&p_spec, &q_spec), &mut Vec::new());

        // Assemble and factor the base Jacobian at x0. Its pattern is the
        // base solve's last Jacobian's, so the engine replays that
        // analysis, bit-identical to a cold factorization.
        let mut tj = Triplets::with_capacity(nvar, nvar, 4 * ybus.matrix.nnz());
        idx.stamp_jacobian(&mut tj, &ybus, &x0);
        let jac = tj.to_csr_structural();
        let j0 = gm_sparse::with_thread_engine(|engine| engine.factorize(&jac).cloned())
            .map_err(|_| CompensatedPfError::BaseSingular)?;

        Ok(CompensationBase {
            ybus,
            role,
            idx,
            p_spec,
            q_spec,
            slack,
            x0,
            j0,
        })
    }

    /// Solves the post-outage power flow for `work` — the base network
    /// with one or more branches switched out — against the base
    /// factorization. `outaged` lists the switched-out branch indices
    /// (endpoints of the Jacobian delta block).
    ///
    /// On success the report's voltages satisfy the outaged network's
    /// mismatch to the same 1e-8 p.u. tolerance, exactly like the full Newton path. Any
    /// failure is a typed signal to fall back to that path.
    pub fn solve_outage(
        &self,
        work: &Network,
        opts: &PfOptions,
        outaged: &[usize],
    ) -> Result<PfReport, CompensatedPfError> {
        let _span = gm_telemetry::span!(
            "pf.compensated.solve",
            case = work.name,
            n_bus = work.n_bus()
        );
        gm_telemetry::counter_add("pf.compensated.solves", 1);
        let nvar = self.idx.nvar();
        let ybus_out = self.ybus.without_branches(work, outaged);
        let sys = Mismatch {
            idx: &self.idx,
            ybus: &ybus_out,
            spec: (&self.p_spec, &self.q_spec),
        };
        // The iterate starts at the base state, under the outaged
        // network's injections.
        let mut at = self.x0.clone();
        sys.evaluate(&mut at, &mut Vec::new());

        // Endpoint buses of the outaged branches: the Jacobian delta at
        // the base state lives entirely on their rows × columns.
        let mut buses: Vec<usize> = Vec::with_capacity(2 * outaged.len());
        for &b in outaged {
            buses.push(work.branches[b].from_bus);
            buses.push(work.branches[b].to_bus);
        }
        buses.sort_unstable();
        buses.dedup();

        // ΔJ = J_out(x0) − J_base(x0), restricted to the endpoint block.
        let mut delta: Vec<(usize, usize, f64)> = Vec::new();
        let mut out_entries = Triplets::new(nvar, nvar);
        let mut base_entries = Triplets::new(nvar, nvar);
        for &i in &buses {
            for &j in &buses {
                let y_out = ybus_entry(&ybus_out, i, j);
                let y_base = ybus_entry(&self.ybus, i, j);
                self.idx.stamp_entries(&mut out_entries, i, j, y_out, &at);
                self.idx
                    .stamp_entries(&mut base_entries, i, j, y_base, &self.x0);
            }
        }
        collect_delta(&out_entries, &base_entries, &mut delta);

        // Index sets and dense block for the Woodbury update.
        let mut rows: Vec<usize> = delta.iter().map(|&(r, _, _)| r).collect();
        rows.sort_unstable();
        rows.dedup();
        let mut cols: Vec<usize> = delta.iter().map(|&(_, c, _)| c).collect();
        cols.sort_unstable();
        cols.dedup();
        if rows.is_empty() || cols.is_empty() {
            // No Jacobian change (e.g. the branch was already out): the
            // base factorization is exact.
            rows = vec![0];
            cols = vec![0];
            delta.clear();
        }
        let (p, q) = (rows.len(), cols.len());
        let mut block = vec![0.0f64; p * q];
        for &(r, c, v) in &delta {
            // Sets were built from the entries, so lookups always hit.
            if let (Ok(a), Ok(b)) = (rows.binary_search(&r), cols.binary_search(&c)) {
                block[a * q + b] += v;
            }
        }

        let comp = CompensatedLu::new(&self.j0, &rows, &cols, &block).map_err(|e| match e {
            CompensateError::IllConditioned { .. } => CompensatedPfError::IllConditioned,
            _ => CompensatedPfError::Unsupported {
                reason: "malformed update block",
            },
        })?;
        let mut scratch = vec![0.0f64; nvar];
        self.chord(work, opts, &sys, at, |dx| {
            comp.solve_in_place(dx, &mut scratch)
        })
    }

    /// Solves the post-outage power flow for `work` — the base network
    /// with the generating unit `unit` switched out — against the base
    /// factorization. The admittances do not change; the targets do.
    ///
    /// - While the unit's bus keeps its role (another unit holds a PV or
    ///   slack bus, or the bus was PQ), only the injection targets move,
    ///   and the chord iteration runs on the base factor as it is. A PV
    ///   or slack magnitude starts at the setpoint Newton would hold it
    ///   to: the first remaining unit's.
    /// - When the unit was its PV bus's only support, the bus turns PQ:
    ///   its `|V|` joins the unknowns and its Q mismatch the equations, a
    ///   one-row, one-column border of the base Jacobian, solved through
    ///   its Schur complement — one extra base solve up front, then one
    ///   base solve plus `O(n)` per iteration.
    ///
    /// The mismatch is the outaged network's, to the same tolerance as
    /// the Newton path; any failure is a typed signal to fall back to it.
    pub fn solve_unit_outage(
        &self,
        work: &Network,
        opts: &PfOptions,
        unit: usize,
    ) -> Result<PfReport, CompensatedPfError> {
        let _span = gm_telemetry::span!(
            "pf.compensated.solve",
            case = work.name,
            n_bus = work.n_bus()
        );
        gm_telemetry::counter_add("pf.compensated.solves", 1);
        let n = self.role.len();
        let bus = match work.gens.get(unit) {
            Some(g) if work.n_bus() == n && work.slack() == Some(self.slack) && g.bus < n => g.bus,
            _ => {
                return Err(CompensatedPfError::Unsupported {
                    reason: "the unit or the network is not the base's",
                })
            }
        };
        let role = effective_roles(work, self.slack);
        if (0..n).any(|i| i != bus && role[i] != self.role[i]) {
            return Err(CompensatedPfError::Unsupported {
                reason: "the outage changes the role of another bus",
            });
        }
        let (p_spec, q_spec) = targets_pu(work);
        let mut at = self.x0.clone();
        if role[bus] != Role::Pq {
            let vm_set = (work.gens_at(bus).next())
                .map_or(work.buses[bus].vm_pu.max(0.5), |(_, g)| g.vm_setpoint_pu);
            at.vm[bus] = vm_set;
            at.v[bus] = Complex::from_polar(vm_set, at.va[bus]);
        }
        let nvar = self.idx.nvar();
        let mut scratch = vec![0.0f64; nvar];
        match (self.role[bus], role[bus]) {
            (was, now) if was == now => {
                let sys = Mismatch {
                    idx: &self.idx,
                    ybus: &self.ybus,
                    spec: (&p_spec, &q_spec),
                };
                sys.evaluate(&mut at, &mut Vec::new());
                self.chord(work, opts, &sys, at, |dx| {
                    self.j0.solve_in_place(dx, &mut scratch)
                })
            }
            (Role::Pv, Role::Pq) => {
                let idx = self.idx.with_vm_appended(bus);
                // The border at the base state, where the base Jacobian
                // was taken: column `u = ∂(P, Q)/∂|V_bus|`, row
                // `w = ∂Q_bus/∂(θ, |V|)` and corner `d`.
                let mut border = Border {
                    n: nvar,
                    col: vec![0.0; nvar],
                    row: vec![0.0; nvar],
                    corner: 0.0,
                };
                let (cols, vals) = self.ybus.matrix.row(bus);
                for (&j, &y) in cols.iter().zip(vals) {
                    idx.stamp_entries(&mut border, bus, j, y, &self.x0);
                    if j != bus {
                        let y_j = ybus_entry(&self.ybus, j, bus);
                        idx.stamp_entries(&mut border, j, bus, y_j, &self.x0);
                    }
                }
                let Border {
                    col, row, corner, ..
                } = border;
                // Schur complement `s = d − wᵀ·J0⁻¹·u`.
                let mut z = col;
                self.j0.solve_in_place(&mut z, &mut scratch);
                let wz = dot(&row, &z);
                let schur = corner - wz;
                // A NaN Schur complement is rejected too.
                let floor = SCHUR_RCOND_MIN * corner.abs().max(wz.abs());
                if schur.is_nan() || schur.abs() <= floor {
                    return Err(CompensatedPfError::IllConditioned);
                }
                let sys = Mismatch {
                    idx: &idx,
                    ybus: &self.ybus,
                    spec: (&p_spec, &q_spec),
                };
                sys.evaluate(&mut at, &mut Vec::new());
                self.chord(work, opts, &sys, at, |dx| {
                    let (x, t) = dx.split_at_mut(nvar);
                    self.j0.solve_in_place(x, &mut scratch);
                    let dv = (t[0] - dot(&row, x)) / schur;
                    for (xi, zi) in x.iter_mut().zip(&z) {
                        *xi -= zi * dv;
                    }
                    t[0] = dv;
                })
            }
            _ => Err(CompensatedPfError::Unsupported {
                reason: "the outage turns a bus other than PV into PQ",
            }),
        }
    }

    /// The fixed-Jacobian ("chord") iteration behind every compensated
    /// solve: from the evaluated start `at`, the step is `solve(f)` — the
    /// caller's solve against its fixed factor, in place on a copy of
    /// the mismatch — and the iteration stops when the *true* mismatch of
    /// `sys` meets [`TOL_PU`]. An overshooting step is halved once; a
    /// stall, a non-finite mismatch or the iteration budget ends it with
    /// [`CompensatedPfError::NotConverged`].
    fn chord(
        &self,
        work: &Network,
        opts: &PfOptions,
        sys: &Mismatch<'_>,
        mut at: Iterate,
        mut solve: impl FnMut(&mut [f64]),
    ) -> Result<PfReport, CompensatedPfError> {
        // Buffers sized once: `at` is the accepted iterate, `next` the
        // step taken from it, `half` the damped alternative.
        let mut currents = Vec::new();
        let mut dx = vec![0.0f64; sys.idx.nvar()];
        let (mut next, mut half) = (Iterate::default(), Iterate::default());
        let mut mismatch_history = Vec::new();
        let mut multipliers = Vec::new();
        let mut best = at.norm;
        let mut stall = 0usize;
        let mut iterations = 0usize;
        loop {
            mismatch_history.push(at.norm);
            if at.norm < TOL_PU {
                break;
            }
            if iterations >= COMP_MAX_ITER || !at.norm.is_finite() {
                return Err(CompensatedPfError::NotConverged {
                    iterations,
                    mismatch_pu: at.norm,
                });
            }
            iterations += 1;
            dx.copy_from_slice(&at.f);
            solve(&mut dx);
            sys.idx.step(&at, &dx, 1.0, &mut next);
            sys.evaluate(&mut next, &mut currents);
            let mut mu = 1.0;
            let keep_full = !opts.iwamoto_damping || next.norm <= at.norm;
            if !keep_full {
                // Overshoot: one halved step is the cheap stabilizer —
                // if that does not help either, the stall guard below
                // routes to the full solver.
                sys.idx.step(&at, &dx, 0.5, &mut half);
                sys.evaluate(&mut half, &mut currents);
                if half.norm < next.norm {
                    std::mem::swap(&mut next, &mut half);
                    mu = 0.5;
                }
            }
            multipliers.push(mu);
            if next.norm < best * 0.9999 {
                best = next.norm;
                stall = 0;
            } else {
                stall += 1;
                if stall >= STALL_LIMIT {
                    return Err(CompensatedPfError::NotConverged {
                        iterations,
                        mismatch_pu: next.norm,
                    });
                }
            }
            std::mem::swap(&mut at, &mut next);
        }
        gm_telemetry::histogram_record("pf.compensated.iterations_per_solve", iterations as f64);

        Ok(build_report(
            work,
            &BusDevices::new(work),
            sys.ybus,
            &at.v,
            self.slack,
            iterations,
            0,
            mismatch_history,
            multipliers,
            &[],
        ))
    }

    /// Base-case voltages (warm start for fallback solves).
    pub fn base_voltages(&self) -> &[Complex] {
        &self.x0.v
    }
}

/// The equations one compensated solve drives to zero: the unknowns'
/// index, the post-outage admittances and the injection targets.
struct Mismatch<'a> {
    idx: &'a PolarIndex,
    ybus: &'a YBus,
    spec: (&'a [f64], &'a [f64]),
}

impl Mismatch<'_> {
    /// [`PolarIndex::evaluate`] of `it` against this system.
    fn evaluate(&self, it: &mut Iterate, currents: &mut Vec<Complex>) {
        self.idx.evaluate(it, self.ybus, self.spec, currents);
    }
}

/// The border a PV bus turning PQ adds to the base Jacobian, collected
/// from the entries its bordered index stamps: the column of the new
/// unknown (index `n`), the row of the new equation and their corner.
/// Entries of the base Jacobian itself are dropped.
struct Border {
    n: usize,
    col: Vec<f64>,
    row: Vec<f64>,
    corner: f64,
}

impl Stamp for Border {
    fn add(&mut self, row: usize, col: usize, v: f64) {
        match (row == self.n, col == self.n) {
            (false, true) => self.col[row] += v,
            (true, false) => self.row[col] += v,
            (true, true) => self.corner += v,
            (false, false) => {}
        }
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Looks up `Y[i][j]`; structurally absent entries are zero (e.g. the
/// outaged branch was the only coupling between its endpoints).
fn ybus_entry(ybus: &YBus, i: usize, j: usize) -> Complex {
    let (cols, vals) = ybus.matrix.row(i);
    for (&c, &y) in cols.iter().zip(vals) {
        if c == j {
            return y;
        }
    }
    Complex::new(0.0, 0.0)
}

/// `out − base` over two triplet sets stamped on the same block,
/// dropping exact zeros.
fn collect_delta(out: &Triplets<f64>, base: &Triplets<f64>, delta: &mut Vec<(usize, usize, f64)>) {
    use std::collections::BTreeMap;
    let mut acc: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for &(r, c, v) in out.entries() {
        *acc.entry((r, c)).or_insert(0.0) += v;
    }
    for &(r, c, v) in base.entries() {
        *acc.entry((r, c)).or_insert(0.0) -= v;
    }
    for ((r, c), v) in acc {
        if v != 0.0 {
            delta.push((r, c, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, solve_from};
    use gm_network::{cases, topology, CaseId};

    fn sweep_opts() -> PfOptions {
        PfOptions {
            enforce_q_limits: false,
            max_iter: 25,
            ..Default::default()
        }
    }

    #[test]
    fn compensated_outage_matches_full_newton() {
        let net = cases::load(CaseId::Ieee30);
        let opts = sweep_opts();
        let base = solve(&net, &opts).unwrap();
        let comp_base = CompensationBase::new(&net, &opts, &base).unwrap();
        let v0 = comp_base.base_voltages().to_vec();
        let mut checked = 0;
        for k in 0..net.branches.len() {
            if topology::outage_islands(&net, k) {
                continue;
            }
            let mut work = net.clone();
            work.branches[k].in_service = false;
            let full = solve_from(&work, &opts, Some(&v0)).unwrap();
            let comp = match comp_base.solve_outage(&work, &opts, &[k]) {
                Ok(r) => r,
                // Fallback-worthy outages are legitimate; the cascade
                // routes them to the full solver.
                Err(CompensatedPfError::NotConverged { .. })
                | Err(CompensatedPfError::IllConditioned) => continue,
                Err(e) => panic!("unexpected error for outage {k}: {e}"),
            };
            checked += 1;
            for (a, b) in comp.buses.iter().zip(&full.buses) {
                assert!(
                    (a.vm_pu - b.vm_pu).abs() < 1e-6,
                    "outage {k}: vm {} vs {}",
                    a.vm_pu,
                    b.vm_pu
                );
                assert!(
                    (a.va_deg - b.va_deg).abs() < 1e-5,
                    "outage {k}: va {} vs {}",
                    a.va_deg,
                    b.va_deg
                );
            }
            for (a, b) in comp.branches.iter().zip(&full.branches) {
                assert!(
                    (a.loading_pct - b.loading_pct).abs() < 1e-4,
                    "outage {k}: loading {} vs {}",
                    a.loading_pct,
                    b.loading_pct
                );
            }
        }
        assert!(
            checked > net.branches.len() / 2,
            "compensation only handled {checked} outages"
        );
    }

    #[test]
    fn q_limit_options_are_rejected() {
        let net = cases::load(CaseId::Ieee14);
        let opts = PfOptions::default(); // enforce_q_limits = true
        let base = solve(&net, &opts).unwrap();
        match CompensationBase::new(&net, &opts, &base) {
            Err(CompensatedPfError::Unsupported { .. }) => {}
            Err(e) => panic!("expected Unsupported, got {e}"),
            Ok(_) => panic!("expected Unsupported, got a base"),
        }
    }

    #[test]
    fn double_outage_block_is_supported() {
        // The same machinery compensates an N-2 pair: two branches out,
        // one rank ≤ 8 block.
        let net = cases::load(CaseId::Ieee118);
        let opts = sweep_opts();
        let base = solve(&net, &opts).unwrap();
        let comp_base = CompensationBase::new(&net, &opts, &base).unwrap();
        let v0 = comp_base.base_voltages().to_vec();
        // Find a pair that neither islands alone nor jointly.
        let mut tested = false;
        'outer: for k in 0..net.branches.len() {
            if topology::outage_islands(&net, k) {
                continue;
            }
            for l in (k + 1)..net.branches.len().min(k + 12) {
                if topology::outage_islands(&net, l) {
                    continue;
                }
                let mut work = net.clone();
                work.branches[k].in_service = false;
                work.branches[l].in_service = false;
                if topology::connected_components(&work) > topology::connected_components(&net) {
                    continue;
                }
                let Ok(full) = solve_from(&work, &opts, Some(&v0)) else {
                    continue;
                };
                let Ok(comp) = comp_base.solve_outage(&work, &opts, &[k, l]) else {
                    continue;
                };
                for (a, b) in comp.buses.iter().zip(&full.buses) {
                    assert!(
                        (a.vm_pu - b.vm_pu).abs() < 1e-6,
                        "pair ({k},{l}): vm {} vs {}",
                        a.vm_pu,
                        b.vm_pu
                    );
                }
                tested = true;
                break 'outer;
            }
        }
        assert!(tested, "no compensatable pair found");
    }
}
