//! Compensated post-outage AC power flow (the Alsac–Stott–Tinney
//! compensation method).
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

use crate::newton::build_report;
use crate::polar::{effective_roles, targets_pu, BusDevices, PolarIndex, Role};
use crate::types::{PfOptions, PfReport};
use gm_network::{Network, YBus};
use gm_numeric::Complex;
use gm_sparse::{CompensateError, CompensatedLu, SparseLu, Triplets};

/// Iteration budget for the fixed-Jacobian loop. Linear convergence
/// needs more headroom than Newton's default; past this, the outage is
/// severe enough that the full solver is the better tool anyway.
const COMP_MAX_ITER: usize = 40;

/// Consecutive non-improving iterations tolerated before declaring a
/// stall (the fixed-point map is contracting on the cases worth
/// compensating; a plateau means it is not).
const STALL_LIMIT: usize = 4;

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
/// base Ybus, the base voltages, and the base Jacobian factored once.
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
    v0: Vec<Complex>,
    /// Base injections at `v0` (feeds the outage-block delta).
    s0: Vec<Complex>,
    /// Base Jacobian at `v0`, factored once.
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

        let v0 = base.voltages();
        let s0 = ybus.injections(&v0);

        // Assemble and factor the base Jacobian at v0.
        let mut tj = Triplets::with_capacity(nvar, nvar, 4 * ybus.matrix.nnz());
        idx.stamp_jacobian(&mut tj, &ybus, &v0, &s0);
        let j0 = SparseLu::factor(&tj.to_csr_structural())
            .map_err(|_| CompensatedPfError::BaseSingular)?;

        Ok(CompensationBase {
            ybus,
            role,
            idx,
            p_spec,
            q_spec,
            slack,
            v0,
            s0,
            j0,
        })
    }

    /// Solves the post-outage power flow for `work` — the base network
    /// with one or more branches switched out — against the base
    /// factorization. `outaged` lists the switched-out branch indices
    /// (endpoints of the Jacobian delta block).
    ///
    /// On success the report's voltages satisfy the outaged network's
    /// mismatch to `opts.tol_pu`, exactly like the full Newton path. Any
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
        let ybus_out = YBus::assemble(work);
        let s0_out = ybus_out.injections(&self.v0);

        // Endpoint buses of the outaged branches: the Jacobian delta at
        // v0 lives entirely on their rows × columns.
        let mut buses: Vec<usize> = Vec::with_capacity(2 * outaged.len());
        for &b in outaged {
            buses.push(work.branches[b].from_bus);
            buses.push(work.branches[b].to_bus);
        }
        buses.sort_unstable();
        buses.dedup();

        // ΔJ = J_out(v0) − J_base(v0), restricted to the endpoint block.
        let mut delta: Vec<(usize, usize, f64)> = Vec::new();
        let mut out_entries = Triplets::new(nvar, nvar);
        let mut base_entries = Triplets::new(nvar, nvar);
        for &i in &buses {
            let row = (i, self.v0[i].abs(), self.v0[i].arg());
            for &j in &buses {
                let y_out = ybus_entry(&ybus_out, i, j);
                let y_base = ybus_entry(&self.ybus, i, j);
                self.idx
                    .stamp_entries(&mut out_entries, row, j, y_out, &self.v0, &s0_out);
                self.idx
                    .stamp_entries(&mut base_entries, row, j, y_base, &self.v0, &self.s0);
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

        // Fixed-Jacobian iteration against the true post-outage mismatch.
        let mismatch_at = |v: &[Complex]| {
            self.idx
                .mismatch(&ybus_out.injections(v), &self.p_spec, &self.q_spec)
        };
        let mut v = self.v0.clone();
        let mut scratch = vec![0.0f64; nvar];
        let mut mismatch_history = Vec::new();
        let mut multipliers = Vec::new();
        let (mut f, mut norm) = mismatch_at(&v);
        let mut best = norm;
        let mut stall = 0usize;
        let mut iterations = 0usize;
        loop {
            mismatch_history.push(norm);
            if norm < opts.tol_pu {
                break;
            }
            if iterations >= COMP_MAX_ITER || !norm.is_finite() {
                return Err(CompensatedPfError::NotConverged {
                    iterations,
                    mismatch_pu: norm,
                });
            }
            iterations += 1;
            comp.solve_in_place(&mut f, &mut scratch);
            let dx = &f;
            let full = self.idx.step(&v, dx, 1.0);
            let (f_full, norm_full) = mismatch_at(&full);
            let (vc, fc, nc, mu) = if norm_full <= norm || !opts.iwamoto_damping {
                (full, f_full, norm_full, 1.0)
            } else {
                // Overshoot: one halved step is the cheap stabilizer —
                // if that does not help either, the stall guard below
                // routes to the full solver.
                let half = self.idx.step(&v, dx, 0.5);
                let (f_half, norm_half) = mismatch_at(&half);
                if norm_half < norm_full {
                    (half, f_half, norm_half, 0.5)
                } else {
                    (full, f_full, norm_full, 1.0)
                }
            };
            multipliers.push(mu);
            if nc < best * 0.9999 {
                best = nc;
                stall = 0;
            } else {
                stall += 1;
                if stall >= STALL_LIMIT {
                    return Err(CompensatedPfError::NotConverged {
                        iterations,
                        mismatch_pu: nc,
                    });
                }
            }
            v = vc;
            f = fc;
            norm = nc;
        }
        gm_telemetry::histogram_record("pf.compensated.iterations_per_solve", iterations as f64);

        Ok(build_report(
            work,
            &BusDevices::new(work),
            &ybus_out,
            &v,
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
        &self.v0
    }

    /// Number of solver variables (diagnostics).
    pub fn n_variables(&self) -> usize {
        self.idx.nvar()
    }

    /// Bus role check used by callers that must not compensate across a
    /// re-partition (diagnostics/tests).
    pub fn is_pq(&self, bus: usize) -> bool {
        self.role.get(bus).copied() == Some(Role::Pq)
    }
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
