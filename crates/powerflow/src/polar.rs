//! The polar power-flow system: the one place that decides how the
//! unknowns `(θ, |V|)` are indexed and how mismatch, step and Jacobian
//! entries are computed from them.
//!
//! Full Newton ([`crate::newton`]), the compensated outage solve
//! ([`crate::compensated`]) and — for roles and targets — the
//! fast-decoupled solver ([`crate::decoupled`]) all solve
//!
//! ```text
//! P_i(θ, V) − P_i^spec = 0   at every non-slack bus
//! Q_i(θ, V) − Q_i^spec = 0   at every PQ bus
//! ```
//!
//! and the cascade's "compensated ≡ Newton" guarantee only holds while
//! they agree on every sign and index of it, so none of them carries its
//! own copy. Jacobian entries are stamped in a fixed order with fixed
//! expressions, and the positions depend on the roles and the Ybus
//! pattern alone — never on a value — so the assembled Jacobian, and
//! every report and counter downstream, is a bit-exact function of the
//! inputs (`tests/golden_bits.rs`), and one kept [`gm_sparse::Stencil`]
//! serves every iterate of a role assignment.

use gm_network::{BusKind, Generator, Network, YBus};
use gm_numeric::Complex;
use gm_sparse::Stamp;

/// Effective bus role during a solve (PV buses can be demoted to PQ when
/// their units hit reactive limits).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Role {
    Slack,
    Pv,
    Pq,
}

/// Effective roles: a PV bus without an in-service generator is just PQ.
pub(crate) fn effective_roles(net: &Network, slack: usize) -> Vec<Role> {
    let mut role = vec![Role::Pq; net.n_bus()];
    for g in net.gens.iter().filter(|g| g.in_service) {
        if net.buses.get(g.bus).is_some_and(|b| b.kind == BusKind::Pv) {
            role[g.bus] = Role::Pv;
        }
    }
    role[slack] = Role::Slack;
    role
}

/// The in-service generators and loads of every bus, grouped in one
/// pass so the solver's set-up, Q-limit rounds and report do not scan
/// `net.gens` / `net.loads` once per bus. Within a bus both lists keep
/// network order — the order [`Network::gens_at`] yields and the order a
/// filtered scan of the loads sums in — so every total taken over them
/// is the bit pattern the scans produced.
pub(crate) struct BusDevices {
    gen_ptr: Vec<usize>,
    gen_idx: Vec<usize>,
    load_ptr: Vec<usize>,
    load_idx: Vec<usize>,
}

/// Counting sort of `(item, bus)` pairs into per-bus spans, stable
/// within a bus.
fn group_by_bus(n_bus: usize, at: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
    let mut ptr = vec![0usize; n_bus + 1];
    for &(_, bus) in at {
        ptr[bus + 1] += 1;
    }
    for b in 0..n_bus {
        ptr[b + 1] += ptr[b];
    }
    let mut next = ptr.clone();
    let mut idx = vec![0usize; at.len()];
    for &(item, bus) in at {
        idx[next[bus]] = item;
        next[bus] += 1;
    }
    (ptr, idx)
}

impl BusDevices {
    pub(crate) fn new(net: &Network) -> BusDevices {
        let n = net.n_bus();
        let gens: Vec<(usize, usize)> = (net.gens.iter().enumerate())
            .filter(|(_, g)| g.in_service && g.bus < n)
            .map(|(gi, g)| (gi, g.bus))
            .collect();
        let loads: Vec<(usize, usize)> = (net.loads.iter().enumerate())
            .filter(|(_, l)| l.in_service && l.bus < n)
            .map(|(li, l)| (li, l.bus))
            .collect();
        let (gen_ptr, gen_idx) = group_by_bus(n, &gens);
        let (load_ptr, load_idx) = group_by_bus(n, &loads);
        BusDevices {
            gen_ptr,
            gen_idx,
            load_ptr,
            load_idx,
        }
    }

    /// [`Network::gens_at`] without the scan.
    pub(crate) fn gens_at<'a>(
        &'a self,
        net: &'a Network,
        bus: usize,
    ) -> impl Iterator<Item = (usize, &'a Generator)> + 'a {
        self.gen_idx[self.gen_ptr[bus]..self.gen_ptr[bus + 1]]
            .iter()
            .map(move |&gi| (gi, &net.gens[gi]))
    }

    /// Total in-service load `(P MW, Q MVAr)` at a bus.
    pub(crate) fn load_mw_mvar(&self, net: &Network, bus: usize) -> (f64, f64) {
        let at = &self.load_idx[self.load_ptr[bus]..self.load_ptr[bus + 1]];
        (
            at.iter().map(|&li| net.loads[li].p_mw).sum(),
            at.iter().map(|&li| net.loads[li].q_mvar).sum(),
        )
    }
}

/// Scheduled `(P, Q)` injection targets per bus, in p.u.
pub(crate) fn targets_pu(net: &Network) -> (Vec<f64>, Vec<f64>) {
    let (p_mw, q_mvar) = net.scheduled_injections();
    (
        p_mw.iter().map(|v| v / net.base_mva).collect(),
        q_mvar.iter().map(|v| v / net.base_mva).collect(),
    )
}

/// `norm.max(entry)` that keeps a NaN from either side: a max-norm built
/// from it is NaN when an entry is, where `f64::max` would skip the entry
/// and report a NaN iterate as converged. Same bits as `f64::max`
/// otherwise.
pub(crate) fn max_nan(norm: f64, entry: f64) -> f64 {
    if norm.is_nan() || norm >= entry {
        norm
    } else {
        entry
    }
}

/// Marks a bus without the unknown in question.
const NONE: usize = usize::MAX;

/// Column map of the unknowns for one role assignment: the θ of every
/// non-slack bus in bus order, then the |V| of every PQ bus in bus order.
/// The P-mismatch row of a bus shares its θ index and the Q-mismatch row
/// its |V| index, so the same map addresses rows.
pub(crate) struct PolarIndex {
    col_th: Vec<usize>,
    col_vm: Vec<usize>,
    nvar: usize,
}

impl PolarIndex {
    pub(crate) fn new(role: &[Role]) -> PolarIndex {
        let n = role.len();
        let mut col_th = vec![NONE; n];
        let mut col_vm = vec![NONE; n];
        let mut n_th = 0usize;
        for i in 0..n {
            if role[i] != Role::Slack {
                col_th[i] = n_th;
                n_th += 1;
            }
        }
        let mut n_vm = 0usize;
        for i in 0..n {
            if role[i] == Role::Pq {
                col_vm[i] = n_th + n_vm;
                n_vm += 1;
            }
        }
        PolarIndex {
            col_th,
            col_vm,
            nvar: n_th + n_vm,
        }
    }

    /// Number of unknowns (and of mismatch equations).
    pub(crate) fn nvar(&self) -> usize {
        self.nvar
    }

    /// Mismatch vector `f` of the injections `s_calc` against the
    /// targets, and its max-norm `‖f‖∞` (NaN when an entry is).
    pub(crate) fn mismatch(
        &self,
        s_calc: &[Complex],
        p_spec: &[f64],
        q_spec: &[f64],
    ) -> (Vec<f64>, f64) {
        let mut f = vec![0.0f64; self.nvar];
        let mut norm = 0.0f64;
        for i in 0..s_calc.len() {
            if self.col_th[i] != NONE {
                let m = s_calc[i].re - p_spec[i];
                f[self.col_th[i]] = m;
                norm = max_nan(norm, m.abs());
            }
            if self.col_vm[i] != NONE {
                let m = s_calc[i].im - q_spec[i];
                f[self.col_vm[i]] = m;
                norm = max_nan(norm, m.abs());
            }
        }
        (f, norm)
    }

    /// The voltages after the update `x ← x − μ·dx`, magnitudes floored
    /// at 0.1 p.u. to stay physical.
    pub(crate) fn step(&self, v: &[Complex], dx: &[f64], mu: f64) -> Vec<Complex> {
        let mut out = v.to_vec();
        for i in 0..v.len() {
            let mut vm = v[i].abs();
            let mut th = v[i].arg();
            if self.col_th[i] != NONE {
                th -= mu * dx[self.col_th[i]];
            }
            if self.col_vm[i] != NONE {
                vm -= mu * dx[self.col_vm[i]];
                vm = vm.max(0.1);
            }
            out[i] = Complex::from_polar(vm, th);
        }
        out
    }

    /// Stamps the whole Jacobian at `v` over the Ybus sparsity pattern,
    /// row by row. `s_calc` are the injections at `v`.
    pub(crate) fn stamp_jacobian<S: Stamp>(
        &self,
        out: &mut S,
        ybus: &YBus,
        v: &[Complex],
        s_calc: &[Complex],
    ) {
        for i in 0..v.len() {
            let (cols, vals) = ybus.matrix.row(i);
            let (vi, thi) = (v[i].abs(), v[i].arg());
            for (&j, &y) in cols.iter().zip(vals) {
                self.stamp_entries(out, (i, vi, thi), j, y, v, s_calc);
            }
        }
    }

    /// Stamps the (up to four) Jacobian entries that the admittance
    /// `y = Y[i][j]` contributes, `∂(P_i, Q_i)/∂(θ_j, |V_j|)`. The caller
    /// hoists `|V_i|` and `arg V_i` once per row.
    // Called once per Ybus nonzero from the Newton assembly loop: out of
    // line, the call and the per-entry row lookups cost 2-4% of
    // `grid_scale` / `study_sweep` throughput.
    #[inline(always)]
    pub(crate) fn stamp_entries<S: Stamp>(
        &self,
        out: &mut S,
        (i, vi, thi): (usize, f64, f64),
        j: usize,
        y: Complex,
        v: &[Complex],
        s_calc: &[Complex],
    ) {
        let (g, b) = (y.re, y.im);
        let row_p = self.col_th[i];
        let row_q = self.col_vm[i];
        if i == j {
            let (pi, qi) = (s_calc[i].re, s_calc[i].im);
            if row_p != NONE {
                out.add(row_p, self.col_th[i], -qi - b * vi * vi);
                if self.col_vm[i] != NONE {
                    out.add(row_p, self.col_vm[i], pi / vi + g * vi);
                }
            }
            if row_q != NONE {
                out.add(row_q, self.col_th[i], pi - g * vi * vi);
                out.add(row_q, self.col_vm[i], qi / vi - b * vi);
            }
        } else {
            let vj = v[j].abs();
            let thij = thi - v[j].arg();
            let (sin, cos) = thij.sin_cos();
            if row_p != NONE {
                if self.col_th[j] != NONE {
                    out.add(row_p, self.col_th[j], vi * vj * (g * sin - b * cos));
                }
                if self.col_vm[j] != NONE {
                    out.add(row_p, self.col_vm[j], vi * (g * cos + b * sin));
                }
            }
            if row_q != NONE {
                if self.col_th[j] != NONE {
                    out.add(row_q, self.col_th[j], -vi * vj * (g * cos + b * sin));
                }
                if self.col_vm[j] != NONE {
                    out.add(row_q, self.col_vm[j], vi * (g * sin - b * cos));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};

    fn case14() -> (Network, Vec<Role>) {
        let net = cases::load(CaseId::Ieee14);
        let role = effective_roles(&net, net.slack().unwrap());
        (net, role)
    }

    #[test]
    fn slack_has_no_column_and_theta_columns_precede_vm_columns() {
        let (_, role) = case14();
        let idx = PolarIndex::new(&role);
        let n_th = role.iter().filter(|r| **r != Role::Slack).count();
        let n_vm = role.iter().filter(|r| **r == Role::Pq).count();
        assert_eq!((n_th, idx.nvar()), (role.len() - 1, n_th + n_vm));
        // Each block is dense and in bus order; the slack is in neither.
        let used = |cols: &[usize]| -> Vec<usize> {
            cols.iter().copied().filter(|&c| c != NONE).collect()
        };
        assert_eq!(used(&idx.col_th), (0..n_th).collect::<Vec<_>>());
        assert_eq!(used(&idx.col_vm), (n_th..n_th + n_vm).collect::<Vec<_>>());
        for (i, r) in role.iter().enumerate() {
            assert_eq!(idx.col_th[i] != NONE, *r != Role::Slack, "bus {i}");
            assert_eq!(idx.col_vm[i] != NONE, *r == Role::Pq, "bus {i}");
        }
    }

    #[test]
    fn pv_without_unit_is_pq() {
        let (mut net, role) = case14();
        let pv = role.iter().position(|r| *r == Role::Pv).unwrap();
        for g in net.gens.iter_mut().filter(|g| g.bus == pv) {
            g.in_service = false;
        }
        let demoted = effective_roles(&net, net.slack().unwrap());
        assert_eq!((net.buses[pv].kind, demoted[pv]), (BusKind::Pv, Role::Pq));
        // The demoted bus gains a |V| unknown; nothing else moves.
        assert_eq!(
            PolarIndex::new(&demoted).nvar(),
            PolarIndex::new(&role).nvar() + 1
        );
    }

    #[test]
    fn mismatch_norm_is_the_max_over_f() {
        let (net, role) = case14();
        let idx = PolarIndex::new(&role);
        let (p_spec, q_spec) = targets_pu(&net);
        let flat = vec![Complex::from_polar(1.0, 0.0); net.n_bus()];
        let s = YBus::assemble(&net).injections(&flat);
        let (f, norm) = idx.mismatch(&s, &p_spec, &q_spec);
        assert_eq!(f.len(), idx.nvar());
        assert!(norm > 0.0, "a flat start is not a solution");
        assert_eq!(norm, f.iter().fold(0.0f64, |m, x| m.max(x.abs())));
    }

    #[test]
    fn step_floors_magnitudes_and_moves_only_the_unknowns() {
        let (net, role) = case14();
        let idx = PolarIndex::new(&role);
        let v = vec![Complex::from_polar(1.0, 0.0); net.n_bus()];
        // An absurd update: every unknown moves by −5.
        let out = idx.step(&v, &vec![5.0; idx.nvar()], 1.0);
        for (i, r) in role.iter().enumerate() {
            let want = Complex::from_polar(
                if *r == Role::Pq { 0.1 } else { 1.0 },
                if *r == Role::Slack { 0.0 } else { -5.0 },
            );
            assert!((out[i] - want).abs() < 1e-12, "bus {i}");
        }
    }
}
