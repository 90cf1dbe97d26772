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

    /// This map with the `|V|` of the PV bus `bus` appended as unknown
    /// (and its Q mismatch as equation) `nvar()`, every other unknown
    /// where it was: the bordered system of a PV bus turned PQ, which
    /// the base Jacobian's factor still solves in its leading block.
    pub(crate) fn with_vm_appended(&self, bus: usize) -> PolarIndex {
        let mut col_vm = self.col_vm.clone();
        col_vm[bus] = self.nvar;
        PolarIndex {
            col_th: self.col_th.clone(),
            col_vm,
            nvar: self.nvar + 1,
        }
    }

    /// Writes `to ← from − μ·dx` in polar coordinates, magnitudes floored
    /// at 0.1 p.u. to stay physical, and its phasors: one `sin_cos` per
    /// bus, no `hypot` or `atan2`.
    pub(crate) fn step(&self, from: &Iterate, dx: &[f64], mu: f64, to: &mut Iterate) {
        to.resize(from.v.len());
        for i in 0..from.v.len() {
            let (mut vm, mut va) = (from.vm[i], from.va[i]);
            if self.col_th[i] != NONE {
                va -= mu * dx[self.col_th[i]];
            }
            if self.col_vm[i] != NONE {
                vm -= mu * dx[self.col_vm[i]];
                vm = vm.max(0.1);
            }
            to.vm[i] = vm;
            to.va[i] = va;
            to.v[i] = Complex::from_polar(vm, va);
        }
    }

    /// Fills the injections, mismatch vector and its max-norm `‖f‖∞` (NaN
    /// when an entry is) of `it` against the targets, with `currents` as
    /// the buffer of `Y·V`.
    pub(crate) fn evaluate(
        &self,
        it: &mut Iterate,
        ybus: &YBus,
        (p_spec, q_spec): (&[f64], &[f64]),
        currents: &mut Vec<Complex>,
    ) {
        let n = it.v.len();
        currents.resize(n, Complex::ZERO);
        ybus.matrix.mul_vec_into(&it.v, currents);
        it.f.resize(self.nvar, 0.0);
        let mut norm = 0.0f64;
        for i in 0..n {
            // `YBus::injections`, term for term.
            let s = it.v[i] * currents[i].conj();
            it.s[i] = s;
            if self.col_th[i] != NONE {
                let m = s.re - p_spec[i];
                it.f[self.col_th[i]] = m;
                norm = max_nan(norm, m.abs());
            }
            if self.col_vm[i] != NONE {
                let m = s.im - q_spec[i];
                it.f[self.col_vm[i]] = m;
                norm = max_nan(norm, m.abs());
            }
        }
        it.norm = norm;
    }

    /// Stamps the whole Jacobian at the iterate `it` over the Ybus
    /// sparsity pattern, row by row.
    pub(crate) fn stamp_jacobian<S: Stamp>(&self, out: &mut S, ybus: &YBus, it: &Iterate) {
        for i in 0..it.v.len() {
            let (cols, vals) = ybus.matrix.row(i);
            for (&j, &y) in cols.iter().zip(vals) {
                self.stamp_entries(out, i, j, y, it);
            }
        }
    }

    /// Stamps the (up to four) Jacobian entries that the admittance
    /// `y = Y[i][j]` contributes, `∂(P_i, Q_i)/∂(θ_j, |V_j|)`, at the
    /// iterate `it` (its phasors, magnitudes and injections). An
    /// off-diagonal entry is read off `e = V_i·conj(V_j)`, so no entry
    /// costs a trigonometric call.
    // Called once per Ybus nonzero from the Newton assembly loop: out of
    // line, the call and the per-entry row lookups cost 2-4% of
    // `grid_scale` / `study_sweep` throughput.
    #[inline(always)]
    pub(crate) fn stamp_entries<S: Stamp>(
        &self,
        out: &mut S,
        i: usize,
        j: usize,
        y: Complex,
        it: &Iterate,
    ) {
        let (g, b) = (y.re, y.im);
        let row_p = self.col_th[i];
        let row_q = self.col_vm[i];
        if i == j {
            let vi = it.vm[i];
            let (pi, qi) = (it.s[i].re, it.s[i].im);
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
            // e = |V_i||V_j|·(cos θ_ij + j·sin θ_ij).
            let e = it.v[i] * it.v[j].conj();
            // ∂P_i/∂θ_j, and |V_j|·∂Q_i/∂|V_j|.
            let dp = g * e.im - b * e.re;
            // −∂Q_i/∂θ_j, and |V_j|·∂P_i/∂|V_j|.
            let dq = g * e.re + b * e.im;
            let vj = it.vm[j];
            if row_p != NONE {
                if self.col_th[j] != NONE {
                    out.add(row_p, self.col_th[j], dp);
                }
                if self.col_vm[j] != NONE {
                    out.add(row_p, self.col_vm[j], dq / vj);
                }
            }
            if row_q != NONE {
                if self.col_th[j] != NONE {
                    out.add(row_q, self.col_th[j], -dq);
                }
                if self.col_vm[j] != NONE {
                    out.add(row_q, self.col_vm[j], dp / vj);
                }
            }
        }
    }
}

/// One iterate of a polar solve in the buffers it is kept in: the
/// coordinates `(|V|, θ)` the unknowns live in, the phasors `V` built
/// from them, the injections `S = V ∘ conj(Y·V)`, and the mismatch `f`
/// with its max-norm. Newton and the compensated solve keep their state
/// in these and step from one into another, so an iteration allocates
/// nothing and every trial step and Jacobian entry reads `|V|` and
/// `arg V` from the buffers rather than from `hypot` and `atan2`.
#[derive(Clone, Default)]
pub(crate) struct Iterate {
    pub(crate) vm: Vec<f64>,
    pub(crate) va: Vec<f64>,
    pub(crate) v: Vec<Complex>,
    pub(crate) s: Vec<Complex>,
    pub(crate) f: Vec<f64>,
    pub(crate) norm: f64,
}

impl Iterate {
    /// Sizes every bus-indexed buffer for `n` buses.
    fn resize(&mut self, n: usize) {
        self.vm.resize(n, 0.0);
        self.va.resize(n, 0.0);
        self.v.resize(n, Complex::ZERO);
        self.s.resize(n, Complex::ZERO);
    }

    /// Loads the phasors `v` and their polar coordinates.
    pub(crate) fn set_phasors(&mut self, v: &[Complex]) {
        self.resize(v.len());
        self.v.copy_from_slice(v);
        self.polar_from_phasors();
    }

    /// Re-derives the polar coordinates from the phasors: one `hypot` and
    /// one `atan2` per bus.
    pub(crate) fn polar_from_phasors(&mut self) {
        for (i, vi) in self.v.iter().enumerate() {
            self.vm[i] = vi.abs();
            self.va[i] = vi.arg();
        }
    }

    /// Loads the polar coordinates `(vm, va)` and their phasors.
    pub(crate) fn set_polar(&mut self, vm: &[f64], va: &[f64]) {
        self.resize(vm.len());
        self.vm.copy_from_slice(vm);
        self.va.copy_from_slice(va);
        for i in 0..vm.len() {
            self.v[i] = Complex::from_polar(vm[i], va[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};
    use gm_sparse::Triplets;

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
        let ybus = YBus::assemble(&net);
        let mut it = Iterate::default();
        it.set_polar(&vec![1.0; net.n_bus()], &vec![0.0; net.n_bus()]);
        idx.evaluate(&mut it, &ybus, (&p_spec, &q_spec), &mut Vec::new());
        assert_eq!(it.f.len(), idx.nvar());
        assert_eq!(it.s, ybus.injections(&it.v), "the injections, bit for bit");
        assert!(it.norm > 0.0, "a flat start is not a solution");
        assert_eq!(it.norm, it.f.iter().fold(0.0f64, |m, x| m.max(x.abs())));
    }

    #[test]
    fn step_floors_magnitudes_and_moves_only_the_unknowns() {
        let (net, role) = case14();
        let idx = PolarIndex::new(&role);
        let mut from = Iterate::default();
        from.set_polar(&vec![1.0; net.n_bus()], &vec![0.0; net.n_bus()]);
        // An absurd update: every unknown moves by −5.
        let mut out = Iterate::default();
        idx.step(&from, &vec![5.0; idx.nvar()], 1.0, &mut out);
        for (i, r) in role.iter().enumerate() {
            let (vm, va) = (
                if *r == Role::Pq { 0.1 } else { 1.0 },
                if *r == Role::Slack { 0.0 } else { -5.0 },
            );
            assert_eq!((out.vm[i], out.va[i]), (vm, va), "bus {i}");
            assert_eq!(out.v[i], Complex::from_polar(vm, va), "bus {i}");
        }
    }

    /// The off-diagonal entries by the textbook formula, from `|V|`,
    /// `arg V` and `sin_cos θ_ij`: the oracle for the trig-free ones.
    fn stamp_entries_trig(
        idx: &PolarIndex,
        out: &mut Triplets<f64>,
        (i, j, y): (usize, usize, Complex),
        v: &[Complex],
    ) {
        let (g, b) = (y.re, y.im);
        let (vi, vj) = (v[i].abs(), v[j].abs());
        let (sin, cos) = (v[i].arg() - v[j].arg()).sin_cos();
        let (row_p, row_q) = (idx.col_th[i], idx.col_vm[i]);
        let (col_th, col_vm) = (idx.col_th[j], idx.col_vm[j]);
        let mut add = |row: usize, col: usize, x: f64| {
            if row != NONE && col != NONE {
                out.add(row, col, x);
            }
        };
        add(row_p, col_th, vi * vj * (g * sin - b * cos));
        add(row_p, col_vm, vi * (g * cos + b * sin));
        add(row_q, col_th, -vi * vj * (g * cos + b * sin));
        add(row_q, col_vm, vi * (g * sin - b * cos));
    }

    #[test]
    fn trig_free_jacobian_matches_the_sin_cos_formula() {
        let net = cases::load(CaseId::Ieee118);
        let ybus = YBus::assemble(&net);
        let idx = PolarIndex::new(&effective_roles(&net, net.slack().unwrap()));
        // A perturbed state: magnitudes in [0.93, 1.07], angles over
        // ±2 rad, so the angle differences across branches fall in every
        // quadrant (counted below).
        let n = net.n_bus();
        let vm: Vec<f64> = (0..n)
            .map(|i| 1.0 + 0.07 * (1.7 * i as f64).sin())
            .collect();
        let va: Vec<f64> = (0..n).map(|i| 2.0 * (0.37 * i as f64).cos()).collect();
        let mut it = Iterate::default();
        it.set_polar(&vm, &va);
        // Both formulas read the magnitudes off the phasors.
        it.set_phasors(&it.v.clone());
        idx.evaluate(
            &mut it,
            &ybus,
            (&vec![0.0; n], &vec![0.0; n]),
            &mut Vec::new(),
        );

        let (mut new, mut old) = (
            Triplets::new(idx.nvar(), idx.nvar()),
            Triplets::new(idx.nvar(), idx.nvar()),
        );
        let mut quadrants = [0usize; 4];
        for i in 0..n {
            let (cols, vals) = ybus.matrix.row(i);
            for (&j, &y) in cols.iter().zip(vals) {
                if i == j {
                    continue;
                }
                idx.stamp_entries(&mut new, i, j, y, &it);
                stamp_entries_trig(&idx, &mut old, (i, j, y), &it.v);
                let (sin, cos) = (va[i] - va[j]).sin_cos();
                quadrants[usize::from(sin < 0.0) * 2 + usize::from(cos < 0.0)] += 1;
            }
        }
        assert!(quadrants.iter().all(|&q| q > 10), "{quadrants:?}");
        assert_eq!(new.len(), old.len());
        for (&(r, c, a), &(r0, c0, b)) in new.entries().iter().zip(old.entries()) {
            assert_eq!((r, c), (r0, c0));
            assert!(
                (a - b).abs() <= 1e-12 * b.abs(),
                "J[{r}][{c}]: {a:e} vs {b:e}"
            );
        }
    }
}
