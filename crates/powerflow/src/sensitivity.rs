//! Linear network sensitivities: PTDF and LODF.
//!
//! Power Transfer Distribution Factors map nodal injections to branch
//! flows under the DC approximation; Line Outage Distribution Factors map
//! a branch's pre-outage flow to the post-outage flow changes on every
//! other branch. Together they support the fast N-1 screening mode of the
//! contingency engine (Appendix B.4's "sensitivity analysis" capability)
//! and the security constraints of the SCOPF extension.

use crate::types::PfError;
use gm_network::{slack_pinned_bprime, Network};
use gm_numeric::DMat;
use gm_sparse::SparseLu;

/// PTDF/LODF matrices for a network snapshot (in-service branches only;
/// out-of-service rows are zero).
#[derive(Clone, Debug)]
pub struct Sensitivities {
    /// `ptdf[(l, i)]`: MW flow change on branch `l` per MW injected at
    /// bus `i` (withdrawn at the slack).
    pub ptdf: DMat,
    /// `lodf[(l, k)]`: MW flow change on branch `l` per MW of pre-outage
    /// flow on branch `k`, when `k` is outaged. `NaN` on columns whose
    /// outage islands the network (radial branches).
    pub lodf: DMat,
    /// Slack bus (reference for the PTDF).
    pub slack: usize,
}

/// Computes PTDF and LODF matrices.
///
/// Factorizes the reduced DC susceptance matrix once, then performs one
/// in-place solve per bus against that single factorization (rhs and
/// scratch buffers are reused across columns, so the column loop
/// allocates nothing). O(n · nnz-factor) — comfortably fast for the
/// case library sizes. Buses left without any in-service branch are
/// pinned in the factorization and their (identically zero) PTDF
/// columns are skipped. Fails with [`PfError::InvalidNetwork`] when
/// there is no slack bus and [`PfError::SingularJacobian`] when the
/// reduced B matrix cannot be factorized (islanded network).
pub fn sensitivities(net: &Network) -> Result<Sensitivities, PfError> {
    sensitivities_impl(net, None)
}

/// [`sensitivities`] restricted to the PTDF columns that screening and
/// security-constraint construction actually read: buses incident to an
/// in-service branch, plus buses with a nonzero scheduled injection.
/// Columns for other buses (out-of-service-only endpoints, isolated or
/// zero-injection buses) are skipped — their PTDF columns stay zero —
/// and the LODF is bit-identical to the full computation, because every
/// column it consumes is included.
pub fn sensitivities_for_screening(net: &Network) -> Result<Sensitivities, PfError> {
    let n = net.n_bus();
    let mut wanted = vec![false; n];
    for br in net.branches.iter().filter(|b| b.in_service) {
        wanted[br.from_bus] = true;
        wanted[br.to_bus] = true;
    }
    let (p_mw, q_mvar) = net.scheduled_injections();
    for i in 0..n {
        if p_mw[i] != 0.0 || q_mvar[i] != 0.0 {
            wanted[i] = true;
        }
    }
    sensitivities_impl(net, Some(&wanted))
}

fn sensitivities_impl(net: &Network, wanted: Option<&[bool]>) -> Result<Sensitivities, PfError> {
    let n = net.n_bus();
    let nb = net.branches.len();
    let slack = net.slack().ok_or_else(PfError::no_slack)?;

    // Reduced B with the slack pinned, as in the DC power flow.
    let mut t = slack_pinned_bprime(net, slack);
    let mut connected = vec![false; n];
    for br in net.branches.iter().filter(|b| b.in_service) {
        connected[br.from_bus] = true;
        connected[br.to_bus] = true;
    }
    // Buses with no in-service branch would leave a zero row; pin them
    // like the slack so B stays factorizable. Their PTDF columns are
    // forced to zero below (no in-service branch can see them), so the
    // pin value never reaches a result.
    for i in 0..n {
        if i != slack && !connected[i] {
            t.push(i, i, 1.0);
        }
    }
    let lu = SparseLu::factor(&t.to_csr_structural())
        .map_err(|_| PfError::SingularJacobian { iteration: 0 })?;

    // θ response per unit injection at each bus: one in-place solve per
    // column against the single factorization above.
    let mut theta = DMat::zeros(n, n); // column i = θ for e_i
    let mut rhs = vec![0.0f64; n];
    let mut ws = vec![0.0f64; n];
    let mut skipped = 0u64;
    for i in 0..n {
        if i == slack {
            continue; // zero column: injecting at the slack moves nothing
        }
        if !connected[i] {
            skipped += 1;
            continue; // zero column: no in-service branch to carry flow
        }
        if let Some(w) = wanted {
            if !w[i] {
                skipped += 1;
                continue; // column never read downstream
            }
        }
        rhs.fill(0.0);
        rhs[i] = 1.0;
        lu.solve_in_place(&mut rhs, &mut ws);
        for (r, v) in rhs.iter().enumerate() {
            theta[(r, i)] = *v;
        }
    }
    if skipped > 0 {
        gm_telemetry::counter_add("pf.ptdf.columns_skipped", skipped);
    }

    let mut ptdf = DMat::zeros(nb, n);
    for (l, br) in net.branches.iter().enumerate() {
        if !br.in_service {
            continue;
        }
        let b = 1.0 / br.x_pu;
        for i in 0..n {
            ptdf[(l, i)] = (theta[(br.from_bus, i)] - theta[(br.to_bus, i)]) * b;
        }
    }

    // LODF from PTDF: LODF(l,k) = PTDF(l, f_k→t_k) / (1 − PTDF(k, f_k→t_k)).
    let mut lodf = DMat::zeros(nb, nb);
    for (k, brk) in net.branches.iter().enumerate() {
        if !brk.in_service {
            continue;
        }
        let denom = 1.0 - (ptdf[(k, brk.from_bus)] - ptdf[(k, brk.to_bus)]);
        let islanding = denom.abs() < 1e-7;
        for (l, brl) in net.branches.iter().enumerate() {
            if l == k || !brl.in_service {
                continue;
            }
            let num = ptdf[(l, brk.from_bus)] - ptdf[(l, brk.to_bus)];
            lodf[(l, k)] = if islanding { f64::NAN } else { num / denom };
        }
        if islanding {
            lodf[(k, k)] = f64::NAN;
        }
    }

    Ok(Sensitivities { ptdf, lodf, slack })
}

impl Sensitivities {
    /// Estimated post-outage flows (MW) on every branch when branch `k`
    /// is outaged, given the pre-outage flows. Returns `None` when the
    /// outage islands the network.
    pub fn post_outage_flows(&self, base_flow_mw: &[f64], k: usize) -> Option<Vec<f64>> {
        if self.lodf[(k, k)].is_nan() {
            return None;
        }
        let fk = base_flow_mw[k];
        Some(
            base_flow_mw
                .iter()
                .enumerate()
                .map(|(l, &f)| {
                    if l == k {
                        0.0
                    } else {
                        let d = self.lodf[(l, k)];
                        if d.is_nan() {
                            f
                        } else {
                            f + d * fk
                        }
                    }
                })
                .collect(),
        )
    }

    /// Worst estimated post-outage |flow|/rating over all branches for
    /// outage `k` (fraction; 1.0 = at rating). Unrated branches are
    /// skipped. `None` for islanding outages.
    pub fn worst_post_outage_loading(
        &self,
        net: &Network,
        base_flow_mw: &[f64],
        k: usize,
    ) -> Option<f64> {
        let flows = self.post_outage_flows(base_flow_mw, k)?;
        let mut worst = 0.0f64;
        for (l, br) in net.branches.iter().enumerate() {
            if l != k && br.in_service && br.rating_mva > 0.0 {
                worst = worst.max(flows[l].abs() / br.rating_mva);
            }
        }
        Some(worst)
    }

    /// Reactive-aware variant of [`Self::worst_post_outage_loading`]:
    /// estimates post-outage MVA as `sqrt(P_est² + Q_base²)` — the LODF
    /// redistributes active power only, and branch reactive flows are
    /// approximately preserved to first order. This closes most of the
    /// MW-vs-MVA gap that makes pure-P screening unsafe on reactive-heavy
    /// systems.
    pub fn worst_post_outage_loading_mva(
        &self,
        net: &Network,
        base_p_mw: &[f64],
        base_q_mvar: &[f64],
        k: usize,
    ) -> Option<f64> {
        let flows = self.post_outage_flows(base_p_mw, k)?;
        let mut worst = 0.0f64;
        for (l, br) in net.branches.iter().enumerate() {
            if l != k && br.in_service && br.rating_mva > 0.0 {
                let s = (flows[l] * flows[l] + base_q_mvar[l] * base_q_mvar[l]).sqrt();
                worst = worst.max(s / br.rating_mva);
            }
        }
        Some(worst)
    }

    /// Worst estimated post-outage MVA loading for a *simultaneous* pair
    /// outage `(k, l)` — the N-2 screen. The double-outage flows come
    /// from the standard 2×2 compensation of single-outage LODFs:
    ///
    /// ```text
    /// Δk = (f_k + L_kl·f_l) / (1 − L_kl·L_lk)
    /// Δl = (f_l + L_lk·f_k) / (1 − L_kl·L_lk)
    /// f'_m = f_m + L_mk·Δk + L_ml·Δl
    /// ```
    ///
    /// Returns `None` when either single outage islands the network or
    /// the pair denominator (the 2×2 capacitance) vanishes — i.e. the
    /// pair jointly islands and must be routed to a full evaluation.
    pub fn worst_pair_outage_loading_mva(
        &self,
        net: &Network,
        base_p_mw: &[f64],
        base_q_mvar: &[f64],
        k: usize,
        l: usize,
    ) -> Option<f64> {
        if k == l || self.lodf[(k, k)].is_nan() || self.lodf[(l, l)].is_nan() {
            return None;
        }
        let (lkl, llk) = (self.lodf[(k, l)], self.lodf[(l, k)]);
        let denom = 1.0 - lkl * llk;
        if !denom.is_finite() || denom.abs() < 1e-7 {
            return None;
        }
        let (fk, fl) = (base_p_mw[k], base_p_mw[l]);
        let dk = (fk + lkl * fl) / denom;
        let dl = (fl + llk * fk) / denom;
        let mut worst = 0.0f64;
        for (m, br) in net.branches.iter().enumerate() {
            if m == k || m == l || !br.in_service || br.rating_mva <= 0.0 {
                continue;
            }
            let (lmk, lml) = (self.lodf[(m, k)], self.lodf[(m, l)]);
            if lmk.is_nan() || lml.is_nan() {
                continue;
            }
            let p_est = base_p_mw[m] + lmk * dk + lml * dl;
            let s = (p_est * p_est + base_q_mvar[m] * base_q_mvar[m]).sqrt();
            worst = worst.max(s / br.rating_mva);
        }
        Some(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::solve_dc;
    use gm_network::{cases, topology, CaseId};

    #[test]
    fn ptdf_rows_sum_consistency() {
        // Injecting 1 MW at a bus must flow out through its incident
        // branches: column sums of signed incident PTDFs equal 1 (for
        // non-slack buses).
        let net = cases::load(CaseId::Ieee14);
        let s = sensitivities(&net).unwrap();
        let slack = net.slack().unwrap();
        for i in 0..net.n_bus() {
            if i == slack {
                continue;
            }
            let mut net_out = 0.0;
            for (l, br) in net.branches.iter().enumerate() {
                if br.from_bus == i {
                    net_out += s.ptdf[(l, i)];
                } else if br.to_bus == i {
                    net_out -= s.ptdf[(l, i)];
                }
            }
            assert!(
                (net_out - 1.0).abs() < 1e-9,
                "bus {i}: injected power not conserved ({net_out})"
            );
        }
    }

    #[test]
    fn lodf_predicts_dc_outage_flows() {
        let net = cases::load(CaseId::Ieee14);
        let s = sensitivities(&net).unwrap();
        let base = solve_dc(&net).unwrap();
        // Pick a non-radial branch and compare against a real DC re-solve.
        for k in [0usize, 2, 4, 6] {
            if topology::outage_islands(&net, k) {
                continue;
            }
            let est = s.post_outage_flows(&base.flow_mw, k).unwrap();
            let mut out_net = net.clone();
            out_net.branches[k].in_service = false;
            let exact = solve_dc(&out_net).unwrap();
            for l in 0..net.branches.len() {
                assert!(
                    (est[l] - exact.flow_mw[l]).abs() < 1e-6,
                    "outage {k}, branch {l}: LODF {} vs DC {}",
                    est[l],
                    exact.flow_mw[l]
                );
            }
        }
    }

    #[test]
    fn radial_outage_flagged_as_islanding() {
        let net = cases::load(CaseId::Ieee14);
        let s = sensitivities(&net).unwrap();
        // Line 7-8 is radial in case14.
        let radial = net
            .branches
            .iter()
            .position(|b| {
                let f = net.buses[b.from_bus].id;
                let t = net.buses[b.to_bus].id;
                (f, t) == (7, 8) || (t, f) == (7, 8)
            })
            .unwrap();
        assert!(s.lodf[(radial, radial)].is_nan());
        let base = solve_dc(&net).unwrap();
        assert!(s.post_outage_flows(&base.flow_mw, radial).is_none());
    }

    #[test]
    fn sparse_ptdf_pinned_against_dense_path() {
        // Regression pin: the factorization-reuse column loop must agree
        // with a straightforward dense solve of the same reduced-B
        // system, column by column.
        use gm_numeric::DenseLu;
        let net = cases::load(CaseId::Ieee30);
        let s = sensitivities(&net).unwrap();
        let n = net.n_bus();
        let slack = net.slack().unwrap();
        let mut bd = DMat::zeros(n, n);
        for &(r, c, b) in slack_pinned_bprime(&net, slack).entries() {
            bd[(r, c)] += b;
        }
        let dlu = DenseLu::factor(&bd).unwrap();
        for col in 0..n {
            if col == slack {
                continue;
            }
            let mut e = vec![0.0; n];
            e[col] = 1.0;
            let theta = dlu.solve(&e);
            for (l, br) in net.branches.iter().enumerate() {
                if !br.in_service {
                    continue;
                }
                let dense = (theta[br.from_bus] - theta[br.to_bus]) / br.x_pu;
                assert!(
                    (s.ptdf[(l, col)] - dense).abs() < 1e-9,
                    "branch {l}, col {col}: sparse {} vs dense {}",
                    s.ptdf[(l, col)],
                    dense
                );
            }
        }
    }

    #[test]
    fn screening_variant_matches_full_lodf_and_skips_columns() {
        let mut net = cases::load(CaseId::Ieee14);
        // Manufacture a skippable column: an isolated, injection-free bus
        // only reachable over an out-of-service branch.
        let dangling = net
            .branches
            .iter()
            .position(|b| {
                let f = net.buses[b.from_bus].id;
                let t = net.buses[b.to_bus].id;
                (f, t) == (7, 8) || (t, f) == (7, 8)
            })
            .unwrap();
        let stub = if net.buses[net.branches[dangling].from_bus].id == 8 {
            net.branches[dangling].from_bus
        } else {
            net.branches[dangling].to_bus
        };
        net.branches[dangling].in_service = false;
        net.loads.retain(|l| l.bus != stub);
        net.gens.retain(|g| g.bus != stub);

        // The stub has no in-service branch left: the shared stamp alone
        // has a zero row there, the isolated-bus pin makes it factorable.
        let bare = slack_pinned_bprime(&net, net.slack().unwrap());
        assert!(SparseLu::factor(&bare.to_csr()).is_err());
        let full = sensitivities(&net).unwrap();
        let reg = gm_telemetry::Registry::new();
        let scoped = {
            let _g = reg.install();
            sensitivities_for_screening(&net).unwrap()
        };
        assert!(
            reg.counters()["pf.ptdf.columns_skipped"] >= 1,
            "no column was skipped"
        );
        // LODF identical (NaN columns included), PTDF identical on every
        // column the scoped variant computed.
        for k in 0..net.branches.len() {
            for l in 0..net.branches.len() {
                let (a, b) = (full.lodf[(l, k)], scoped.lodf[(l, k)]);
                assert!(
                    a == b || (a.is_nan() && b.is_nan()),
                    "lodf[{l},{k}]: {a} vs {b}"
                );
            }
        }
        for i in 0..net.n_bus() {
            if i == stub {
                assert!((0..net.branches.len()).all(|l| scoped.ptdf[(l, i)] == 0.0));
                continue;
            }
            for l in 0..net.branches.len() {
                assert_eq!(full.ptdf[(l, i)], scoped.ptdf[(l, i)], "ptdf[{l},{i}]");
            }
        }
    }

    #[test]
    fn worst_loading_screen_matches_dc_on_case118() {
        let net = cases::load(CaseId::Ieee118);
        let s = sensitivities(&net).unwrap();
        let base = solve_dc(&net).unwrap();
        let mut screened = 0;
        for k in 0..net.branches.len() {
            if let Some(w) = s.worst_post_outage_loading(&net, &base.flow_mw, k) {
                assert!(w.is_finite());
                if w > 0.9 {
                    screened += 1;
                }
            }
        }
        // The stressed-minority construction guarantees some hot outages.
        assert!(screened > 0, "screening found nothing on case118");
        assert!(screened < net.branches.len(), "screening flags everything");
    }
}
