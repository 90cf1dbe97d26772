//! Line outage distribution factors (LODF), one column per outage.
//!
//! LODF column `k` maps branch `k`'s pre-outage flow to the flow change
//! on every other branch when `k` is outaged, under the DC approximation.
//! The contingency engine's N-1 screen, its N-2 preview and the SCOPF's
//! security constraints read them (Appendix B.4's "sensitivity analysis"
//! capability).
//!
//! Nothing of size n² is kept. [`sensitivities`] factors the slack-pinned
//! B′ once; [`Sensitivities::column`] makes one solve per outage, with
//! right-hand side `e_from − e_to` (Wood & Wollenberg, *Power
//! Generation, Operation and Control*, contingency-analysis chapter):
//!
//! ```text
//! θ_k      = B′⁻¹ (e_f(k) − e_t(k))
//! PTDF_kk  = b_k (θ_k[f_k] − θ_k[t_k])
//! LODF_lk  = b_l (θ_k[f_l] − θ_k[t_l]) / (1 − PTDF_kk)
//! ```
//!
//! A vanishing denominator means that the outage islands the network.

use crate::types::PfError;
use gm_network::{slack_pinned_bprime, Branch, Network};
use gm_sparse::SparseLu;

/// Below this `|1 − PTDF_kk|` the outage of `k` islands the network.
const ISLANDING_DENOM: f64 = 1e-7;

/// The factored slack-pinned B′ of one network snapshot, from which
/// [`Sensitivities::column`] reads LODF columns.
#[derive(Clone, Debug)]
pub struct Sensitivities {
    lu: SparseLu,
    slack: usize,
}

/// Factors the slack-pinned B′ of `net` once, on the thread's engine: a
/// later snapshot of the same topology replays the analysis, and the
/// factor is bit-identical to a cold one whatever the engine holds.
///
/// Buses left without any in-service branch are pinned like the slack,
/// so B′ stays factorizable; no in-service branch reaches them, so the
/// pin never reaches a column. Fails with [`PfError::InvalidNetwork`]
/// when there is no slack bus and [`PfError::SingularJacobian`] when the
/// reduced B′ cannot be factorized (islanded network).
pub fn sensitivities(net: &Network) -> Result<Sensitivities, PfError> {
    let n = net.n_bus();
    let slack = net.slack().ok_or_else(PfError::no_slack)?;
    let mut t = slack_pinned_bprime(net, slack);
    let mut connected = vec![false; n];
    for br in net.branches.iter().filter(|b| b.in_service) {
        connected[br.from_bus] = true;
        connected[br.to_bus] = true;
    }
    for i in 0..n {
        if i != slack && !connected[i] {
            t.push(i, i, 1.0);
        }
    }
    let bprime = t.to_csr_structural();
    let lu = gm_sparse::with_thread_engine(|engine| engine.factorize(&bprime).cloned())
        .map_err(|_| PfError::SingularJacobian { iteration: 0 })?;
    Ok(Sensitivities { lu, slack })
}

impl Sensitivities {
    /// LODF column `k` of `net`, the network these sensitivities were
    /// built from: the flow change on every branch per unit of branch
    /// `k`'s pre-outage flow when `k` is outaged. The entry at `k` itself
    /// is `-1` and out-of-service branches read `0`, so the post-outage
    /// flows are `f + column·f_k` on every branch. `None` when `k` is out
    /// of service or its outage islands the network.
    pub fn column(&self, net: &Network, k: usize) -> Option<Vec<f64>> {
        let brk = &net.branches[k];
        if !brk.in_service {
            return None;
        }
        let n = net.n_bus();
        let mut theta = vec![0.0f64; n];
        theta[brk.from_bus] += 1.0;
        theta[brk.to_bus] -= 1.0;
        theta[self.slack] = 0.0; // injecting at the slack moves nothing
        self.lu.solve_in_place(&mut theta, &mut vec![0.0f64; n]);
        let flow = |br: &Branch| (theta[br.from_bus] - theta[br.to_bus]) * (1.0 / br.x_pu);
        let denom = 1.0 - flow(brk);
        if denom.abs() < ISLANDING_DENOM {
            return None;
        }
        Some(
            net.branches
                .iter()
                .enumerate()
                .map(|(l, br)| match (l == k, br.in_service) {
                    (true, _) => -1.0,
                    (false, true) => flow(br) / denom,
                    (false, false) => 0.0,
                })
                .collect(),
        )
    }

    /// Worst estimated post-outage |S|/rating over the rated in-service
    /// branches other than `k` when `k` is outaged (fraction; 1.0 = at
    /// rating), `None` when the outage islands the network. The post-outage
    /// MVA is `sqrt(P_est² + Q_base²)`: the LODF redistributes active
    /// power only, and branch reactive flows are approximately preserved
    /// to first order. This closes most of the MW-vs-MVA gap that makes
    /// pure-P screening unsafe on reactive-heavy systems.
    pub fn worst_post_outage_loading_mva(
        &self,
        net: &Network,
        base_p_mw: &[f64],
        base_q_mvar: &[f64],
        k: usize,
    ) -> Option<f64> {
        let column = self.column(net, k)?;
        let fk = base_p_mw[k];
        let mut worst = 0.0f64;
        for (l, br) in net.branches.iter().enumerate() {
            if l != k && br.in_service && br.rating_mva > 0.0 {
                let p = base_p_mw[l] + column[l] * fk;
                let s = (p * p + base_q_mvar[l] * base_q_mvar[l]).sqrt();
                worst = worst.max(s / br.rating_mva);
            }
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
    fn lodf_columns_conserve_flow_at_every_bus() {
        // An outage changes no injection, so the flow changes it causes
        // (column[l]·f_k on every branch, -f_k on k itself) sum to zero
        // at every bus.
        let net = cases::load(CaseId::Ieee14);
        let s = sensitivities(&net).unwrap();
        for k in 0..net.branches.len() {
            let Some(column) = s.column(&net, k) else {
                continue;
            };
            let mut net_out = vec![0.0; net.n_bus()];
            for (l, br) in net.branches.iter().enumerate() {
                net_out[br.from_bus] += column[l];
                net_out[br.to_bus] -= column[l];
            }
            for (i, v) in net_out.iter().enumerate() {
                assert!(v.abs() < 1e-9, "outage {k}, bus {i}: net change {v}");
            }
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
            let column = s.column(&net, k).unwrap();
            let mut out_net = net.clone();
            out_net.branches[k].in_service = false;
            let exact = solve_dc(&out_net).unwrap();
            for l in 0..net.branches.len() {
                let est = base.flow_mw[l] + column[l] * base.flow_mw[k];
                assert!(
                    (est - exact.flow_mw[l]).abs() < 1e-6,
                    "outage {k}, branch {l}: LODF {est} vs DC {}",
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
        assert!(s.column(&net, radial).is_none());
        let q = vec![0.0; net.branches.len()];
        let base = solve_dc(&net).unwrap();
        assert!(s
            .worst_post_outage_loading_mva(&net, &base.flow_mw, &q, radial)
            .is_none());
    }

    #[test]
    fn worst_loading_screen_matches_dc_on_case118() {
        let net = cases::load(CaseId::Ieee118);
        let s = sensitivities(&net).unwrap();
        let base = solve_dc(&net).unwrap();
        let q = vec![0.0; net.branches.len()];
        let mut screened = 0;
        for k in 0..net.branches.len() {
            if let Some(w) = s.worst_post_outage_loading_mva(&net, &base.flow_mw, &q, k) {
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
