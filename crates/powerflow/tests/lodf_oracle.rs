//! Oracle for the line outage distribution factors.
//!
//! An LODF column predicts the post-outage DC flows as
//! `f_l + LODF(l, k)·f_k`. A DC power flow re-solved from scratch with
//! branch `k` out of service computes the same flows directly: it builds
//! and factors its own B′ and reads no sensitivity. The property runs on
//! the five IEEE cases with every reactance perturbed by up to ±20 %, so
//! it does not pass only on the shipped parameters.

use gm_network::{cases, topology, CaseId, Network};
use gm_powerflow::{sensitivities, solve_dc};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `id` with every branch reactance scaled by a seeded factor in
/// [0.8, 1.2]. The topology, and so the islanding set, is unchanged.
fn perturbed(id: CaseId, seed: u64) -> Network {
    let mut net = cases::load(id);
    let mut rng = SmallRng::seed_from_u64(seed);
    for br in &mut net.branches {
        br.x_pu *= rng.random_range(0.8..1.2);
    }
    net
}

/// Every in-service column of `net` against a refactored DC solve, and
/// its islanding verdict against the topology search.
fn check_columns(net: &Network) -> Result<(), TestCaseError> {
    let sens = sensitivities(net).map_err(|e| TestCaseError::fail(e.to_string()))?;
    let base = solve_dc(net).map_err(|e| TestCaseError::fail(e.to_string()))?;
    let pu = |mw: f64| mw / net.base_mva;
    for (k, brk) in net.branches.iter().enumerate() {
        if !brk.in_service {
            continue;
        }
        let column = sens.column(net, k);
        prop_assert_eq!(
            column.is_none(),
            topology::outage_islands(net, k),
            "{}: branch {} islanding verdict",
            net.name,
            k
        );
        let Some(column) = column else { continue };
        let mut out = net.clone();
        out.branches[k].in_service = false;
        let exact = solve_dc(&out).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let fk = pu(base.flow_mw[k]);
        for (l, &lodf) in column.iter().enumerate() {
            if l == k {
                continue;
            }
            let predicted = pu(base.flow_mw[l]) + lodf * fk;
            let refactored = pu(exact.flow_mw[l]);
            prop_assert!(
                (predicted - refactored).abs() <= 1e-9 * (1.0 + fk.abs()),
                "{}: outage {}, branch {}: LODF {} vs refactored DC {} (p.u.)",
                net.name,
                k,
                l,
                predicted,
                refactored
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Each non-islanding column reproduces the refactored DC flows to
    /// 1e-9 p.u., and a column is `None` exactly for the outages the
    /// bridge search says island the network.
    #[test]
    fn lodf_columns_match_refactored_dc(seed in any::<u64>()) {
        for id in CaseId::ALL {
            check_columns(&perturbed(id, seed))?;
        }
    }
}
