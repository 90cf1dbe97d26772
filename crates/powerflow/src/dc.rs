//! DC (linearized) power flow.
//!
//! Lossless active-power-only approximation: `P = B·θ` with unit voltage
//! magnitudes. Used for warm starts, the synthetic case calibration, and
//! as the fast screening stage of contingency analysis.

use crate::types::PfError;
use gm_network::{slack_pinned_bprime, ModelError, Network};

/// DC power flow result.
#[derive(Clone, Debug)]
pub struct DcReport {
    /// Bus voltage angles (radians), slack pinned at zero.
    pub theta_rad: Vec<f64>,
    /// Active flow per branch, from → to (MW). Out-of-service branches
    /// carry zero.
    pub flow_mw: Vec<f64>,
    /// Active power supplied at the slack bus (MW).
    pub slack_p_mw: f64,
}

/// Solves the DC power flow. Fails with [`PfError::InvalidNetwork`] if
/// the network has no slack bus or no usable MVA base and
/// [`PfError::SingularJacobian`] if the B matrix is singular (islanded
/// network). As the recovery ladder's last rung it runs no full
/// `validate()`. `B'` is factored on the calling thread's engine, so
/// Newton's DC warm start and the ladder's DC rung find the analysis an
/// earlier DC solve of the same topology made.
pub fn solve_dc(net: &Network) -> Result<DcReport, PfError> {
    gm_telemetry::counter_add("pf.dc.solves", 1);
    let slack = net.slack().ok_or_else(PfError::no_slack)?;
    // Every injection is divided by the base: zero or NaN would come
    // back as an `Ok` report full of NaN.
    if !(net.base_mva.is_finite() && net.base_mva > 0.0) {
        let value = net.base_mva;
        return Err(PfError::InvalidNetwork {
            problems: vec![ModelError::BadBaseMva { value }.to_string()],
        });
    }
    // The pinned slack row absorbs the imbalance (loads + losses are not
    // represented).
    let (p_mw, _) = net.scheduled_injections();
    let mut p: Vec<f64> = p_mw.iter().map(|v| v / net.base_mva).collect();
    p[slack] = 0.0;

    let bmat = slack_pinned_bprime(net, slack).to_csr_structural();
    let theta =
        gm_sparse::with_thread_engine(|engine| engine.factorize(&bmat).map(|lu| lu.solve(&p)))
            .map_err(|_| PfError::SingularJacobian { iteration: 0 })?;

    let flow_mw: Vec<f64> = net
        .branches
        .iter()
        .map(|br| {
            if br.in_service {
                (theta[br.from_bus] - theta[br.to_bus]) / br.x_pu * net.base_mva
            } else {
                0.0
            }
        })
        .collect();

    // Net flow leaving the slack bus equals the power it injects; add the
    // local load back to get the slack *generation*.
    let mut slack_injection = 0.0;
    for (idx, br) in net.branches.iter().enumerate() {
        if !br.in_service {
            continue;
        }
        if br.from_bus == slack {
            slack_injection += flow_mw[idx];
        } else if br.to_bus == slack {
            slack_injection -= flow_mw[idx];
        }
    }
    let slack_load: f64 = net
        .loads
        .iter()
        .filter(|l| l.in_service && l.bus == slack)
        .map(|l| l.p_mw)
        .sum();

    Ok(DcReport {
        theta_rad: theta,
        flow_mw,
        slack_p_mw: slack_injection + slack_load,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};

    #[test]
    fn slack_angle_zero() {
        let net = cases::load(CaseId::Ieee14);
        let dc = solve_dc(&net).unwrap();
        let slack = net.slack().unwrap();
        assert_eq!(dc.theta_rad[slack], 0.0);
    }

    #[test]
    fn flow_balance_at_non_slack_buses() {
        let net = cases::load(CaseId::Ieee14);
        let dc = solve_dc(&net).unwrap();
        let slack = net.slack().unwrap();
        let (p_mw, _) = net.scheduled_injections();
        let mut residual = p_mw.clone();
        for (idx, br) in net.branches.iter().enumerate() {
            residual[br.from_bus] -= dc.flow_mw[idx];
            residual[br.to_bus] += dc.flow_mw[idx];
        }
        for (i, r) in residual.iter().enumerate() {
            if i != slack {
                assert!(r.abs() < 1e-6, "bus {i} residual {r}");
            }
        }
    }

    #[test]
    fn slack_covers_system_balance() {
        let net = cases::load(CaseId::Ieee14);
        let dc = solve_dc(&net).unwrap();
        // DC is lossless: slack generation = total load − other generation.
        let other_gen: f64 = net
            .gens
            .iter()
            .enumerate()
            .filter(|(_, g)| g.in_service && g.bus != net.slack().unwrap())
            .map(|(_, g)| g.p_mw)
            .sum();
        let expect = net.total_load_mw() - other_gen;
        assert!(
            (dc.slack_p_mw - expect).abs() < 1e-6,
            "slack {} vs expected {}",
            dc.slack_p_mw,
            expect
        );
    }

    #[test]
    fn outage_redistributes_flow() {
        let mut net = cases::load(CaseId::Ieee14);
        let base = solve_dc(&net).unwrap();
        net.branches[0].in_service = false;
        let out = solve_dc(&net).unwrap();
        assert_eq!(out.flow_mw[0], 0.0);
        // The parallel path 1-5 must pick up flow.
        assert!(out.flow_mw[1].abs() > base.flow_mw[1].abs());
    }
}
