//! Generator outage (T-1) analysis.
//!
//! The paper defines contingency analysis over "T-1 outages of system
//! assets" (§2); transmission elements dominate its evaluation, but the
//! asset set includes generating units. This module evaluates single-unit
//! outages: the lost injection is absorbed by the slack (the standard
//! primary-response abstraction), and the post-outage power flow is
//! scanned with the same violation rules as the branch sweep.

use crate::engine::{violations_of, CaOptions};
use crate::types::Violation;
use gm_network::Network;
use gm_powerflow::{solve_from, PfReport};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Post-contingency outcome for one generator outage.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GenOutageOutcome {
    /// Generator index into `Network::gens`.
    pub gen: usize,
    /// External id of the connection bus.
    pub bus_id: u32,
    /// Lost active injection (MW, the unit's pre-outage dispatch).
    pub lost_mw: f64,
    /// Whether the post-outage power flow converged.
    pub converged: bool,
    /// Whether the outage removes the only slack unit (loss of the
    /// reference machine) — categorically critical.
    pub loses_reference: bool,
    /// Violations found.
    pub violations: Vec<Violation>,
    /// Worst branch loading (%).
    pub max_loading_pct: f64,
    /// Lowest voltage (p.u., bus id).
    pub min_vm: (f64, u32),
    /// Slack response required (MW): how much the reference had to pick
    /// up, a proxy for spinning-reserve adequacy.
    pub slack_pickup_mw: f64,
}

/// Runs the generator T-1 sweep over all in-service units.
pub fn run_gen_n1(
    net: &Network,
    opts: &CaOptions,
    base: Option<&PfReport>,
) -> Result<Vec<GenOutageOutcome>, gm_powerflow::PfError> {
    let owned;
    let base = match base {
        Some(b) => b,
        None => {
            owned = gm_powerflow::solve(net, &opts.pf)?;
            &owned
        }
    };
    let v0 = base.voltages();
    let Some(slack) = net.slack() else {
        return Err(gm_powerflow::PfError::InvalidNetwork {
            problems: vec!["network has no slack bus".into()],
        });
    };
    // Slack sums start from +0.0 (`Sum` for f64 starts at -0.0): an
    // outage of the only slack unit leaves the post-outage set empty.
    let base_slack_p = base
        .gens
        .iter()
        .zip(&net.gens)
        .filter(|(_, g)| g.bus == slack)
        .fold(0.0, |mw, (r, _)| mw + r.p_mw);

    let targets: Vec<usize> = net
        .gens
        .iter()
        .enumerate()
        .filter(|(_, g)| g.in_service)
        .map(|(i, _)| i)
        .collect();

    let eval = |&gi: &usize| -> GenOutageOutcome {
        let g = &net.gens[gi];
        let bus_id = net.buses[g.bus].id;
        let lost_mw = base.gens[gi].p_mw;

        // Losing the only unit at the slack bus removes the reference.
        if g.bus == slack {
            let others_at_slack = net.gens_at(slack).any(|(other, _)| other != gi);
            if !others_at_slack {
                return GenOutageOutcome {
                    gen: gi,
                    bus_id,
                    lost_mw,
                    converged: false,
                    loses_reference: true,
                    violations: Vec::new(),
                    max_loading_pct: 0.0,
                    min_vm: (0.0, 0),
                    slack_pickup_mw: 0.0,
                };
            }
        }

        let mut work = net.clone();
        work.gens[gi].in_service = false;
        // If the outaged unit was the sole PV support at its bus, the bus
        // reverts to PQ automatically (the solver checks for in-service
        // units).
        let report = solve_from(&work, &opts.pf, Some(&v0))
            .or_else(|_| gm_powerflow::solve(&work, &opts.pf));
        match report {
            Err(_) => GenOutageOutcome {
                gen: gi,
                bus_id,
                lost_mw,
                converged: false,
                loses_reference: false,
                violations: Vec::new(),
                max_loading_pct: 0.0,
                min_vm: (0.0, 0),
                slack_pickup_mw: 0.0,
            },
            Ok(rep) => {
                let new_slack_p = rep
                    .gens
                    .iter()
                    .zip(&work.gens)
                    .filter(|(_, g)| g.bus == slack && g.in_service)
                    .fold(0.0, |mw, (r, _)| mw + r.p_mw);
                GenOutageOutcome {
                    gen: gi,
                    bus_id,
                    lost_mw,
                    converged: true,
                    loses_reference: false,
                    violations: violations_of(&rep),
                    max_loading_pct: rep.max_loading.0,
                    min_vm: rep.min_vm,
                    slack_pickup_mw: new_slack_p - base_slack_p,
                }
            }
        }
    };

    Ok(if opts.parallel {
        targets.par_iter().map(eval).collect()
    } else {
        targets.iter().map(eval).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};

    #[test]
    fn case14_gen_sweep() {
        let net = cases::load(CaseId::Ieee14);
        let outcomes = run_gen_n1(&net, &CaOptions::default(), None).unwrap();
        assert_eq!(outcomes.len(), 5);
        // The slack hosts a single unit: its outage loses the reference.
        let slack = net.slack().unwrap();
        let slack_outcome = outcomes
            .iter()
            .find(|o| net.gens[o.gen].bus == slack)
            .unwrap();
        assert!(slack_outcome.loses_reference);
        assert!(!slack_outcome.converged);
        // Non-slack unit outages converge; slack picks up the lost MW
        // plus the loss delta.
        for o in outcomes.iter().filter(|o| !o.loses_reference) {
            assert!(o.converged, "gen {} failed", o.gen);
            if o.lost_mw > 1.0 {
                assert!(
                    o.slack_pickup_mw > 0.8 * o.lost_mw,
                    "gen {}: slack picked up {:.1} of {:.1} MW",
                    o.gen,
                    o.slack_pickup_mw,
                    o.lost_mw
                );
            }
        }
    }

    #[test]
    fn big_unit_outage_stresses_more_than_small() {
        let net = cases::load(CaseId::Ieee118);
        let outcomes = run_gen_n1(&net, &CaOptions::default(), None).unwrap();
        let converged: Vec<_> = outcomes.iter().filter(|o| o.converged).collect();
        assert!(converged.len() > 40);
        // The largest lost unit should produce at least as low a minimum
        // voltage as the median case (heuristic sanity, not a theorem —
        // allow slack).
        let biggest = converged
            .iter()
            .max_by(|a, b| a.lost_mw.total_cmp(&b.lost_mw))
            .unwrap();
        assert!(biggest.lost_mw > 100.0);
        assert!(biggest.slack_pickup_mw > 0.5 * biggest.lost_mw);
    }

    #[test]
    fn serial_matches_parallel() {
        let net = cases::load(CaseId::Ieee30);
        let par = run_gen_n1(&net, &CaOptions::default(), None).unwrap();
        let ser = run_gen_n1(
            &net,
            &CaOptions {
                parallel: false,
                ..Default::default()
            },
            None,
        )
        .unwrap();
        assert_eq!(par.len(), ser.len());
        for (a, b) in par.iter().zip(&ser) {
            assert_eq!(a.converged, b.converged);
            assert!((a.max_loading_pct - b.max_loading_pct).abs() < 1e-9);
        }
    }
}
