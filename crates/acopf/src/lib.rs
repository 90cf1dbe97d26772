//! # gm-acopf
//!
//! AC optimal power flow for GridMind-RS — the role `pandapower.runopp`
//! (PIPS) plays in the paper.
//!
//! - [`acopf`] — the full polar-form ACOPF with exact analytic gradients
//!   and Hessians, solved by a MIPS-style primal-dual interior point
//!   method. Produces the paper's `ACOPFSolution` schema ([`types`]).
//! - [`ipm`] — the generic interior point core (reusable for any smooth
//!   NLP; the DC-OPF shares it).
//! - [`flows`] — the branch-end flow primitive with first/second
//!   derivatives that both the balance equations and flow limits build on.
//! - [`dispatch`] — lossless economic dispatch (λ-iteration), the
//!   validation lower bound.
//! - [`dcopf`] — DC optimal power flow baseline with thermal limits.
//! - [`scopf`] — preventive security-constrained OPF (LODF-screened
//!   post-contingency flow limits), the paper's Appendix B.4
//!   "security-constrained operation" comparison.
//!
//! ```no_run
//! use gm_network::{cases, CaseId};
//! use gm_acopf::{solve_acopf, AcopfOptions};
//!
//! let net = cases::load(CaseId::Ieee118);
//! let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
//! println!("case118 optimal cost: {:.2} $/h", sol.objective_cost);
//! ```
// Solver crates are panic-free outside tests: every fallible path
// returns a typed error. Enforced by clippy here and by the regex
// pass of `gm-audit lint-src` (with its allowlist) in CI.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
// Constraint assembly indexes parallel 4-element column/derivative
// arrays; the index-based loops are the clearer form here.
#![allow(clippy::needless_range_loop)]

pub mod acopf;
pub mod dcopf;
pub mod dispatch;
pub mod flows;
pub mod ipm;
mod oracle;
pub mod scopf;
pub mod types;

pub use acopf::{solve_acopf, AcopfOptions};
pub use dcopf::{solve_dcopf, DcOpfSolution};
pub use dispatch::{economic_dispatch, DispatchResult};
pub use ipm::IpmOptions;
pub use scopf::{solve_scopf, ScopfOptions, ScopfSolution, SecurityConstraint};
pub use types::{AcopfError, AcopfSolution, BranchLoading};

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId, Modification};

    #[test]
    fn ieee14_matches_matpower_objective() {
        // MATPOWER's `runopf(case14)` objective is 8081.53 $/h; authentic
        // data should land within rounding noise of it.
        let net = cases::load(CaseId::Ieee14);
        let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        assert!(sol.solved);
        assert!(
            (sol.objective_cost - 8081.53).abs() < 25.0,
            "objective {} far from MATPOWER's 8081.53",
            sol.objective_cost
        );
        assert!(sol.power_balance_error_mw().abs() < 0.1);
    }

    #[test]
    fn all_cases_solve() {
        for id in CaseId::ALL {
            let net = cases::load(id);
            let sol = solve_acopf(&net, &AcopfOptions::default())
                .unwrap_or_else(|e| panic!("{id:?}: {e}"));
            assert!(sol.solved, "{id:?}");
            assert!(sol.objective_cost > 0.0);
            assert!(sol.max_thermal_loading_pct <= 100.5, "{id:?} overloaded");
            // Dispatch within limits.
            for (gi, g) in net.gens.iter().enumerate() {
                if g.in_service {
                    assert!(
                        sol.gen_dispatch_mw[gi] >= g.p_min_mw - 1e-3
                            && sol.gen_dispatch_mw[gi] <= g.p_max_mw + 1e-3,
                        "{id:?} gen {gi} dispatch {} outside [{}, {}]",
                        sol.gen_dispatch_mw[gi],
                        g.p_min_mw,
                        g.p_max_mw
                    );
                }
            }
            // Voltages within bounds.
            for (i, b) in net.buses.iter().enumerate() {
                assert!(
                    sol.bus_vm_pu[i] >= b.vmin_pu - 1e-4 && sol.bus_vm_pu[i] <= b.vmax_pu + 1e-4,
                    "{id:?} bus {} voltage {} outside [{}, {}]",
                    b.id,
                    sol.bus_vm_pu[i],
                    b.vmin_pu,
                    b.vmax_pu
                );
            }
        }
    }

    #[test]
    fn lmps_are_economically_sensible() {
        let net = cases::load(CaseId::Ieee14);
        let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        assert_eq!(sol.bus_lmp.len(), 14);
        // All prices positive and in the fuel-cost band.
        for (i, &lmp) in sol.bus_lmp.iter().enumerate() {
            assert!(
                (5.0..120.0).contains(&lmp),
                "bus {} LMP {lmp:.2} $/MWh out of band",
                net.buses[i].id
            );
        }
        // With losses, prices rise away from the marginal unit: the
        // spread is positive but modest on an uncongested case.
        let min = sol.bus_lmp.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sol.bus_lmp.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > min, "losses must create a price spread");
        assert!(max < 1.25 * min, "case14 is uncongested; spread too wide");
        // The slack-bus LMP equals the marginal cost of the unit that
        // balances the system there.
        let slack = net.slack().unwrap();
        let mc = net.gens[0].cost.marginal(sol.gen_dispatch_mw[0]);
        assert!(
            (sol.bus_lmp[slack] - mc).abs() < 0.5,
            "slack LMP {:.2} vs marginal cost {:.2}",
            sol.bus_lmp[slack],
            mc
        );
    }

    #[test]
    fn congestion_separates_lmps() {
        // On case118 thermal limits bind (49 constraints at the optimum):
        // congestion must create a wider nodal price spread than the
        // uncongested case14.
        let net = cases::load(CaseId::Ieee118);
        let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        let min = sol.bus_lmp.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sol.bus_lmp.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max > 1.25 * min,
            "binding flow limits should separate prices: [{min:.2}, {max:.2}]"
        );
    }

    #[test]
    fn load_increase_raises_cost() {
        let base = cases::load(CaseId::Ieee30);
        let s0 = solve_acopf(&base, &AcopfOptions::default()).unwrap();
        let mut heavy = base.clone();
        Modification::ScaleAllLoads { factor: 1.1 }
            .apply(&mut heavy)
            .unwrap();
        let s1 = solve_acopf(&heavy, &AcopfOptions::default()).unwrap();
        assert!(
            s1.objective_cost > s0.objective_cost,
            "{} !> {}",
            s1.objective_cost,
            s0.objective_cost
        );
    }

    #[test]
    fn what_if_load_modification_on_bus() {
        // The paper's canonical what-if: raise the load at one bus and
        // re-solve; the new optimum costs more.
        let base = cases::load(CaseId::Ieee14);
        let s0 = solve_acopf(&base, &AcopfOptions::default()).unwrap();
        let mut net = base.clone();
        Modification::SetBusLoad {
            bus_id: 10,
            p_mw: 50.0,
            q_mvar: None,
        }
        .apply(&mut net)
        .unwrap();
        let s1 = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        assert!(s1.objective_cost > s0.objective_cost);
        assert!(s1.total_load_mw > s0.total_load_mw);
    }

    #[test]
    fn line_outage_redispatch_costs_more() {
        // Economic impact of removing a line (the paper's §3.2.1 example).
        let base = cases::load(CaseId::Ieee118);
        let s0 = solve_acopf(&base, &AcopfOptions::default()).unwrap();
        let mut net = base.clone();
        // Outage a mid-network line that is not a bridge.
        let idx = 40;
        Modification::OutageBranch { index: idx }
            .apply(&mut net)
            .unwrap();
        let s1 = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        // Removing a line changes the equality constraints, so the optimal
        // cost may move in either direction (corrective transmission
        // switching exploits exactly this); it should stay in the same
        // regime though, and the post-outage case must remain solvable.
        assert!(s1.solved);
        let rel = (s1.objective_cost - s0.objective_cost).abs() / s0.objective_cost;
        assert!(rel < 0.10, "outage moved cost by {:.1}%", 100.0 * rel);
    }

    #[test]
    fn warm_start_converges_to_same_objective() {
        let net = cases::load(CaseId::Ieee30);
        let cold = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        let warm = solve_acopf(
            &net,
            &AcopfOptions {
                warm_start: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            (cold.objective_cost - warm.objective_cost).abs() < 0.5,
            "cold {} vs warm {}",
            cold.objective_cost,
            warm.objective_cost
        );
    }

    #[test]
    fn infeasible_case_reports_not_converged() {
        let mut net = cases::load(CaseId::Ieee14);
        Modification::ScaleAllLoads { factor: 10.0 }
            .apply(&mut net)
            .unwrap();
        let opts = AcopfOptions {
            ipm: IpmOptions {
                max_iter: 60,
                ..Default::default()
            },
            ..Default::default()
        };
        match solve_acopf(&net, &opts) {
            Err(AcopfError::NotConverged { .. }) => {}
            Ok(s) => panic!(
                "10x load should be infeasible, got cost {}",
                s.objective_cost
            ),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn acopf_solution_is_a_valid_power_flow() {
        // Fix the ACOPF dispatch and voltage setpoints into the network and
        // confirm Newton power flow reproduces the same state (losses).
        let net = cases::load(CaseId::Ieee30);
        let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        let mut pf_net = net.clone();
        let slack = pf_net.slack().unwrap();
        for (gi, g) in pf_net.gens.iter_mut().enumerate() {
            g.p_mw = sol.gen_dispatch_mw[gi];
            g.vm_setpoint_pu = sol.bus_vm_pu[g.bus];
            let _ = slack;
        }
        let rep = gm_powerflow::solve(
            &pf_net,
            &gm_powerflow::PfOptions {
                enforce_q_limits: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rep.converged);
        assert!(
            (rep.losses_mw - sol.losses_mw).abs() < 0.5,
            "PF losses {} vs ACOPF losses {}",
            rep.losses_mw,
            sol.losses_mw
        );
    }
}
