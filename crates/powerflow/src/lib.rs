//! # gm-powerflow
//!
//! AC and DC power flow solvers for GridMind-RS — the role
//! `pandapower.runpp` plays in the paper.
//!
//! - [`newton`] — full Newton–Raphson in polar coordinates with sparse
//!   Jacobians, Iwamoto-style optimal step damping, and generator
//!   reactive-limit enforcement (PV→PQ switching).
//! - [`decoupled`] — fast-decoupled (XB) variant used as a fallback /
//!   screening solver.
//! - [`dc`] — linear DC power flow for warm starts and contingency
//!   screening.
//! - [`sensitivity`] — LODF columns from one B′ factorization, for fast
//!   N-1 / N-2 screening and security constraints.
//! - [`types`] — options, rich solution reports, and error types.
//!
//! ```
//! use gm_network::{cases, CaseId};
//! use gm_powerflow::{solve, PfOptions};
//!
//! let net = cases::load(CaseId::Ieee14);
//! let report = solve(&net, &PfOptions::default()).unwrap();
//! assert!(report.converged);
//! assert!(report.losses_mw > 0.0);
//! ```
// Solver crates are panic-free outside tests: every fallible path
// returns a typed error. Library code prints nothing: stdout and
// stderr belong to the binaries. Enforced by clippy, which CI runs
// with `-D warnings`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]
// Numeric kernels iterate several parallel arrays by index; the
// index-based loops are the clearer form here.
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod compensated;
pub mod dc;
pub mod decoupled;
pub mod newton;
mod polar;
pub mod sensitivity;
pub mod types;

pub use batch::{
    run_batch, run_naive, BatchError, BatchReport, Scenario, ScenarioDelta, ScenarioOutcome,
    ScenarioSet,
};
pub use compensated::{CompensatedPfError, CompensationBase};
pub use dc::{solve_dc, DcReport};
pub use decoupled::solve_fast_decoupled;
pub use newton::{solve, solve_from};
pub use sensitivity::{sensitivities, Sensitivities};
pub use types::{BranchFlow, BusResult, GenResult, InitStrategy, PfError, PfOptions, PfReport};

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId, Modification};

    #[test]
    fn ieee14_converges_and_reproduces_reference() {
        let net = cases::load(CaseId::Ieee14);
        let rep = solve(&net, &PfOptions::default()).unwrap();
        assert!(rep.converged);
        assert!(rep.iterations <= 10, "took {} iterations", rep.iterations);
        // MATPOWER reference: slack P ≈ 232.4 MW, losses ≈ 13.4 MW.
        let slack_p = rep.gens[0].p_mw;
        assert!(
            (slack_p - 232.4).abs() < 5.0,
            "slack P {slack_p} far from reference 232.4"
        );
        assert!(
            (rep.losses_mw - 13.4).abs() < 2.0,
            "losses {} far from reference 13.4",
            rep.losses_mw
        );
    }

    #[test]
    fn ieee14_q_limits_respected() {
        let net = cases::load(CaseId::Ieee14);
        let rep = solve(&net, &PfOptions::default()).unwrap();
        let slack = net.slack().unwrap();
        for (g, gen) in rep.gens.iter().zip(&net.gens) {
            if gen.bus == slack {
                // The slack generator's Q is unconstrained by convention
                // (MATPOWER/pandapower behave the same way); case14's
                // authentic solution has it at -16.9 MVAr outside [0, 10].
                continue;
            }
            assert!(
                g.q_mvar <= gen.q_max_mvar + 0.5 && g.q_mvar >= gen.q_min_mvar - 0.5,
                "gen at bus {} Q {} outside [{}, {}]",
                net.buses[gen.bus].id,
                g.q_mvar,
                gen.q_min_mvar,
                gen.q_max_mvar
            );
        }
    }

    #[test]
    fn ieee30_converges() {
        let net = cases::load(CaseId::Ieee30);
        let rep = solve(&net, &PfOptions::default()).unwrap();
        assert!(rep.converged);
        assert!(rep.losses_mw > 0.0 && rep.losses_mw < 30.0);
        assert!(rep.min_vm.0 > 0.9);
    }

    #[test]
    fn synthetic_cases_converge() {
        for id in [CaseId::Ieee57, CaseId::Ieee118, CaseId::Ieee300] {
            let net = cases::load(id);
            let rep =
                solve(&net, &PfOptions::default()).unwrap_or_else(|e| panic!("{id:?} failed: {e}"));
            assert!(rep.converged, "{id:?} did not converge");
            assert!(
                rep.min_vm.0 > 0.85,
                "{id:?} voltage collapse: min vm {}",
                rep.min_vm.0
            );
            // Losses positive and a plausible fraction of load.
            assert!(rep.losses_mw > 0.0);
            assert!(rep.losses_mw < 0.1 * net.total_load_mw());
        }
    }

    #[test]
    fn power_balance_holds() {
        let net = cases::load(CaseId::Ieee118);
        let rep = solve(&net, &PfOptions::default()).unwrap();
        let gen_p: f64 = rep.gens.iter().map(|g| g.p_mw).sum();
        let balance = gen_p - net.total_load_mw() - rep.losses_mw;
        assert!(balance.abs() < 0.5, "power balance error {balance} MW");
    }

    #[test]
    fn init_strategies_reach_same_solution() {
        let net = cases::load(CaseId::Ieee30);
        let mut opts = PfOptions {
            enforce_q_limits: false,
            ..Default::default()
        };
        let flat = solve(&net, &opts).unwrap();
        opts.init = InitStrategy::CaseValues;
        let warm = solve(&net, &opts).unwrap();
        opts.init = InitStrategy::DcWarmStart;
        let dc = solve(&net, &opts).unwrap();
        for ((a, b), c) in flat.buses.iter().zip(&warm.buses).zip(&dc.buses) {
            assert!((a.vm_pu - b.vm_pu).abs() < 1e-7);
            assert!((a.vm_pu - c.vm_pu).abs() < 1e-7);
        }
    }

    #[test]
    fn load_increase_raises_losses_and_lowers_voltage() {
        let base = cases::load(CaseId::Ieee14);
        let rep0 = solve(&base, &PfOptions::default()).unwrap();
        let mut heavy = base.clone();
        Modification::ScaleAllLoads { factor: 1.3 }
            .apply(&mut heavy)
            .unwrap();
        let rep1 = solve(&heavy, &PfOptions::default()).unwrap();
        assert!(rep1.losses_mw > rep0.losses_mw);
        assert!(rep1.min_vm.0 < rep0.min_vm.0);
    }

    #[test]
    fn line_outage_changes_flows() {
        // The 1-2 outage pushes every MW through 1-5 and exhausts the PV
        // units' reactive ranges: with Q-limit enforcement the case is
        // infeasible (pandapower fails it too), so solve without.
        let opts = PfOptions {
            enforce_q_limits: false,
            ..Default::default()
        };
        let mut net = cases::load(CaseId::Ieee14);
        let rep0 = solve(&net, &opts).unwrap();
        net.branches[0].in_service = false;
        let rep1 = solve(&net, &opts).unwrap();
        assert!(rep1.converged);
        assert_eq!(rep1.branches[0].p_from_mw, 0.0);
        // Parallel corridor 1-5 picks up.
        assert!(rep1.branches[1].p_from_mw.abs() > rep0.branches[1].p_from_mw.abs());
    }

    #[test]
    fn absurd_load_diverges_gracefully() {
        let mut net = cases::load(CaseId::Ieee14);
        Modification::ScaleAllLoads { factor: 40.0 }
            .apply(&mut net)
            .unwrap();
        let opts = PfOptions {
            max_iter: 15,
            ..Default::default()
        };
        match solve(&net, &opts) {
            Err(PfError::Diverged { .. }) | Err(PfError::SingularJacobian { .. }) => {}
            Ok(rep) => panic!("should not converge, got losses {}", rep.losses_mw),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn islanded_network_rejected() {
        let mut net = cases::load(CaseId::Ieee14);
        // Disconnect bus 8 (only reachable through 7-8).
        let idx = net
            .branches
            .iter()
            .position(|b| {
                let f = net.buses[b.from_bus].id;
                let t = net.buses[b.to_bus].id;
                (f, t) == (7, 8) || (t, f) == (7, 8)
            })
            .unwrap();
        net.branches[idx].in_service = false;
        match solve(&net, &PfOptions::default()) {
            Err(PfError::InvalidNetwork { problems }) => {
                assert!(problems.iter().any(|p| p.contains("island")));
            }
            other => panic!("expected island rejection, got {other:?}"),
        }
    }

    #[test]
    fn warm_start_from_previous_solution_is_fast() {
        let net = cases::load(CaseId::Ieee118);
        let opts = PfOptions {
            enforce_q_limits: false,
            ..Default::default()
        };
        let rep = solve(&net, &opts).unwrap();
        let v = rep.voltages();
        let rep2 = solve_from(&net, &opts, Some(&v)).unwrap();
        assert!(
            rep2.iterations <= 2,
            "warm restart took {}",
            rep2.iterations
        );
    }

    #[test]
    fn multipliers_logged_when_damping_active() {
        let net = cases::load(CaseId::Ieee118);
        let rep = solve(&net, &PfOptions::default()).unwrap();
        // One multiplier per Newton step, all in (0, 1].
        assert_eq!(rep.multipliers.len(), rep.iterations);
        assert!(rep.multipliers.iter().all(|&m| m > 0.0 && m <= 1.0));
    }

    #[test]
    fn loading_percentages_populated_for_rated_branches() {
        let net = cases::load(CaseId::Ieee30);
        let rep = solve(&net, &PfOptions::default()).unwrap();
        let loaded = rep.branches.iter().filter(|b| b.loading_pct > 0.0).count();
        assert!(loaded > 30, "only {loaded} branches show loading");
        assert!(rep.max_loading.0 > 10.0);
        assert!(rep.max_loading.1 != usize::MAX);
    }
}
