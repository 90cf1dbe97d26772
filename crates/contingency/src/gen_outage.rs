//! Generator outage (T-1) analysis.
//!
//! The paper defines contingency analysis over "T-1 outages of system
//! assets" (§2); transmission elements dominate its evaluation, but the
//! asset set includes generating units. This module evaluates single-unit
//! outages: the lost injection is absorbed by the slack (the standard
//! primary-response abstraction), and the post-outage power flow is
//! scanned with the same violation rules as the branch sweep.
//!
//! Every unit outage is solved against one base-case Jacobian factor,
//! the [`CompensationBase`] the branch cascade verifies its suspects on
//! (compensation in the sense of Alsac, Stott & Tinney, "Sparsity-oriented
//! compensation methods for modified network solutions", IEEE Trans.
//! PAS-102, 1983). A unit outage changes no admittance: where its bus
//! keeps PV support only the targets move, and where the unit was the
//! bus's only support the bus turns PQ — one border row and column on
//! the base Jacobian ([`CompensationBase::solve_unit_outage`]). Neither
//! is a new sparsity pattern, so the sweep analyses nothing beyond its
//! base case. Any typed failure of that solve — or a `ca.compensate`
//! refusal (gm-faults) — takes the warm-then-flat Newton path instead,
//! counted in `ca.gen.fallback`.

use crate::engine::{violations_of, CaOptions};
use crate::fan_out::fan_out;
use crate::types::Violation;
use gm_network::Network;
use gm_powerflow::{solve_from, CompensationBase, PfReport};
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

    // One base factor for the whole sweep; a failed build (e.g. Q-limit
    // options) routes every unit through the Newton fallback.
    let comp_base = match CompensationBase::new(net, &opts.pf, base) {
        Ok(cb) => Some(cb),
        Err(e) => {
            gm_telemetry::warn_event("ca.gen", format!("compensation base unavailable: {e}"));
            None
        }
    };

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
        // reverts to PQ (both solvers check for in-service units).
        let compensated = (comp_base.as_ref())
            .filter(|_| gm_faults::inject("ca.compensate").is_none())
            .map(|cb| cb.solve_unit_outage(&work, &opts.pf, gi));
        let report = match compensated {
            Some(Ok(rep)) => Ok(rep),
            _ => {
                gm_telemetry::counter_add("ca.gen.fallback", 1);
                solve_from(&work, &opts.pf, Some(&v0))
                    .or_else(|_| gm_powerflow::solve(&work, &opts.pf))
            }
        };
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

    Ok(fan_out(opts.parallel, &targets, eval))
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

    #[test]
    fn parallel_sweep_records_the_serial_compensated_work() {
        // Every worker of the parallel sweep records into the sweep
        // thread's registry: the compensated solves and the Newton
        // fallbacks match the serial sweep's — one compensated solve per
        // unit that does not lose the reference, no fallback, and no
        // Newton solve beyond the base case's.
        let net = cases::load(CaseId::Ieee118);
        let sweep = |parallel: bool| {
            let reg = gm_telemetry::Registry::new();
            let _guard = reg.install();
            let opts = CaOptions {
                parallel,
                ..Default::default()
            };
            let outcomes = run_gen_n1(&net, &opts, None).unwrap();
            (format!("{outcomes:?}"), reg)
        };
        let (serial, ser) = sweep(false);
        let (parallel, par) = sweep(true);
        assert_eq!(parallel, serial);
        for (counter, want) in [
            ("pf.compensated.solves", 53),
            ("ca.gen.fallback", 0),
            ("pf.newton.solves", 1),
        ] {
            assert_eq!(ser.counter_value(counter), want, "{counter}");
            assert_eq!(par.counter_value(counter), want, "{counter}");
        }
    }

    /// `net` with the unit at the first PV bus of `net` that holds one
    /// unit split into two equal halves at that bus, the second one's
    /// setpoint raised by `dv` p.u.
    fn split_unit(net: &Network, dv: f64) -> Network {
        let slack = net.slack().unwrap();
        let gi = (0..net.gens.len())
            .find(|&gi| {
                let bus = net.gens[gi].bus;
                bus != slack
                    && net.buses[bus].kind == gm_network::BusKind::Pv
                    && net.gens_at(bus).count() == 1
                    && net.gens[gi].p_mw > 50.0
            })
            .unwrap();
        let mut net = net.clone();
        let g = &mut net.gens[gi];
        for x in [
            &mut g.p_mw,
            &mut g.q_mvar,
            &mut g.p_min_mw,
            &mut g.p_max_mw,
            &mut g.q_min_mvar,
            &mut g.q_max_mvar,
        ] {
            *x *= 0.5;
        }
        let mut twin = g.clone();
        twin.vm_setpoint_pu += dv;
        net.gens.push(twin);
        net
    }

    /// Active output (MW) of the in-service units at the slack bus.
    fn slack_mw(net: &Network, rep: &PfReport) -> f64 {
        let slack = net.slack().unwrap();
        (rep.gens.iter().zip(&net.gens))
            .filter(|(_, g)| g.bus == slack && g.in_service)
            .fold(0.0, |mw, (r, _)| mw + r.p_mw)
    }

    #[test]
    fn unit_outages_on_the_base_factor_match_newton() {
        // Every unit outage of case14–case300 that keeps the reference,
        // plus case118 with one unit split in two at its bus (equal and
        // unequal setpoints): the compensated solve against the sweep's
        // base factor lands where a warm-started Newton solve of the
        // outaged network does. The split cases reach the path no shipped
        // case does — a bus that keeps PV support, under the other
        // unit's setpoint.
        let opts = CaOptions::default();
        let case118 = cases::load(CaseId::Ieee118);
        let nets = (CaseId::ALL.into_iter().map(cases::load))
            .chain([split_unit(&case118, 0.0), split_unit(&case118, 0.012)]);
        let (mut stays_pv, mut bordered, mut new_setpoint) = (0, 0, 0);
        for net in nets {
            let slack = net.slack().unwrap();
            let base = gm_powerflow::solve(&net, &opts.pf).unwrap();
            let cb = CompensationBase::new(&net, &opts.pf, &base).unwrap();
            let v0 = base.voltages();
            for gi in (0..net.gens.len()).filter(|&gi| net.gens[gi].in_service) {
                let bus = net.gens[gi].bus;
                let others: Vec<usize> = (net.gens_at(bus))
                    .map(|(other, _)| other)
                    .filter(|&other| other != gi)
                    .collect();
                if bus == slack && others.is_empty() {
                    continue;
                }
                let mut work = net.clone();
                work.gens[gi].in_service = false;
                let label = format!("{} unit {gi}", net.name);
                let comp = (cb.solve_unit_outage(&work, &opts.pf, gi))
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let newton = solve_from(&work, &opts.pf, Some(&v0)).unwrap();
                if net.buses[bus].kind == gm_network::BusKind::Pv {
                    match others.first() {
                        None => bordered += 1,
                        Some(&first) => {
                            stays_pv += 1;
                            let set = net.gens[first].vm_setpoint_pu;
                            if set.to_bits() != net.gens[gi].vm_setpoint_pu.to_bits() {
                                new_setpoint += 1;
                            }
                        }
                    }
                }
                assert_eq!(comp.converged, newton.converged, "{label}");
                assert_eq!(comp.min_vm.1, newton.min_vm.1, "{label}");
                assert_eq!(
                    violations_of(&comp).len(),
                    violations_of(&newton).len(),
                    "{label}"
                );
                for (a, b) in comp.buses.iter().zip(&newton.buses) {
                    assert!((a.vm_pu - b.vm_pu).abs() <= 1e-8, "{label}: bus {}", a.id);
                }
                for (a, b) in comp.branches.iter().zip(&newton.branches) {
                    let d = (a.loading_pct - b.loading_pct).abs();
                    assert!(d <= 1e-5, "{label}: branch {} loading off by {d}", a.index);
                }
                let pickup = (slack_mw(&work, &comp) - slack_mw(&work, &newton)).abs();
                assert!(pickup <= 1e-4, "{label}: slack pickup off by {pickup} MW");
            }
        }
        assert!(stays_pv > 0 && bordered > 0 && new_setpoint > 0);
    }

    #[test]
    fn refused_unit_compensations_take_the_newton_fallback() {
        // The `ca.compensate` fault site refusing every compensated solve
        // of the case118 unit sweep: each unit takes the Newton fallback,
        // counted, and the outcomes match the unforced sweep's within the
        // oracle's bounds. Serial, so the sweep runs on the injector's
        // thread.
        use gm_faults::{FaultInjector, FaultKind, FaultRule};
        let net = cases::load(CaseId::Ieee118);
        let serial = CaOptions {
            parallel: false,
            ..Default::default()
        };
        let sweep = |faults: Option<FaultInjector>| {
            let _faults = faults.as_ref().map(FaultInjector::install);
            let reg = gm_telemetry::Registry::new();
            let _guard = reg.install();
            (run_gen_n1(&net, &serial, None).unwrap(), reg)
        };
        let (unforced, clean) = sweep(None);
        let refuse_all = FaultRule::new("ca.compensate", FaultKind::LuSingular, 0, u64::MAX);
        let (forced, reg) = sweep(Some(FaultInjector::scripted(vec![refuse_all])));
        let compensated = clean.counter_value("pf.compensated.solves");
        assert_eq!(compensated, 53);
        assert_eq!(clean.counter_value("ca.gen.fallback"), 0);
        assert_eq!(reg.counter_value("ca.gen.fallback"), compensated);
        assert_eq!(reg.counter_value("pf.compensated.solves"), 0);
        assert_eq!(forced.len(), unforced.len());
        for (a, b) in forced.iter().zip(&unforced) {
            assert_eq!(
                (a.gen, a.converged, a.loses_reference, a.min_vm.1),
                (b.gen, b.converged, b.loses_reference, b.min_vm.1)
            );
            assert_eq!(a.violations.len(), b.violations.len(), "unit {}", a.gen);
            assert!((a.min_vm.0 - b.min_vm.0).abs() <= 1e-8, "unit {}", a.gen);
            assert!((a.max_loading_pct - b.max_loading_pct).abs() <= 1e-5);
            assert!((a.slack_pickup_mw - b.slack_pickup_mw).abs() <= 1e-4);
        }
    }

    #[test]
    fn refused_unit_compensations_fall_back_on_every_worker() {
        // The parallel twin of the test above: every worker carries the
        // sweep thread's injector, so each unit of the parallel sweep
        // takes the counted fallback, and the outcomes are the forced
        // serial sweep's.
        use gm_faults::{FaultInjector, FaultKind, FaultRule};
        let net = cases::load(CaseId::Ieee118);
        let sweep = |parallel: bool, faults: FaultInjector| {
            let _faults = faults.install();
            let reg = gm_telemetry::Registry::new();
            let _guard = reg.install();
            let opts = CaOptions {
                parallel,
                ..Default::default()
            };
            let outcomes = run_gen_n1(&net, &opts, None).unwrap();
            (format!("{outcomes:?}"), reg)
        };
        let refuse_all = || {
            FaultInjector::scripted(vec![FaultRule::new(
                "ca.compensate",
                FaultKind::LuSingular,
                0,
                u64::MAX,
            )])
        };
        let injector = refuse_all();
        let (parallel, reg) = sweep(true, injector.clone());
        assert_eq!(injector.injected_total(), 53);
        assert_eq!(reg.counter_value("ca.gen.fallback"), 53);
        assert_eq!(reg.counter_value("pf.compensated.solves"), 0);
        let (serial, _) = sweep(false, refuse_all());
        assert_eq!(parallel, serial);
    }
}
