//! Cross-crate solver-stack consistency tests: the power flow, DC power
//! flow, economic dispatch, DC-OPF, and ACOPF must tell one coherent
//! numerical story on every case.

use gm_acopf::{economic_dispatch, solve_acopf, solve_dcopf, AcopfError, AcopfOptions, IpmOptions};
use gm_network::{cases, BusKind, CaseId};
use gm_powerflow::{solve, solve_dc, PfOptions};

#[test]
fn cost_hierarchy_ed_dcopf_acopf() {
    // ED (no network) ≤ DC-OPF (lossless network) ≤ ACOPF (full physics),
    // all within a loss-sized band.
    for id in [CaseId::Ieee14, CaseId::Ieee30, CaseId::Ieee57] {
        let net = cases::load(id);
        let ed = economic_dispatch(&net, net.total_load_mw());
        let dc = solve_dcopf(&net, &IpmOptions::default()).unwrap();
        let ac = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        assert!(
            ed.cost <= dc.objective_cost + 1e-6,
            "{id:?}: ED {} !<= DCOPF {}",
            ed.cost,
            dc.objective_cost
        );
        assert!(
            dc.objective_cost <= ac.objective_cost + 1e-6,
            "{id:?}: DCOPF {} !<= ACOPF {}",
            dc.objective_cost,
            ac.objective_cost
        );
        assert!(
            ac.objective_cost < ed.cost * 1.30,
            "{id:?}: ACOPF {} implausibly above the dispatch bound {}",
            ac.objective_cost,
            ed.cost
        );
    }
}

#[test]
fn dcopf_failures_are_typed_like_the_other_solver_entries() {
    let mut net = cases::load(CaseId::Ieee14);
    for b in &mut net.buses {
        b.kind = BusKind::Pq; // no slack anywhere
    }
    let err = solve_dcopf(&net, &IpmOptions::default()).unwrap_err();
    assert!(matches!(err, AcopfError::InvalidNetwork { .. }), "{err}");

    let starved = IpmOptions {
        max_iter: 1,
        ..Default::default()
    };
    let err = solve_dcopf(&cases::load(CaseId::Ieee14), &starved).unwrap_err();
    assert!(
        matches!(err, AcopfError::NotConverged { iterations: 1, .. }),
        "{err}"
    );
}

#[test]
fn dc_flows_approximate_ac_active_flows() {
    let net = cases::load(CaseId::Ieee118);
    let dc = solve_dc(&net).unwrap();
    let ac = solve(
        &net,
        &PfOptions {
            enforce_q_limits: false,
            ..Default::default()
        },
    )
    .unwrap();
    // Correlate active flows on heavily loaded branches.
    let mut rel_err_sum = 0.0;
    let mut n = 0;
    for (idx, bf) in ac.branches.iter().enumerate() {
        if bf.p_from_mw.abs() > 30.0 {
            rel_err_sum += ((dc.flow_mw[idx] - bf.p_from_mw) / bf.p_from_mw).abs();
            n += 1;
        }
    }
    assert!(n > 20, "expected many loaded branches, got {n}");
    let mean_rel = rel_err_sum / n as f64;
    assert!(
        mean_rel < 0.25,
        "DC should approximate AC active flows; mean relative error {mean_rel:.3}"
    );
}

#[test]
fn acopf_dispatch_power_flows_feasibly() {
    // Pin the ACOPF dispatch into the case and confirm Newton agrees.
    for id in [CaseId::Ieee14, CaseId::Ieee118] {
        let net = cases::load(id);
        let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        let mut pf_net = net.clone();
        for (gi, g) in pf_net.gens.iter_mut().enumerate() {
            g.p_mw = sol.gen_dispatch_mw[gi];
            g.vm_setpoint_pu = sol.bus_vm_pu[g.bus];
        }
        let rep = solve(
            &pf_net,
            &PfOptions {
                enforce_q_limits: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rep.converged, "{id:?}");
        assert!(
            (rep.losses_mw - sol.losses_mw).abs() < 1.0,
            "{id:?}: PF losses {} vs ACOPF {}",
            rep.losses_mw,
            sol.losses_mw
        );
        // Voltages agree bus by bus.
        for (i, b) in rep.buses.iter().enumerate() {
            assert!(
                (b.vm_pu - sol.bus_vm_pu[i]).abs() < 5e-3,
                "{id:?} bus {}: PF {} vs OPF {}",
                b.id,
                b.vm_pu,
                sol.bus_vm_pu[i]
            );
        }
    }
}

#[test]
fn losses_scale_superlinearly_with_load() {
    // I²R: at higher loading, marginal losses grow.
    let base = cases::load(CaseId::Ieee30);
    let loss_at = |scale: f64| -> f64 {
        let mut net = base.clone();
        gm_network::Modification::ScaleAllLoads { factor: scale }
            .apply(&mut net)
            .unwrap();
        solve(
            &net,
            &PfOptions {
                enforce_q_limits: false,
                ..Default::default()
            },
        )
        .unwrap()
        .losses_mw
    };
    let l08 = loss_at(0.8);
    let l10 = loss_at(1.0);
    let l12 = loss_at(1.2);
    assert!(l08 < l10 && l10 < l12);
    assert!(
        (l12 - l10) > (l10 - l08),
        "marginal losses must grow: {l08:.2}, {l10:.2}, {l12:.2}"
    );
}

#[test]
fn matpower_case9_opf_matches_published_objective() {
    // Third authentic-data validation point: MATPOWER's `runopf(case9)`
    // objective is 5296.69 $/h.
    let net = gm_network::parse_matpower(gm_network::SAMPLE_CASE9, "WSCC 9-bus").unwrap();
    let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
    assert!(
        (sol.objective_cost - 5296.69).abs() < 10.0,
        "case9 OPF objective {:.2} vs MATPOWER's 5296.69",
        sol.objective_cost
    );
    // And the dispatch respects the published pattern: unit 2 is the
    // cheapest quadratic and carries the largest share.
    let argmax = sol
        .gen_dispatch_mw
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .unwrap()
        .0;
    assert_eq!(argmax, 1, "dispatch {:?}", sol.gen_dispatch_mw);
}

#[test]
fn all_cases_full_stack_smoke() {
    // Every case: PF converges, ACOPF solves, DC flows balance.
    for id in CaseId::ALL {
        let net = cases::load(id);
        net.validate().unwrap_or_else(|e| panic!("{id:?}: {e:?}"));
        let pf = solve(&net, &PfOptions::default()).unwrap_or_else(|e| panic!("{id:?}: {e}"));
        assert!(pf.converged);
        let ac =
            solve_acopf(&net, &AcopfOptions::default()).unwrap_or_else(|e| panic!("{id:?}: {e}"));
        assert!(ac.solved);
        // ACOPF cost cannot exceed scheduled-dispatch cost evaluated via
        // its own curves at the PF dispatch… it should at least be in a
        // sane band relative to demand.
        let per_mwh = ac.objective_cost / net.total_load_mw();
        assert!(
            (1.0..100.0).contains(&per_mwh),
            "{id:?}: {per_mwh:.2} $/MWh out of band"
        );
    }
}
