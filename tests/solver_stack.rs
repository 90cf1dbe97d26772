//! Cross-crate solver-stack consistency tests: the power flow, DC power
//! flow, economic dispatch, DC-OPF, and ACOPF must tell one coherent
//! numerical story on every case.

use gm_acopf::{
    economic_dispatch, solve_acopf, solve_dcopf, solve_scopf, AcopfError, AcopfOptions, IpmOptions,
    ScopfOptions,
};
use gm_network::{cases, BusKind, CaseId, Network};
use gm_numeric::Complex;
use gm_powerflow::{solve, solve_dc, PfOptions};
use gm_telemetry::Registry;

/// Largest nodal power mismatch (p.u., either P or Q) of an ACOPF
/// solution, recomputed from the raw branch records: ideal transformer,
/// series impedance, half the charging at each end. Shares no code with
/// `gm-acopf` and none with `YBus` — an independent certificate that the
/// returned voltages and dispatch satisfy the AC network equations.
fn power_balance_residual_pu(net: &Network, sol: &gm_acopf::AcopfSolution) -> f64 {
    let base = net.base_mva;
    let v: Vec<Complex> = (0..net.n_bus())
        .map(|i| Complex::from_polar(sol.bus_vm_pu[i], sol.bus_va_deg[i].to_radians()))
        .collect();
    // Net injection each bus must absorb: generation − load − shunt.
    let mut s = vec![Complex::ZERO; net.n_bus()];
    for (gi, g) in net.gens.iter().enumerate().filter(|(_, g)| g.in_service) {
        s[g.bus] += Complex::new(sol.gen_dispatch_mw[gi], sol.gen_dispatch_mvar[gi]) / base;
    }
    for l in net.loads.iter().filter(|l| l.in_service) {
        s[l.bus] -= Complex::new(l.p_mw, l.q_mvar) / base;
    }
    for sh in net.shunts.iter().filter(|sh| sh.in_service) {
        let v2 = v[sh.bus].norm_sqr();
        s[sh.bus] -= Complex::new(sh.g_mw, -sh.b_mvar) * (v2 / base);
    }
    // Minus what leaves over the branches.
    for br in net.branches.iter().filter(|b| b.in_service) {
        let ys = Complex::new(br.r_pu, br.x_pu).inv();
        let half_charging = Complex::new(0.0, br.b_pu / 2.0);
        let a = Complex::from_polar(br.tap, br.shift_deg.to_radians());
        let (vf, vt) = (v[br.from_bus] / a, v[br.to_bus]);
        let series = (vf - vt) * ys;
        let i_from = (series + half_charging * vf) / a.conj();
        let i_to = half_charging * vt - series;
        s[br.from_bus] -= v[br.from_bus] * i_from.conj();
        s[br.to_bus] -= vt * i_to.conj();
    }
    s.iter()
        .fold(0.0f64, |m, si| m.max(si.re.abs()).max(si.im.abs()))
}

/// The IPM's KKT rule on the exact work counts `reg` collected: the KKT
/// pattern is analyzed at most once per IPM solve (never re-analyzed
/// mid-solve) and no LDLᵀ step needed the pivoting-LU fallback.
fn assert_kkt_rule(what: &str, reg: &Registry) {
    let builds = reg.counter_value("sparse.symbolic.build");
    let solves = reg.counter_value("acopf.ipm.solves");
    assert!(
        solves > 0 && builds <= solves,
        "{what}: {builds} symbolic analyses for {solves} IPM solves"
    );
    assert_eq!(
        reg.counter_value("acopf.kkt.lu_fallbacks"),
        0,
        "{what}: KKT steps fell back to the pivoting LU"
    );
}

#[test]
fn acopf_objectives_are_pinned_and_power_balance_is_certified() {
    // Objectives of the pivoting-LU IPM this solver replaced (case14 is
    // also MATPOWER's published 8081.53): a factorization change may
    // move them by rounding, not by 1e-6.
    let pinned = [
        (CaseId::Ieee14, 8081.526257),
        (CaseId::Ieee30, 799.585421),
        (CaseId::Ieee57, 40600.099067),
        (CaseId::Ieee118, 109875.708236),
        (CaseId::Ieee300, 899498.204112),
    ];
    for (id, want) in pinned {
        let net = cases::load(id);
        let reg = Registry::new();
        let sol = {
            let _guard = reg.install();
            solve_acopf(&net, &AcopfOptions::default()).unwrap()
        };
        assert_kkt_rule(id.short_name(), &reg);
        assert!(
            (sol.objective_cost - want).abs() <= 1e-6 * want,
            "{id:?}: objective {:.6} vs pinned {want:.6}",
            sol.objective_cost
        );
        let mismatch = power_balance_residual_pu(&net, &sol);
        assert!(
            mismatch <= 1e-6,
            "{id:?}: AC power balance violated by {mismatch:e} p.u."
        );
    }
    let case14 = solve_acopf(&cases::load(CaseId::Ieee14), &AcopfOptions::default()).unwrap();
    assert!((case14.objective_cost - 8081.53).abs() <= 1e-6 * 8081.53);
    // Every constraint-generation round of the SCOPF is an IPM solve under
    // the same rule.
    for id in [CaseId::Ieee30, CaseId::Ieee57] {
        let reg = Registry::new();
        {
            let _guard = reg.install();
            solve_scopf(&cases::load(id), &ScopfOptions::default()).unwrap();
        }
        assert_kkt_rule(&format!("{} SCOPF", id.short_name()), &reg);
    }
}

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

    let starved = IpmOptions { max_iter: 1 };
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
fn case14_newton_reproduces_the_published_pstca_solution() {
    // External ground truth: the bus lines of the case14 text carry the
    // PSTCA solved point (|V|, angle) and gen 1 carries the published
    // slack output, 232.4 MW. The network holds them as parsed; a
    // flat-start Newton (the default) never reads them.
    let net = cases::load(CaseId::Ieee14);
    let published = |id: u32| {
        let b = &net.buses[net.bus_index(id).unwrap()];
        (b.vm_pu, b.va_deg)
    };
    assert_eq!(published(14), (1.036, -16.04), "not the PSTCA bus lines");
    assert_eq!(net.gens[0].p_mw, 232.4);
    let rep = solve(&net, &PfOptions::default()).unwrap();
    for solved in &rep.buses {
        let (vm, va) = published(solved.id);
        assert!(
            (solved.vm_pu - vm).abs() <= 2e-3 && (solved.va_deg - va).abs() <= 0.05,
            "bus {}: solved {:.4} p.u. {:.3}° vs published {vm} p.u. {va}°",
            solved.id,
            solved.vm_pu,
            solved.va_deg
        );
    }
    let slack_p = rep.gens[0].p_mw;
    assert!((slack_p - 232.4).abs() <= 0.1, "slack P {slack_p:.2} MW");
}

#[test]
fn a_non_finite_load_is_an_invalid_network_not_a_divergence() {
    // Bus 9's Pd as NaN used to import, validate and reach Newton, which
    // reported "diverged after 1 iterations (mismatch NaN p.u.)" — a
    // not-converged failure the recovery ladder would descend on.
    let text = gm_network::SAMPLE_CASE9.replace("\t9\t1\t125\t", "\t9\t1\tNaN\t");
    let net = gm_network::parse_matpower(&text, "WSCC 9-bus, NaN load").unwrap();
    match solve(&net, &PfOptions::default()) {
        Err(gm_powerflow::PfError::InvalidNetwork { problems }) => {
            assert_eq!(problems, ["load 2 has a non-finite p_mw: NaN"]);
        }
        other => panic!("expected InvalidNetwork, got {other:?}"),
    }
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
