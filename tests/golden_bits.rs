//! Golden-bit pins for the power-flow core and the OPF solvers.
//!
//! Newton, the compensated outage solve, FDLF, DC, the LODF and the
//! synthetic generator all share one statement of the power-flow
//! equations (the polar system in `gm-powerflow`, the slack-pinned `B'`
//! stamp in `gm-network`). A refactor of that shared code must not move
//! a single bit of any answer: the N-1 cascade's "compensated ≡ Newton"
//! guarantee, the embedded rating tables and every committed bench
//! baseline are calibrated against these exact numbers. Each digest is
//! FNV-1a over the `to_bits()` of the quantities named beside it,
//! recorded before the equations were pulled into one place. Rows
//! re-recorded since on purpose say why beside their digests.
//!
//! The ACOPF / SCOPF / DC-OPF rows pin the interior point method the same
//! way: recorded before the per-iteration triplet assembly of the KKT
//! system became a slot program. Only the SCOPF row has moved since, with
//! the LODF it reads; its reason is beside its digest.

use gm_acopf::{
    solve_acopf, solve_dcopf, solve_scopf, AcopfOptions, AcopfSolution, IpmOptions, ScopfOptions,
};
use gm_network::{cases, generate_scale, CaseId, ScaleId};
use gm_numeric::Fnv1a;
use gm_powerflow::{
    sensitivities, solve, solve_dc, solve_fast_decoupled, CompensationBase, PfOptions, PfReport,
};

fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        h.u64(v.to_bits());
    }
    h.finish()
}

/// Every bus `vm_pu`/`va_deg`, then every branch `p_from_mw`.
fn report_digest(rep: &PfReport) -> u64 {
    digest(
        rep.buses
            .iter()
            .flat_map(|b| [b.vm_pu, b.va_deg])
            .chain(rep.branches.iter().map(|f| f.p_from_mw)),
    )
}

fn q_limits(on: bool) -> PfOptions {
    PfOptions {
        enforce_q_limits: on,
        ..Default::default()
    }
}

#[test]
fn newton_reports_are_bit_pinned() {
    let nets = [
        cases::load(CaseId::Ieee14),
        cases::load(CaseId::Ieee118),
        generate_scale(&ScaleId::Synth1354.spec()).unwrap(),
    ];
    // Per network: Q-limit enforcement on, then off.
    let got: Vec<u64> = nets
        .iter()
        .flat_map(|net| [true, false].map(|on| report_digest(&solve(net, &q_limits(on)).unwrap())))
        .collect();
    // Re-recorded, all six, when the Jacobian's off-diagonal entries were
    // read off `V_i·conj(V_j)` instead of `|V|`, `arg V` and `sin_cos`,
    // and the step search took `|V|` and `arg V` once per iteration. The
    // digests before are beside each row. Against those answers, Newton on
    // case14–300 and synth1354, Q-limits on and off, moved by |ΔVm| ≤
    // 1.8e-15 p.u. and |ΔVa| ≤ 3.7e-13°, with every iteration count kept.
    let want = [
        // case14 has no binding Q-limit: same answer twice. Re-recorded
        // once before (was 0x41cc55cc87da3327) when the Jacobian became a
        // stencil with explicit zeros kept: a flat start cancels some
        // entries to exact zero, which the old conversion dropped from
        // the pattern, so the LU ordered a smaller matrix. |ΔVm| ≤
        // 4.4e-16 p.u. and |ΔVa| ≤ 2.8e-14° against the old answer.
        0x0ad40a5778530d98, // was 0xaddf93df5592ab71
        0x0ad40a5778530d98, // was 0xaddf93df5592ab71
        0x7d1810152b0104a5, // was 0xba28fc38f04d3c0c
        0x7bfc7487e0117968, // was 0x2b93ff05cab3a68f
        0x176582618c8a3690, // was 0x3edf30983c7c7f72
        0x617cc59e527a3391, // was 0x5d8449d519d9f1f0
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn fdlf_report_is_bit_pinned() {
    let opts = PfOptions {
        enforce_q_limits: false,
        max_iter: 60,
        ..Default::default()
    };
    let rep = solve_fast_decoupled(&cases::load(CaseId::Ieee30), &opts).unwrap();
    let got = report_digest(&rep);
    assert_eq!(got, 0xb1092365e1331e9d, "{got:#018x}");
}

#[test]
fn compensated_outages_are_bit_pinned() {
    let net = cases::load(CaseId::Ieee118);
    let opts = PfOptions {
        enforce_q_limits: false,
        max_iter: 25,
        ..Default::default()
    };
    let base = solve(&net, &opts).unwrap();
    let comp = CompensationBase::new(&net, &opts, &base).unwrap();
    let got = [0usize, 50, 120].map(|branch| {
        let mut work = net.clone();
        work.branches[branch].in_service = false;
        report_digest(&comp.solve_outage(&work, &opts, &[branch]).unwrap())
    });
    // Re-recorded when the iterate was carried in polar coordinates and
    // the post-outage Ybus derived from the base one (was
    // 0x73ec130aed4a04e9, 0x574bbf2e0078d05f, 0xcd4f44497e04b4d1). Every
    // case118 and case300 single outage moved by |ΔVm| ≤ 2.0e-15 p.u. and
    // |ΔVa| ≤ 7.8e-13° against those answers, iteration counts kept.
    let want = [0xa1f040880f3f4110, 0xe78a011ce17309bc, 0x33e7d9416c1d011d];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn dc_solution_is_bit_pinned() {
    let dc = solve_dc(&cases::load(CaseId::Ieee300)).unwrap();
    let got = digest(dc.theta_rad.iter().chain(&dc.flow_mw).copied());
    assert_eq!(got, 0xfa9eeb66a46f03ca, "{got:#018x}");
}

/// Every entry of the case57 LODF, row by row (`NaN` for an islanding
/// column). Re-recorded once, on purpose (0xade211cc7ed7dc35 →
/// 0x842ed633b7ccf4c2), when the dense PTDF-product build became one B′
/// solve per column: |ΔLODF| ≤ 7.1e-15 off the diagonal, and the
/// diagonal reads -1 (the outaged branch loses its own flow) instead of 0.
#[test]
fn lodf_is_bit_pinned() {
    let net = cases::load(CaseId::Ieee57);
    let s = sensitivities(&net).unwrap();
    let nb = net.branches.len();
    let columns: Vec<Vec<f64>> = (0..nb)
        .map(|k| s.column(&net, k).unwrap_or_else(|| vec![f64::NAN; nb]))
        .collect();
    let got = digest((0..nb).flat_map(|l| columns.iter().map(move |c| c[l])));
    assert_eq!(got, 0x842ed633b7ccf4c2, "{got:#018x}");
}

#[test]
fn synth1354_branches_are_bit_pinned() {
    let net = generate_scale(&ScaleId::Synth1354.spec()).unwrap();
    let got = digest(net.branches.iter().flat_map(|b| [b.x_pu, b.rating_mva]));
    assert_eq!(got, 0xf0bdde5fbe57c1bd, "{got:#018x}");
}

/// Every bus `vm_pu`, `va_deg`, every unit's MW, every nodal price, the
/// objective and the iteration count.
fn acopf_digest(sol: &AcopfSolution) -> u64 {
    digest(
        sol.bus_vm_pu
            .iter()
            .chain(&sol.bus_va_deg)
            .chain(&sol.gen_dispatch_mw)
            .chain(&sol.bus_lmp)
            .copied()
            .chain([sol.objective_cost, sol.iterations as f64]),
    )
}

/// Re-recorded once, on purpose, when the IPM's fixed centering σ = 0.1
/// became Mehrotra's predictor–corrector (ROADMAP item 2(b)): another
/// path to the same optimum, so every quantity moved within the solver's
/// tolerance and the iteration count fell. Parent digest, max
/// |Δobjective| ($/h), max |ΔVm| (p.u.) and max |ΔVa| (°) beside each row.
#[test]
fn acopf_solutions_are_bit_pinned() {
    let got = CaseId::ALL
        .map(|id| acopf_digest(&solve_acopf(&cases::load(id), &AcopfOptions::default()).unwrap()));
    let want = [
        0x27a6396817918d16, // case14: was 0x3fdee7f5eeeed641; 3.9e-8, 1.4e-10, 2.6e-9
        0x394c68fdf55a1cee, // case30: was 0x164848de7630d7c2; 4.1e-8, 7.1e-9, 7.2e-8
        0x68990f9ffe5f0690, // case57: was 0x19a7659f07caaf10; 3.5e-5, 1.8e-9, 7.1e-8
        0xcc7aaa5f4543be71, // case118: was 0xfaa253572948d0f3; 4.4e-8, 7.2e-11, 1.2e-9
        0xc319674e77173287, // case300: was 0x8ffd748e2506d63c; 1.6e-6, 4.5e-7, 4.7e-6
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

/// Re-recorded once, on purpose, with the LODF row above: its security
/// rows read the per-column LODF (case30 0x75113a2788316421 →
/// 0x4554ac9310dbefac, case57 0xd09a131afb2fc1d4 → 0x8dec8fcd909510d0;
/// every |Δ| ≤ 1.4e-10 over `acopf_digest`'s quantities, the same
/// iteration counts and the same 20 / 393 security rows). Re-recorded
/// again with the ACOPF rows for the predictor–corrector, the same 20 /
/// 393 security rows and 0 relaxations; parent digest, max |Δobjective|,
/// |ΔVm| and |ΔVa| beside each row.
#[test]
fn scopf_solutions_are_bit_pinned() {
    let got = [CaseId::Ieee30, CaseId::Ieee57].map(|id| {
        let scopf = solve_scopf(&cases::load(id), &ScopfOptions::default()).unwrap();
        acopf_digest(&scopf.solution)
    });
    let want = [
        0x49ee2a508b611bd5, // case30: was 0x4554ac9310dbefac; 4.2e-7, 2.6e-8, 1.2e-7
        0xe5203296c0e23d23, // case57: was 0x8dec8fcd909510d0; 5.4e-9, 6.6e-12, 8.2e-11
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn dcopf_solutions_are_bit_pinned() {
    let got = [CaseId::Ieee14, CaseId::Ieee118].map(|id| {
        let dc = solve_dcopf(&cases::load(id), &IpmOptions::default()).unwrap();
        digest(
            dc.gen_dispatch_mw
                .iter()
                .chain(&dc.flow_mw)
                .chain(&dc.bus_va_deg)
                .copied()
                .chain([dc.objective_cost, dc.iterations as f64]),
        )
    });
    // Re-recorded with the ACOPF rows for the predictor–corrector; parent
    // digest, max |Δobjective| ($/h) and max |ΔVa| (°) beside each row.
    let want = [
        0x9ac3201d43eec43a, // case14: was 0xb29f2dd2bb5098df; 1.4e-7, 2.1e-8
        0x1818e67c00235ccc, // case118: was 0x01fc6f9d125a7236; 1.2e-7, 2.3e-8
    ];
    assert_eq!(got, want, "{got:#018x?}");
}
