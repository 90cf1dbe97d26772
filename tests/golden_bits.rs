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
//! recorded before the equations were pulled into one place.
//!
//! The ACOPF / SCOPF / DC-OPF rows pin the interior point method the same
//! way: recorded at PR 22's parent, before the per-iteration triplet
//! assembly of the KKT system became a slot program, and unedited since.

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
    let want = [
        // case14 has no binding Q-limit: same answer twice. Re-recorded
        // (was 0x41cc55cc87da3327) when the Jacobian became a stencil
        // with explicit zeros kept: a flat start cancels some entries to
        // exact zero, which the old conversion dropped from the pattern,
        // so the LU ordered a smaller matrix. |ΔVm| ≤ 4.4e-16 p.u. and
        // |ΔVa| ≤ 2.8e-14° against the old answer.
        0xaddf93df5592ab71,
        0xaddf93df5592ab71,
        0xba28fc38f04d3c0c,
        0x2b93ff05cab3a68f,
        0x3edf30983c7c7f72,
        0x5d8449d519d9f1f0,
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
    let want = [0x73ec130aed4a04e9, 0x574bbf2e0078d05f, 0xcd4f44497e04b4d1];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn dc_solution_is_bit_pinned() {
    let dc = solve_dc(&cases::load(CaseId::Ieee300)).unwrap();
    let got = digest(dc.theta_rad.iter().chain(&dc.flow_mw).copied());
    assert_eq!(got, 0xfa9eeb66a46f03ca, "{got:#018x}");
}

#[test]
fn lodf_is_bit_pinned() {
    let net = cases::load(CaseId::Ieee57);
    let s = sensitivities(&net).unwrap();
    let nb = net.branches.len();
    let got = digest(
        (0..nb)
            .flat_map(|l| (0..nb).map(move |k| (l, k)))
            .map(|i| s.lodf[i]),
    );
    assert_eq!(got, 0xade211cc7ed7dc35, "{got:#018x}");
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

#[test]
fn acopf_solutions_are_bit_pinned() {
    let got = CaseId::ALL
        .map(|id| acopf_digest(&solve_acopf(&cases::load(id), &AcopfOptions::default()).unwrap()));
    let want = [
        0x3fdee7f5eeeed641,
        0x164848de7630d7c2,
        0x19a7659f07caaf10,
        0xfaa253572948d0f3,
        0x8ffd748e2506d63c,
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn scopf_solutions_are_bit_pinned() {
    let got = [CaseId::Ieee30, CaseId::Ieee57].map(|id| {
        let scopf = solve_scopf(&cases::load(id), &ScopfOptions::default()).unwrap();
        acopf_digest(&scopf.solution)
    });
    let want = [0x75113a2788316421, 0xd09a131afb2fc1d4];
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
    let want = [0xb29f2dd2bb5098df, 0x01fc6f9d125a7236];
    assert_eq!(got, want, "{got:#018x?}");
}
