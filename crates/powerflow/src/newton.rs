//! Newton–Raphson AC power flow in polar coordinates.
//!
//! The reference solver behind GridMind's tools (the role `pandapower.runpp`
//! plays in the paper). Sparse Jacobian assembly over the Ybus pattern,
//! sparse LU solves, optional Iwamoto-style optimal step multipliers (the
//! `iwamoto muliplier:` lines visible in the paper's Fig. 8 logs), and
//! generator reactive-limit enforcement by PV→PQ switching.

use crate::polar::{effective_roles, targets_pu, BusDevices, Iterate, PolarIndex, Role};
use crate::types::{
    BranchFlow, BusResult, GenResult, InitStrategy, PfError, PfOptions, PfReport, MAX_Q_ROUNDS,
    TOL_PU,
};
use gm_network::{Network, YBus};
use gm_numeric::Complex;
use gm_sparse::{CsMat, SparseLuError, Stencil, Triplets};

/// Solves the AC power flow for a network.
pub fn solve(net: &Network, opts: &PfOptions) -> Result<PfReport, PfError> {
    solve_from(net, opts, None)
}

/// Solves with an explicit starting voltage (warm start), overriding
/// `opts.init`. The slice must have one finite entry per bus; anything
/// else is a [`PfError::InvalidNetwork`].
///
/// Every factorization borrows the calling thread's engine
/// ([`gm_sparse::with_thread_engine`]), so the Jacobian's symbolic
/// analysis is shared across Newton iterations, Q-limit rounds and every
/// later solve of the same pattern on the thread, and results are
/// bit-identical regardless of the engine's cache state.
pub fn solve_from(
    net: &Network,
    opts: &PfOptions,
    start: Option<&[Complex]>,
) -> Result<PfReport, PfError> {
    if let Err(problems) = net.validate() {
        return Err(PfError::InvalidNetwork {
            problems: problems.iter().map(|p| p.to_string()).collect(),
        });
    }
    // A start taken from another network (a stale base-case report, the
    // wrong case's voltages) or holding a non-finite entry is a caller
    // error the retry ladders can recover from — not a reason to abort
    // the process, nor a start to report convergence from.
    let bad_start = start.and_then(|v0| {
        if v0.len() != net.n_bus() {
            return Some(format!(
                "warm start has {} entries for {} buses",
                v0.len(),
                net.n_bus()
            ));
        }
        let i = v0.iter().position(|v| !v.is_finite())?;
        Some(format!("warm start entry {i} is not finite"))
    });
    if let Some(problem) = bad_start {
        return Err(PfError::InvalidNetwork {
            problems: vec![problem],
        });
    }
    let ybus = YBus::assemble(net);
    let mut scratch = NewtonScratch::default();
    solve_prepared(net, opts, start, None, &ybus, &mut scratch).map(|(rep, _)| rep)
}

/// Reactive-limit switching state of a converged solve: for each bus,
/// the total generator reactive output (p.u.) it ended up pinned at, or
/// `None` if its PV status survived. The batch engine carries this from
/// a warm-start neighbor into the seeded solve so the Newton iteration
/// starts on the *switched* problem the neighbor converged to — without
/// it, every scenario first re-converges the unswitched problem and
/// then re-discovers the same PV→PQ switches, roughly doubling the
/// iteration count and erasing the warm start's advantage. Pin values
/// are generator limits (network constants across load/dispatch
/// deltas), so carrying them between scenarios is exact.
#[derive(Clone, Debug, Default)]
pub(crate) struct QState {
    /// Bus-indexed pinned total generator Q (p.u.), `None` = not pinned.
    pub(crate) pinned_q_gen: Vec<Option<f64>>,
}

/// The solver body behind [`solve_from`], taking a
/// pre-assembled admittance matrix and caller-owned [`NewtonScratch`] so
/// the batch engine can amortize validation, `YBus` assembly, and
/// allocation across scenarios that share a topology. Assumes `net` has
/// already passed [`Network::validate`] (load/dispatch deltas on a valid
/// base cannot invalidate it) and that `start` has one entry per bus;
/// results are bit-identical to the public entry points.
pub(crate) fn solve_prepared(
    net: &Network,
    opts: &PfOptions,
    start: Option<&[Complex]>,
    q_seed: Option<&QState>,
    ybus: &YBus,
    scratch: &mut NewtonScratch,
) -> Result<(PfReport, QState), PfError> {
    let _span = gm_telemetry::span!("pf.newton.solve", case = net.name, n_bus = net.n_bus());
    gm_telemetry::counter_add("pf.newton.solves", 1);
    let n = net.n_bus();
    // `validate` above guarantees a slack; keep a typed error rather
    // than a panic in case validation rules and this ever drift.
    let slack = net.slack().ok_or_else(PfError::no_slack)?;

    let mut role = effective_roles(net, slack);
    let (p_spec, mut q_spec) = targets_pu(net);
    let devices = BusDevices::new(net);
    // At PQ buses the scheduled Q excludes any (switched-off-PV) generator
    // contribution — handled below during Q-limit rounds.

    // Setpoint magnitudes for PV/slack buses.
    let mut vm_set = vec![1.0f64; n];
    for (i, bus) in net.buses.iter().enumerate() {
        vm_set[i] = bus.vm_pu.max(0.5);
        if let Some((_, g)) = devices.gens_at(net, i).next() {
            if role[i] != Role::Pq {
                vm_set[i] = g.vm_setpoint_pu;
            }
        }
    }

    let mut at_limit: Vec<bool> = vec![false; net.gens.len()];
    let mut pinned_q: Vec<Option<f64>> = vec![None; n];
    // Apply a carried Q-switching state before the first iteration: the
    // seeded buses start demoted to PQ with Q pinned exactly where the
    // warm-start neighbor left them (the pin is a generator limit, so
    // it is scenario-independent; only the load share of `q_spec`
    // changes under this scenario's deltas).
    if let Some(seed) = q_seed {
        for i in 0..n {
            if role[i] != Role::Pv {
                continue;
            }
            if let Some(pin) = seed.pinned_q_gen.get(i).copied().flatten() {
                role[i] = Role::Pq;
                q_spec[i] = pin - bus_load_q(net, &devices, i);
                pinned_q[i] = Some(pin);
                for (gi, _) in devices.gens_at(net, i) {
                    at_limit[gi] = true;
                }
            }
        }
    }

    // Initial voltages.
    let mut v: Vec<Complex> = match start {
        Some(v0) => v0.to_vec(),
        None => match opts.init {
            InitStrategy::Flat => (0..n)
                .map(|i| {
                    Complex::from_polar(if role[i] == Role::Pq { 1.0 } else { vm_set[i] }, 0.0)
                })
                .collect(),
            InitStrategy::CaseValues => net
                .buses
                .iter()
                .map(|b| Complex::from_polar(b.vm_pu, b.va_deg.to_radians()))
                .collect(),
            InitStrategy::DcWarmStart => {
                let dc = crate::dc::solve_dc(net)?;
                (0..n)
                    .map(|i| {
                        Complex::from_polar(
                            if role[i] == Role::Pq { 1.0 } else { vm_set[i] },
                            dc.theta_rad[i],
                        )
                    })
                    .collect()
            }
        },
    };
    // Pin PV/slack magnitudes to setpoints regardless of the start.
    for i in 0..n {
        if role[i] != Role::Pq {
            v[i] = Complex::from_polar(vm_set[i], v[i].arg());
        }
    }

    let mut iterations = 0usize;
    let mut q_rounds = 0usize;
    let mut mismatch_history = Vec::new();
    let mut multipliers = Vec::new();

    loop {
        let converged = newton_inner(
            ybus,
            &role,
            &p_spec,
            &q_spec,
            opts,
            &mut v,
            &mut iterations,
            &mut mismatch_history,
            &mut multipliers,
            scratch,
        )?;
        if !converged {
            gm_telemetry::counter_add("pf.newton.diverged", 1);
            gm_telemetry::counter_add("pf.newton.iterations", iterations as u64);
            return Err(PfError::Diverged {
                iterations,
                mismatch_pu: mismatch_history.last().copied().unwrap_or(f64::INFINITY),
            });
        }
        if !opts.enforce_q_limits || q_rounds >= MAX_Q_ROUNDS {
            break;
        }
        // Reactive limit check at PV buses; demote violators to PQ with Q
        // pinned at the limit and resolve from the current voltages.
        let s_calc = ybus.injections(&v);
        let mut switched = false;
        for i in 0..n {
            if role[i] != Role::Pv {
                continue;
            }
            // Total generator Q needed at the bus = injection + load Q.
            let load_q = bus_load_q(net, &devices, i);
            let q_gen = s_calc[i].im + load_q;
            let (q_min, q_max) = gen_q_range(net, &devices, i);
            if q_gen > q_max + 1e-9 || q_gen < q_min - 1e-9 {
                let pinned = q_gen.clamp(q_min, q_max);
                role[i] = Role::Pq;
                q_spec[i] = pinned - load_q;
                pinned_q[i] = Some(pinned);
                for (gi, _) in devices.gens_at(net, i) {
                    at_limit[gi] = true;
                }
                switched = true;
            }
        }
        if !switched {
            break;
        }
        q_rounds += 1;
    }

    gm_telemetry::counter_add("pf.newton.iterations", iterations as u64);
    gm_telemetry::counter_add("pf.newton.q_rounds", q_rounds as u64);
    gm_telemetry::histogram_record("pf.newton.iterations_per_solve", iterations as f64);
    let report = build_report(
        net,
        &devices,
        ybus,
        &v,
        slack,
        iterations,
        q_rounds,
        mismatch_history,
        multipliers,
        &at_limit,
    );
    Ok((
        report,
        QState {
            pinned_q_gen: pinned_q,
        },
    ))
}

/// Total in-service load reactive demand at a bus (p.u.).
fn bus_load_q(net: &Network, devices: &BusDevices, bus: usize) -> f64 {
    devices.load_mw_mvar(net, bus).1 / net.base_mva
}

/// Total generator reactive range at a bus (p.u.).
fn gen_q_range(net: &Network, devices: &BusDevices, bus: usize) -> (f64, f64) {
    let mut lo = 0.0;
    let mut hi = 0.0;
    for (_, g) in devices.gens_at(net, bus) {
        lo += g.q_min_mvar;
        hi += g.q_max_mvar;
    }
    (lo / net.base_mva, hi / net.base_mva)
}

/// What a Newton solve keeps between iterations, Q-limit rounds and —
/// through [`solve_prepared`] — batch scenarios: the Jacobian's
/// [`Stencil`] (its pattern a function of the Ybus pattern and the role
/// assignment, never of a value), the buffers of the in-place solve, and
/// the iterates of the step search.
#[derive(Default)]
pub(crate) struct NewtonScratch {
    jac: Option<Stencil>,
    dx: Vec<f64>,
    solve_ws: Vec<f64>,
    /// The accepted iterate, the best step so far and the one on trial.
    at: Iterate,
    best: Iterate,
    trial: Iterate,
    currents: Vec<Complex>,
}

/// The Jacobian at the iterate `at`, written into the `kept` stencil —
/// the pass held to its positions when `verify` — or into a new one
/// built from a structure pass when none is kept for `nvar` unknowns or
/// the pass strayed from it.
fn assemble<'j>(
    kept: &'j mut Option<Stencil>,
    idx: &PolarIndex,
    ybus: &YBus,
    at: &Iterate,
    verify: bool,
) -> Result<&'j CsMat<f64>, PfError> {
    let nvar = idx.nvar();
    let refilled = (kept.take())
        .filter(|jac| jac.mat().shape() == (nvar, nvar))
        .and_then(|mut jac| {
            let written = if verify {
                refill::<true>(&mut jac, idx, ybus, at)
            } else {
                refill::<false>(&mut jac, idx, ybus, at)
            };
            written.then_some(jac)
        });
    let jac = match refilled {
        Some(jac) => jac,
        None => {
            let mut pass = Triplets::with_capacity(nvar, nvar, 4 * ybus.matrix.nnz());
            idx.stamp_jacobian(&mut pass, ybus, at);
            // The roles index every stamped position inside the
            // matrix; an `Err` here is a broken index, not a network.
            Stencil::stamped(&pass, "Jacobian").map_err(|problem| PfError::InvalidNetwork {
                problems: vec![problem],
            })?
        }
    };
    Ok(kept.insert(jac).mat())
}

/// Writes the Jacobian's values into `jac`; `false` when the pass did not
/// match its positions (checked when `VERIFY`) or its count.
fn refill<const VERIFY: bool>(
    jac: &mut Stencil,
    idx: &PolarIndex,
    ybus: &YBus,
    at: &Iterate,
) -> bool {
    let mut pass = jac.stamper::<VERIFY>();
    idx.stamp_jacobian(&mut pass, ybus, at);
    pass.finish("Jacobian").is_ok()
}

/// Runs Newton iterations until convergence or the iteration budget is
/// spent. Returns `Ok(true)` on convergence.
#[allow(clippy::too_many_arguments)]
fn newton_inner(
    ybus: &YBus,
    role: &[Role],
    p_spec: &[f64],
    q_spec: &[f64],
    opts: &PfOptions,
    v: &mut [Complex],
    iterations: &mut usize,
    mismatch_history: &mut Vec<f64>,
    multipliers: &mut Vec<f64>,
    scratch: &mut NewtonScratch,
) -> Result<bool, PfError> {
    let idx = PolarIndex::new(role);
    let nvar = idx.nvar();
    if nvar == 0 {
        mismatch_history.push(0.0);
        return Ok(true);
    }
    let spec = (p_spec, q_spec);
    let NewtonScratch {
        jac,
        dx,
        solve_ws,
        at,
        best,
        trial,
        currents,
    } = &mut *scratch;
    // Newton's iterate is its phasors, as it is across Q-limit rounds and
    // warm starts: `|V|` and `arg V` are derived from them once per
    // iteration (one `hypot` and `atan2` per bus) and shared by the
    // Jacobian and every trial step. Carrying the polar form across
    // iterations instead moves each step by rounding, which a diverging
    // batch scenario amplifies into another pivot history
    // (`powerflow.batch_direct_demotions.case300x64` in
    // `tests/work_counts.rs`).
    at.set_phasors(v);
    idx.evaluate(at, ybus, spec, currents);
    let mut converged = false;
    for local_iter in 0..=opts.max_iter {
        mismatch_history.push(at.norm);
        if at.norm < TOL_PU {
            converged = true;
            break;
        }
        if local_iter == opts.max_iter {
            break;
        }
        *iterations += 1;

        // ---- Jacobian assembly over the Ybus sparsity pattern, at the
        // iterate's own injections. A kept stencil may be another role
        // assignment's (a Q-limit round, a batch scenario): this call's
        // first pass is held to it.
        let jac = assemble(jac, &idx, ybus, at, local_iter == 0)?;
        dx.clear();
        dx.extend_from_slice(&at.f);
        solve_ws.resize(nvar, 0.0);
        gm_sparse::with_thread_engine(|engine| {
            let lu = engine.factorize(jac)?;
            lu.solve_in_place(dx, solve_ws);
            Ok(())
        })
        .map_err(|_: SparseLuError| PfError::SingularJacobian {
            iteration: *iterations,
        })?;

        // ---- Step with optional Iwamoto-style optimal multiplier.
        idx.step(at, dx, 1.0, best);
        idx.evaluate(best, ybus, spec, currents);
        let mut mu_used = 1.0;
        let keep_full = !opts.iwamoto_damping || best.norm <= at.norm;
        if !keep_full {
            // The full step overshoots: search the step length that
            // minimizes the mismatch norm (Iwamoto's optimal multiplier,
            // evaluated numerically).
            for &mu in &[0.9, 0.75, 0.5, 0.35, 0.2, 0.1, 0.05] {
                idx.step(at, dx, mu, trial);
                idx.evaluate(trial, ybus, spec, currents);
                if trial.norm < best.norm {
                    std::mem::swap(best, trial);
                    mu_used = mu;
                }
            }
        }
        multipliers.push(mu_used);
        std::mem::swap(at, best);
        at.polar_from_phasors();
        if !at.norm.is_finite() {
            break;
        }
    }
    v.copy_from_slice(&at.v);
    Ok(converged)
}

/// Assembles the final report from a solved voltage vector.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_report(
    net: &Network,
    devices: &BusDevices,
    ybus: &YBus,
    v: &[Complex],
    slack: usize,
    iterations: usize,
    q_limit_rounds: usize,
    mismatch_history: Vec<f64>,
    multipliers: Vec<f64>,
    at_limit: &[bool],
) -> PfReport {
    let n = net.n_bus();
    let base = net.base_mva;
    let s_calc = ybus.injections(v);

    let buses: Vec<BusResult> = (0..n)
        .map(|i| BusResult {
            id: net.buses[i].id,
            vm_pu: v[i].abs(),
            va_deg: v[i].arg().to_degrees(),
            p_mw: s_calc[i].re * base,
            q_mvar: s_calc[i].im * base,
        })
        .collect();

    let mut branches = Vec::with_capacity(net.branches.len());
    let mut losses = 0.0f64;
    let mut max_loading = (0.0f64, usize::MAX);
    for (idx, br) in net.branches.iter().enumerate() {
        if !br.in_service {
            branches.push(BranchFlow {
                index: idx,
                p_from_mw: 0.0,
                q_from_mvar: 0.0,
                p_to_mw: 0.0,
                q_to_mvar: 0.0,
                loading_pct: 0.0,
            });
            continue;
        }
        let sf = ybus.flow_from(idx, v, net) * base;
        let st = ybus.flow_to(idx, v, net) * base;
        losses += sf.re + st.re;
        let smax = sf.abs().max(st.abs());
        let loading = if br.rating_mva > 0.0 {
            100.0 * smax / br.rating_mva
        } else {
            0.0
        };
        if loading > max_loading.0 {
            max_loading = (loading, idx);
        }
        branches.push(BranchFlow {
            index: idx,
            p_from_mw: sf.re,
            q_from_mvar: sf.im,
            p_to_mw: st.re,
            q_to_mvar: st.im,
            loading_pct: loading,
        });
    }

    // Allocate bus-level injections back to generators.
    let mut gens = Vec::with_capacity(net.gens.len());
    for (gi, g) in net.gens.iter().enumerate() {
        if !g.in_service {
            gens.push(GenResult {
                index: gi,
                p_mw: 0.0,
                q_mvar: 0.0,
                at_q_limit: false,
            });
            continue;
        }
        let bus = g.bus;
        let (load_p, load_q) = devices.load_mw_mvar(net, bus);
        let p_bus = s_calc[bus].re * base + load_p;
        let q_bus = s_calc[bus].im * base + load_q;
        // Share among co-located units proportionally to capacity/range.
        let units = || devices.gens_at(net, bus).map(|(_, u)| u);
        let p_cap: f64 = units().map(|u| u.p_max_mw.max(1e-6)).sum();
        let q_rng: f64 = units()
            .map(|u| (u.q_max_mvar - u.q_min_mvar).max(1e-6))
            .sum();
        let p_share = if bus == slack {
            p_bus * g.p_max_mw.max(1e-6) / p_cap
        } else {
            g.p_mw
        };
        let q_share = q_bus * (g.q_max_mvar - g.q_min_mvar).max(1e-6) / q_rng;
        gens.push(GenResult {
            index: gi,
            p_mw: p_share,
            q_mvar: q_share,
            at_q_limit: at_limit.get(gi).copied().unwrap_or(false),
        });
    }

    let (mut min_vm, mut max_vm) = ((f64::INFINITY, 0u32), (0.0f64, 0u32));
    for b in &buses {
        if b.vm_pu < min_vm.0 {
            min_vm = (b.vm_pu, b.id);
        }
        if b.vm_pu > max_vm.0 {
            max_vm = (b.vm_pu, b.id);
        }
    }

    let converged = mismatch_history
        .last()
        .map(|m| m.is_finite())
        .unwrap_or(false);
    let max_mismatch_pu = mismatch_history.last().copied().unwrap_or(f64::NAN);
    PfReport {
        converged,
        iterations,
        q_limit_rounds,
        max_mismatch_pu,
        mismatch_history,
        multipliers,
        buses,
        branches,
        gens,
        losses_mw: losses,
        min_vm,
        max_vm,
        max_loading,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};

    fn structure_pass(idx: &PolarIndex, ybus: &YBus, at: &Iterate) -> Triplets<f64> {
        let mut t = Triplets::new(idx.nvar(), idx.nvar());
        idx.stamp_jacobian(&mut t, ybus, at);
        t
    }

    fn bits(m: &CsMat<f64>) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
        let vals = m.values().iter().map(|v| v.to_bits()).collect();
        (m.indptr().to_vec(), m.indices().to_vec(), vals)
    }

    #[test]
    fn a_kept_stencil_of_other_roles_at_equal_nvar_is_verified_and_rebuilt() {
        let net = cases::load(CaseId::Ieee30);
        let ybus = YBus::assemble(&net);
        let base = effective_roles(&net, net.slack().unwrap());
        let mut at = Iterate::default();
        at.set_polar(
            &(0..net.n_bus())
                .map(|i| 1.0 + 0.01 * i as f64)
                .collect::<Vec<_>>(),
            &(0..net.n_bus())
                .map(|i| -0.02 * i as f64)
                .collect::<Vec<_>>(),
        );
        // The injections at `at`; the targets do not enter the Jacobian.
        let zero = vec![0.0; net.n_bus()];
        PolarIndex::new(&base).evaluate(&mut at, &ybus, (&zero, &zero), &mut Vec::new());
        // Two assignments that each demote one PV bus: equal `nvar`, and
        // picked for equal contribution counts, so only the positions
        // tell them apart.
        let demoted = |bus: usize| {
            let mut role = base.clone();
            role[bus] = Role::Pq;
            PolarIndex::new(&role)
        };
        let pv: Vec<usize> = (0..base.len()).filter(|&i| base[i] == Role::Pv).collect();
        let (a, b) = (pv.iter().enumerate())
            .flat_map(|(k, &x)| pv[k + 1..].iter().map(move |&y| (x, y)))
            .map(|(x, y)| (demoted(x), demoted(y)))
            .find(|(a, b)| {
                let count = |idx| structure_pass(idx, &ybus, &at).len();
                count(a) == count(b)
            })
            .expect("two PV buses whose demotions stamp equally many entries");
        assert_eq!(a.nvar(), b.nvar());
        let fresh_b = structure_pass(&b, &ybus, &at).to_csr_structural();
        assert_ne!(
            bits(&structure_pass(&a, &ybus, &at).to_csr_structural()).1,
            bits(&fresh_b).1
        );

        let mut jac = None;
        assemble(&mut jac, &a, &ybus, &at, true).unwrap();
        // A plain pass would sum `b`'s values into `a`'s slots unnoticed;
        // the verify pass misses.
        let mut kept = jac.clone().unwrap();
        assert!(refill::<false>(&mut kept.clone(), &b, &ybus, &at));
        assert!(!refill::<true>(&mut kept, &b, &ybus, &at));

        let rebuilt = assemble(&mut jac, &b, &ybus, &at, true).unwrap();
        assert_eq!(bits(rebuilt), bits(&fresh_b));
        // The rebuilt stencil serves `b`'s later passes, verified or not.
        for verify in [true, false] {
            let again = assemble(&mut jac, &b, &ybus, &at, verify).unwrap();
            assert_eq!(bits(again), bits(&fresh_b));
        }
    }
}
