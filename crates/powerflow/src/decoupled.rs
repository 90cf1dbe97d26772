//! Fast-decoupled power flow (XB scheme).
//!
//! Constant B′ / B″ matrices factored once, alternating P-θ and Q-V half
//! iterations. Cheaper per iteration than Newton but linearly convergent;
//! GridMind uses it as a recovery fallback when Newton struggles and as a
//! cross-check in the validation layer.

use crate::polar::{effective_roles, max_nan, targets_pu, BusDevices, Role};
use crate::types::{PfError, PfOptions, PfReport};
use gm_network::{slack_pinned_bprime, Network, YBus};
use gm_numeric::Complex;
use gm_sparse::{CsMat, Triplets};

/// Solves the power flow with the fast-decoupled XB scheme.
///
/// Reuses [`crate::newton`]'s reporting by polishing the decoupled solution
/// with a final report build; convergence control follows `opts.tol_pu` and
/// `opts.max_iter`. One **P-θ + Q-V pair** counts as one iteration — the
/// same "one corrective update per iteration" accounting the Newton
/// solver uses, so `max_iter` budgets the two solvers comparably and the
/// reported `iterations` are measured in the same unit.
///
/// `B′`, `B″` and the final Newton polish are factored on the calling
/// thread's engine. The polish Jacobian shares its pattern with the
/// plain Newton solve of the same network, so the recovery ladder's FDLF
/// rung reuses the symbolic analysis its Newton rungs already paid for.
pub fn solve_fast_decoupled(net: &Network, opts: &PfOptions) -> Result<PfReport, PfError> {
    let _span = gm_telemetry::span!("pf.fdlf.solve", case = net.name);
    gm_telemetry::counter_add("pf.fdlf.solves", 1);
    if let Err(problems) = net.validate() {
        return Err(PfError::InvalidNetwork {
            problems: problems.iter().map(|p| p.to_string()).collect(),
        });
    }
    let n = net.n_bus();
    let slack = net.slack().ok_or_else(PfError::no_slack)?;
    let ybus = YBus::assemble(net);

    // Roles and targets are the polar system's; the B′ / B″ index spaces
    // below are this solver's own (each reduced system starts at column
    // zero). No Q-limit handling here: it is a fallback / screening
    // method; use Newton for limit-accurate solutions.
    let role = effective_roles(net, slack);
    let (p_spec, q_spec) = targets_pu(net);

    let mut col_th = vec![usize::MAX; n];
    let mut n_th = 0;
    let mut col_vm = vec![usize::MAX; n];
    let mut n_vm = 0;
    for i in 0..n {
        if role[i] != Role::Slack {
            col_th[i] = n_th;
            n_th += 1;
        }
        if role[i] == Role::Pq {
            col_vm[i] = n_vm;
            n_vm += 1;
        }
    }

    // B′: the shared DC stamp (series susceptance 1/x, taps and shunts
    // ignored) with the slack row and column dropped, over θ vars.
    let mut tp = Triplets::new(n_th, n_th);
    for &(r, c, b) in slack_pinned_bprime(net, slack).entries() {
        if r != slack {
            tp.push(col_th[r], col_th[c], b);
        }
    }
    let bp = tp.to_csr_structural();

    // B″: negative imaginary part of Ybus over Vm vars.
    let mut tpp = Triplets::new(n_vm, n_vm);
    for i in 0..n {
        if col_vm[i] == usize::MAX {
            continue;
        }
        let (cols, vals) = ybus.matrix.row(i);
        for (&j, &y) in cols.iter().zip(vals) {
            if col_vm[j] != usize::MAX {
                tpp.push(col_vm[i], col_vm[j], -y.im);
            }
        }
    }
    let bpp = tpp.to_csr_structural();

    // B′ and B″ are constant: factored once on the thread's engine and
    // then reused by in-place solves for every half iteration. The engine
    // lends out one factor at a time, so each is cloned out of it — its
    // values only; the structure stays shared with the analysis.
    let factor = |b: &CsMat<f64>| {
        gm_sparse::with_thread_engine(|engine| engine.factorize(b).cloned())
            .map_err(|_| PfError::SingularJacobian { iteration: 0 })
    };
    let lup = factor(&bp)?;
    let lupp = if n_vm > 0 { Some(factor(&bpp)?) } else { None };

    // Flat start with setpoint magnitudes.
    let devices = BusDevices::new(net);
    let mut vm: Vec<f64> = (0..n)
        .map(|i| {
            if role[i] != Role::Pq {
                (devices.gens_at(net, i).next())
                    .map(|(_, g)| g.vm_setpoint_pu)
                    .unwrap_or(net.buses[i].vm_pu)
            } else {
                1.0
            }
        })
        .collect();
    let mut th = vec![0.0f64; n];

    let mut history = Vec::new();
    let mut iterations = 0usize;
    let mut converged = false;
    // Caller-owned buffers for the in-place half-step solves.
    let mut dth = vec![0.0f64; n_th];
    let mut dvm = vec![0.0f64; n_vm];
    let mut solve_ws = vec![0.0f64; n_th.max(n_vm)];
    loop {
        let v: Vec<Complex> = (0..n).map(|i| Complex::from_polar(vm[i], th[i])).collect();
        let s = ybus.injections(&v);
        let mut norm = 0.0f64;
        for i in 0..n {
            if col_th[i] != usize::MAX {
                norm = max_nan(norm, (s[i].re - p_spec[i]).abs());
            }
            if col_vm[i] != usize::MAX {
                norm = max_nan(norm, (s[i].im - q_spec[i]).abs());
            }
        }
        history.push(norm);
        if norm < opts.tol_pu {
            converged = true;
            break;
        }
        if iterations >= opts.max_iter {
            break;
        }
        iterations += 1;

        // P-θ half step: `dth` holds the rhs going in, the update
        // coming out.
        for i in 0..n {
            if col_th[i] != usize::MAX {
                dth[col_th[i]] = (s[i].re - p_spec[i]) / vm[i];
            }
        }
        lup.solve_in_place(&mut dth, &mut solve_ws[..n_th]);
        for i in 0..n {
            if col_th[i] != usize::MAX {
                th[i] -= dth[col_th[i]];
            }
        }

        // Q-V half step.
        if let Some(lupp) = &lupp {
            let v2: Vec<Complex> = (0..n).map(|i| Complex::from_polar(vm[i], th[i])).collect();
            let s2 = ybus.injections(&v2);
            for i in 0..n {
                if col_vm[i] != usize::MAX {
                    dvm[col_vm[i]] = (s2[i].im - q_spec[i]) / vm[i];
                }
            }
            lupp.solve_in_place(&mut dvm, &mut solve_ws[..n_vm]);
            for i in 0..n {
                if col_vm[i] != usize::MAX {
                    vm[i] = (vm[i] - dvm[col_vm[i]]).max(0.1);
                }
            }
        }
    }

    gm_telemetry::counter_add("pf.fdlf.iterations", iterations as u64);
    if !converged {
        gm_telemetry::counter_add("pf.fdlf.diverged", 1);
        return Err(PfError::Diverged {
            iterations,
            mismatch_pu: history.last().copied().unwrap_or(f64::INFINITY),
        });
    }

    // Hand the converged state to the Newton report builder by doing a
    // zero-iteration Newton polish from this voltage.
    let v: Vec<Complex> = (0..n).map(|i| Complex::from_polar(vm[i], th[i])).collect();
    let polish = PfOptions {
        enforce_q_limits: false,
        iwamoto_damping: false,
        max_iter: 2,
        ..opts.clone()
    };
    let mut report = crate::newton::solve_from(net, &polish, Some(&v))?;
    report.iterations += iterations;
    let mut full_history = history;
    full_history.append(&mut report.mismatch_history);
    report.mismatch_history = full_history;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};

    #[test]
    fn matches_newton_on_ieee14() {
        let net = cases::load(CaseId::Ieee14);
        let opts = PfOptions {
            enforce_q_limits: false,
            ..Default::default()
        };
        let fd = solve_fast_decoupled(&net, &opts).unwrap();
        let nr = crate::newton::solve(&net, &opts).unwrap();
        assert!(fd.converged);
        for (a, b) in fd.buses.iter().zip(&nr.buses) {
            assert!(
                (a.vm_pu - b.vm_pu).abs() < 1e-6,
                "bus {}: {} vs {}",
                a.id,
                a.vm_pu,
                b.vm_pu
            );
            assert!((a.va_deg - b.va_deg).abs() < 1e-5);
        }
    }

    #[test]
    fn converges_on_ieee30() {
        let net = cases::load(CaseId::Ieee30);
        let opts = PfOptions {
            enforce_q_limits: false,
            max_iter: 60,
            ..Default::default()
        };
        let fd = solve_fast_decoupled(&net, &opts).unwrap();
        assert!(fd.converged);
        assert!(fd.losses_mw > 0.0);
    }

    #[test]
    fn iteration_accounting_counts_pairs_on_case14() {
        // Pins the unified accounting: one P-θ + Q-V pair = one
        // iteration, and `max_iter` bounds exactly that count. The
        // Newton polish runs from the converged point, so it adds zero
        // iterations and the reported total equals the pair count.
        let net = cases::load(CaseId::Ieee14);
        let opts = PfOptions {
            enforce_q_limits: false,
            ..Default::default()
        };
        let fd = solve_fast_decoupled(&net, &opts).unwrap();
        assert_eq!(fd.iterations, 8, "pair count on case14 at tol 1e-8");

        // A budget exactly one pair short must diverge; the exact budget
        // must converge — `max_iter: N` means N pairs, nothing else.
        let short = PfOptions {
            max_iter: fd.iterations - 1,
            ..opts.clone()
        };
        match solve_fast_decoupled(&net, &short) {
            Err(PfError::Diverged { iterations, .. }) => {
                assert_eq!(iterations, fd.iterations - 1)
            }
            other => panic!("one pair short must diverge, got {other:?}"),
        }
        let exact = PfOptions {
            max_iter: fd.iterations,
            ..opts
        };
        assert_eq!(
            solve_fast_decoupled(&net, &exact).unwrap().iterations,
            fd.iterations
        );
    }

    #[test]
    fn needs_more_iterations_than_newton() {
        // Linear vs quadratic convergence: FD should take more sweeps.
        let net = cases::load(CaseId::Ieee14);
        let opts = PfOptions {
            enforce_q_limits: false,
            max_iter: 60,
            ..Default::default()
        };
        let fd = solve_fast_decoupled(&net, &opts).unwrap();
        let nr = crate::newton::solve(&net, &opts).unwrap();
        assert!(fd.iterations > nr.iterations);
    }
}
