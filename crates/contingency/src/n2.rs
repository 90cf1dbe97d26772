//! N-2 contingency preview behind the cascade API.
//!
//! A full N-2 sweep is quadratic in branch count — brute-forcing it with
//! AC solves is exactly what the screening cascade exists to avoid. The
//! preview screens every in-service branch pair with the LODF product
//! formula (post-first-outage flows redistributed by the second outage's
//! distribution factors, solved simultaneously for the pair), then
//! AC-verifies only the surviving pairs through the same
//! Woodbury-compensated base factorization the N-1 cascade uses — a pair
//! outage is a rank-≤-8 Jacobian correction, still far cheaper than a
//! fresh factorization per pair.

use crate::engine::{
    enumerate_targets, screening_inputs, solve_base, violations_of, CaOptions, SCREEN_CUTOFF,
};
use crate::fan_out::fan_out;
use crate::types::{Outage, Violation};
use gm_network::{topology, Network};
use gm_powerflow::{CompensationBase, PfReport};
use serde::{Deserialize, Serialize};

/// Outcome of one verified branch-pair outage.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PairOutcome {
    /// The two outaged elements.
    pub outages: (Outage, Outage),
    /// Kind-relative indices for labelling ("line 3 + trafo 0").
    pub kind_indices: (usize, usize),
    /// DC-estimated worst post-pair loading (fraction of rating).
    pub dc_estimate: f64,
    /// Whether the pair splits the network (joint islanding screen).
    pub islands: bool,
    /// Whether the AC verification converged.
    pub converged: bool,
    /// Whether the verification used the compensated base factorization
    /// (`false` = full-Newton fallback).
    pub compensated: bool,
    /// Violations found by the AC verification.
    pub violations: Vec<Violation>,
    /// Worst branch loading (%) post-pair.
    pub max_loading_pct: f64,
}

impl PairOutcome {
    /// "line 3 + trafo 0"-style label.
    pub fn label(&self) -> String {
        format!(
            "{} + {}",
            self.outages.0.label(self.kind_indices.0),
            self.outages.1.label(self.kind_indices.1)
        )
    }
}

/// N-2 preview report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct N2Preview {
    /// Case name.
    pub case_name: String,
    /// Branch pairs considered.
    pub pairs_screened: usize,
    /// Pairs the DC screen classified secure (no AC solve).
    pub screened_out: usize,
    /// Pairs whose LODF screen was undefined (joint islanding or
    /// near-singular pair interaction) — counted, not verified.
    pub unscreenable: usize,
    /// AC-verified suspect pairs, worst first.
    pub verified: Vec<PairOutcome>,
    /// Wall time (seconds).
    pub sweep_time_s: f64,
}

/// One first element's row of the DC pair screen.
#[derive(Default)]
struct ScreenRow {
    suspects: Vec<(usize, usize, f64)>,
    screened_out: usize,
    unscreenable: usize,
}

/// Screens every in-service branch pair with the LODF pair formula and
/// AC-verifies the suspects via the compensated base factorization.
///
/// `max_verify` bounds the AC work: only the `max_verify` worst
/// DC-ranked suspect pairs are verified (the preview is a ranking aid,
/// not an exhaustive N-2 certification — the report counts what was
/// screened out and what was unscreenable so the shortcut is explicit).
/// With `opts.parallel` both phases run on the sweeps' fan-out; the
/// report is the serial one either way.
pub fn n_minus_2_preview(
    net: &Network,
    opts: &CaOptions,
    base: Option<&PfReport>,
    max_verify: usize,
) -> Result<N2Preview, gm_powerflow::PfError> {
    let _span = gm_telemetry::span!("ca.n2_preview", case = net.name);
    let started = std::time::Instant::now();
    let owned_base;
    let base = match base {
        Some(b) => b,
        None => {
            owned_base = solve_base(net, opts)?;
            &owned_base
        }
    };
    let sens = gm_powerflow::sensitivities_for_screening(net)?;
    let (base_p, base_q) = screening_inputs(base);
    let targets = enumerate_targets(net);
    // Same unrated-network guard as the N-1 cascade: no ratings means no
    // thermal signal, so every pair becomes a suspect (the max_verify cap
    // still bounds the AC work).
    let rated = net
        .branches
        .iter()
        .any(|b| b.in_service && b.rating_mva > 0.0);
    let cutoff = if rated { SCREEN_CUTOFF } else { -1.0 };

    // Phase 1: DC pair screen, one job per first element. Rows shrink
    // towards the end of the list, which the work-claiming fan-out
    // absorbs.
    let firsts: Vec<usize> = (0..targets.len()).collect();
    let rows = fan_out(opts.parallel, &firsts, |&a| {
        let mut row = ScreenRow::default();
        for b in (a + 1)..targets.len() {
            let (ka, kb) = (targets[a].0.branch, targets[b].0.branch);
            match sens.worst_pair_outage_loading_mva(net, &base_p, &base_q, ka, kb) {
                None => row.unscreenable += 1,
                Some(est) if est >= cutoff => row.suspects.push((a, b, est)),
                Some(_) => row.screened_out += 1,
            }
        }
        row
    });
    let pairs = targets.len() * targets.len().saturating_sub(1) / 2;
    let screened_out: usize = rows.iter().map(|r| r.screened_out).sum();
    let unscreenable: usize = rows.iter().map(|r| r.unscreenable).sum();
    let mut suspects: Vec<(usize, usize, f64)> =
        rows.into_iter().flat_map(|r| r.suspects).collect();
    gm_telemetry::counter_add("ca.n2.pairs_screened", pairs as u64);
    gm_telemetry::counter_add("ca.n2.screened_out", screened_out as u64);
    suspects.sort_by(|x, y| y.2.total_cmp(&x.2).then((x.0, x.1).cmp(&(y.0, y.1))));
    if suspects.len() > max_verify {
        gm_telemetry::counter_add("ca.n2.verify_capped", (suspects.len() - max_verify) as u64);
        suspects.truncate(max_verify);
    }

    // Phase 2: AC verification of surviving pairs through the shared
    // compensation base (rank-≤-8 corrections), full Newton as fallback.
    let comp_base = match CompensationBase::new(net, &opts.pf, base) {
        Ok(cb) => Some(cb),
        Err(e) => {
            gm_telemetry::warn_event("ca.n2", format!("compensation base unavailable: {e}"));
            None
        }
    };
    let mut verified = fan_out(opts.parallel, &suspects, |&(a, b, est)| {
        let (outage_a, ki_a) = targets[a];
        let (outage_b, ki_b) = targets[b];
        let mut work = net.clone();
        work.branches[outage_a.branch].in_service = false;
        work.branches[outage_b.branch].in_service = false;
        let unsolved = PairOutcome {
            outages: (outage_a, outage_b),
            kind_indices: (ki_a, ki_b),
            dc_estimate: est,
            islands: false,
            converged: false,
            compensated: false,
            violations: Vec::new(),
            max_loading_pct: 0.0,
        };
        // Joint islanding screen: the pair may split the network even
        // when the LODF pair formula stayed finite.
        if topology::connected_components(&work) > topology::connected_components(net) {
            return PairOutcome {
                islands: true,
                ..unsolved
            };
        }
        let (rep, compensated) = match comp_base
            .as_ref()
            .map(|cb| cb.solve_outage(&work, &opts.pf, &[outage_a.branch, outage_b.branch]))
        {
            Some(Ok(rep)) => (Some(rep), true),
            _ => {
                gm_telemetry::counter_add("ca.n2.fallback", 1);
                (gm_powerflow::solve(&work, &opts.pf).ok(), false)
            }
        };
        match rep {
            None => PairOutcome {
                compensated,
                ..unsolved
            },
            Some(rep) => PairOutcome {
                converged: true,
                compensated,
                violations: violations_of(&rep),
                max_loading_pct: rep.max_loading.0,
                ..unsolved
            },
        }
    });
    verified.sort_by(|x, y| y.max_loading_pct.total_cmp(&x.max_loading_pct));

    Ok(N2Preview {
        case_name: net.name.clone(),
        pairs_screened: pairs,
        screened_out,
        unscreenable,
        verified,
        sweep_time_s: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};

    #[test]
    fn case14_preview_screens_and_verifies() {
        // case14 carries no branch ratings (MATPOWER "unlimited"), so the
        // thermal screen has no signal: every non-islanding pair becomes
        // a suspect and the max_verify cap bounds the AC work.
        let net = cases::load(CaseId::Ieee14);
        let rep = n_minus_2_preview(&net, &CaOptions::default(), None, 16).unwrap();
        // 20 in-service elements -> C(20, 2) pairs.
        assert_eq!(rep.pairs_screened, 190);
        assert_eq!(rep.screened_out, 0);
        // Every pair is accounted for: screened out, unscreenable, or a
        // suspect (verified list capped by max_verify).
        assert!(rep.screened_out + rep.unscreenable + rep.verified.len() <= rep.pairs_screened);
        assert_eq!(rep.verified.len(), 16);
        // The verification path must actually run, mostly compensated.
        assert!(
            rep.verified.iter().any(|p| p.compensated),
            "no pair verified via the compensated base"
        );
        // Worst-first ordering.
        for w in rep.verified.windows(2) {
            assert!(w[0].max_loading_pct >= w[1].max_loading_pct);
        }
    }

    #[test]
    fn serial_and_parallel_previews_agree() {
        // The whole preview is `{:?}`-identical but for its wall time.
        for (id, max_verify) in [(CaseId::Ieee14, 16), (CaseId::Ieee118, 24)] {
            let net = cases::load(id);
            let run = |parallel: bool| {
                let opts = CaOptions {
                    parallel,
                    ..Default::default()
                };
                let mut rep = n_minus_2_preview(&net, &opts, None, max_verify).unwrap();
                rep.sweep_time_s = 0.0;
                format!("{rep:?}")
            };
            assert_eq!(run(true), run(false), "{id:?}");
        }
    }

    #[test]
    fn case118_preview_finds_pair_overloads() {
        let net = cases::load(CaseId::Ieee118);
        let opts = CaOptions::default();
        let base = solve_base(&net, &opts).unwrap();
        let rep = n_minus_2_preview(&net, &opts, Some(&base), 24).unwrap();
        // 186 elements -> 17205 pairs, screened in one LODF pass.
        assert_eq!(rep.pairs_screened, 186 * 185 / 2);
        assert!(rep.verified.len() <= 24);
        // The N-1-stressed case must show at least one overloading pair.
        assert!(
            rep.verified
                .iter()
                .any(|p| p.converged && p.max_loading_pct > 100.0),
            "no overloading pair found"
        );
        // At least part of the verification must have used compensation
        // (the whole point of routing N-2 through the cascade machinery).
        assert!(
            rep.verified.iter().any(|p| p.compensated),
            "no pair verified via the compensated base"
        );
        // Labels render with both elements.
        let label = rep.verified[0].label();
        assert!(label.contains(" + "), "bad label {label}");
    }
}
