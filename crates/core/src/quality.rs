//! Solution quality assessment (Appendix C `SolutionQuality`).
//!
//! The paper's validator logs lines like "Solution quality assessment:
//! Overall=7.2/10". This module scores a solved ACOPF on four 0–10 axes —
//! convergence, constraint satisfaction, economic efficiency, and system
//! security — plus a weighted overall score and concrete recommendations.
//!
//! Scoring ([`score`]) is a pure function of the network and the solution
//! and records nothing; reporting ([`publish`]) is the per-turn log line
//! and histogram sample. An OPF outcome is scored once, when it is solved
//! ([`Scored`]), so a memoized solution recalled from the shared solver
//! cache carries its score and a hit reports it without re-scoring.

use gm_acopf::{AcopfSolution, ScopfSolution};
use gm_network::Network;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// 0–10 quality scores for a solution (Appendix C schema).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolutionQuality {
    /// Weighted overall score.
    pub overall_score: f64,
    /// Convergence axis.
    pub convergence_quality: f64,
    /// Constraint satisfaction axis.
    pub constraint_satisfaction: f64,
    /// Economic efficiency axis (vs the unconstrained dispatch bound).
    pub economic_efficiency: f64,
    /// System security axis (voltage / thermal margins).
    pub system_security: f64,
    /// Detailed numeric evidence per axis.
    pub detailed_metrics: BTreeMap<String, f64>,
    /// Actionable recommendations.
    pub recommendations: Vec<String>,
}

/// A solved OPF and its [`SolutionQuality`], scored when it was solved.
#[derive(Clone, Debug)]
pub struct Scored<T> {
    /// The solution.
    pub solution: T,
    /// Its score against the network it was solved on.
    pub quality: SolutionQuality,
}

impl Scored<AcopfSolution> {
    /// Scores `solution` against `net`.
    pub fn new(net: &Network, solution: AcopfSolution) -> Self {
        Scored {
            quality: score(net, &solution),
            solution,
        }
    }
}

impl Scored<ScopfSolution> {
    /// Scores the dispatch of `solution` against `net`.
    pub fn new(net: &Network, solution: ScopfSolution) -> Self {
        Scored {
            quality: score(net, &solution.solution),
            solution,
        }
    }
}

/// Reports a score: the "Solution quality assessment" log line and one
/// `quality.overall_score` sample.
pub fn publish(quality: &SolutionQuality) {
    let overall = quality.overall_score;
    gm_telemetry::event(
        "quality",
        format!("Solution quality assessment: Overall={overall}/10"),
    );
    gm_telemetry::histogram_record("quality.overall_score", overall);
}

/// Scores a solved ACOPF against its network. Records no telemetry.
pub fn score(net: &Network, sol: &AcopfSolution) -> SolutionQuality {
    let mut metrics = BTreeMap::new();
    let mut recommendations = Vec::new();

    // --- Convergence: solved flag + iteration efficiency.
    let convergence_quality = if !sol.solved {
        0.0
    } else {
        let iter_penalty = (sol.iterations as f64 / 30.0).min(1.0) * 2.0;
        (10.0 - iter_penalty).clamp(0.0, 10.0)
    };
    metrics.insert("ipm_iterations".into(), sol.iterations as f64);

    // --- Constraint satisfaction: voltage band + thermal headroom +
    // power balance.
    let mut constraint = 10.0;
    let balance = sol.power_balance_error_mw().abs();
    metrics.insert("power_balance_error_mw".into(), balance);
    if balance > 1.0 {
        constraint -= (balance / 10.0).min(4.0);
        recommendations.push(format!(
            "verify the {balance:.1} MW power balance discrepancy (load scaling, shunts, or slack treatment)"
        ));
    }
    let vmin_limit: f64 = net
        .buses
        .iter()
        .map(|b| b.vmin_pu)
        .fold(f64::INFINITY, f64::min);
    let vmax_limit: f64 = net.buses.iter().map(|b| b.vmax_pu).fold(0.0, f64::max);
    if sol.min_voltage_pu < vmin_limit - 1e-6 || sol.max_voltage_pu > vmax_limit + 1e-6 {
        constraint -= 3.0;
        recommendations.push("voltage limits violated; inspect reactive support".into());
    }
    if sol.max_thermal_loading_pct > 100.0 + 1e-6 {
        constraint -= 3.0;
        recommendations.push(format!(
            "thermal overload at {:.1}%; redispatch or uprate the corridor",
            sol.max_thermal_loading_pct
        ));
    }
    metrics.insert("min_voltage_pu".into(), sol.min_voltage_pu);
    metrics.insert(
        "max_thermal_loading_pct".into(),
        sol.max_thermal_loading_pct,
    );

    // --- Economic efficiency vs the lossless dispatch lower bound.
    let ed = gm_acopf::economic_dispatch(net, net.total_load_mw());
    let gap = if ed.cost > 0.0 {
        ((sol.objective_cost - ed.cost) / ed.cost).max(0.0)
    } else {
        0.0
    };
    metrics.insert("dispatch_lower_bound_cost".into(), ed.cost);
    metrics.insert("optimality_gap_fraction".into(), gap);
    // ≤2 % above bound → 10; 20 %+ → 4.
    let economic_efficiency = (10.0 - (gap * 30.0)).clamp(4.0, 10.0);

    // --- Security: margins to the voltage band and thermal limits.
    let v_margin = (sol.min_voltage_pu - vmin_limit)
        .min(vmax_limit - sol.max_voltage_pu)
        .max(0.0);
    let t_margin = (100.0 - sol.max_thermal_loading_pct).max(0.0);
    metrics.insert("voltage_margin_pu".into(), v_margin);
    metrics.insert("thermal_margin_pct".into(), t_margin);
    let mut system_security = 4.0 + v_margin * 100.0 + t_margin / 20.0;
    system_security = system_security.clamp(0.0, 10.0);
    if t_margin < 5.0 {
        recommendations
            .push("several corridors operate near their ratings; consider N-1 screening".into());
    }

    let overall_score = (0.3 * convergence_quality
        + 0.3 * constraint
        + 0.2 * economic_efficiency
        + 0.2 * system_security)
        .clamp(0.0, 10.0);

    SolutionQuality {
        overall_score: (overall_score * 10.0).round() / 10.0,
        convergence_quality,
        constraint_satisfaction: constraint.clamp(0.0, 10.0),
        economic_efficiency,
        system_security,
        detailed_metrics: metrics,
        recommendations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_acopf::{solve_acopf, AcopfOptions};
    use gm_network::{cases, CaseId};

    #[test]
    fn good_solution_scores_high() {
        let net = cases::load(CaseId::Ieee14);
        let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        let q = score(&net, &sol);
        assert!(q.overall_score >= 6.0, "overall {}", q.overall_score);
        assert!(q.convergence_quality >= 7.0);
        assert!(q.constraint_satisfaction >= 9.0);
        assert!((0.0..=10.0).contains(&q.overall_score));
        assert!(q.detailed_metrics.contains_key("optimality_gap_fraction"));
    }

    #[test]
    fn fabricated_bad_solution_scores_low() {
        let net = cases::load(CaseId::Ieee14);
        let mut sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        sol.max_thermal_loading_pct = 140.0;
        sol.min_voltage_pu = 0.88;
        sol.total_generation_mw += 300.0; // balance error
        let q = score(&net, &sol);
        assert!(q.constraint_satisfaction < 5.0);
        assert!(!q.recommendations.is_empty());
        assert!(q
            .recommendations
            .iter()
            .any(|r| r.contains("power balance")));
        assert!(q.overall_score < 7.0);
    }

    #[test]
    fn economic_axis_tracks_dispatch_bound() {
        let net = cases::load(CaseId::Ieee30);
        let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        let q = score(&net, &sol);
        let bound = q.detailed_metrics["dispatch_lower_bound_cost"];
        assert!(bound <= sol.objective_cost + 1e-6);
        assert!(q.economic_efficiency >= 4.0);
    }

    #[test]
    fn scores_serializable() {
        let net = cases::load(CaseId::Ieee14);
        let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        let q = score(&net, &sol);
        let v = serde_json::to_value(&q).unwrap();
        assert!(v["overall_score"].as_f64().unwrap() > 0.0);
    }
}
