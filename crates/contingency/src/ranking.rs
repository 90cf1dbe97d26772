//! Criticality ranking of contingency outcomes.
//!
//! The reference strategy mirrors §3.2.3 of the paper: rather than a
//! single metric, it blends clusters of thermal overloads, voltage
//! excursion depth, load-shed requirements, and solvability penalties into
//! one score, and emits an auditable justification for every ranked
//! element ("Outage A causes three overloads requiring 12 MW curtailment,
//! while Outage B causes one marginal overload — therefore A ranks
//! higher"). The alternative strategies model the per-LLM analytical
//! differences the paper observes in Table 1.

use crate::engine::{THERMAL_THRESHOLD_PCT, VMAX_PU, VMIN_PU};
use crate::types::{ContingencyOutcome, RankedContingency, RankingStrategy, Violation};

/// Scores one outcome under a strategy (higher = more critical).
pub fn score(outcome: &ContingencyOutcome, strategy: RankingStrategy) -> f64 {
    if outcome.islands {
        // Islanding is categorically critical: ahead of any violation mix,
        // ordered by the load it strands.
        return 10_000.0 + outcome.load_shed_mw;
    }
    if !outcome.converged {
        // Voltage-collapse region: nearly as bad as islanding.
        return 9_000.0;
    }
    match strategy {
        RankingStrategy::Composite => {
            let thermal_excess: f64 = outcome
                .violations
                .iter()
                .filter_map(|v| match v {
                    Violation::ThermalOverload { loading_pct, .. } => {
                        Some(loading_pct - THERMAL_THRESHOLD_PCT)
                    }
                    _ => None,
                })
                .sum();
            let voltage_depth: f64 = outcome
                .violations
                .iter()
                .filter_map(|v| match v {
                    Violation::LowVoltage { vm_pu, .. } => Some((VMIN_PU - vm_pu) * 100.0),
                    Violation::HighVoltage { vm_pu, .. } => Some((vm_pu - VMAX_PU) * 100.0),
                    _ => None,
                })
                .sum();
            // Multiple simultaneous violations outrank a single large one
            // (§3.2.2): each extra violation adds a fixed increment.
            let breadth = outcome.violations.len() as f64;
            2.0 * thermal_excess
                + 3.0 * voltage_depth
                + 1.5 * breadth
                + 0.05 * outcome.max_loading_pct
        }
        RankingStrategy::OverloadFirst => outcome.max_loading_pct,
        RankingStrategy::VoltageFirst => {
            if outcome.min_vm.0 > 0.0 {
                (1.0 - outcome.min_vm.0) * 1000.0
            } else {
                0.0
            }
        }
    }
}

/// The voltage violation farthest outside `[VMIN_PU, VMAX_PU]`, low or
/// high, as `(bus id, |V|)`; the first of equals.
fn worst_voltage(violations: &[Violation]) -> Option<(u32, f64)> {
    let mut worst: Option<(f64, u32, f64)> = None;
    for v in violations {
        let (depth, bus_id, vm_pu) = match *v {
            Violation::LowVoltage { bus_id, vm_pu } => (VMIN_PU - vm_pu, bus_id, vm_pu),
            Violation::HighVoltage { bus_id, vm_pu } => (vm_pu - VMAX_PU, bus_id, vm_pu),
            _ => continue,
        };
        if worst.is_none_or(|(d, _, _)| depth > d) {
            worst = Some((depth, bus_id, vm_pu));
        }
    }
    worst.map(|(_, bus_id, vm_pu)| (bus_id, vm_pu))
}

/// Builds the justification narrative for a ranked outcome.
fn justify(outcome: &ContingencyOutcome) -> String {
    if outcome.islands {
        return format!(
            "outage islands {} buses, stranding {:.1} MW of load",
            outcome.stranded_buses, outcome.load_shed_mw
        );
    }
    if !outcome.converged {
        return "post-contingency power flow does not converge (voltage collapse risk)".to_string();
    }
    let nt = outcome.n_thermal();
    let nv = outcome.n_voltage();
    let mut parts = Vec::new();
    if nt > 0 {
        parts.push(format!(
            "{nt} thermal overload{} up to {:.0}%",
            if nt == 1 { "" } else { "s" },
            outcome.max_loading_pct
        ));
    }
    if let Some((bus_id, vm_pu)) = worst_voltage(&outcome.violations) {
        parts.push(format!(
            "{nv} voltage violation{} (worst bus {bus_id} at {vm_pu:.3} p.u.)",
            if nv == 1 { "" } else { "s" },
        ));
    }
    if parts.is_empty() {
        format!(
            "no violations; highest loading {:.0}%, lowest voltage {:.3} p.u.",
            outcome.max_loading_pct, outcome.min_vm.0
        )
    } else {
        parts.join("; ")
    }
}

/// Ranks all outcomes, most critical first. Ties break on the element
/// label ordering (branch index), keeping results deterministic.
pub fn rank(outcomes: &[ContingencyOutcome], strategy: RankingStrategy) -> Vec<RankedContingency> {
    let mut scored: Vec<(usize, f64)> = outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| (i, score(o, strategy)))
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scored
        .into_iter()
        .enumerate()
        .map(|(rank_pos, (idx, s))| {
            let o = &outcomes[idx];
            RankedContingency {
                rank: rank_pos,
                outcome_index: idx,
                label: o.outage.label(o.kind_index),
                score: s,
                justification: justify(o),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Outage;
    use gm_network::BranchKind;

    fn outcome(
        branch: usize,
        violations: Vec<Violation>,
        max_loading: f64,
        min_vm: f64,
    ) -> ContingencyOutcome {
        ContingencyOutcome {
            outage: Outage {
                branch,
                kind: BranchKind::Line,
            },
            kind_index: branch,
            converged: true,
            islands: false,
            stranded_buses: 0,
            violations,
            max_loading_pct: max_loading,
            min_vm: (min_vm, 1),
            load_shed_mw: 0.0,
            ac_solved: true,
        }
    }

    #[test]
    fn multiple_violations_outrank_single_marginal() {
        // The paper's §3.2.3 example, in miniature.
        let a = outcome(
            0,
            vec![
                Violation::ThermalOverload {
                    branch: 5,
                    loading_pct: 118.0,
                },
                Violation::ThermalOverload {
                    branch: 6,
                    loading_pct: 121.0,
                },
                Violation::LowVoltage {
                    bus_id: 9,
                    vm_pu: 0.928,
                },
            ],
            121.0,
            0.928,
        );
        let b = outcome(
            1,
            vec![Violation::ThermalOverload {
                branch: 7,
                loading_pct: 103.0,
            }],
            103.0,
            0.97,
        );
        let ranked = rank(&[b.clone(), a.clone()], RankingStrategy::Composite);
        assert_eq!(ranked[0].label, "line 0");
        assert!(ranked[0].score > ranked[1].score);
        assert!(ranked[0].justification.contains("2 thermal overloads"));
        assert!(ranked[0].justification.contains("0.928"));
    }

    #[test]
    fn worst_bus_is_the_violation_farthest_outside_the_band() {
        // High-voltage violations only: the lowest voltage (1.010) is
        // inside the band and must not be named.
        let high = |bus_id, vm_pu| Violation::HighVoltage { bus_id, vm_pu };
        let o = outcome(
            0,
            vec![high(4, 1.06), high(9, 1.09), high(2, 1.07)],
            80.0,
            1.010,
        );
        let why = rank(&[o], RankingStrategy::Composite)[0]
            .justification
            .clone();
        assert!(
            why.contains("3 voltage violations (worst bus 9 at 1.090 p.u.)"),
            "{why}"
        );
        // Low and high mixed: 0.93 is 0.02 out, 1.06 only 0.01.
        let low = Violation::LowVoltage {
            bus_id: 7,
            vm_pu: 0.93,
        };
        let o = outcome(1, vec![high(4, 1.06), low], 80.0, 0.93);
        let why = rank(&[o], RankingStrategy::Composite)[0]
            .justification
            .clone();
        assert!(why.contains("(worst bus 7 at 0.930 p.u.)"), "{why}");
    }

    #[test]
    fn islanding_dominates_everything() {
        let mut islander = outcome(2, vec![], 0.0, 0.0);
        islander.islands = true;
        islander.converged = false;
        islander.stranded_buses = 3;
        islander.load_shed_mw = 42.0;
        let stressed = outcome(
            0,
            vec![Violation::ThermalOverload {
                branch: 1,
                loading_pct: 180.0,
            }],
            180.0,
            0.96,
        );
        let ranked = rank(&[stressed, islander], RankingStrategy::Composite);
        assert_eq!(ranked[0].label, "line 2");
        assert!(ranked[0].justification.contains("islands 3 buses"));
        assert!(ranked[0].justification.contains("42.0 MW"));
    }

    #[test]
    fn overload_first_orders_by_loading() {
        let a = outcome(
            0,
            vec![Violation::LowVoltage {
                bus_id: 9,
                vm_pu: 0.93,
            }],
            95.0,
            0.93,
        ); // deep voltage dip
        let b = outcome(1, vec![], 99.0, 1.00); // higher loading, clean voltages
        let composite = rank(&[a.clone(), b.clone()], RankingStrategy::Composite);
        let overload = rank(&[a, b], RankingStrategy::OverloadFirst);
        assert_eq!(overload[0].label, "line 1");
        // The two strategies disagree on this pair.
        assert_ne!(composite[0].label, overload[0].label);
    }

    #[test]
    fn voltage_first_orders_by_depth() {
        let a = outcome(0, vec![], 90.0, 0.92);
        let b = outcome(1, vec![], 140.0, 1.0);
        let ranked = rank(&[a, b], RankingStrategy::VoltageFirst);
        assert_eq!(ranked[0].label, "line 0");
    }

    #[test]
    fn deterministic_tie_break() {
        let a = outcome(3, vec![], 50.0, 1.0);
        let b = outcome(7, vec![], 50.0, 1.0);
        let r1 = rank(&[a.clone(), b.clone()], RankingStrategy::Composite);
        let r2 = rank(&[a, b], RankingStrategy::Composite);
        assert_eq!(r1[0].label, r2[0].label);
        assert_eq!(r1[0].label, "line 3"); // lower index wins ties
    }

    #[test]
    fn non_convergence_ranks_below_islanding_above_violations() {
        let mut collapse = outcome(0, vec![], 0.0, 0.0);
        collapse.converged = false;
        let mut islander = outcome(1, vec![], 0.0, 0.0);
        islander.islands = true;
        islander.converged = false;
        let stressed = outcome(2, vec![], 150.0, 0.95);
        let ranked = rank(&[stressed, collapse, islander], RankingStrategy::Composite);
        assert_eq!(ranked[0].label, "line 1");
        assert_eq!(ranked[1].label, "line 0");
        assert_eq!(ranked[2].label, "line 2");
    }
}
