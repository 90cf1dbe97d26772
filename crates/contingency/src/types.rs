//! Contingency analysis data types (the paper's
//! `ContingencyAnalysisResult` schema family).

use gm_network::BranchKind;
use serde::{Deserialize, Serialize};

/// What was taken out of service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Outage {
    /// Branch index into `Network::branches`.
    pub branch: usize,
    /// Whether the element is a line or a transformer.
    pub kind: BranchKind,
}

impl Outage {
    /// The paper's element label, e.g. "line 171" or "trafo 0" —
    /// element-kind-relative indices as PandaPower tables use.
    pub fn label(&self, kind_index: usize) -> String {
        match self.kind {
            BranchKind::Line => format!("line {kind_index}"),
            BranchKind::Transformer => format!("trafo {kind_index}"),
        }
    }
}

/// A single limit violation observed post-contingency.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// Branch loaded above its thermal rating.
    ThermalOverload {
        /// Branch index.
        branch: usize,
        /// Loading (%).
        loading_pct: f64,
    },
    /// Bus voltage below the lower band.
    LowVoltage {
        /// External bus id.
        bus_id: u32,
        /// Magnitude (p.u.).
        vm_pu: f64,
    },
    /// Bus voltage above the upper band.
    HighVoltage {
        /// External bus id.
        bus_id: u32,
        /// Magnitude (p.u.).
        vm_pu: f64,
    },
}

/// Post-contingency outcome for one outage.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ContingencyOutcome {
    /// The simulated outage.
    pub outage: Outage,
    /// Element index within its kind (line number / trafo number).
    pub kind_index: usize,
    /// Whether the post-contingency power flow converged.
    pub converged: bool,
    /// Whether the outage splits the network (checked before solving).
    pub islands: bool,
    /// Buses stranded from the slack when `islands` (internal indices).
    pub stranded_buses: usize,
    /// All violations found.
    pub violations: Vec<Violation>,
    /// Largest branch loading (%) post-contingency.
    pub max_loading_pct: f64,
    /// Lowest bus voltage (p.u., with bus id).
    pub min_vm: (f64, u32),
    /// Estimated load shed requirement (MW): total load at stranded buses.
    pub load_shed_mw: f64,
    /// Whether a full AC power flow was solved for this outage (`false`
    /// when the DC screening mode classified it as secure without an AC
    /// solve).
    #[serde(default = "default_true")]
    pub ac_solved: bool,
}

fn default_true() -> bool {
    true
}

impl ContingencyOutcome {
    /// Count of thermal violations.
    pub fn n_thermal(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| matches!(v, Violation::ThermalOverload { .. }))
            .count()
    }

    /// Count of voltage violations.
    pub fn n_voltage(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| !matches!(v, Violation::ThermalOverload { .. }))
            .count()
    }
}

/// How the N-1 sweep trades speed against per-outage fidelity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum SweepMode {
    /// Full AC power flow for every outage (the paper's reference sweep).
    Brute,
    /// Multi-fidelity cascade (the default): LODF screening ranks every
    /// outage by DC-estimated post-outage loading; only suspects — plus a
    /// safety band of top-ranked outages — get an AC verification, solved
    /// against the base-case factorization via Woodbury compensation with
    /// a full-Newton fallback. Screened-out outages carry
    /// `ac_solved = false` and the report counts them honestly.
    #[default]
    Cascade,
}

impl SweepMode {
    /// Canonical lowercase name, for tool JSON and narration. (The
    /// vendored serde shim ignores `rename_all`, so serialized reports
    /// carry the variant name verbatim — anything matching on the wire
    /// form must go through this accessor instead.)
    pub fn as_str(self) -> &'static str {
        match self {
            SweepMode::Brute => "brute",
            SweepMode::Cascade => "cascade",
        }
    }
}

pub(crate) fn default_mode_brute() -> SweepMode {
    SweepMode::Brute
}

/// How competing contingencies are ranked into a criticality order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RankingStrategy {
    /// Weighted blend of thermal excess, voltage depth, load shed, and
    /// non-convergence/islanding penalties (the reference strategy).
    #[default]
    Composite,
    /// Rank purely by worst post-contingency loading — the "different
    /// analytical approach" the paper attributes to GPT-5-Mini's divergent
    /// Table 1 row.
    OverloadFirst,
    /// Rank purely by worst post-contingency voltage depression.
    VoltageFirst,
}

/// A ranked critical contingency with an auditable justification.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RankedContingency {
    /// Rank (0 = most critical).
    pub rank: usize,
    /// Outcome index into `ContingencyReport::outcomes`.
    pub outcome_index: usize,
    /// The paper-style label ("line 6", "trafo 0").
    pub label: String,
    /// Composite criticality score (higher = worse).
    pub score: f64,
    /// Human-readable justification grounded in the solver outputs
    /// (§3.2.3: "Outage A causes three overloads requiring 12 MW
    /// curtailment … therefore A ranks higher").
    pub justification: String,
}

/// Full N-1 study result (the paper's `ContingencyAnalysisResult`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ContingencyReport {
    /// Case name.
    pub case_name: String,
    /// Number of contingencies analyzed.
    pub n_contingencies: usize,
    /// Lines analyzed.
    pub n_lines: usize,
    /// Transformers analyzed.
    pub n_trafos: usize,
    /// Per-outage outcomes.
    pub outcomes: Vec<ContingencyOutcome>,
    /// Total violation occurrences across all outages.
    pub total_violations: usize,
    /// Number of outages with at least one thermal overload.
    pub outages_with_overloads: usize,
    /// Number of outages with at least one voltage violation.
    pub outages_with_voltage_issues: usize,
    /// Largest post-contingency loading across the whole set (%), with the
    /// outcome index where it occurs.
    pub max_overload_pct: (f64, usize),
    /// Ranked critical contingencies (most critical first).
    pub ranking: Vec<RankedContingency>,
    /// Voltage band used (p.u.).
    pub voltage_band: (f64, f64),
    /// Whether the sweep ran in parallel.
    pub parallel: bool,
    /// Sweep mode that produced the report. Reports serialized before the
    /// cascade existed were brute sweeps.
    #[serde(default = "default_mode_brute")]
    pub mode: SweepMode,
    /// Outages classified secure from the DC screen alone (no AC solve).
    #[serde(default)]
    pub screened_out: usize,
    /// Outages verified with an AC solve (suspects, safety band, and
    /// unscreenable outages). Brute sweeps verify everything.
    #[serde(default)]
    pub ac_verified: usize,
}

impl ContingencyReport {
    /// Top-k critical element labels (the paper's "Critical Lines" column).
    pub fn top_labels(&self, k: usize) -> Vec<String> {
        self.ranking
            .iter()
            .take(k)
            .map(|r| r.label.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_labels() {
        let line = Outage {
            branch: 10,
            kind: BranchKind::Line,
        };
        assert_eq!(line.label(7), "line 7");
        let trafo = Outage {
            branch: 63,
            kind: BranchKind::Transformer,
        };
        assert_eq!(trafo.label(0), "trafo 0");
    }

    #[test]
    fn violation_counters() {
        let o = ContingencyOutcome {
            outage: Outage {
                branch: 0,
                kind: BranchKind::Line,
            },
            kind_index: 0,
            converged: true,
            islands: false,
            stranded_buses: 0,
            violations: vec![
                Violation::ThermalOverload {
                    branch: 3,
                    loading_pct: 112.0,
                },
                Violation::LowVoltage {
                    bus_id: 52,
                    vm_pu: 0.946,
                },
                Violation::LowVoltage {
                    bus_id: 75,
                    vm_pu: 0.943,
                },
            ],
            max_loading_pct: 112.0,
            min_vm: (0.943, 75),
            load_shed_mw: 0.0,
            ac_solved: true,
        };
        assert_eq!(o.n_thermal(), 1);
        assert_eq!(o.n_voltage(), 2);
    }
}
