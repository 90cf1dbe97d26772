//! `GridLint` — the model-level audit pass behind `gm-audit lint-case`.
//!
//! A single walk over a [`Network`] that checks structural and electrical
//! invariants and returns machine-readable [`AuditFinding`]s. The pass is
//! a strict superset of [`Network::validate`]: every [`ModelError`] the
//! legacy validator reported maps to an error-severity finding here, and
//! `validate()` now delegates to this pass so the two can never drift.
//!
//! Rule classes (finding `code` in parentheses):
//!
//! - finiteness: every numeric field of every bus, load, generator,
//!   branch and shunt is finite (`GM-NONFINITE`);
//! - connectivity: the in-service graph must be a single island
//!   (`GM-ISLAND`);
//! - reference bus: exactly one slack (`GM-SLACK-NONE`,
//!   `GM-SLACK-MULTI`);
//! - identity: unique external bus ids, in-range element references
//!   (`GM-DUP-BUS`, `GM-DANGLING`);
//! - limit ordering: `p_min ≤ p_max`, `q_min ≤ q_max`, `v_min < v_max`
//!   (`GM-GEN-LIMITS`, `GM-VOLT-LIMITS`);
//! - impedance sanity: non-degenerate reactance, non-negative line
//!   resistance and reactance (`GM-DEGENERATE-X`, `GM-NEG-IMPEDANCE`);
//! - per-unit base consistency: positive system MVA base, matching
//!   endpoint voltage bases across plain lines (`GM-BASE-MVA`,
//!   `GM-KV-MISMATCH`);
//! - dispatch feasibility: total in-service capacity covers total load
//!   with loss headroom, and must-run minimums do not exceed demand
//!   (`GM-CAPACITY`, `GM-MUSTRUN`);
//! - operating point plausibility: scheduled voltages inside their
//!   limits (`GM-VM-RANGE`).

use crate::model::{
    Branch, BranchKind, Bus, BusKind, GenCost, Generator, Load, ModelError, Network, Shunt,
};
use crate::topology;
use serde::{Deserialize, Serialize};

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational; no action required.
    Info,
    /// Suspicious but solvable; review recommended.
    Warning,
    /// Invariant violation; solvers may fail or mislead.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One audit finding: a rule violation tied to a network entity.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AuditFinding {
    /// Severity class.
    pub severity: Severity,
    /// Stable rule identifier (`GM-...`), suitable for suppression lists
    /// and CI grepping.
    pub code: String,
    /// The entity the finding is about (`bus 12`, `branch 40`, `case`).
    pub entity: String,
    /// Human-readable explanation with the offending values.
    pub message: String,
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: [{}] {}: {}",
            self.severity, self.code, self.entity, self.message
        )
    }
}

/// The model-lint pass. Construct with [`GridLint::default`] and run
/// [`GridLint::audit`]; thresholds are fields so callers can tune them.
#[derive(Clone, Debug)]
pub struct GridLint {
    /// Reactance magnitude below which a branch is degenerate (p.u.).
    pub min_reactance_pu: f64,
    /// Required capacity margin over total load (1.02 = 2 % headroom
    /// for losses) before `GM-CAPACITY` downgrades from error to warning.
    pub loss_headroom: f64,
}

impl Default for GridLint {
    fn default() -> Self {
        GridLint {
            min_reactance_pu: 1e-9,
            loss_headroom: 1.02,
        }
    }
}

/// Internal accumulator that grows the finding list and, for rules the
/// legacy validator also enforced, the matching [`ModelError`].
#[derive(Default)]
struct Report {
    findings: Vec<AuditFinding>,
    errors: Vec<ModelError>,
}

impl Report {
    fn push(
        &mut self,
        severity: Severity,
        code: &str,
        entity: impl Into<String>,
        message: impl Into<String>,
        legacy: Option<ModelError>,
    ) {
        self.findings.push(AuditFinding {
            severity,
            code: code.to_string(),
            entity: entity.into(),
            message: message.into(),
        });
        if let Some(e) = legacy {
            self.errors.push(e);
        }
    }
}

/// Reports each of `fields` of `element` that is NaN or infinite.
fn check_finite(rep: &mut Report, element: impl Fn() -> String, fields: &[(&str, f64)]) {
    for &(field, value) in fields {
        if !value.is_finite() {
            rep.push(
                Severity::Error,
                "GM-NONFINITE",
                element(),
                format!("{field} is {value}"),
                Some(ModelError::NonFinite {
                    element: element(),
                    field: field.into(),
                    value,
                }),
            );
        }
    }
}

/// The finiteness rule: every numeric field of every element. The
/// elements are destructured without `..`, as in
/// [`Network::content_hash`], so a new field does not compile until it
/// is checked here.
fn finiteness(net: &Network, rep: &mut Report) {
    for bus in &net.buses {
        let Bus {
            id,
            name: _,
            kind: _,
            vm_pu,
            va_deg,
            base_kv,
            vmin_pu,
            vmax_pu,
            area: _,
        } = bus;
        let fields = [
            ("vm_pu", *vm_pu),
            ("va_deg", *va_deg),
            ("base_kv", *base_kv),
            ("vmin_pu", *vmin_pu),
            ("vmax_pu", *vmax_pu),
        ];
        check_finite(rep, || format!("bus {id}"), &fields);
    }
    for (i, load) in net.loads.iter().enumerate() {
        let Load {
            bus: _,
            p_mw,
            q_mvar,
            in_service: _,
        } = load;
        check_finite(
            rep,
            || format!("load {i}"),
            &[("p_mw", *p_mw), ("q_mvar", *q_mvar)],
        );
    }
    for (i, gen) in net.gens.iter().enumerate() {
        let Generator {
            bus: _,
            p_mw,
            q_mvar,
            vm_setpoint_pu,
            p_min_mw,
            p_max_mw,
            q_min_mvar,
            q_max_mvar,
            in_service: _,
            cost: GenCost { c2, c1, c0 },
        } = gen;
        let fields = [
            ("p_mw", *p_mw),
            ("q_mvar", *q_mvar),
            ("vm_setpoint_pu", *vm_setpoint_pu),
            ("p_min_mw", *p_min_mw),
            ("p_max_mw", *p_max_mw),
            ("q_min_mvar", *q_min_mvar),
            ("q_max_mvar", *q_max_mvar),
            ("cost.c2", *c2),
            ("cost.c1", *c1),
            ("cost.c0", *c0),
        ];
        check_finite(rep, || format!("gen {i}"), &fields);
    }
    for (i, branch) in net.branches.iter().enumerate() {
        let Branch {
            from_bus: _,
            to_bus: _,
            r_pu,
            x_pu,
            b_pu,
            tap,
            shift_deg,
            rating_mva,
            in_service: _,
            kind: _,
        } = branch;
        let fields = [
            ("r_pu", *r_pu),
            ("x_pu", *x_pu),
            ("b_pu", *b_pu),
            ("tap", *tap),
            ("shift_deg", *shift_deg),
            ("rating_mva", *rating_mva),
        ];
        check_finite(rep, || format!("branch {i}"), &fields);
    }
    for (i, shunt) in net.shunts.iter().enumerate() {
        let Shunt {
            bus: _,
            g_mw,
            b_mvar,
            in_service: _,
        } = shunt;
        check_finite(
            rep,
            || format!("shunt {i}"),
            &[("g_mw", *g_mw), ("b_mvar", *b_mvar)],
        );
    }
}

impl GridLint {
    /// Runs every rule and returns all findings, errors first.
    pub fn audit(&self, net: &Network) -> Vec<AuditFinding> {
        let mut findings = self.run(net).findings;
        findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
        findings
    }

    /// Runs the pass and returns only the legacy [`ModelError`] view —
    /// the exact set (and order) [`Network::validate`] historically
    /// produced. [`Network::validate`] delegates here.
    pub fn check_model(&self, net: &Network) -> Result<(), Vec<ModelError>> {
        let errors = self.run(net).errors;
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    fn run(&self, net: &Network) -> Report {
        let mut rep = Report::default();
        let n = net.n_bus();
        finiteness(net, &mut rep);

        // -- Identity: unique external bus ids.
        let mut ids: Vec<u32> = net.buses.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        for w in ids.windows(2) {
            if w[0] == w[1] {
                rep.push(
                    Severity::Error,
                    "GM-DUP-BUS",
                    format!("bus {}", w[0]),
                    format!("external bus id {} appears more than once", w[0]),
                    Some(ModelError::DuplicateBusId { id: w[0] }),
                );
            }
        }

        // -- Reference bus: exactly one slack.
        let slacks: Vec<u32> = net
            .buses
            .iter()
            .filter(|b| b.kind == BusKind::Slack)
            .map(|b| b.id)
            .collect();
        match slacks.len() {
            0 => rep.push(
                Severity::Error,
                "GM-SLACK-NONE",
                "case",
                "no reference (slack) bus is defined",
                Some(ModelError::NoSlack),
            ),
            1 => {}
            _ => rep.push(
                Severity::Error,
                "GM-SLACK-MULTI",
                "case",
                format!("multiple reference buses defined: {slacks:?}"),
                Some(ModelError::MultipleSlack { buses: slacks }),
            ),
        }

        // -- Per-bus limit ordering and operating point.
        for b in &net.buses {
            if b.vmin_pu > b.vmax_pu {
                rep.push(
                    Severity::Error,
                    "GM-VOLT-LIMITS",
                    format!("bus {}", b.id),
                    format!(
                        "voltage limits inverted: vmin {} > vmax {}",
                        b.vmin_pu, b.vmax_pu
                    ),
                    Some(ModelError::BadVoltageLimits { id: b.id }),
                );
            } else if b.vm_pu < b.vmin_pu || b.vm_pu > b.vmax_pu {
                rep.push(
                    Severity::Warning,
                    "GM-VM-RANGE",
                    format!("bus {}", b.id),
                    format!(
                        "scheduled voltage {} p.u. outside limits [{}, {}]",
                        b.vm_pu, b.vmin_pu, b.vmax_pu
                    ),
                    None,
                );
            }
        }

        // -- Element references and generator limit ordering.
        let mut dangling = false;
        for (i, l) in net.loads.iter().enumerate() {
            if l.bus >= n {
                dangling = true;
                rep.push(
                    Severity::Error,
                    "GM-DANGLING",
                    format!("load {i}"),
                    format!("references nonexistent bus index {}", l.bus),
                    Some(ModelError::DanglingReference {
                        element: format!("load {i}"),
                        bus: l.bus,
                    }),
                );
            }
        }
        for (i, g) in net.gens.iter().enumerate() {
            if g.bus >= n {
                dangling = true;
                rep.push(
                    Severity::Error,
                    "GM-DANGLING",
                    format!("gen {i}"),
                    format!("references nonexistent bus index {}", g.bus),
                    Some(ModelError::DanglingReference {
                        element: format!("gen {i}"),
                        bus: g.bus,
                    }),
                );
            }
            if g.p_min_mw > g.p_max_mw || g.q_min_mvar > g.q_max_mvar {
                rep.push(
                    Severity::Error,
                    "GM-GEN-LIMITS",
                    format!("gen {i}"),
                    format!(
                        "limits inverted: P [{}, {}] MW, Q [{}, {}] MVAr",
                        g.p_min_mw, g.p_max_mw, g.q_min_mvar, g.q_max_mvar
                    ),
                    Some(ModelError::BadGenLimits { index: i }),
                );
            }
        }
        for (i, br) in net.branches.iter().enumerate() {
            if br.from_bus >= n || br.to_bus >= n {
                dangling = true;
                rep.push(
                    Severity::Error,
                    "GM-DANGLING",
                    format!("branch {i}"),
                    format!(
                        "references nonexistent bus index {}",
                        br.from_bus.max(br.to_bus)
                    ),
                    Some(ModelError::DanglingReference {
                        element: format!("branch {i}"),
                        bus: br.from_bus.max(br.to_bus),
                    }),
                );
                continue;
            }
            if br.x_pu.abs() < self.min_reactance_pu {
                rep.push(
                    Severity::Error,
                    "GM-DEGENERATE-X",
                    format!("branch {i}"),
                    format!("series reactance |{}| p.u. is effectively zero", br.x_pu),
                    Some(ModelError::DegenerateBranch { index: i }),
                );
            } else if br.kind == BranchKind::Line && (br.x_pu < 0.0 || br.r_pu < 0.0) {
                // Negative reactance is legitimate on series-compensated
                // transformer models, never on a plain pi-model line.
                rep.push(
                    Severity::Error,
                    "GM-NEG-IMPEDANCE",
                    format!("branch {i}"),
                    format!(
                        "line has nonpositive series impedance: r {} x {} p.u.",
                        br.r_pu, br.x_pu
                    ),
                    None,
                );
            }
            if br.kind == BranchKind::Line
                && br.from_bus < n
                && br.to_bus < n
                && (net.buses[br.from_bus].base_kv - net.buses[br.to_bus].base_kv).abs() > 1e-6
            {
                rep.push(
                    Severity::Warning,
                    "GM-KV-MISMATCH",
                    format!("branch {i}"),
                    format!(
                        "plain line joins different voltage bases: {} kV vs {} kV \
                         (should this be a transformer?)",
                        net.buses[br.from_bus].base_kv, net.buses[br.to_bus].base_kv
                    ),
                    None,
                );
            }
        }
        for (i, s) in net.shunts.iter().enumerate() {
            if s.bus >= n {
                dangling = true;
                rep.push(
                    Severity::Error,
                    "GM-DANGLING",
                    format!("shunt {i}"),
                    format!("references nonexistent bus index {}", s.bus),
                    Some(ModelError::DanglingReference {
                        element: format!("shunt {i}"),
                        bus: s.bus,
                    }),
                );
            }
        }

        // -- Per-unit base consistency.
        if !(net.base_mva.is_finite() && net.base_mva > 0.0) {
            rep.push(
                Severity::Error,
                "GM-BASE-MVA",
                "case",
                format!("system MVA base must be positive, got {}", net.base_mva),
                Some(ModelError::BadBaseMva {
                    value: net.base_mva,
                }),
            );
        }

        // -- Dispatch feasibility: capacity vs demand.
        let load = net.total_load_mw();
        let capacity = net.total_gen_capacity_mw();
        if load > 0.0 {
            if capacity < load {
                rep.push(
                    Severity::Error,
                    "GM-CAPACITY",
                    "case",
                    format!("in-service capacity {capacity:.1} MW cannot cover load {load:.1} MW"),
                    None,
                );
            } else if capacity < load * self.loss_headroom {
                rep.push(
                    Severity::Warning,
                    "GM-CAPACITY",
                    "case",
                    format!(
                        "capacity {capacity:.1} MW leaves under {:.0} % headroom over \
                         load {load:.1} MW; losses may make dispatch infeasible",
                        (self.loss_headroom - 1.0) * 100.0
                    ),
                    None,
                );
            }
            let must_run: f64 = net
                .gens
                .iter()
                .filter(|g| g.in_service)
                .map(|g| g.p_min_mw)
                .sum();
            if must_run > load {
                rep.push(
                    Severity::Error,
                    "GM-MUSTRUN",
                    "case",
                    format!("sum of minimum outputs {must_run:.1} MW exceeds load {load:.1} MW"),
                    None,
                );
            }
        }

        // -- Connectivity (meaningful only once references are sound;
        //    the legacy validator additionally required *no* prior
        //    errors before checking, which `check_model` preserves).
        if !dangling && n > 0 {
            let comps = topology::connected_components(net);
            if comps > 1 {
                rep.push(
                    Severity::Error,
                    "GM-ISLAND",
                    "case",
                    format!("in-service network splits into {comps} islands"),
                    if rep.errors.is_empty() {
                        Some(ModelError::Islanded { components: comps })
                    } else {
                        None
                    },
                );
            }
        }

        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Branch, Bus, BusKind, GenCost, Generator, Load, Shunt};

    fn two_bus() -> Network {
        let mut net = Network::new("audit-two-bus");
        let mut slack = Bus::pq(1, 138.0);
        slack.kind = BusKind::Slack;
        net.buses.push(slack);
        net.buses.push(Bus::pq(2, 138.0));
        net.branches
            .push(Branch::line(0, 1, 0.01, 0.1, 0.02, 100.0));
        net.loads.push(Load {
            bus: 1,
            p_mw: 50.0,
            q_mvar: 10.0,
            in_service: true,
        });
        net.gens.push(Generator {
            bus: 0,
            p_mw: 50.0,
            q_mvar: 0.0,
            vm_setpoint_pu: 1.0,
            p_min_mw: 0.0,
            p_max_mw: 200.0,
            q_min_mvar: -100.0,
            q_max_mvar: 100.0,
            in_service: true,
            cost: GenCost {
                c2: 0.01,
                c1: 20.0,
                c0: 0.0,
            },
        });
        net
    }

    fn codes(findings: &[AuditFinding]) -> Vec<&str> {
        findings.iter().map(|f| f.code.as_str()).collect()
    }

    #[test]
    fn clean_network_has_no_findings() {
        assert!(GridLint::default().audit(&two_bus()).is_empty());
    }

    #[test]
    fn islanded_bus_flagged() {
        let mut net = two_bus();
        net.branches[0].in_service = false;
        let f = GridLint::default().audit(&net);
        assert!(codes(&f).contains(&"GM-ISLAND"), "{f:?}");
        assert_eq!(f[0].severity, Severity::Error);
        assert!(f[0].message.contains("2 islands"), "{}", f[0].message);
    }

    #[test]
    fn dual_slack_flagged() {
        let mut net = two_bus();
        net.buses[1].kind = BusKind::Slack;
        let f = GridLint::default().audit(&net);
        assert!(codes(&f).contains(&"GM-SLACK-MULTI"), "{f:?}");
    }

    #[test]
    fn missing_slack_flagged() {
        let mut net = two_bus();
        net.buses[0].kind = BusKind::Pv;
        let f = GridLint::default().audit(&net);
        assert!(codes(&f).contains(&"GM-SLACK-NONE"), "{f:?}");
    }

    #[test]
    fn inverted_limits_flagged() {
        let mut net = two_bus();
        net.gens[0].p_min_mw = 300.0;
        net.buses[1].vmin_pu = 1.2;
        let f = GridLint::default().audit(&net);
        let c = codes(&f);
        assert!(c.contains(&"GM-GEN-LIMITS"), "{f:?}");
        assert!(c.contains(&"GM-VOLT-LIMITS"), "{f:?}");
        // p_min 300 also exceeds the 50 MW load: must-run infeasibility.
        assert!(c.contains(&"GM-MUSTRUN"), "{f:?}");
    }

    #[test]
    fn zero_impedance_branch_flagged() {
        let mut net = two_bus();
        net.branches[0].x_pu = 0.0;
        let f = GridLint::default().audit(&net);
        assert!(codes(&f).contains(&"GM-DEGENERATE-X"), "{f:?}");
    }

    #[test]
    fn negative_line_impedance_flagged() {
        let mut net = two_bus();
        net.branches[0].x_pu = -0.1;
        let f = GridLint::default().audit(&net);
        assert!(codes(&f).contains(&"GM-NEG-IMPEDANCE"), "{f:?}");
    }

    #[test]
    fn kv_mismatch_on_line_is_warning() {
        let mut net = two_bus();
        net.buses[1].base_kv = 69.0;
        let f = GridLint::default().audit(&net);
        let hit = f.iter().find(|x| x.code == "GM-KV-MISMATCH").unwrap();
        assert_eq!(hit.severity, Severity::Warning);
    }

    #[test]
    fn capacity_shortfall_flagged() {
        let mut net = two_bus();
        net.gens[0].p_max_mw = 40.0;
        let f = GridLint::default().audit(&net);
        let hit = f.iter().find(|x| x.code == "GM-CAPACITY").unwrap();
        assert_eq!(hit.severity, Severity::Error);
        // Barely-enough capacity downgrades to a warning.
        net.gens[0].p_max_mw = 50.5;
        let f = GridLint::default().audit(&net);
        let hit = f.iter().find(|x| x.code == "GM-CAPACITY").unwrap();
        assert_eq!(hit.severity, Severity::Warning);
    }

    #[test]
    fn scheduled_voltage_outside_limits_is_warning() {
        let mut net = two_bus();
        net.buses[1].vm_pu = 1.2;
        let f = GridLint::default().audit(&net);
        assert!(codes(&f).contains(&"GM-VM-RANGE"), "{f:?}");
    }

    #[test]
    fn base_mva_must_be_positive() {
        for value in [0.0, -100.0, f64::NAN, f64::INFINITY] {
            let mut net = two_bus();
            net.base_mva = value;
            let f = GridLint::default().audit(&net);
            assert!(codes(&f).contains(&"GM-BASE-MVA"), "{value}: {f:?}");
            let errs = net.validate().unwrap_err();
            assert!(
                matches!(errs[..], [ModelError::BadBaseMva { .. }]),
                "{value}: {errs:?}"
            );
        }
    }

    #[test]
    fn a_non_finite_field_of_any_element_is_an_error() {
        type Spoil = fn(&mut Network, f64);
        let spoils: [(&str, &str, Spoil); 5] = [
            ("bus 2", "va_deg", |n, v| n.buses[1].va_deg = v),
            ("load 0", "q_mvar", |n, v| n.loads[0].q_mvar = v),
            ("gen 0", "cost.c1", |n, v| n.gens[0].cost.c1 = v),
            ("branch 0", "rating_mva", |n, v| {
                n.branches[0].rating_mva = v
            }),
            ("shunt 0", "b_mvar", |n, v| n.shunts[0].b_mvar = v),
        ];
        for (element, field, spoil) in spoils {
            for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut net = two_bus();
                net.shunts.push(Shunt {
                    bus: 1,
                    g_mw: 0.0,
                    b_mvar: 5.0,
                    in_service: true,
                });
                assert!(net.validate().is_ok());
                spoil(&mut net, value);
                let f = GridLint::default().audit(&net);
                assert_eq!(f[0].code, "GM-NONFINITE", "{element}.{field}: {f:?}");
                assert_eq!(f[0].entity, element);
                let errs = net.validate().unwrap_err();
                match &errs[0] {
                    ModelError::NonFinite {
                        element: e,
                        field: f,
                        value: v,
                    } => {
                        assert_eq!((e.as_str(), f.as_str()), (element, field));
                        assert_eq!(v.to_bits(), value.to_bits());
                    }
                    other => panic!("{element}.{field}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn errors_sort_before_warnings() {
        let mut net = two_bus();
        net.buses[1].vm_pu = 1.2; // warning
        net.branches[0].x_pu = 0.0; // error
        let f = GridLint::default().audit(&net);
        assert_eq!(f[0].severity, Severity::Error);
        assert_eq!(f.last().unwrap().severity, Severity::Warning);
    }

    #[test]
    fn check_model_matches_legacy_validate_shape() {
        let mut net = two_bus();
        net.loads[0].bus = 7;
        let errs = GridLint::default().check_model(&net).unwrap_err();
        assert!(matches!(errs[0], ModelError::DanglingReference { .. }));
    }

    #[test]
    fn every_paper_case_is_audit_clean() {
        for id in crate::CaseId::ALL {
            let net = crate::cases::load(id);
            let findings = GridLint::default().audit(&net);
            let errors: Vec<_> = findings
                .iter()
                .filter(|f| f.severity == Severity::Error)
                .collect();
            assert!(errors.is_empty(), "{id:?}: {errors:?}");
        }
    }
}
