//! Domain validators applied to every tool result (§3.1: "convergence
//! flags, power balance tolerance, operating limits, and sanity checks on
//! modified elements").

use gm_agents::{Severity, ValidationIssue, Validator};
use serde_json::Value;

/// The wire keys the validators read. They look a result over before any
/// planner lifts it into its declared type, so they stay on the wire
/// form; `tests/tool_schemas.rs` checks that every key still names a
/// field of some tool's generated schema, so a rename cannot orphan one.
pub const ANCHOR_KEYS: [&str; 6] = [
    SOLVED,
    CONVERGED,
    POWER_BALANCE,
    MIN_VOLTAGE,
    MAX_VOLTAGE,
    MAX_LOADING,
];
const SOLVED: &str = "solved";
const CONVERGED: &str = "converged";
const POWER_BALANCE: &str = "power_balance_error_mw";
const MIN_VOLTAGE: &str = "min_voltage_pu";
const MAX_VOLTAGE: &str = "max_voltage_pu";
const MAX_LOADING: &str = "max_thermal_loading_pct";

/// Flags unconverged solver results.
pub struct ConvergenceValidator;

impl Validator for ConvergenceValidator {
    fn name(&self) -> &str {
        "convergence"
    }
    fn validate(&self, _tool: &str, result: &Value) -> Vec<ValidationIssue> {
        let mut issues = Vec::new();
        for key in [SOLVED, CONVERGED] {
            if result.get(key) == Some(&Value::Bool(false)) {
                issues.push(ValidationIssue {
                    severity: Severity::Error,
                    check: "convergence".into(),
                    message: format!("result reports {key} = false"),
                });
            }
        }
        issues
    }
}

/// Checks the reported power balance against the paper's 1e-4 p.u.
/// tolerance (0.01 MW on a 100 MVA base — warnings start at 0.1 MW).
pub struct PowerBalanceValidator {
    /// Warning threshold (MW).
    pub tolerance_mw: f64,
}

impl Default for PowerBalanceValidator {
    fn default() -> Self {
        PowerBalanceValidator { tolerance_mw: 0.1 }
    }
}

impl Validator for PowerBalanceValidator {
    fn name(&self) -> &str {
        "power_balance"
    }
    fn validate(&self, _tool: &str, result: &Value) -> Vec<ValidationIssue> {
        match result.get(POWER_BALANCE).and_then(|v| v.as_f64()) {
            Some(err) if err.abs() > self.tolerance_mw => vec![ValidationIssue {
                severity: Severity::Warning,
                check: "power_balance".into(),
                message: format!(
                    "power balance error {err:.3} MW exceeds the {} MW tolerance; verify load \
                     scaling and slack treatment",
                    self.tolerance_mw
                ),
            }],
            _ => vec![],
        }
    }
}

/// Flags voltage or thermal limit breaches in reported solutions.
pub struct OperatingLimitValidator {
    /// Voltage band (p.u.).
    pub vmin_pu: f64,
    /// Upper voltage bound (p.u.).
    pub vmax_pu: f64,
}

impl Default for OperatingLimitValidator {
    fn default() -> Self {
        OperatingLimitValidator {
            vmin_pu: 0.94,
            vmax_pu: 1.10,
        }
    }
}

impl Validator for OperatingLimitValidator {
    fn name(&self) -> &str {
        "operating_limits"
    }
    fn validate(&self, _tool: &str, result: &Value) -> Vec<ValidationIssue> {
        let mut issues = Vec::new();
        if let Some(v) = result.get(MIN_VOLTAGE).and_then(|v| v.as_f64()) {
            if v < self.vmin_pu {
                issues.push(ValidationIssue {
                    severity: Severity::Warning,
                    check: "voltage_limits".into(),
                    message: format!("minimum voltage {v:.4} p.u. below {}", self.vmin_pu),
                });
            }
        }
        if let Some(v) = result.get(MAX_VOLTAGE).and_then(|v| v.as_f64()) {
            if v > self.vmax_pu {
                issues.push(ValidationIssue {
                    severity: Severity::Warning,
                    check: "voltage_limits".into(),
                    message: format!("maximum voltage {v:.4} p.u. above {}", self.vmax_pu),
                });
            }
        }
        if let Some(l) = result.get(MAX_LOADING).and_then(|v| v.as_f64()) {
            if l > 100.5 {
                issues.push(ValidationIssue {
                    severity: Severity::Warning,
                    check: "thermal_limits".into(),
                    message: format!("branch loading {l:.1}% exceeds rating"),
                });
            }
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn convergence_flags_false() {
        let v = ConvergenceValidator;
        assert!(v.validate("x", &json!({"solved": true})).is_empty());
        let issues = v.validate("x", &json!({"solved": false}));
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].severity, Severity::Error);
        let issues = v.validate("x", &json!({"converged": false}));
        assert_eq!(issues.len(), 1);
    }

    #[test]
    fn power_balance_threshold() {
        let v = PowerBalanceValidator::default();
        assert!(v
            .validate("x", &json!({"power_balance_error_mw": 0.01}))
            .is_empty());
        let issues = v.validate("x", &json!({"power_balance_error_mw": 373.6}));
        assert_eq!(issues.len(), 1);
        assert!(issues[0].message.contains("373.6"));
    }

    #[test]
    fn operating_limits() {
        let v = OperatingLimitValidator::default();
        assert!(v
            .validate(
                "x",
                &json!({"min_voltage_pu": 0.99, "max_voltage_pu": 1.05, "max_thermal_loading_pct": 80.0})
            )
            .is_empty());
        let issues = v.validate(
            "x",
            &json!({"min_voltage_pu": 0.90, "max_voltage_pu": 1.12, "max_thermal_loading_pct": 120.0}),
        );
        assert_eq!(issues.len(), 3);
    }

    #[test]
    fn absent_fields_are_fine() {
        let v = OperatingLimitValidator::default();
        assert!(v.validate("x", &json!({"anything": 1})).is_empty());
    }
}
