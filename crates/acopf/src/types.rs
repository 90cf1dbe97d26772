//! ACOPF solution types (the paper's Appendix C `ACOPFSolution` schema).

use serde::{Deserialize, Serialize};

/// Per-branch loading record (Appendix C `BranchLoading`).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BranchLoading {
    /// Branch index into `Network::branches`.
    pub index: usize,
    /// Apparent power at the more-loaded end (MVA).
    pub s_mva: f64,
    /// Loading percent of rating (0 when unrated).
    pub loading_pct: f64,
    /// Active flow at the from end (MW).
    pub p_from_mw: f64,
}

/// A solved AC optimal power flow (Appendix C `ACOPFSolution`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AcopfSolution {
    /// Case name.
    pub case_name: String,
    /// Whether the interior point method converged.
    pub solved: bool,
    /// Total generation cost ($/h).
    pub objective_cost: f64,
    /// Dispatch per generator, MW, keyed by generator index order.
    pub gen_dispatch_mw: Vec<f64>,
    /// Reactive dispatch per generator (MVAr).
    pub gen_dispatch_mvar: Vec<f64>,
    /// Bus voltage magnitudes (p.u.), internal index order.
    pub bus_vm_pu: Vec<f64>,
    /// Bus voltage angles (degrees).
    pub bus_va_deg: Vec<f64>,
    /// Locational marginal prices ($/MWh): the cost of serving one more
    /// MW at each bus, read off the active-power balance multipliers of
    /// the interior point solution.
    pub bus_lmp: Vec<f64>,
    /// Branch loadings.
    pub branch_loading: Vec<BranchLoading>,
    /// Minimum voltage (p.u.).
    pub min_voltage_pu: f64,
    /// Maximum voltage (p.u.).
    pub max_voltage_pu: f64,
    /// Maximum branch loading (%).
    pub max_thermal_loading_pct: f64,
    /// Total active generation (MW).
    pub total_generation_mw: f64,
    /// Total active demand (MW).
    pub total_load_mw: f64,
    /// Active losses (MW).
    pub losses_mw: f64,
    /// IPM iterations.
    pub iterations: usize,
    /// Convergence detail for the audit trail.
    pub convergence_message: String,
    /// Number of binding inequality constraints (|μ| above threshold).
    pub binding_constraints: usize,
}

impl AcopfSolution {
    /// Largest power-balance residual implied by the stored aggregates, as
    /// the agent-layer validators check it: generation − load − losses.
    pub fn power_balance_error_mw(&self) -> f64 {
        self.total_generation_mw - self.total_load_mw - self.losses_mw
    }
}

/// ACOPF failure modes.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum AcopfError {
    /// Network validation failed.
    InvalidNetwork {
        /// Rendered problems.
        problems: Vec<String>,
    },
    /// The interior point method did not converge.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Final feasibility condition.
        feascond: f64,
        /// Solver message.
        message: String,
    },
}

impl std::fmt::Display for AcopfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcopfError::InvalidNetwork { problems } => {
                write!(f, "invalid network: {}", problems.join("; "))
            }
            AcopfError::NotConverged {
                iterations,
                feascond,
                message,
            } => write!(
                f,
                "ACOPF did not converge after {iterations} iterations (feas {feascond:.2e}): {message}"
            ),
        }
    }
}

impl std::error::Error for AcopfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balance_error() {
        let sol = AcopfSolution {
            case_name: "x".into(),
            solved: true,
            objective_cost: 1.0,
            gen_dispatch_mw: vec![],
            gen_dispatch_mvar: vec![],
            bus_vm_pu: vec![],
            bus_va_deg: vec![],
            bus_lmp: vec![],
            branch_loading: vec![],
            min_voltage_pu: 1.0,
            max_voltage_pu: 1.0,
            max_thermal_loading_pct: 0.0,
            total_generation_mw: 105.0,
            total_load_mw: 100.0,
            losses_mw: 5.0,
            iterations: 1,
            convergence_message: String::new(),
            binding_constraints: 0,
        };
        assert!(sol.power_balance_error_mw().abs() < 1e-12);
    }
}
