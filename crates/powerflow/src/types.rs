//! Options, reports, and errors shared by the power flow solvers.

use gm_numeric::{Complex, Fnv1a};
use serde::{Deserialize, Serialize};

/// Voltage initialization strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum InitStrategy {
    /// 1.0 p.u. / 0° everywhere except scheduled magnitudes at PV/slack.
    #[default]
    Flat,
    /// Use the `vm_pu` / `va_deg` stored on the buses (e.g. a previous
    /// solution or the case file's solved point).
    CaseValues,
    /// Flat magnitudes with angles warm-started from a DC power flow.
    DcWarmStart,
}

/// Options controlling the Newton solver.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PfOptions {
    /// Convergence tolerance on the ∞-norm of the power mismatch (p.u.).
    pub tol_pu: f64,
    /// Maximum Newton iterations per Q-limit round.
    pub max_iter: usize,
    /// Enable the Iwamoto-style optimal step multiplier when a full step
    /// would increase the mismatch norm.
    pub iwamoto_damping: bool,
    /// Enforce generator reactive limits by PV→PQ switching.
    pub enforce_q_limits: bool,
    /// Maximum PV→PQ switching rounds.
    pub max_q_rounds: usize,
    /// Voltage initialization.
    pub init: InitStrategy,
}

impl Default for PfOptions {
    fn default() -> Self {
        PfOptions {
            tol_pu: 1e-8,
            max_iter: 30,
            iwamoto_damping: true,
            enforce_q_limits: true,
            max_q_rounds: 6,
            init: InitStrategy::Flat,
        }
    }
}

impl PfOptions {
    /// Deterministic fingerprint of every solver control, for cache keys.
    /// The destructuring is exhaustive on purpose: a new field fails to
    /// compile here until it is folded in.
    pub fn fingerprint(&self) -> u64 {
        let PfOptions {
            tol_pu,
            max_iter,
            iwamoto_damping,
            enforce_q_limits,
            max_q_rounds,
            init,
        } = self;
        let mut h = Fnv1a::new();
        h.u64(tol_pu.to_bits());
        h.u64(*max_iter as u64);
        h.u64(u64::from(*iwamoto_damping));
        h.u64(u64::from(*enforce_q_limits));
        h.u64(*max_q_rounds as u64);
        h.u64(match init {
            InitStrategy::Flat => 0,
            InitStrategy::CaseValues => 1,
            InitStrategy::DcWarmStart => 2,
        });
        h.finish()
    }
}

/// Solved state of one bus.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BusResult {
    /// External bus id.
    pub id: u32,
    /// Voltage magnitude (p.u.).
    pub vm_pu: f64,
    /// Voltage angle (degrees).
    pub va_deg: f64,
    /// Net active injection (MW).
    pub p_mw: f64,
    /// Net reactive injection (MVAr).
    pub q_mvar: f64,
}

/// Solved flow on one branch.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BranchFlow {
    /// Branch index into `Network::branches`.
    pub index: usize,
    /// Active power entering at the from side (MW).
    pub p_from_mw: f64,
    /// Reactive power entering at the from side (MVAr).
    pub q_from_mvar: f64,
    /// Active power entering at the to side (MW).
    pub p_to_mw: f64,
    /// Reactive power entering at the to side (MVAr).
    pub q_to_mvar: f64,
    /// Loading as percent of the MVA rating; `0` when the branch is
    /// unrated.
    pub loading_pct: f64,
}

impl BranchFlow {
    /// Active losses on the branch (MW).
    pub fn loss_mw(&self) -> f64 {
        self.p_from_mw + self.p_to_mw
    }
}

/// Solved output of one generator.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GenResult {
    /// Generator index into `Network::gens`.
    pub index: usize,
    /// Active output (MW).
    pub p_mw: f64,
    /// Reactive output (MVAr).
    pub q_mvar: f64,
    /// True when the unit's reactive output sits at a limit (the PV bus
    /// was converted to PQ).
    pub at_q_limit: bool,
}

/// Full power flow solution report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PfReport {
    /// Whether the final mismatch met the tolerance.
    pub converged: bool,
    /// Newton iterations used (summed over Q-limit rounds).
    pub iterations: usize,
    /// PV→PQ switching rounds performed.
    pub q_limit_rounds: usize,
    /// Final ∞-norm power mismatch (p.u.).
    pub max_mismatch_pu: f64,
    /// Mismatch history, one entry per iteration.
    pub mismatch_history: Vec<f64>,
    /// Step multipliers applied per iteration (1.0 = full Newton step).
    pub multipliers: Vec<f64>,
    /// Per-bus solution.
    pub buses: Vec<BusResult>,
    /// Per-branch flows (in-service branches; out-of-service carry zeros).
    pub branches: Vec<BranchFlow>,
    /// Per-generator dispatch.
    pub gens: Vec<GenResult>,
    /// Total active losses (MW).
    pub losses_mw: f64,
    /// Minimum bus voltage (p.u.) and the bus id where it occurs.
    pub min_vm: (f64, u32),
    /// Maximum bus voltage (p.u.) and the bus id where it occurs.
    pub max_vm: (f64, u32),
    /// Largest branch loading (%) and the branch index where it occurs;
    /// `(0, usize::MAX)` when every branch is unrated.
    pub max_loading: (f64, usize),
}

impl PfReport {
    /// The solved complex bus voltages (the warm start for a follow-up
    /// solve on the same bus set).
    pub fn voltages(&self) -> Vec<Complex> {
        self.buses
            .iter()
            .map(|b| Complex::from_polar(b.vm_pu, b.va_deg.to_radians()))
            .collect()
    }

    /// Voltage violations against the bus limits: `(bus id, vm, low?)`.
    pub fn voltage_violations(&self, vmin: f64, vmax: f64) -> Vec<(u32, f64, bool)> {
        self.buses
            .iter()
            .filter_map(|b| {
                if b.vm_pu < vmin {
                    Some((b.id, b.vm_pu, true))
                } else if b.vm_pu > vmax {
                    Some((b.id, b.vm_pu, false))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Branches loaded above `threshold_pct`.
    pub fn overloads(&self, threshold_pct: f64) -> Vec<&BranchFlow> {
        self.branches
            .iter()
            .filter(|f| f.loading_pct > threshold_pct)
            .collect()
    }
}

/// Power flow failure modes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum PfError {
    /// The network failed validation.
    InvalidNetwork {
        /// Rendered validation messages.
        problems: Vec<String>,
    },
    /// Newton iteration did not converge.
    Diverged {
        /// Iterations performed.
        iterations: usize,
        /// Final mismatch (p.u.).
        mismatch_pu: f64,
    },
    /// The Jacobian became singular (typically an islanded or degenerate
    /// system).
    SingularJacobian {
        /// Iteration at which factorization failed.
        iteration: usize,
    },
}

impl PfError {
    /// The error every solver entry reports for a network without a
    /// slack bus.
    pub(crate) fn no_slack() -> PfError {
        PfError::InvalidNetwork {
            problems: vec!["network has no slack bus".into()],
        }
    }
}

impl std::fmt::Display for PfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfError::InvalidNetwork { problems } => {
                write!(f, "invalid network: {}", problems.join("; "))
            }
            PfError::Diverged {
                iterations,
                mismatch_pu,
            } => write!(
                f,
                "power flow diverged after {iterations} iterations (mismatch {mismatch_pu:.3e} p.u.)"
            ),
            PfError::SingularJacobian { iteration } => {
                write!(f, "singular Jacobian at iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for PfError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = PfOptions::default();
        assert!(o.tol_pu > 0.0 && o.tol_pu < 1e-4);
        assert!(o.max_iter >= 10);
        assert!(o.enforce_q_limits);
    }

    #[test]
    fn branch_loss() {
        let f = BranchFlow {
            index: 0,
            p_from_mw: 100.0,
            q_from_mvar: 0.0,
            p_to_mw: -98.5,
            q_to_mvar: 0.0,
            loading_pct: 50.0,
        };
        assert!((f.loss_mw() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn violation_helpers() {
        let rep = PfReport {
            converged: true,
            iterations: 3,
            q_limit_rounds: 0,
            max_mismatch_pu: 1e-9,
            mismatch_history: vec![],
            multipliers: vec![],
            buses: vec![
                BusResult {
                    id: 1,
                    vm_pu: 0.93,
                    va_deg: 0.0,
                    p_mw: 0.0,
                    q_mvar: 0.0,
                },
                BusResult {
                    id: 2,
                    vm_pu: 1.07,
                    va_deg: 0.0,
                    p_mw: 0.0,
                    q_mvar: 0.0,
                },
                BusResult {
                    id: 3,
                    vm_pu: 1.0,
                    va_deg: 0.0,
                    p_mw: 0.0,
                    q_mvar: 0.0,
                },
            ],
            branches: vec![BranchFlow {
                index: 0,
                p_from_mw: 0.0,
                q_from_mvar: 0.0,
                p_to_mw: 0.0,
                q_to_mvar: 0.0,
                loading_pct: 120.0,
            }],
            gens: vec![],
            losses_mw: 0.0,
            min_vm: (0.93, 1),
            max_vm: (1.07, 2),
            max_loading: (120.0, 0),
        };
        let v = rep.voltage_violations(0.95, 1.05);
        assert_eq!(v.len(), 2);
        assert!(v[0].2); // low at bus 1
        assert!(!v[1].2); // high at bus 2
        assert_eq!(rep.overloads(100.0).len(), 1);
        assert!(rep.overloads(130.0).is_empty());
    }
}
