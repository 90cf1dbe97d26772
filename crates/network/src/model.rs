//! Typed power system network model.
//!
//! This is the `PowerSystem` data model from the paper's Appendix C: buses,
//! generators, loads, branches (lines and transformers), shunts, and case
//! metadata, with strong typing and validation in place of loose
//! dictionaries. All electrical quantities are stored in the units the
//! industry uses (MW / MVAr / per-unit impedance on the system MVA base);
//! solver crates convert as needed.

use gm_numeric::Fnv1a;
use serde::{Deserialize, Serialize};

/// Role of a bus in the power flow formulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusKind {
    /// Reference (slack) bus: fixed voltage magnitude and angle.
    Slack,
    /// Generator (PV) bus: fixed active injection and voltage magnitude.
    Pv,
    /// Load (PQ) bus: fixed active and reactive injection.
    Pq,
}

/// A network node.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Bus {
    /// External bus number (as printed in IEEE case listings, 1-based).
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// Power-flow role.
    pub kind: BusKind,
    /// Initial / scheduled voltage magnitude (p.u.).
    pub vm_pu: f64,
    /// Initial voltage angle (degrees).
    pub va_deg: f64,
    /// Nominal voltage (kV), informational.
    pub base_kv: f64,
    /// Lower operating voltage limit (p.u.).
    pub vmin_pu: f64,
    /// Upper operating voltage limit (p.u.).
    pub vmax_pu: f64,
    /// Area / zone tag.
    pub area: u32,
}

impl Bus {
    /// A PQ bus with unit voltage and ±6 % limits — the common default.
    pub fn pq(id: u32, base_kv: f64) -> Self {
        Bus {
            id,
            name: format!("bus{id}"),
            kind: BusKind::Pq,
            vm_pu: 1.0,
            va_deg: 0.0,
            base_kv,
            vmin_pu: 0.94,
            vmax_pu: 1.06,
            area: 1,
        }
    }
}

/// A constant-power load.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Load {
    /// Internal index of the bus this load is attached to.
    pub bus: usize,
    /// Active demand (MW).
    pub p_mw: f64,
    /// Reactive demand (MVAr).
    pub q_mvar: f64,
    /// In-service flag.
    pub in_service: bool,
}

/// Polynomial generation cost `c2·P² + c1·P + c0` with `P` in MW, cost in
/// $/h.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct GenCost {
    /// Quadratic coefficient ($/MW²h).
    pub c2: f64,
    /// Linear coefficient ($/MWh).
    pub c1: f64,
    /// Constant term ($/h).
    pub c0: f64,
}

impl GenCost {
    /// Cost of producing `p_mw` for one hour.
    pub fn eval(&self, p_mw: f64) -> f64 {
        self.c2 * p_mw * p_mw + self.c1 * p_mw + self.c0
    }

    /// Marginal cost d(cost)/dP at `p_mw` ($/MWh).
    pub fn marginal(&self, p_mw: f64) -> f64 {
        2.0 * self.c2 * p_mw + self.c1
    }
}

/// A dispatchable generating unit.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Generator {
    /// Internal index of the connection bus.
    pub bus: usize,
    /// Scheduled / initial active output (MW).
    pub p_mw: f64,
    /// Initial reactive output (MVAr).
    pub q_mvar: f64,
    /// Voltage setpoint (p.u.) maintained at the connection bus.
    pub vm_setpoint_pu: f64,
    /// Minimum active output (MW).
    pub p_min_mw: f64,
    /// Maximum active output (MW).
    pub p_max_mw: f64,
    /// Minimum reactive output (MVAr).
    pub q_min_mvar: f64,
    /// Maximum reactive output (MVAr).
    pub q_max_mvar: f64,
    /// In-service flag.
    pub in_service: bool,
    /// Production cost curve.
    pub cost: GenCost,
}

/// Whether a branch is a plain AC line or a (tap-changing) transformer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchKind {
    /// Overhead line / cable at a single voltage level.
    Line,
    /// Two-winding transformer (tap ratio and phase shift meaningful).
    Transformer,
}

/// A series branch modelled as the standard pi-equivalent with off-nominal
/// tap on the *from* side.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Branch {
    /// Internal index of the from-bus.
    pub from_bus: usize,
    /// Internal index of the to-bus.
    pub to_bus: usize,
    /// Series resistance (p.u. on system base).
    pub r_pu: f64,
    /// Series reactance (p.u.).
    pub x_pu: f64,
    /// Total line-charging susceptance (p.u.).
    pub b_pu: f64,
    /// Off-nominal tap ratio (1.0 for lines).
    pub tap: f64,
    /// Phase shift (degrees).
    pub shift_deg: f64,
    /// Thermal rating (MVA); `0.0` means unlimited/unrated.
    pub rating_mva: f64,
    /// In-service flag.
    pub in_service: bool,
    /// Line vs transformer.
    pub kind: BranchKind,
}

impl Branch {
    /// A plain in-service line.
    pub fn line(from_bus: usize, to_bus: usize, r: f64, x: f64, b: f64, rating: f64) -> Self {
        Branch {
            from_bus,
            to_bus,
            r_pu: r,
            x_pu: x,
            b_pu: b,
            tap: 1.0,
            shift_deg: 0.0,
            rating_mva: rating,
            in_service: true,
            kind: BranchKind::Line,
        }
    }

    /// An in-service transformer with the given off-nominal tap.
    pub fn transformer(
        from_bus: usize,
        to_bus: usize,
        r: f64,
        x: f64,
        tap: f64,
        rating: f64,
    ) -> Self {
        Branch {
            from_bus,
            to_bus,
            r_pu: r,
            x_pu: x,
            b_pu: 0.0,
            tap,
            shift_deg: 0.0,
            rating_mva: rating,
            in_service: true,
            kind: BranchKind::Transformer,
        }
    }
}

/// A fixed shunt (e.g. capacitor bank), specified as the MW / MVAr it
/// injects at 1.0 p.u. voltage (generator sign convention: positive
/// `b_mvar` injects reactive power).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Shunt {
    /// Internal index of the bus.
    pub bus: usize,
    /// Active consumption at 1 p.u. (MW); positive consumes.
    pub g_mw: f64,
    /// Reactive injection at 1 p.u. (MVAr); positive injects.
    pub b_mvar: f64,
    /// In-service flag.
    pub in_service: bool,
}

/// Validation failure for a [`Network`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ModelError {
    /// No slack bus is defined.
    NoSlack,
    /// More than one slack bus is defined.
    MultipleSlack {
        /// External ids of the offending buses.
        buses: Vec<u32>,
    },
    /// Duplicate external bus id.
    DuplicateBusId {
        /// The repeated id.
        id: u32,
    },
    /// An element references a bus index out of range.
    DanglingReference {
        /// Element description (e.g. "gen 3").
        element: String,
        /// The invalid internal bus index.
        bus: usize,
    },
    /// A branch has non-positive reactance magnitude.
    DegenerateBranch {
        /// Branch index.
        index: usize,
    },
    /// A generator has inconsistent limits (min > max).
    BadGenLimits {
        /// Generator index.
        index: usize,
    },
    /// A bus has inconsistent voltage limits.
    BadVoltageLimits {
        /// External bus id.
        id: u32,
    },
    /// The system MVA base is not a positive finite number.
    BadBaseMva {
        /// The offending base (MVA).
        value: f64,
    },
    /// The in-service network is not fully connected.
    Islanded {
        /// Number of connected components.
        components: usize,
    },
    /// A numeric field of an element is NaN or infinite.
    NonFinite {
        /// Element description (e.g. "load 3").
        element: String,
        /// The field's name (e.g. "p_mw").
        field: String,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NoSlack => write!(f, "network has no slack bus"),
            ModelError::MultipleSlack { buses } => {
                write!(f, "network has multiple slack buses: {buses:?}")
            }
            ModelError::DuplicateBusId { id } => write!(f, "duplicate bus id {id}"),
            ModelError::DanglingReference { element, bus } => {
                write!(f, "{element} references nonexistent bus index {bus}")
            }
            ModelError::DegenerateBranch { index } => {
                write!(f, "branch {index} has |x| too small")
            }
            ModelError::BadGenLimits { index } => {
                write!(f, "generator {index} has min limit above max limit")
            }
            ModelError::BadVoltageLimits { id } => {
                write!(f, "bus {id} has vmin above vmax")
            }
            ModelError::BadBaseMva { value } => {
                write!(f, "system MVA base must be positive, got {value}")
            }
            ModelError::Islanded { components } => {
                write!(f, "in-service network splits into {components} islands")
            }
            ModelError::NonFinite {
                element,
                field,
                value,
            } => write!(f, "{element} has a non-finite {field}: {value}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A complete power system case.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Network {
    /// Case name (e.g. "IEEE 118-bus system").
    pub name: String,
    /// System MVA base.
    pub base_mva: f64,
    /// Buses, in internal index order.
    pub buses: Vec<Bus>,
    /// Loads.
    pub loads: Vec<Load>,
    /// Generators.
    pub gens: Vec<Generator>,
    /// Branches (lines and transformers).
    pub branches: Vec<Branch>,
    /// Fixed shunts.
    pub shunts: Vec<Shunt>,
}

impl Network {
    /// An empty network on a 100 MVA base.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            base_mva: 100.0,
            buses: Vec::new(),
            loads: Vec::new(),
            gens: Vec::new(),
            branches: Vec::new(),
            shunts: Vec::new(),
        }
    }

    /// Number of buses.
    pub fn n_bus(&self) -> usize {
        self.buses.len()
    }

    /// Internal index of the bus with external id `id`.
    pub fn bus_index(&self, id: u32) -> Option<usize> {
        self.buses.iter().position(|b| b.id == id)
    }

    /// The slack bus internal index, if exactly one exists.
    pub fn slack(&self) -> Option<usize> {
        let mut it = self
            .buses
            .iter()
            .enumerate()
            .filter(|(_, b)| b.kind == BusKind::Slack);
        match (it.next(), it.next()) {
            (Some((i, _)), None) => Some(i),
            _ => None,
        }
    }

    /// Total in-service active demand (MW).
    pub fn total_load_mw(&self) -> f64 {
        self.loads
            .iter()
            .filter(|l| l.in_service)
            .map(|l| l.p_mw)
            .sum()
    }

    /// Total in-service reactive demand (MVAr).
    pub fn total_load_mvar(&self) -> f64 {
        self.loads
            .iter()
            .filter(|l| l.in_service)
            .map(|l| l.q_mvar)
            .sum()
    }

    /// Total in-service generation capacity (MW).
    pub fn total_gen_capacity_mw(&self) -> f64 {
        self.gens
            .iter()
            .filter(|g| g.in_service)
            .map(|g| g.p_max_mw)
            .sum()
    }

    /// Count of in-service AC lines.
    pub fn n_lines(&self) -> usize {
        self.branches
            .iter()
            .filter(|b| b.kind == BranchKind::Line)
            .count()
    }

    /// Count of transformers.
    pub fn n_transformers(&self) -> usize {
        self.branches
            .iter()
            .filter(|b| b.kind == BranchKind::Transformer)
            .count()
    }

    /// Net scheduled injection at every bus in MW/MVAr (generation minus
    /// load), ignoring shunts. Used as the starting point for solvers.
    pub fn scheduled_injections(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.n_bus();
        let mut p = vec![0.0; n];
        let mut q = vec![0.0; n];
        for g in self.gens.iter().filter(|g| g.in_service) {
            p[g.bus] += g.p_mw;
            q[g.bus] += g.q_mvar;
        }
        for l in self.loads.iter().filter(|l| l.in_service) {
            p[l.bus] -= l.p_mw;
            q[l.bus] -= l.q_mvar;
        }
        (p, q)
    }

    /// Generators attached to bus `bus` (in-service only).
    pub fn gens_at(&self, bus: usize) -> impl Iterator<Item = (usize, &Generator)> {
        self.gens
            .iter()
            .enumerate()
            .filter(move |(_, g)| g.bus == bus && g.in_service)
    }

    /// Structural and electrical validation. Returns all problems found.
    ///
    /// Delegates to the [`GridLint`](crate::audit::GridLint) audit pass
    /// and projects its findings onto the legacy [`ModelError`] shape;
    /// run the pass directly via [`crate::audit::GridLint::audit`] for
    /// the full finding list including warnings.
    pub fn validate(&self) -> Result<(), Vec<ModelError>> {
        crate::audit::GridLint::default().check_model(self)
    }

    /// Deterministic content hash of the whole model — the one identity
    /// of a network state: solver-cache keys, per-outage cache keys and
    /// the session's freshness stamps all read it. Two networks hash
    /// equal iff every field of every bus, load, generator, branch and
    /// shunt is bit-for-bit identical (`-0.0` and `0.0` differ, as do
    /// NaN and ±∞), so any perturbation, e.g. of a single line rating,
    /// is a different key.
    ///
    /// A fixed-width [`Fnv1a`] walk: floats by `to_bits`, an element
    /// count ahead of each list, names as length-prefixed fields. Every
    /// struct is destructured without `..` on purpose: a new model field
    /// fails to compile here until it is hashed. Tens of microseconds at
    /// 118 buses, counted as `network.content_hash.calls`; a
    /// [`Snapshot`](crate::library::Snapshot) pays it once and carries
    /// the result.
    pub fn content_hash(&self) -> u64 {
        gm_telemetry::counter_add("network.content_hash.calls", 1);
        let Network {
            name,
            base_mva,
            buses,
            loads,
            gens,
            branches,
            shunts,
        } = self;
        let mut h = Fnv1a::new();
        h.field(name.as_bytes());
        h.u64(base_mva.to_bits());
        h.u64(buses.len() as u64);
        for bus in buses {
            let Bus {
                id,
                name,
                kind,
                vm_pu,
                va_deg,
                base_kv,
                vmin_pu,
                vmax_pu,
                area,
            } = bus;
            h.u64(u64::from(*id));
            h.field(name.as_bytes());
            h.u64(match kind {
                BusKind::Slack => 0,
                BusKind::Pv => 1,
                BusKind::Pq => 2,
            });
            h.u64(vm_pu.to_bits());
            h.u64(va_deg.to_bits());
            h.u64(base_kv.to_bits());
            h.u64(vmin_pu.to_bits());
            h.u64(vmax_pu.to_bits());
            h.u64(u64::from(*area));
        }
        h.u64(loads.len() as u64);
        for load in loads {
            let Load {
                bus,
                p_mw,
                q_mvar,
                in_service,
            } = load;
            h.u64(*bus as u64);
            h.u64(p_mw.to_bits());
            h.u64(q_mvar.to_bits());
            h.u64(u64::from(*in_service));
        }
        h.u64(gens.len() as u64);
        for gen in gens {
            let Generator {
                bus,
                p_mw,
                q_mvar,
                vm_setpoint_pu,
                p_min_mw,
                p_max_mw,
                q_min_mvar,
                q_max_mvar,
                in_service,
                cost: GenCost { c2, c1, c0 },
            } = gen;
            h.u64(*bus as u64);
            h.u64(p_mw.to_bits());
            h.u64(q_mvar.to_bits());
            h.u64(vm_setpoint_pu.to_bits());
            h.u64(p_min_mw.to_bits());
            h.u64(p_max_mw.to_bits());
            h.u64(q_min_mvar.to_bits());
            h.u64(q_max_mvar.to_bits());
            h.u64(u64::from(*in_service));
            h.u64(c2.to_bits());
            h.u64(c1.to_bits());
            h.u64(c0.to_bits());
        }
        h.u64(branches.len() as u64);
        for branch in branches {
            let Branch {
                from_bus,
                to_bus,
                r_pu,
                x_pu,
                b_pu,
                tap,
                shift_deg,
                rating_mva,
                in_service,
                kind,
            } = branch;
            h.u64(*from_bus as u64);
            h.u64(*to_bus as u64);
            h.u64(r_pu.to_bits());
            h.u64(x_pu.to_bits());
            h.u64(b_pu.to_bits());
            h.u64(tap.to_bits());
            h.u64(shift_deg.to_bits());
            h.u64(rating_mva.to_bits());
            h.u64(u64::from(*in_service));
            h.u64(match kind {
                BranchKind::Line => 0,
                BranchKind::Transformer => 1,
            });
        }
        h.u64(shunts.len() as u64);
        for shunt in shunts {
            let Shunt {
                bus,
                g_mw,
                b_mvar,
                in_service,
            } = shunt;
            h.u64(*bus as u64);
            h.u64(g_mw.to_bits());
            h.u64(b_mvar.to_bits());
            h.u64(u64::from(*in_service));
        }
        h.finish()
    }

    /// One-line inventory summary (the paper's "network summary" log line).
    pub fn summary(&self) -> NetworkSummary {
        NetworkSummary {
            case_name: self.name.clone(),
            buses: self.n_bus(),
            generators: self.gens.len(),
            loads: self.loads.len(),
            lines: self.n_lines(),
            transformers: self.n_transformers(),
            total_load_mw: self.total_load_mw(),
            total_gen_capacity_mw: self.total_gen_capacity_mw(),
        }
    }
}

/// Inventory counts for a case (Table 2 of the paper).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkSummary {
    /// Case name.
    pub case_name: String,
    /// Bus count.
    pub buses: usize,
    /// Generator count.
    pub generators: usize,
    /// Load count.
    pub loads: usize,
    /// AC line count.
    pub lines: usize,
    /// Transformer count.
    pub transformers: usize,
    /// Total active demand (MW).
    pub total_load_mw: f64,
    /// Total generation capacity (MW).
    pub total_gen_capacity_mw: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_bus() -> Network {
        let mut net = Network::new("two-bus");
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

    #[test]
    fn valid_network_passes() {
        assert!(two_bus().validate().is_ok());
    }

    #[test]
    fn content_hash_is_deterministic_and_parameter_sensitive() {
        let a = two_bus();
        let b = two_bus();
        assert_eq!(a.content_hash(), b.content_hash());
        // A one-line rating perturbation must change the hash: solver
        // results are rating-dependent, so the cache key must be too.
        let mut c = two_bus();
        c.branches[0].rating_mva += 1.0;
        assert_ne!(a.content_hash(), c.content_hash());
        // So must a load change…
        let mut d = two_bus();
        d.loads[0].p_mw += 0.5;
        assert_ne!(a.content_hash(), d.content_hash());
        // …and a service-status flip.
        let mut e = two_bus();
        e.branches[0].in_service = false;
        assert_ne!(a.content_hash(), e.content_hash());
    }

    #[test]
    fn totals() {
        let net = two_bus();
        assert_eq!(net.total_load_mw(), 50.0);
        assert_eq!(net.total_load_mvar(), 10.0);
        assert_eq!(net.total_gen_capacity_mw(), 200.0);
    }

    #[test]
    fn bus_lookup() {
        let net = two_bus();
        assert_eq!(net.bus_index(2), Some(1));
        assert_eq!(net.bus_index(99), None);
        assert_eq!(net.slack(), Some(0));
    }

    #[test]
    fn missing_slack_detected() {
        let mut net = two_bus();
        net.buses[0].kind = BusKind::Pv;
        let errs = net.validate().unwrap_err();
        assert!(errs.contains(&ModelError::NoSlack));
    }

    #[test]
    fn multiple_slack_detected() {
        let mut net = two_bus();
        net.buses[1].kind = BusKind::Slack;
        let errs = net.validate().unwrap_err();
        assert!(matches!(errs[0], ModelError::MultipleSlack { .. }));
    }

    #[test]
    fn duplicate_ids_detected() {
        let mut net = two_bus();
        net.buses[1].id = 1;
        let errs = net.validate().unwrap_err();
        assert!(errs.contains(&ModelError::DuplicateBusId { id: 1 }));
    }

    #[test]
    fn dangling_reference_detected() {
        let mut net = two_bus();
        net.loads[0].bus = 7;
        let errs = net.validate().unwrap_err();
        assert!(matches!(errs[0], ModelError::DanglingReference { .. }));
    }

    #[test]
    fn degenerate_branch_detected() {
        let mut net = two_bus();
        net.branches[0].x_pu = 0.0;
        let errs = net.validate().unwrap_err();
        assert!(errs.contains(&ModelError::DegenerateBranch { index: 0 }));
    }

    #[test]
    fn bad_limits_detected() {
        let mut net = two_bus();
        net.gens[0].p_min_mw = 300.0;
        net.buses[0].vmin_pu = 1.2;
        let errs = net.validate().unwrap_err();
        assert!(errs.contains(&ModelError::BadGenLimits { index: 0 }));
        assert!(errs.contains(&ModelError::BadVoltageLimits { id: 1 }));
    }

    #[test]
    fn island_detected() {
        let mut net = two_bus();
        net.branches[0].in_service = false;
        let errs = net.validate().unwrap_err();
        assert!(matches!(errs[0], ModelError::Islanded { components: 2 }));
    }

    #[test]
    fn cost_curve() {
        let c = GenCost {
            c2: 0.1,
            c1: 5.0,
            c0: 100.0,
        };
        assert_eq!(c.eval(10.0), 0.1 * 100.0 + 50.0 + 100.0);
        assert_eq!(c.marginal(10.0), 7.0);
    }

    #[test]
    fn scheduled_injections_sign_convention() {
        let net = two_bus();
        let (p, q) = net.scheduled_injections();
        assert_eq!(p, vec![50.0, -50.0]);
        assert_eq!(q, vec![0.0, -10.0]);
    }

    #[test]
    fn summary_inventory() {
        let s = two_bus().summary();
        assert_eq!(s.buses, 2);
        assert_eq!(s.lines, 1);
        assert_eq!(s.transformers, 0);
        assert_eq!(s.total_load_mw, 50.0);
    }
}
