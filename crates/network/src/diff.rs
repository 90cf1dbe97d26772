//! Incremental network modifications.
//!
//! GridMind's agents never mutate the base case directly: every change —
//! "increase the load at bus 10 to 50 MW", "take line 171 out" — is recorded
//! as a [`Modification`], applied to produce a derived network, and appended
//! to a chronological diff log (paper §3.2.1 "Memory" and §3.4). A diff log
//! can be replayed on a fresh copy of the base case to reconstruct state,
//! narrated, and persisted. It does not identify the state it leads to —
//! [`Network::content_hash`] of the edited network does, so an edit that
//! changes nothing keeps every cache entry and artifact valid.

use crate::model::Network;
use serde::{Deserialize, Serialize};

/// A single reversible network edit.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Modification {
    /// Set the active/reactive demand of every load at the bus with the
    /// given external id. `q_mvar = None` keeps the existing power factor.
    SetBusLoad {
        /// External bus id.
        bus_id: u32,
        /// New total active demand at the bus (MW).
        p_mw: f64,
        /// New reactive demand; `None` scales Q with P.
        q_mvar: Option<f64>,
    },
    /// Scale every in-service load by a factor.
    ScaleAllLoads {
        /// Multiplier applied to both P and Q.
        factor: f64,
    },
    /// Take a branch out of service.
    OutageBranch {
        /// Branch index into `Network::branches`.
        index: usize,
    },
    /// Return a branch to service.
    RestoreBranch {
        /// Branch index into `Network::branches`.
        index: usize,
    },
    /// Take a generator out of service.
    OutageGen {
        /// Generator index into `Network::gens`.
        index: usize,
    },
    /// Change a generator's active power limits.
    SetGenLimits {
        /// Generator index.
        index: usize,
        /// New minimum (MW).
        p_min_mw: f64,
        /// New maximum (MW).
        p_max_mw: f64,
    },
}

/// Errors from applying a modification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DiffError {
    /// The referenced bus id does not exist.
    UnknownBus {
        /// External bus id.
        bus_id: u32,
    },
    /// The bus exists but carries no load to modify.
    NoLoadAtBus {
        /// External bus id.
        bus_id: u32,
    },
    /// Branch or generator index out of range.
    IndexOutOfRange {
        /// Offending index.
        index: usize,
        /// Element kind ("branch" / "gen").
        kind: String,
    },
    /// A numeric argument was not finite or not positive where required.
    BadArgument {
        /// Explanation.
        reason: String,
    },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::UnknownBus { bus_id } => write!(f, "bus {bus_id} does not exist"),
            DiffError::NoLoadAtBus { bus_id } => write!(f, "bus {bus_id} has no load"),
            DiffError::IndexOutOfRange { index, kind } => {
                write!(f, "{kind} index {index} out of range")
            }
            DiffError::BadArgument { reason } => write!(f, "bad argument: {reason}"),
        }
    }
}

impl std::error::Error for DiffError {}

/// A NaN or infinite MW / MVAr value is never a legitimate what-if, and
/// `validate()` has no finiteness rule to catch one downstream.
fn finite(what: &str, x: f64) -> Result<(), DiffError> {
    if x.is_finite() {
        return Ok(());
    }
    Err(DiffError::BadArgument {
        reason: format!("{what} = {x}"),
    })
}

impl Modification {
    /// Applies the edit to `net` in place. A rejected edit leaves `net`
    /// untouched.
    pub fn apply(&self, net: &mut Network) -> Result<(), DiffError> {
        match *self {
            Modification::SetBusLoad {
                bus_id,
                p_mw,
                q_mvar,
            } => {
                finite("p_mw", p_mw)?;
                if let Some(q_mvar) = q_mvar {
                    finite("q_mvar", q_mvar)?;
                }
                let bus = net
                    .bus_index(bus_id)
                    .ok_or(DiffError::UnknownBus { bus_id })?;
                let loads: Vec<usize> = net
                    .loads
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.bus == bus)
                    .map(|(i, _)| i)
                    .collect();
                if loads.is_empty() {
                    // Creating a load where none existed is a legitimate
                    // what-if; attach a fresh one.
                    net.loads.push(crate::model::Load {
                        bus,
                        p_mw,
                        q_mvar: q_mvar.unwrap_or(p_mw * 0.2),
                        in_service: true,
                    });
                    return Ok(());
                }
                let old_p: f64 = loads.iter().map(|&i| net.loads[i].p_mw).sum();
                let old_q: f64 = loads.iter().map(|&i| net.loads[i].q_mvar).sum();
                // Put the whole new demand on the first load at the bus and
                // zero the rest: simplest auditable semantics.
                for (k, &i) in loads.iter().enumerate() {
                    if k == 0 {
                        net.loads[i].p_mw = p_mw;
                        net.loads[i].q_mvar = q_mvar.unwrap_or_else(|| {
                            if old_p.abs() > 1e-9 {
                                old_q * p_mw / old_p
                            } else {
                                p_mw * 0.2
                            }
                        });
                    } else {
                        net.loads[i].p_mw = 0.0;
                        net.loads[i].q_mvar = 0.0;
                    }
                }
                Ok(())
            }
            Modification::ScaleAllLoads { factor } => {
                if !(factor.is_finite() && factor >= 0.0) {
                    return Err(DiffError::BadArgument {
                        reason: format!("scale factor = {factor}"),
                    });
                }
                for l in &mut net.loads {
                    l.p_mw *= factor;
                    l.q_mvar *= factor;
                }
                Ok(())
            }
            Modification::OutageBranch { index } => {
                let br = net
                    .branches
                    .get_mut(index)
                    .ok_or(DiffError::IndexOutOfRange {
                        index,
                        kind: "branch".to_string(),
                    })?;
                br.in_service = false;
                Ok(())
            }
            Modification::RestoreBranch { index } => {
                let br = net
                    .branches
                    .get_mut(index)
                    .ok_or(DiffError::IndexOutOfRange {
                        index,
                        kind: "branch".to_string(),
                    })?;
                br.in_service = true;
                Ok(())
            }
            Modification::OutageGen { index } => {
                let g = net.gens.get_mut(index).ok_or(DiffError::IndexOutOfRange {
                    index,
                    kind: "gen".to_string(),
                })?;
                g.in_service = false;
                Ok(())
            }
            Modification::SetGenLimits {
                index,
                p_min_mw,
                p_max_mw,
            } => {
                finite("p_min_mw", p_min_mw)?;
                finite("p_max_mw", p_max_mw)?;
                if p_min_mw > p_max_mw {
                    return Err(DiffError::BadArgument {
                        reason: format!("p_min {p_min_mw} > p_max {p_max_mw}"),
                    });
                }
                let g = net.gens.get_mut(index).ok_or(DiffError::IndexOutOfRange {
                    index,
                    kind: "gen".to_string(),
                })?;
                g.p_min_mw = p_min_mw;
                g.p_max_mw = p_max_mw;
                Ok(())
            }
        }
    }

    /// Short human-readable description for audit narration.
    pub fn describe(&self) -> String {
        match self {
            Modification::SetBusLoad { bus_id, p_mw, .. } => {
                format!("set load at bus {bus_id} to {p_mw} MW")
            }
            Modification::ScaleAllLoads { factor } => {
                format!("scale all loads by {factor}")
            }
            Modification::OutageBranch { index } => format!("outage branch {index}"),
            Modification::RestoreBranch { index } => format!("restore branch {index}"),
            Modification::OutageGen { index } => format!("outage generator {index}"),
            Modification::SetGenLimits {
                index,
                p_min_mw,
                p_max_mw,
            } => format!("set gen {index} limits to [{p_min_mw}, {p_max_mw}] MW"),
        }
    }
}

/// Chronological log of applied modifications (the paper's "normalized
/// change log", §3.4).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DiffLog {
    entries: Vec<Modification>,
}

impl DiffLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies and records a modification.
    pub fn apply(&mut self, net: &mut Network, m: Modification) -> Result<(), DiffError> {
        m.apply(net)?;
        self.entries.push(m);
        Ok(())
    }

    /// Recorded entries in order.
    pub fn entries(&self) -> &[Modification] {
        &self.entries
    }

    /// Number of recorded modifications.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays the full log onto a fresh copy of `base` (state
    /// reconstruction, §3.4).
    pub fn replay(&self, base: &Network) -> Result<Network, DiffError> {
        let mut net = base.clone();
        for m in &self.entries {
            m.apply(&mut net)?;
        }
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Branch, Bus, BusKind, GenCost, Generator, Load};

    fn base() -> Network {
        let mut net = Network::new("t");
        let mut s = Bus::pq(1, 138.0);
        s.kind = BusKind::Slack;
        net.buses.push(s);
        net.buses.push(Bus::pq(2, 138.0));
        net.buses.push(Bus::pq(10, 138.0));
        net.branches.push(Branch::line(0, 1, 0.01, 0.1, 0.0, 100.0));
        net.branches.push(Branch::line(1, 2, 0.01, 0.1, 0.0, 100.0));
        net.loads.push(Load {
            bus: 1,
            p_mw: 40.0,
            q_mvar: 10.0,
            in_service: true,
        });
        net.gens.push(Generator {
            bus: 0,
            p_mw: 40.0,
            q_mvar: 0.0,
            vm_setpoint_pu: 1.0,
            p_min_mw: 0.0,
            p_max_mw: 100.0,
            q_min_mvar: -50.0,
            q_max_mvar: 50.0,
            in_service: true,
            cost: GenCost {
                c2: 0.0,
                c1: 10.0,
                c0: 0.0,
            },
        });
        net
    }

    #[test]
    fn set_bus_load_preserves_power_factor() {
        let mut net = base();
        Modification::SetBusLoad {
            bus_id: 2,
            p_mw: 80.0,
            q_mvar: None,
        }
        .apply(&mut net)
        .unwrap();
        assert_eq!(net.loads[0].p_mw, 80.0);
        assert!((net.loads[0].q_mvar - 20.0).abs() < 1e-12); // pf preserved
    }

    #[test]
    fn set_bus_load_creates_load_when_absent() {
        let mut net = base();
        Modification::SetBusLoad {
            bus_id: 10,
            p_mw: 50.0,
            q_mvar: Some(12.0),
        }
        .apply(&mut net)
        .unwrap();
        assert_eq!(net.loads.len(), 2);
        assert_eq!(net.loads[1].p_mw, 50.0);
        assert_eq!(net.loads[1].q_mvar, 12.0);
    }

    #[test]
    fn unknown_bus_rejected() {
        let mut net = base();
        let err = Modification::SetBusLoad {
            bus_id: 99,
            p_mw: 1.0,
            q_mvar: None,
        }
        .apply(&mut net)
        .unwrap_err();
        assert_eq!(err, DiffError::UnknownBus { bus_id: 99 });
    }

    #[test]
    fn outage_and_restore_round_trip() {
        let mut net = base();
        Modification::OutageBranch { index: 1 }
            .apply(&mut net)
            .unwrap();
        assert!(!net.branches[1].in_service);
        Modification::RestoreBranch { index: 1 }
            .apply(&mut net)
            .unwrap();
        assert!(net.branches[1].in_service);
    }

    #[test]
    fn out_of_range_index() {
        let mut net = base();
        assert!(matches!(
            Modification::OutageBranch { index: 9 }.apply(&mut net),
            Err(DiffError::IndexOutOfRange { .. })
        ));
    }

    #[test]
    fn scale_loads() {
        let mut net = base();
        Modification::ScaleAllLoads { factor: 1.5 }
            .apply(&mut net)
            .unwrap();
        assert_eq!(net.loads[0].p_mw, 60.0);
        assert!(Modification::ScaleAllLoads { factor: -1.0 }
            .apply(&mut net)
            .is_err());
    }

    #[test]
    fn gen_limits_validated() {
        let mut net = base();
        assert!(Modification::SetGenLimits {
            index: 0,
            p_min_mw: 50.0,
            p_max_mw: 10.0
        }
        .apply(&mut net)
        .is_err());
        Modification::SetGenLimits {
            index: 0,
            p_min_mw: 5.0,
            p_max_mw: 80.0,
        }
        .apply(&mut net)
        .unwrap();
        assert_eq!(net.gens[0].p_max_mw, 80.0);
    }

    #[test]
    fn log_replay_reconstructs_state() {
        let b = base();
        let mut live = b.clone();
        let mut log = DiffLog::new();
        log.apply(
            &mut live,
            Modification::SetBusLoad {
                bus_id: 2,
                p_mw: 55.0,
                q_mvar: None,
            },
        )
        .unwrap();
        log.apply(&mut live, Modification::OutageBranch { index: 0 })
            .unwrap();
        let replayed = log.replay(&b).unwrap();
        assert_eq!(replayed.loads[0].p_mw, live.loads[0].p_mw);
        assert_eq!(replayed.branches[0].in_service, live.branches[0].in_service);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn failed_apply_not_recorded() {
        let mut net = base();
        let mut log = DiffLog::new();
        let r = log.apply(
            &mut net,
            Modification::SetBusLoad {
                bus_id: 77,
                p_mw: 1.0,
                q_mvar: None,
            },
        );
        assert!(r.is_err());
        assert!(log.is_empty());
    }

    #[test]
    fn non_finite_arguments_are_rejected_and_change_nothing() {
        let load = |p_mw, q_mvar| Modification::SetBusLoad {
            bus_id: 2,
            p_mw,
            q_mvar,
        };
        let limits = |p_min_mw, p_max_mw| Modification::SetGenLimits {
            index: 0,
            p_min_mw,
            p_max_mw,
        };
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let rejected = [
            load(nan, None),
            load(inf, Some(1.0)),
            load(10.0, Some(nan)),
            load(10.0, Some(-inf)),
            Modification::ScaleAllLoads { factor: nan },
            Modification::ScaleAllLoads { factor: inf },
            limits(nan, 5.0),
            limits(5.0, nan),
            limits(-inf, 5.0),
            limits(0.0, inf),
        ];
        let before = base().content_hash();
        for m in rejected {
            let mut net = base();
            let err = m.apply(&mut net).unwrap_err();
            assert!(matches!(err, DiffError::BadArgument { .. }), "{m:?}: {err}");
            assert_eq!(net.content_hash(), before, "{m:?} edited the network");
        }
    }

    #[test]
    fn describe_is_human_readable() {
        let d = Modification::SetBusLoad {
            bus_id: 10,
            p_mw: 50.0,
            q_mvar: None,
        }
        .describe();
        assert!(d.contains("bus 10"));
        assert!(d.contains("50"));
    }
}
