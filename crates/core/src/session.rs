//! Shared, versioned session state (§3.4 "Cross-Agent Context
//! Management").
//!
//! All agents collaborate through one [`SessionContext`]: the active
//! network plus incremental diffs, validated numerical artifacts (latest
//! ACOPF solution, base power flow, contingency report), the per-outage
//! cache, and provenance. A network state has one identity, the content
//! hash its [`Snapshot`] carries ([`SessionContext::net_hash`]): an
//! artifact deposited at hash `h` is reusable exactly while the current
//! network hashes to `h`, the per-outage cache and the shared solver
//! cache key on the same number, and the diff log is what the paper says
//! it is — change log, replay, narration, persistence.
//!
//! The base power flow and contingency artifacts are shared, not copied:
//! a tool deposits the allocation the solver cache handed it, and a
//! `fresh_*` read hands out another handle on it.

use gm_acopf::AcopfSolution;
use gm_contingency::{ContingencyCache, ContingencyReport};
use gm_network::diff::DiffError;
use gm_network::{library, DiffLog, Modification, Network, Snapshot};
use gm_powerflow::PfReport;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An artifact stamped with the network it was computed on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Stamped<T> {
    /// The artifact.
    pub value: T,
    /// Content hash of the session network at computation time.
    pub net_hash: u64,
    /// Virtual timestamp (seconds) at computation time.
    pub at_s: f64,
}

/// The shared session.
#[derive(Debug, Default)]
pub struct SessionContext {
    inner: RwLock<SessionState>,
    /// Per-outage contingency cache (keyed by network hash + outage +
    /// options; holds the current network's outcomes only).
    pub cache: ContingencyCache,
    /// Session-scoped telemetry: every tool call, solver iteration, and
    /// routing decision of this session lands here, and [`SessionContext::save`]
    /// embeds the snapshot so saved sessions carry their own trace.
    pub telemetry: gm_telemetry::Registry,
    /// Cross-session solver result cache, injected by gm-serve. `None`
    /// for standalone sessions — every solve then runs the solver.
    pub solver_cache: Option<crate::solver_cache::SharedSolverCache>,
}

/// Serializable core of the session.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SessionState {
    /// Canonical name of the active case ("case118").
    pub active_case: Option<String>,
    /// Pristine base network of the active case — the library's own
    /// allocation, shared with every other session on that case.
    pub base: Option<Snapshot>,
    /// Network with all modifications applied. Shares `base`'s
    /// allocation until the first edit; each edit installs a fresh
    /// snapshot (copy-on-write), so handed-out snapshots never change.
    pub current: Option<Snapshot>,
    /// Chronological modification log.
    pub diffs: DiffLog,
    /// Latest ACOPF solution (stamped).
    pub acopf: Option<Stamped<AcopfSolution>>,
    /// Latest base power flow (stamped).
    pub base_pf: Option<Stamped<Arc<PfReport>>>,
    /// Latest contingency report (stamped).
    pub contingency: Option<Stamped<Arc<ContingencyReport>>>,
}

impl SessionState {
    /// Carried content hash of the current network (zero with no case).
    fn net_hash(&self) -> u64 {
        self.current.as_ref().map_or(0, Snapshot::content_hash)
    }

    /// `value` stamped with the current network.
    fn stamp<T>(&self, value: T, at_s: f64) -> Stamped<T> {
        Stamped {
            value,
            net_hash: self.net_hash(),
            at_s,
        }
    }

    /// The artifact in `slot` if it was computed on the current network.
    /// Counts the outcome as `session.<artifact>.fresh`, `.stale`
    /// (present but stamped with another network) or `.absent`.
    fn fresh<T: Clone>(&self, artifact: &str, slot: &Option<Stamped<T>>) -> Option<T> {
        let hash = self.net_hash();
        let found = slot.as_ref().filter(|st| st.net_hash == hash);
        let outcome = match (found, slot) {
            (Some(_), _) => "fresh",
            (None, Some(_)) => "stale",
            (None, None) => "absent",
        };
        gm_telemetry::counter_add(&format!("session.{artifact}.{outcome}"), 1);
        found.map(|st| st.value.clone())
    }
}

/// Shared handle used by tools and the coordinator.
pub type SharedSession = Arc<SessionContext>;

/// Session-level errors.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// No case has been loaded yet.
    NoActiveCase,
    /// The requested case could not be identified.
    UnknownCase(String),
    /// A modification failed.
    BadModification(DiffError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::NoActiveCase => {
                write!(f, "no case loaded; ask to solve a case first")
            }
            SessionError::UnknownCase(c) => write!(f, "unknown case {c:?}"),
            SessionError::BadModification(m) => write!(f, "modification failed: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl SessionContext {
    /// Fresh empty session.
    pub fn new() -> SharedSession {
        Arc::new(SessionContext::default())
    }

    /// Fresh session wired to a shared cross-session solver cache: tool
    /// invocations consult the cache before running a solver, and
    /// deposit their results into it afterwards.
    pub fn new_with_solver_cache(cache: crate::solver_cache::SharedSolverCache) -> SharedSession {
        Arc::new(SessionContext {
            solver_cache: Some(cache),
            ..Default::default()
        })
    }

    /// Loads (or switches to) a case by fuzzy name, returning the
    /// current network and the identification confidence. Resets diffs
    /// and stale artifacts when the case changes; naming the case that
    /// is already active costs the name canonicalisation and nothing
    /// else.
    pub fn load_case(&self, name: &str) -> Result<(Snapshot, f64), SessionError> {
        let (key, confidence) =
            library::identify(name).ok_or_else(|| SessionError::UnknownCase(name.to_string()))?;
        let mut s = self.inner.write();
        if s.active_case.as_deref() != Some(key.short_name()) {
            let net = library::case(key);
            *s = SessionState {
                active_case: Some(key.short_name().to_string()),
                base: Some(net.clone()),
                current: Some(net),
                ..Default::default()
            };
        }
        let current = s.current.clone().ok_or(SessionError::NoActiveCase)?;
        Ok((current, confidence))
    }

    /// The current (modified) network: a shared handle, not a copy.
    pub fn current_network(&self) -> Result<Snapshot, SessionError> {
        self.inner
            .read()
            .current
            .clone()
            .ok_or(SessionError::NoActiveCase)
    }

    /// Canonical active case name.
    pub fn active_case(&self) -> Option<String> {
        self.inner.read().active_case.clone()
    }

    /// Applies and records a modification (invalidates nothing by itself:
    /// freshness is hash-based, so an edit that leaves the network bit
    /// for bit as it was stales nothing).
    pub fn apply(&self, m: Modification) -> Result<(), SessionError> {
        let mut s = self.inner.write();
        let mut net = match &s.current {
            Some(n) => Network::clone(n),
            None => return Err(SessionError::NoActiveCase),
        };
        s.diffs
            .apply(&mut net, m)
            .map_err(SessionError::BadModification)?;
        s.current = Some(Snapshot::new(net));
        Ok(())
    }

    /// Content hash of the current network — the freshness stamp and
    /// the network half of every cache key. Zero before a case is loaded.
    pub fn net_hash(&self) -> u64 {
        self.inner.read().net_hash()
    }

    /// Forwards to [`Self::net_hash`]; kept for `benchmark/`, which may
    /// not be edited outside a benchmark-only PR.
    pub fn diff_hash(&self) -> u64 {
        self.net_hash()
    }

    /// Number of recorded modifications.
    pub fn diff_count(&self) -> usize {
        self.inner.read().diffs.len()
    }

    /// Human-readable diff descriptions, chronological.
    pub fn diff_descriptions(&self) -> Vec<String> {
        self.inner
            .read()
            .diffs
            .entries()
            .iter()
            .map(|m| m.describe())
            .collect()
    }

    /// Deposits a solved ACOPF (stamped at the current hash).
    pub fn put_acopf(&self, sol: AcopfSolution, at_s: f64) {
        let mut s = self.inner.write();
        s.acopf = Some(s.stamp(sol, at_s));
    }

    /// The latest ACOPF solution *if still fresh* (computed on the
    /// current network).
    pub fn fresh_acopf(&self) -> Option<AcopfSolution> {
        let s = self.inner.read();
        s.fresh("acopf", &s.acopf)
    }

    /// The latest ACOPF solution regardless of freshness, with staleness
    /// flag.
    pub fn any_acopf(&self) -> Option<(AcopfSolution, bool)> {
        let s = self.inner.read();
        let hash = s.net_hash();
        s.acopf
            .as_ref()
            .map(|st| (st.value.clone(), st.net_hash != hash))
    }

    /// Deposits a base power flow report (a shared one is kept as is).
    pub fn put_base_pf(&self, rep: impl Into<Arc<PfReport>>, at_s: f64) {
        let mut s = self.inner.write();
        s.base_pf = Some(s.stamp(rep.into(), at_s));
    }

    /// Fresh base power flow, if any.
    pub fn fresh_base_pf(&self) -> Option<Arc<PfReport>> {
        let s = self.inner.read();
        s.fresh("base_pf", &s.base_pf)
    }

    /// Deposits a contingency report (a shared one is kept as is).
    pub fn put_contingency(&self, rep: impl Into<Arc<ContingencyReport>>, at_s: f64) {
        let mut s = self.inner.write();
        s.contingency = Some(s.stamp(rep.into(), at_s));
    }

    /// Fresh contingency report, if any.
    pub fn fresh_contingency(&self) -> Option<Arc<ContingencyReport>> {
        let s = self.inner.read();
        s.fresh("contingency", &s.contingency)
    }

    /// Serializes the session for persistence (§3.4 "Session persistence
    /// serializes baseline, diffs, artifacts…").
    pub fn save(&self) -> serde_json::Value {
        // Cannot fail: the vendored `serde::Serialize` builds a `Value`
        // infallibly and `serde_json::to_value` only wraps it in `Ok`.
        #[allow(clippy::expect_used)]
        let mut blob = serde_json::to_value(&*self.inner.read()).expect("session serializes");
        // Saved sessions carry their own trace: the full telemetry
        // snapshot (spans, counters, events) rides along under a key the
        // restore path ignores, replayable with `gm-trace <file>`.
        blob["telemetry"] = self.telemetry.export();
        blob
    }

    /// Restores a persisted session. The embedded `"telemetry"` snapshot
    /// (if any) is informational — the restored session starts a fresh
    /// registry.
    pub fn restore(blob: &serde_json::Value) -> Result<SharedSession, serde_json::Error> {
        let state: SessionState = serde_json::from_value(blob.clone())?;
        Ok(Arc::new(SessionContext {
            inner: RwLock::new(state),
            cache: ContingencyCache::new(),
            telemetry: gm_telemetry::Registry::new(),
            solver_cache: None,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_acopf::{solve_acopf, AcopfOptions};

    #[test]
    fn load_and_switch_cases() {
        let s = SessionContext::new();
        let (net, conf) = s.load_case("ieee 14").unwrap();
        assert_eq!(net.n_bus(), 14);
        assert!(conf > 0.9);
        assert_eq!(s.active_case().as_deref(), Some("case14"));
        // Switching resets diffs.
        s.apply(Modification::ScaleAllLoads { factor: 1.1 })
            .unwrap();
        assert_eq!(s.diff_count(), 1);
        s.load_case("case30").unwrap();
        assert_eq!(s.diff_count(), 0);
        assert_eq!(s.active_case().as_deref(), Some("case30"));
    }

    #[test]
    fn reload_same_case_preserves_state() {
        let s = SessionContext::new();
        s.load_case("case14").unwrap();
        s.apply(Modification::ScaleAllLoads { factor: 1.2 })
            .unwrap();
        s.load_case("14").unwrap(); // same case, fuzzy name
        assert_eq!(s.diff_count(), 1, "same-case reload must not reset");
    }

    #[test]
    fn unknown_case_rejected() {
        let s = SessionContext::new();
        assert!(matches!(
            s.load_case("case9999"),
            Err(SessionError::UnknownCase(_))
        ));
        assert!(matches!(
            s.current_network(),
            Err(SessionError::NoActiveCase)
        ));
    }

    #[test]
    fn freshness_tracks_diff_hash() {
        let s = SessionContext::new();
        s.load_case("case14").unwrap();
        let net = s.current_network().unwrap();
        let sol = solve_acopf(&net, &AcopfOptions::default()).unwrap();
        s.put_acopf(sol, 1.0);
        assert!(s.fresh_acopf().is_some());
        // A modification stales the artifact…
        s.apply(Modification::SetBusLoad {
            bus_id: 10,
            p_mw: 20.0,
            q_mvar: None,
        })
        .unwrap();
        assert!(s.fresh_acopf().is_none());
        // …but it is still retrievable as stale.
        let (stale, is_stale) = s.any_acopf().unwrap();
        assert!(is_stale);
        assert!(stale.solved);
    }

    #[test]
    fn modifications_accumulate_on_current() {
        let s = SessionContext::new();
        s.load_case("case14").unwrap();
        let before = s.current_network().unwrap().total_load_mw();
        s.apply(Modification::SetBusLoad {
            bus_id: 10,
            p_mw: 50.0,
            q_mvar: None,
        })
        .unwrap();
        let after = s.current_network().unwrap().total_load_mw();
        assert!((after - before - 41.0).abs() < 1e-9); // 9 MW → 50 MW
        assert_eq!(s.diff_descriptions(), vec!["set load at bus 10 to 50 MW"]);
    }

    #[test]
    fn bad_modification_not_recorded() {
        let s = SessionContext::new();
        s.load_case("case14").unwrap();
        let err = s
            .apply(Modification::SetBusLoad {
                bus_id: 999,
                p_mw: 1.0,
                q_mvar: None,
            })
            .unwrap_err();
        assert!(matches!(err, SessionError::BadModification(_)));
        assert_eq!(s.diff_count(), 0);
    }

    #[test]
    fn sessions_saved_with_a_sketch_resolution_field_still_restore() {
        // A session blob saved while a telemetry sketch's resolution was
        // a field (`"sub": 32`, the only value ever written).
        let blob: serde_json::Value = serde_json::from_str(
            r#"{"acopf":null,"active_case":null,"base":null,"base_pf":null,"contingency":null,"current":null,"diffs":{"entries":[]},"telemetry":{"counters":{"pf.newton.solves":2},"events":[],"flight":[],"histograms":{},"quantiles":{"serve.exec_s":{"count":2,"counts":[1,1],"max":0.000000001,"min":0.0000000005,"sub":32,"sum":0.0000000015000000000000002}},"spans":[{"attrs":{"agent":"x"},"dur_s":0.000000157,"id":0,"name":"agent.turn","parent":null,"start_s":0.000027902,"v_end_s":0.0,"v_start_s":0.0}],"virtual_now_s":0.0,"wall_elapsed_s":0.000037348}}"#,
        )
        .unwrap();
        let restored = SessionContext::restore(&blob).unwrap();
        assert_eq!(restored.active_case(), None);
        let snap = gm_telemetry::find_snapshot(&blob).expect("embedded trace parses");
        assert_eq!(snap.quantiles["serve.exec_s"].count, 2);
        let report = gm_telemetry::render_report(&blob).expect("renders");
        assert!(report.contains("serve.exec_s"), "{report}");
    }

    #[test]
    fn save_embeds_telemetry_and_restore_ignores_it() {
        let s = SessionContext::new();
        s.load_case("case14").unwrap();
        {
            let _g = s.telemetry.install();
            gm_telemetry::counter_add("pf.newton.solves", 3);
        }
        let blob = s.save();
        assert_eq!(
            blob["telemetry"]["counters"]["pf.newton.solves"].as_u64(),
            Some(3)
        );
        let restored = SessionContext::restore(&blob).unwrap();
        assert_eq!(restored.active_case().as_deref(), Some("case14"));
        // The restored session starts a fresh trace.
        assert_eq!(restored.telemetry.counter_value("pf.newton.solves"), 0);
    }

    #[test]
    fn freshness_counters_track_artifact_outcomes() {
        let s = SessionContext::new();
        s.load_case("case14").unwrap();
        let _g = s.telemetry.install();
        assert!(s.fresh_base_pf().is_none()); // absent
        let net = s.current_network().unwrap();
        let rep = gm_powerflow::solve(&net, &gm_powerflow::PfOptions::default()).unwrap();
        s.put_base_pf(rep, 1.0);
        assert!(s.fresh_base_pf().is_some()); // fresh
        s.apply(Modification::ScaleAllLoads { factor: 1.1 })
            .unwrap();
        assert!(s.fresh_base_pf().is_none()); // stale
        assert_eq!(s.telemetry.counter_value("session.base_pf.absent"), 1);
        assert_eq!(s.telemetry.counter_value("session.base_pf.fresh"), 1);
        assert_eq!(s.telemetry.counter_value("session.base_pf.stale"), 1);
    }

    #[test]
    fn session_persistence_round_trip() {
        let s = SessionContext::new();
        s.load_case("case30").unwrap();
        s.apply(Modification::ScaleAllLoads { factor: 0.9 })
            .unwrap();
        let blob = s.save();
        let restored = SessionContext::restore(&blob).unwrap();
        assert_eq!(restored.active_case().as_deref(), Some("case30"));
        assert_eq!(restored.diff_count(), 1);
        let net = restored.current_network().unwrap();
        assert!((net.total_load_mw() - 283.4 * 0.9).abs() < 1e-6);
    }
}
