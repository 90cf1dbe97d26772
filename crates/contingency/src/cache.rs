//! Contingency result cache.
//!
//! §3.4 of the paper: "Each outage evaluation is cached under a composite
//! key (case + outage + diff hash)". The cache lets compound agent
//! requests ("solve, assess T-1 risk, rank reinforcements") reuse every
//! per-outage power flow that is still fresh, and invalidates naturally
//! when the diff log changes the network.

use crate::types::ContingencyOutcome;
use parking_lot::RwLock;
use std::collections::HashMap;

/// Composite cache key.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Case name.
    pub case: String,
    /// Branch index of the outage.
    pub outage_branch: usize,
    /// Hash of the applied modification log.
    pub diff_hash: u64,
    /// Fingerprint of every sweep option the outcome can depend on: the
    /// voltage band, thermal threshold, power-flow controls, and the
    /// sweep mode with its screening knobs (cascade and brute outcomes
    /// agree to solver tolerance but not bit-for-bit). Only `parallel`
    /// and the ranking strategy are left out, so a re-ranking of the
    /// same sweep still hits.
    pub options: u64,
}

/// Thread-safe per-outage result cache with hit/miss accounting.
#[derive(Debug, Default)]
pub struct ContingencyCache {
    map: RwLock<HashMap<CacheKey, ContingencyOutcome>>,
    hits: RwLock<u64>,
    misses: RwLock<u64>,
}

impl ContingencyCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches a cached outcome, counting the hit/miss.
    pub fn get(&self, key: &CacheKey) -> Option<ContingencyOutcome> {
        let found = self.map.read().get(key).cloned();
        if found.is_some() {
            *self.hits.write() += 1;
            gm_telemetry::counter_add("ca.cache.hits", 1);
        } else {
            *self.misses.write() += 1;
            gm_telemetry::counter_add("ca.cache.misses", 1);
        }
        found
    }

    /// Stores an outcome.
    pub fn put(&self, key: CacheKey, outcome: ContingencyOutcome) {
        self.map.write().insert(key, outcome);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (*self.hits.read(), *self.misses.read())
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// Drops every entry for a case (e.g. after an irreversible edit).
    pub fn invalidate_case(&self, case: &str) {
        self.map.write().retain(|k, _| k.case != case);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CaOptions;
    use crate::types::{Outage, RankingStrategy, SweepMode};
    use gm_network::BranchKind;

    fn outcome(branch: usize) -> ContingencyOutcome {
        ContingencyOutcome {
            outage: Outage {
                branch,
                kind: BranchKind::Line,
            },
            kind_index: branch,
            converged: true,
            islands: false,
            stranded_buses: 0,
            violations: vec![],
            max_loading_pct: 42.0,
            min_vm: (1.0, 1),
            load_shed_mw: 0.0,
            ac_solved: true,
        }
    }

    fn key(case: &str, branch: usize, diff: u64) -> CacheKey {
        CacheKey {
            case: case.into(),
            outage_branch: branch,
            diff_hash: diff,
            options: CaOptions::default().outcome_fingerprint(),
        }
    }

    #[test]
    fn option_fingerprints_do_not_alias() {
        let cache = ContingencyCache::new();
        cache.put(key("c14", 0, 1), outcome(0));
        let keyed = |tweak: fn(&mut CaOptions)| {
            let mut opts = CaOptions::default();
            tweak(&mut opts);
            CacheKey {
                options: opts.outcome_fingerprint(),
                ..key("c14", 0, 1)
            }
        };
        // Anything an outcome can depend on keys apart ...
        let outcome_relevant: [fn(&mut CaOptions); 4] = [
            |o| o.mode = SweepMode::Brute,
            |o| o.vmin_pu = 1.0,
            |o| o.thermal_threshold_pct = 90.0,
            |o| o.pf.tol_pu = 1e-4,
        ];
        for tweak in outcome_relevant {
            assert!(cache.get(&keyed(tweak)).is_none());
        }
        // ... while what only schedules or orders outcomes does not.
        let reranked_serial = keyed(|o| {
            o.strategy = RankingStrategy::OverloadFirst;
            o.parallel = false;
        });
        assert!(cache.get(&reranked_serial).is_some());
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = ContingencyCache::new();
        assert!(cache.get(&key("c14", 0, 1)).is_none());
        cache.put(key("c14", 0, 1), outcome(0));
        assert!(cache.get(&key("c14", 0, 1)).is_some());
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn diff_hash_invalidates() {
        let cache = ContingencyCache::new();
        cache.put(key("c14", 0, 1), outcome(0));
        // Same case and outage, different network state.
        assert!(cache.get(&key("c14", 0, 2)).is_none());
    }

    #[test]
    fn case_isolation_and_invalidation() {
        let cache = ContingencyCache::new();
        cache.put(key("c14", 0, 1), outcome(0));
        cache.put(key("c30", 0, 1), outcome(0));
        assert_eq!(cache.len(), 2);
        cache.invalidate_case("c14");
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key("c30", 0, 1)).is_some());
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let cache = Arc::new(ContingencyCache::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let c = cache.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    c.put(key("x", t * 100 + i, 0), outcome(i));
                    c.get(&key("x", t * 100 + i, 0));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 400);
        assert_eq!(cache.stats().0, 400);
    }
}
