//! Contingency result cache.
//!
//! §3.4 of the paper: "Each outage evaluation is cached under a composite
//! key (case + outage + diff hash)" — case and diffs being one component
//! here, the content hash of the network they lead to. Compound requests
//! ("solve, assess T-1 risk, rank reinforcements") reuse every per-outage
//! power flow of an unchanged network. One network's outcomes are held at
//! a time: the first `put` under another `net_hash` drops the rest, so no
//! caller invalidates and a long session keeps one sweep's worth.

use crate::types::ContingencyOutcome;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Composite cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Content hash of the network the outage is taken out of.
    pub net_hash: u64,
    /// Branch index of the outage.
    pub outage_branch: usize,
    /// Fingerprint of every sweep option the outcome can depend on: the
    /// power-flow controls and the sweep mode (cascade and brute outcomes
    /// agree to solver tolerance but not bit-for-bit). The voltage band,
    /// thermal threshold, scope and screening cutoff are constants, so
    /// they need no part of the key. Only `parallel` and the ranking
    /// strategy are left out, so a re-ranking of the same sweep still
    /// hits.
    pub options: u64,
}

/// Thread-safe per-outage result cache with hit/miss accounting.
#[derive(Debug, Default)]
pub struct ContingencyCache {
    map: RwLock<HashMap<CacheKey, ContingencyOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ContingencyCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches a cached outcome, counting the hit/miss.
    pub fn get(&self, key: &CacheKey) -> Option<ContingencyOutcome> {
        let found = self.map.read().get(key).cloned();
        let (tally, counter) = match found {
            Some(_) => (&self.hits, "ca.cache.hits"),
            None => (&self.misses, "ca.cache.misses"),
        };
        tally.fetch_add(1, Relaxed);
        gm_telemetry::counter_add(counter, 1);
        found
    }

    /// Stores an outcome. All held keys share one `net_hash`: the first
    /// outcome of another network supersedes them.
    pub fn put(&self, key: CacheKey, outcome: ContingencyOutcome) {
        let mut map = self.map.write();
        if matches!(map.keys().next(), Some(held) if held.net_hash != key.net_hash) {
            map.clear();
        }
        map.insert(key, outcome);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Relaxed), self.misses.load(Relaxed))
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
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

    fn key(net_hash: u64, branch: usize) -> CacheKey {
        CacheKey {
            net_hash,
            outage_branch: branch,
            options: CaOptions::default().outcome_fingerprint(),
        }
    }

    #[test]
    fn option_fingerprints_do_not_alias() {
        let cache = ContingencyCache::new();
        cache.put(key(14, 0), outcome(0));
        let keyed = |tweak: fn(&mut CaOptions)| {
            let mut opts = CaOptions::default();
            tweak(&mut opts);
            CacheKey {
                options: opts.outcome_fingerprint(),
                ..key(14, 0)
            }
        };
        // Anything an outcome can depend on keys apart ...
        let outcome_relevant: [fn(&mut CaOptions); 5] = [
            |o| o.mode = SweepMode::Brute,
            |o| o.pf.max_iter = 40,
            |o| o.pf.enforce_q_limits = true,
            |o| o.pf.iwamoto_damping = false,
            |o| o.pf.init = gm_powerflow::InitStrategy::DcWarmStart,
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
        assert!(cache.get(&key(14, 0)).is_none());
        cache.put(key(14, 0), outcome(0));
        assert!(cache.get(&key(14, 0)).is_some());
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn another_net_hash_misses() {
        let cache = ContingencyCache::new();
        cache.put(key(14, 0), outcome(0));
        // Same outage and options, different network state.
        assert!(cache.get(&key(15, 0)).is_none());
        // Looking does not evict.
        assert!(cache.get(&key(14, 0)).is_some());
    }

    #[test]
    fn a_put_under_a_new_net_hash_supersedes() {
        let cache = ContingencyCache::new();
        cache.put(key(14, 0), outcome(0));
        cache.put(key(14, 1), outcome(1));
        assert_eq!(cache.len(), 2);
        cache.put(key(30, 0), outcome(0));
        assert_eq!(cache.len(), 1, "the old network's outcomes must go");
        assert!(cache.get(&key(14, 0)).is_none());
        assert!(cache.get(&key(30, 0)).is_some());
        // Two option sets of one network live side by side.
        let brute = CacheKey {
            options: !key(30, 0).options,
            ..key(30, 0)
        };
        cache.put(brute, outcome(0));
        assert_eq!(cache.len(), 2);
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
                    c.put(key(0, t * 100 + i), outcome(i));
                    c.get(&key(0, t * 100 + i));
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
