//! Cross-session solver result cache (the gm-serve tentpole).
//!
//! The deterministic solvers are pure functions of `(network, options)`:
//! identical ACOPF / power-flow / N-1 requests from *different* sessions
//! re-derive byte-identical results. A [`SolverCache`] shared across
//! sessions memoizes those results under a composite key —
//!
//! ```text
//! (network content hash, query kind, solver-option fingerprint)
//! ```
//!
//! — so the second session asking "solve case30" reuses the first
//! session's interior-point solution instead of re-running the IPM.
//! Conversational state stays per-session: the cache stores only solver
//! *outcomes* (solutions, reports), never narration, memory, or session
//! artifacts, and the tool layer still deposits the (cached) artifact
//! into its own session, so freshness tracking and status queries behave
//! identically whether a value was computed or recalled.
//!
//! Soundness rests on what the key hashes (see DESIGN.md "Cache-key
//! soundness"): [`gm_network::Network::content_hash`] covers every
//! electrical parameter including per-branch ratings and service flags,
//! and the option fingerprints cover every solver control that can alter
//! the result. Cached values carry no wall-clock field, so neither a
//! replayed nor a freshly solved answer, nor its prompt, depends on wall
//! time.
//!
//! Entries are shared, never copied: each outcome is one allocation
//! ([`SolverEntry`] holds an `Arc` per kind), and a hit, the recovery
//! wrappers and the session artifacts a tool deposits all hold that same
//! allocation. The ACOPF and SCOPF entries carry their
//! [`SolutionQuality`](crate::quality::SolutionQuality), scored once when
//! the entry was solved ([`Scored`]), so a hit neither copies a report nor
//! re-scores a dispatch.
//!
//! The cache is LRU-bounded with hit/miss/eviction accounting, mirrored
//! to the installed telemetry collector as `serve.cache.{hits,misses,
//! evictions,inserts}`.

use crate::quality::Scored;
use gm_acopf::{AcopfSolution, ScopfSolution};
use gm_contingency::ContingencyReport;
use gm_network::Snapshot;
use gm_powerflow::{BatchReport, PfReport};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Normalized query kind — the middle component of the cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// AC optimal power flow.
    Acopf,
    /// Security-constrained OPF.
    Scopf,
    /// Base-case AC power flow.
    BasePf,
    /// Full N-1 branch-outage sweep.
    ContingencyN1,
    /// Batched multi-scenario study.
    BatchStudy,
}

/// Composite cache key: network content × query kind × solver options.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SolverCacheKey {
    /// [`gm_network::Network::content_hash`] of the exact network solved.
    pub net_hash: u64,
    /// Normalized query kind.
    pub kind: QueryKind,
    /// Option fingerprint (`AcopfOptions::fingerprint` & friends).
    pub params: u64,
}

/// Cumulative cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverCacheStats {
    /// Lookups that found a memoized result.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced by the LRU capacity bound.
    pub evictions: u64,
    /// Successful inserts.
    pub inserts: u64,
}

struct LruState {
    map: HashMap<SolverCacheKey, SolverEntry>,
    /// Keys in recency order: front = least recently used.
    order: Vec<SolverCacheKey>,
}

/// Thread-safe, LRU-bounded, cross-session solver result cache.
pub struct SolverCache {
    inner: Mutex<LruState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

/// Shared cache handle, one per server, referenced by every session.
pub type SharedSolverCache = Arc<SolverCache>;

impl std::fmt::Debug for SolverCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "SolverCache(len {}, cap {}, {} hits / {} misses / {} evictions)",
            self.len(),
            self.capacity,
            s.hits,
            s.misses,
            s.evictions
        )
    }
}

impl SolverCache {
    /// Empty cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> SharedSolverCache {
        Arc::new(SolverCache {
            inner: Mutex::new(LruState {
                map: HashMap::new(),
                order: Vec::new(),
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        })
    }

    /// Fetches a memoized result — a handle on the entry's allocation,
    /// not a copy — refreshing its recency and counting the hit/miss into
    /// both the local stats and the installed telemetry collector.
    pub fn get(&self, key: &SolverCacheKey) -> Option<SolverEntry> {
        let mut state = self.inner.lock();
        let found = state.map.get(key).cloned();
        if found.is_some() {
            if let Some(pos) = state.order.iter().position(|k| k == key) {
                let k = state.order.remove(pos);
                state.order.push(k);
            }
            drop(state);
            self.hits.fetch_add(1, Ordering::Relaxed);
            gm_telemetry::counter_add("serve.cache.hits", 1);
            gm_telemetry::flight_event("cache.hit", format!("kind={:?}", key.kind));
        } else {
            drop(state);
            self.misses.fetch_add(1, Ordering::Relaxed);
            gm_telemetry::counter_add("serve.cache.misses", 1);
            gm_telemetry::flight_event("cache.miss", format!("kind={:?}", key.kind));
        }
        found
    }

    /// Stores a result, evicting the least-recently-used entry when the
    /// capacity bound is reached.
    pub fn put(&self, key: SolverCacheKey, result: SolverResult) {
        self.insert(key, result.into());
    }

    /// Stores an entry; [`memoized`] keeps its own handle on it.
    fn insert(&self, key: SolverCacheKey, entry: SolverEntry) {
        let mut state = self.inner.lock();
        if state.map.insert(key, entry).is_none() {
            state.order.push(key);
            while state.map.len() > self.capacity {
                let victim = state.order.remove(0);
                state.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                gm_telemetry::counter_add("serve.cache.evictions", 1);
            }
        } else if let Some(pos) = state.order.iter().position(|k| k == &key) {
            // Overwrite refreshes recency.
            let k = state.order.remove(pos);
            state.order.push(k);
        }
        drop(state);
        self.inserts.fetch_add(1, Ordering::Relaxed);
        gm_telemetry::counter_add("serve.cache.inserts", 1);
    }

    /// Evicts one entry outright (poison recovery — distinct from LRU
    /// displacement, so it does not count toward `evictions`). Returns
    /// whether the key was present.
    pub fn remove(&self, key: &SolverCacheKey) -> bool {
        let mut state = self.inner.lock();
        let removed = state.map.remove(key).is_some();
        if removed {
            if let Some(pos) = state.order.iter().position(|k| k == key) {
                state.order.remove(pos);
            }
        }
        removed
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entry count before LRU eviction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative statistics snapshot.
    pub fn stats(&self) -> SolverCacheStats {
        SolverCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        }
    }

    /// Keys in recency order (front = next eviction victim). Test and
    /// diagnostics hook.
    pub fn recency_order(&self) -> Vec<SolverCacheKey> {
        self.inner.lock().order.clone()
    }
}

/// Cache lookup with fault-injection hooks (site `cache.get`): an
/// injected [`gm_faults::FaultKind::CacheMiss`] makes the entry
/// invisible (forcing a re-solve), an injected `CachePoison` simulates a
/// corrupted entry — it is discarded, counted as
/// `serve.cache.poison_detected`, and recomputed. With no injector
/// installed this is exactly `cache.get(key)`.
fn cache_lookup(cache: &SolverCache, key: &SolverCacheKey) -> Option<SolverEntry> {
    match gm_faults::inject("cache.get") {
        Some(gm_faults::FaultKind::CacheMiss) => None,
        Some(gm_faults::FaultKind::CachePoison) => {
            // The poisoned entry must not be served — *evict* it. The
            // previous recovery only looked the entry up (refreshing
            // its recency!) and left it in the map, where every
            // concurrent reader could still be served the corrupted
            // bytes until this thread's fresh solve overwrote it.
            cache.remove(key);
            gm_telemetry::counter_add("serve.cache.poison_detected", 1);
            None
        }
        _ => cache.get(key),
    }
}

/// A solver outcome the cache can hold: its [`QueryKind`] slot and its
/// [`SolverEntry`] variant. Supporting a new query kind is one
/// `memo_kinds!` line here plus a [`memoized`] call at the tool.
pub trait Memo: Sized {
    /// The key's middle component for this outcome type.
    const KIND: QueryKind;
    /// Wraps a shared outcome into its cache variant.
    fn entry(value: Arc<Self>) -> SolverEntry;
    /// Shares a recalled entry; `None` when the variant is not this type.
    fn share(entry: &SolverEntry) -> Option<Arc<Self>>;
    /// Whether this outcome may be memoized at all (default: always).
    fn cacheable(&self) -> bool {
        true
    }
}

/// Declares every query kind once: the owned [`SolverResult`] variant
/// [`SolverCache::put`] takes, the shared [`SolverEntry`] variant the
/// cache holds and hands out, and the [`Memo`] impl that wraps and
/// shares an entry without copying the outcome.
macro_rules! memo_kinds {
    ($(
        $(#[$doc:meta])*
        $variant:ident($ty:ty) in $kind:ident $(, cacheable = $pred:expr)?;
    )*) => {
        /// A solver outcome to memoize, by value.
        #[derive(Clone, Debug)]
        pub enum SolverResult {
            $($(#[$doc])* $variant($ty),)*
        }

        /// A memoized solver outcome: one shared allocation, which every
        /// reader holds instead of a copy.
        #[derive(Clone, Debug)]
        pub enum SolverEntry {
            $($(#[$doc])* $variant(Arc<$ty>),)*
        }

        impl From<SolverResult> for SolverEntry {
            fn from(result: SolverResult) -> SolverEntry {
                match result {
                    $(SolverResult::$variant(value) => SolverEntry::$variant(Arc::new(value)),)*
                }
            }
        }

        $(impl Memo for $ty {
            const KIND: QueryKind = QueryKind::$kind;
            fn entry(value: Arc<Self>) -> SolverEntry {
                SolverEntry::$variant(value)
            }
            fn share(entry: &SolverEntry) -> Option<Arc<Self>> {
                match entry {
                    SolverEntry::$variant(value) => Some(Arc::clone(value)),
                    _ => None,
                }
            }
            $(fn cacheable(&self) -> bool {
                $pred(self)
            })?
        })*
    };
}

memo_kinds! {
    /// A solved ACOPF and its score.
    Acopf(Scored<AcopfSolution>) in Acopf;
    /// A solved SCOPF and the score of its dispatch.
    Scopf(Scored<ScopfSolution>) in Scopf;
    /// A solved base power flow.
    Pf(PfReport) in BasePf;
    /// A completed N-1 sweep report.
    Contingency(ContingencyReport) in ContingencyN1;
    /// A completed batched multi-scenario study. Only fully-clean
    /// batches — every scenario outcome `Ok` — are memoized: a batch with
    /// failed scenarios may be narrated through the recovery ladder with
    /// CAVEATs, and degraded results must never be served from cache.
    Batch(BatchReport) in BatchStudy,
        cacheable = |rep: &BatchReport| rep.outcomes.iter().all(|o| o.report.is_ok());
}

/// The one memo path: runs `solve` through the cache under
/// `(net.content_hash(), T::KIND, params)`. A hit shares the memoized
/// outcome; a miss solves and, when the outcome is
/// [`Memo::cacheable`], memoizes it — the caller and the cache then hold
/// the same allocation. `None` cache always solves.
///
/// The network half of the key is the hash the [`Snapshot`] carries, so
/// a lookup costs no serialisation and the key cannot describe any
/// network but the one `solve` sees (see DESIGN.md §4c).
///
/// `params` must fingerprint everything besides the network that
/// `solve` depends on — the solver options' `fingerprint()`, plus any
/// further input (the batch tool folds its scenario set in).
pub fn memoized<T: Memo, E>(
    cache: Option<&SharedSolverCache>,
    net: &Snapshot,
    params: u64,
    solve: impl FnOnce() -> Result<T, E>,
) -> Result<Arc<T>, E> {
    let Some(cache) = cache else {
        return solve().map(Arc::new);
    };
    let key = SolverCacheKey {
        net_hash: net.content_hash(),
        kind: T::KIND,
        params,
    };
    if let Some(hit) = cache_lookup(cache, &key).as_ref().and_then(T::share) {
        return Ok(hit);
    }
    let out = Arc::new(solve()?);
    if out.cacheable() {
        cache.insert(key, T::entry(Arc::clone(&out)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::cases;
    use gm_powerflow::{run_batch, PfOptions, ScenarioSet};

    fn key(net_hash: u64, params: u64) -> SolverCacheKey {
        SolverCacheKey {
            net_hash,
            kind: QueryKind::Acopf,
            params,
        }
    }

    fn pf_stub(iterations: usize) -> SolverResult {
        let net = cases::load(gm_network::CaseId::Ieee14);
        let mut rep =
            gm_powerflow::solve(&net, &gm_powerflow::PfOptions::default()).expect("converges");
        rep.iterations = iterations;
        SolverResult::Pf(rep)
    }

    #[test]
    fn same_network_same_key_different_rating_different_key() {
        let a = cases::load(gm_network::CaseId::Ieee14);
        let b = cases::load(gm_network::CaseId::Ieee14);
        let opts = gm_acopf::AcopfOptions::default();
        let ka = SolverCacheKey {
            net_hash: a.content_hash(),
            kind: QueryKind::Acopf,
            params: opts.fingerprint(),
        };
        let kb = SolverCacheKey {
            net_hash: b.content_hash(),
            kind: QueryKind::Acopf,
            params: opts.fingerprint(),
        };
        assert_eq!(ka, kb, "identical case loads must key identically");

        // Perturbing one line rating must change the key.
        let mut c = cases::load(gm_network::CaseId::Ieee14);
        c.branches[0].rating_mva += 1.0;
        let kc = SolverCacheKey {
            net_hash: c.content_hash(),
            kind: QueryKind::Acopf,
            params: opts.fingerprint(),
        };
        assert_ne!(ka, kc, "a one-line rating perturbation must miss");

        // Different solver options must also miss.
        let mut longer = gm_acopf::AcopfOptions::default();
        longer.ipm.max_iter += 1;
        let kw = SolverCacheKey {
            net_hash: a.content_hash(),
            kind: QueryKind::Acopf,
            params: longer.fingerprint(),
        };
        assert_ne!(ka, kw, "option changes must miss");

        // And the same inputs under a different query kind must miss.
        let kk = SolverCacheKey {
            kind: QueryKind::Scopf,
            ..ka
        };
        assert_ne!(ka, kk);
    }

    #[test]
    fn hit_miss_accounting_and_roundtrip() {
        let cache = SolverCache::new(8);
        assert!(cache.get(&key(1, 1)).is_none());
        cache.put(key(1, 1), pf_stub(3));
        match cache.get(&key(1, 1)) {
            Some(SolverEntry::Pf(rep)) => assert_eq!(rep.iterations, 3),
            other => panic!("expected cached pf, got {other:?}"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let cache = SolverCache::new(2);
        cache.put(key(1, 0), pf_stub(1));
        cache.put(key(2, 0), pf_stub(2));
        // Touch key 1 so key 2 becomes the LRU entry.
        assert!(cache.get(&key(1, 0)).is_some());
        cache.put(key(3, 0), pf_stub(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(2, 0)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1, 0)).is_some(), "recently used survives");
        assert!(cache.get(&key(3, 0)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn eviction_order_follows_recency_not_insertion() {
        let cache = SolverCache::new(3);
        for i in 1..=3 {
            cache.put(key(i, 0), pf_stub(i as usize));
        }
        assert_eq!(
            cache
                .recency_order()
                .iter()
                .map(|k| k.net_hash)
                .collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Touching 1 moves it to most-recent; 2 is now the victim.
        cache.get(&key(1, 0));
        cache.put(key(4, 0), pf_stub(4));
        cache.put(key(5, 0), pf_stub(5));
        let have: Vec<u64> = cache.recency_order().iter().map(|k| k.net_hash).collect();
        assert_eq!(have, vec![1, 4, 5]);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn overwrite_refreshes_recency_without_eviction() {
        let cache = SolverCache::new(2);
        cache.put(key(1, 0), pf_stub(1));
        cache.put(key(2, 0), pf_stub(2));
        cache.put(key(1, 0), pf_stub(10)); // overwrite, no eviction
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0);
        // Key 2 is now LRU.
        cache.put(key(3, 0), pf_stub(3));
        assert!(cache.get(&key(2, 0)).is_none());
        match cache.get(&key(1, 0)) {
            Some(SolverEntry::Pf(rep)) => assert_eq!(rep.iterations, 10),
            other => panic!("expected overwritten pf, got {other:?}"),
        }
    }

    #[test]
    fn batch_study_caches_clean_runs_and_recalls_them() {
        let net = gm_network::library::case(gm_network::CaseId::Ieee14);
        let cache = SolverCache::new(8);
        let opts = PfOptions::default();
        let study = |set: &ScenarioSet| {
            let params = crate::tools_batch::batch_params(&opts, set);
            memoized(Some(&cache), &net, params, || run_batch(&net, &opts, set)).unwrap()
        };
        let set = ScenarioSet::load_sweep(0.9, 1.1, 5);
        let first = study(&set);
        assert_eq!(cache.stats().inserts, 1, "clean batch is memoized");
        let second = study(&set);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(format!("{second:?}"), format!("{first:?}"));
        // A different sweep over the same network and options misses.
        let _ = study(&ScenarioSet::load_sweep(0.8, 1.2, 5));
        assert_eq!(cache.stats().inserts, 2);
    }

    #[test]
    fn injected_cache_faults_force_resolve_and_poison_detection() {
        let net = gm_network::library::case(gm_network::CaseId::Ieee14);
        let cache = SolverCache::new(8);
        let opts = gm_contingency::CaOptions::default();
        let base = || {
            memoized(Some(&cache), &net, opts.fingerprint(), || {
                gm_contingency::solve_base(&net, &opts)
            })
            .unwrap()
        };
        let warm = base();
        assert_eq!(cache.stats().hits, 0);

        // Fault-free: the warmed entry hits and recalls identical bytes.
        let hit = base();
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(format!("{hit:?}"), format!("{warm:?}"));

        // CacheMiss then CachePoison: both force a re-solve; the poison
        // path additionally counts its detection. Results stay
        // byte-identical — recomputation is deterministic.
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        let inj = gm_faults::FaultInjector::scripted(vec![
            gm_faults::FaultRule::new("cache.get", gm_faults::FaultKind::CacheMiss, 0, 1),
            gm_faults::FaultRule::new("cache.get", gm_faults::FaultKind::CachePoison, 1, 1),
        ]);
        let _g = inj.install();
        let missed = base();
        let poisoned = base();
        assert_eq!(format!("{missed:?}"), format!("{warm:?}"));
        assert_eq!(format!("{poisoned:?}"), format!("{warm:?}"));
        assert_eq!(reg.counter_value("serve.cache.poison_detected"), 1);
        assert_eq!(inj.injected_total(), 2);
    }

    #[test]
    fn poison_detection_evicts_the_entry_for_concurrent_readers() {
        // Regression (found by gm-audit's swallowed-error lint): the
        // poison path used to do `let _ = cache.get(key)` — refreshing
        // the poisoned entry's recency and leaving it in the map, where
        // a concurrent reader without an installed injector would still
        // be served it. Recovery must evict.
        let cache = SolverCache::new(8);
        cache.put(key(1, 0), pf_stub(1));
        assert_eq!(cache.len(), 1);
        let inj = gm_faults::FaultInjector::scripted(vec![gm_faults::FaultRule::new(
            "cache.get",
            gm_faults::FaultKind::CachePoison,
            0,
            1,
        )]);
        let guard = inj.install();
        assert!(
            cache_lookup(&cache, &key(1, 0)).is_none(),
            "poisoned entry must not be served"
        );
        drop(guard);
        assert_eq!(cache.len(), 0, "poisoned entry must be evicted");
        assert!(
            cache.get(&key(1, 0)).is_none(),
            "a concurrent reader must re-solve, never see the poisoned bytes"
        );
    }

    #[test]
    fn remove_is_exact_and_idempotent() {
        let cache = SolverCache::new(4);
        cache.put(key(1, 0), pf_stub(1));
        cache.put(key(2, 0), pf_stub(2));
        assert!(cache.remove(&key(1, 0)));
        assert!(!cache.remove(&key(1, 0)), "second remove is a no-op");
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.stats().evictions,
            0,
            "poison removal is not an LRU eviction"
        );
        assert_eq!(
            cache
                .recency_order()
                .iter()
                .map(|k| k.net_hash)
                .collect::<Vec<_>>(),
            vec![2],
            "recency order stays consistent with the map"
        );
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let reg = gm_telemetry::Registry::new();
        let _g = reg.install();
        let cache = SolverCache::new(1);
        cache.get(&key(1, 0));
        cache.put(key(1, 0), pf_stub(1));
        cache.get(&key(1, 0));
        cache.put(key(2, 0), pf_stub(2)); // evicts key 1
        assert_eq!(reg.counter_value("serve.cache.misses"), 1);
        assert_eq!(reg.counter_value("serve.cache.hits"), 1);
        assert_eq!(reg.counter_value("serve.cache.inserts"), 2);
        assert_eq!(reg.counter_value("serve.cache.evictions"), 1);
    }
}
