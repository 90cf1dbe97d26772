//! A cache hit shares its memo entry. Two sessions over one
//! `SolverCache` ask the same case118 dialogue: the second session's
//! turns are hits, its contingency artifact is the cache entry's own
//! allocation, and the score it reports is the one the ACOPF entry
//! carries — the hit neither copies a report nor re-scores the dispatch.

use gm_acopf::AcopfSolution;
use gm_contingency::ContingencyReport;
use gm_powerflow::PfReport;
use gridmind_core::solver_cache::Memo;
use gridmind_core::{
    GridMind, ModelProfile, QueryKind, Scored, SessionContext, SharedSolverCache, SolverCache,
    SolverCacheKey, SolverResult,
};
use std::sync::Arc;

const DIALOGUE: [&str; 2] = ["solve case118", "run the n-1 contingency analysis"];

fn run(cache: &SharedSolverCache) -> GridMind {
    let session = SessionContext::new_with_solver_cache(Arc::clone(cache));
    let mut gm = GridMind::with_session(ModelProfile::by_name("GPT-5").unwrap(), session);
    for utterance in DIALOGUE {
        let reply = gm.ask(utterance);
        assert!(reply.steps.iter().all(|s| s.completed), "{}", reply.text);
    }
    gm
}

fn key(cache: &SolverCache, kind: QueryKind) -> SolverCacheKey {
    *cache
        .recency_order()
        .iter()
        .find(|k| k.kind == kind)
        .expect("the first session memoized this kind")
}

fn shared<T: Memo>(cache: &SolverCache, kind: QueryKind) -> Arc<T> {
    T::share(&cache.get(&key(cache, kind)).expect("entry present")).expect("entry of this kind")
}

/// The `quality.overall_score` samples a session recorded: count, sum.
fn quality_samples(gm: &GridMind) -> (u64, f64) {
    let hists = gm.session.telemetry.histograms_snapshot();
    hists
        .get("quality.overall_score")
        .map_or((0, 0.0), |h| (h.count, h.sum))
}

#[test]
fn a_second_session_shares_the_first_sessions_entries() {
    let cache = SolverCache::new(16);
    let a = run(&cache);
    assert!(a.session.telemetry.counter_value("acopf.ipm.solves") > 0);
    let primed = cache.stats();
    assert_eq!((primed.hits, primed.inserts), (0, 3), "ACOPF, base PF, N-1");

    // Re-deposit the ACOPF entry with a score no scoring of this dispatch
    // gives: the second session must report the entry's own.
    let acopf: Arc<Scored<AcopfSolution>> = shared(&cache, QueryKind::Acopf);
    assert_ne!(acopf.quality.overall_score, 1.5);
    let mut marked = Scored::clone(&acopf);
    marked.quality.overall_score = 1.5;
    cache.put(key(&cache, QueryKind::Acopf), SolverResult::Acopf(marked));

    let before = cache.stats();
    let b = run(&cache);
    let after = cache.stats();
    assert_eq!(
        after.misses, before.misses,
        "the second session solved nothing"
    );
    assert_eq!(after.hits - before.hits, 3, "ACOPF, base PF and N-1 hit");
    assert_eq!(b.session.telemetry.counter_value("acopf.ipm.solves"), 0);

    // One allocation per outcome: the cache entry, and each session's
    // stamped artifact.
    let n1: Arc<ContingencyReport> = shared(&cache, QueryKind::ContingencyN1);
    assert!(Arc::ptr_eq(&b.session.fresh_contingency().unwrap(), &n1));
    assert!(Arc::ptr_eq(&a.session.fresh_contingency().unwrap(), &n1));
    let pf: Arc<PfReport> = shared(&cache, QueryKind::BasePf);
    assert!(Arc::ptr_eq(&b.session.fresh_base_pf().unwrap(), &pf));

    // One sample per published turn in each session; the second session
    // reports what its entry carries.
    assert_eq!(quality_samples(&a), (1, acopf.quality.overall_score));
    assert_eq!(quality_samples(&b), (1, 1.5));
    let events = b.session.telemetry.events();
    let quality: Vec<&str> = events
        .iter()
        .filter(|e| e.target == "quality")
        .map(|e| e.message.as_str())
        .collect();
    assert_eq!(quality, ["Solution quality assessment: Overall=1.5/10"]);
}
