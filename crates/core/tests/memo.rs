//! The one memo path (`solver_cache::memoized`) behaves identically for
//! every query kind: miss → solve → insert, hit → recall, the `cache.get`
//! fault hooks force a re-solve, and only cacheable outcomes are stored.

use std::cell::Cell;

use gm_contingency::CaOptions;
use gm_faults::{FaultInjector, FaultKind, FaultRule};
use gm_network::{library, CaseId, Snapshot};
use gm_powerflow::{run_batch, PfOptions, ScenarioSet};
use gridmind_core::solver_cache::{memoized, Memo, SharedSolverCache};
use gridmind_core::{QueryKind, SolverCache};

/// One row of the table: runs a solver through `memoized` under the
/// given cache, counting real solver invocations, and renders the
/// outcome. `scrub` zeroes the result's wall-clock field, the only part
/// of a re-solve that is not deterministic.
type Probe<'a> = Box<dyn Fn(Option<&SharedSolverCache>) -> String + 'a>;

fn probe<'a, T, E>(
    net: &'a Snapshot,
    params: u64,
    solves: &'a Cell<u32>,
    solve: impl Fn() -> Result<T, E> + 'a,
    scrub: fn(&mut T),
) -> Probe<'a>
where
    T: Memo + std::fmt::Debug + 'a,
    E: std::fmt::Debug,
{
    Box::new(move |cache| {
        let out = memoized(cache, net, params, || {
            solves.set(solves.get() + 1);
            solve()
        });
        let mut out = out.expect("case14 solves");
        scrub(&mut out);
        format!("{out:?}")
    })
}

#[test]
fn memo_path_is_uniform_over_every_query_kind() {
    let net = library::case(CaseId::Ieee14);
    let solves = Cell::new(0);
    let acopf = gm_acopf::AcopfOptions::default();
    let scopf = gm_acopf::ScopfOptions::default();
    let ca = CaOptions::default();
    let pf = PfOptions::default();
    let sweep = ScenarioSet::load_sweep(0.9, 1.1, 3);
    let table: Vec<(QueryKind, Probe)> = vec![
        (
            QueryKind::Acopf,
            probe(
                &net,
                acopf.fingerprint(),
                &solves,
                || gm_acopf::solve_acopf(&net, &acopf),
                |s| s.solve_time_s = 0.0,
            ),
        ),
        (
            QueryKind::Scopf,
            probe(
                &net,
                scopf.fingerprint(),
                &solves,
                || gm_acopf::solve_scopf(&net, &scopf),
                |s| s.solution.solve_time_s = 0.0,
            ),
        ),
        (
            QueryKind::BasePf,
            probe(
                &net,
                ca.fingerprint(),
                &solves,
                || gm_contingency::solve_base(&net, &ca),
                |_| {},
            ),
        ),
        (
            QueryKind::ContingencyN1,
            probe(
                &net,
                ca.fingerprint(),
                &solves,
                || gm_contingency::run_n1(&net, &ca, None),
                |r| r.sweep_time_s = 0.0,
            ),
        ),
        (
            QueryKind::BatchStudy,
            probe(
                &net,
                pf.fingerprint(),
                &solves,
                || run_batch(&net, &pf, &sweep),
                |_| {},
            ),
        ),
    ];
    for (kind, run) in &table {
        let cache = SolverCache::new(8);
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        solves.set(0);

        // No cache: the solver runs and nothing is stored anywhere.
        let uncached = run(None);
        assert_eq!(solves.get(), 1, "{kind:?}");

        // Miss -> solve -> insert under this kind's slot.
        let first = run(Some(&cache));
        assert_eq!(first, uncached, "{kind:?}");
        assert_eq!(solves.get(), 2, "{kind:?}");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (0, 1, 1), "{kind:?}");
        assert_eq!(cache.recency_order()[0].kind, *kind);

        // Hit -> no solve, identical bytes.
        assert_eq!(run(Some(&cache)), first, "{kind:?}");
        assert_eq!(solves.get(), 2, "{kind:?}");
        assert_eq!(cache.stats().hits, 1, "{kind:?}");

        // `cache.get` faults: an injected miss hides the entry, an
        // injected poison evicts it; both re-solve and re-insert, and
        // the recomputation is deterministic: identical bytes.
        let inj = FaultInjector::scripted(vec![
            FaultRule::new("cache.get", FaultKind::CacheMiss, 0, 1),
            FaultRule::new("cache.get", FaultKind::CachePoison, 1, 1),
        ]);
        let guard = inj.install();
        assert_eq!(run(Some(&cache)), first, "{kind:?}: injected miss");
        assert_eq!((solves.get(), cache.stats().inserts), (3, 2), "{kind:?}");
        assert_eq!(run(Some(&cache)), first, "{kind:?}: injected poison");
        assert_eq!((solves.get(), cache.stats().inserts), (4, 3), "{kind:?}");
        assert_eq!(reg.counter_value("serve.cache.poison_detected"), 1);
        assert_eq!(inj.injected_total(), 2, "{kind:?}");
        drop(guard);
        assert_eq!(cache.len(), 1, "{kind:?}");
        assert_eq!(run(Some(&cache)), first, "{kind:?}: re-inserted entry");
        assert_eq!(solves.get(), 4, "{kind:?}: the re-solved entry hits");
    }
}

#[test]
fn batch_with_a_failed_scenario_is_returned_but_never_memoized() {
    let net = library::case(CaseId::Ieee14);
    let cache = SolverCache::new(8);
    let opts = PfOptions::default();
    // 12x nominal demand is far past the nose of the PV curve: the
    // seeded solve and the flat restart both diverge.
    let set = ScenarioSet::load_sweep(1.0, 12.0, 2);
    let study = || {
        memoized(Some(&cache), &net, opts.fingerprint(), || {
            run_batch(&net, &opts, &set)
        })
        .unwrap()
    };
    let rep = study();
    assert!(rep.outcomes[0].report.is_ok());
    assert!(rep.outcomes[1].report.is_err(), "the study is returned");
    assert!(cache.is_empty(), "but a degraded batch is not stored");
    let _ = study();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.inserts), (0, 2, 0));
}
