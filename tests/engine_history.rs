//! History-independence of the per-thread `LuEngine`.
//!
//! The convenience entry points (`solve`, `solve_from`,
//! `solve_fast_decoupled`, `solve_dc`, `run_batch`, the recovery ladder)
//! keep their symbolic analyses in an engine that lives as long as the
//! thread (`gm_sparse::with_thread_engine`). That is hidden state, and
//! it is only acceptable because of the engine's contract: **a result is
//! bit-identical whatever the engine holds** — a hit is confirmed by
//! comparing the pattern itself, a replay whose pivots no longer
//! reproduce is re-analyzed, and a pattern that was evicted is simply
//! analyzed again. These tests hold the contract at the sizes and in the
//! orders the product runs: each answer of a mixed sequence on one
//! thread against the same solve on a thread that has never solved
//! anything.

use gm_faults::{FaultInjector, FaultKind, FaultRule};
use gm_network::{cases, load_scale, CaseId, Network, ScaleId};
use gm_numeric::Fnv1a;
use gm_powerflow::{
    run_batch, solve, solve_dc, solve_fast_decoupled, InitStrategy, PfError, PfOptions, PfReport,
    ScenarioSet,
};
use gm_sparse::{
    with_thread_engine, CsMat, LuEngine, SparseLu, SparseLuError, SymbolicLu, Triplets,
};
use gm_telemetry::Registry;
use gridmind_core::{GridMind, ModelProfile, CAVEAT_PREFIX};

/// Runs `work` on a thread that has factored nothing yet.
fn on_a_fresh_thread<T: Send>(work: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(work).join()).unwrap_or_else(|p| std::panic::resume_unwind(p))
}

/// Everything numeric a report says, as bits.
fn report_bits(rep: &PfReport) -> Vec<u64> {
    let mut bits = vec![rep.iterations as u64, rep.q_limit_rounds as u64];
    bits.extend(rep.mismatch_history.iter().map(|m| m.to_bits()));
    bits.extend(
        rep.buses
            .iter()
            .flat_map(|b| [b.vm_pu, b.va_deg, b.p_mw, b.q_mvar].map(f64::to_bits)),
    );
    bits.extend(
        rep.branches
            .iter()
            .flat_map(|f| [f.p_from_mw, f.q_to_mvar].map(f64::to_bits)),
    );
    bits.extend(
        rep.gens
            .iter()
            .flat_map(|g| [g.p_mw.to_bits(), g.q_mvar.to_bits(), g.at_q_limit as u64]),
    );
    bits
}

/// A solver failure is an answer too, and must not depend on history
/// either.
fn error_bits(e: &impl std::fmt::Debug) -> Vec<u64> {
    let mut h = Fnv1a::new();
    h.bytes(format!("{e:?}").as_bytes());
    vec![u64::MAX, h.finish()]
}

fn pf_bits(r: &Result<PfReport, PfError>) -> Vec<u64> {
    r.as_ref().map_or_else(error_bits, report_bits)
}

#[derive(Clone, Copy, Debug)]
enum Method {
    /// Default options: Q-limit rounds re-partition the unknowns, so one
    /// solve walks several Jacobian patterns.
    Newton,
    /// Newton from the DC angles: `solve_dc` runs while the Newton solve
    /// holds the thread's engine.
    NewtonDcStart,
    Fdlf,
    Dc,
    Batch,
}

const METHODS: [Method; 5] = [
    Method::Newton,
    Method::NewtonDcStart,
    Method::Fdlf,
    Method::Dc,
    Method::Batch,
];

fn answer(method: Method, net: &Network) -> Vec<u64> {
    match method {
        Method::Newton => pf_bits(&solve(net, &PfOptions::default())),
        Method::NewtonDcStart => {
            let opts = PfOptions {
                init: InitStrategy::DcWarmStart,
                ..Default::default()
            };
            pf_bits(&solve(net, &opts))
        }
        Method::Fdlf => {
            let opts = PfOptions {
                enforce_q_limits: false,
                max_iter: 60,
                ..Default::default()
            };
            pf_bits(&solve_fast_decoupled(net, &opts))
        }
        Method::Dc => match solve_dc(net) {
            Ok(dc) => (dc.theta_rad.iter().chain(&dc.flow_mw))
                .map(|x| x.to_bits())
                .collect(),
            Err(e) => error_bits(&e),
        },
        Method::Batch => {
            let set = ScenarioSet::load_sweep(0.97, 1.03, 4);
            match run_batch(net, &PfOptions::default(), &set) {
                Ok(batch) => (batch.outcomes.iter())
                    .flat_map(|o| pf_bits(&o.report))
                    .chain([batch.warm_hits, batch.flat_restarts])
                    .collect(),
                Err(e) => error_bits(&e),
            }
        }
    }
}

/// `net` with every load moved by up to ±5 %, from a fixed stream.
fn perturbed(net: &Network, seed: u64) -> Network {
    let mut s = seed | 1;
    let mut net = net.clone();
    for load in &mut net.loads {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let f = 0.95 + 0.10 * (s >> 11) as f64 / (1u64 << 53) as f64;
        load.p_mw *= f;
        load.q_mvar *= f;
    }
    net
}

/// A, B, C, A′, B′, C′: every topology is visited, left, and revisited
/// with other values.
fn visit_sequence() -> Vec<Network> {
    let bases = [
        cases::load(CaseId::Ieee118),
        cases::load(CaseId::Ieee300),
        load_scale(ScaleId::Synth1354).clone(),
    ];
    let revisits: Vec<Network> = (bases.iter().zip(1u64..))
        .map(|(net, k)| perturbed(net, 0x9e37_79b9 * k))
        .collect();
    bases.into_iter().chain(revisits).collect()
}

#[test]
fn a_mixed_sequence_on_one_thread_answers_like_fresh_threads() {
    let nets = visit_sequence();
    let (on_one_thread, reg) = on_a_fresh_thread(|| {
        let reg = Registry::new();
        let _guard = reg.install();
        let answers: Vec<Vec<u64>> = (nets.iter())
            .flat_map(|net| METHODS.map(|m| answer(m, net)))
            .collect();
        (answers, reg)
    });
    // The sequence did revisit: far more replays than analyses.
    let (builds, reuses) = (
        reg.counter_value("sparse.symbolic.build"),
        reg.counter_value("sparse.symbolic.reuse"),
    );
    assert!(reuses > 4 * builds, "{reuses} replays of {builds} analyses");

    let mut k = 0;
    for (visit, net) in nets.iter().enumerate() {
        for method in METHODS {
            let fresh = on_a_fresh_thread(|| answer(method, net));
            assert!(
                fresh == on_one_thread[k],
                "visit {visit} ({}), {method:?}: answer depends on the thread's history",
                net.name
            );
            k += 1;
        }
    }
}

#[test]
fn a_forced_fallback_on_the_second_visit_changes_no_bit() {
    let nets = visit_sequence();
    let (first, second) = nets.split_at(nets.len() / 2);
    let (revisited, fallbacks) = on_a_fresh_thread(|| {
        for net in first {
            for method in METHODS {
                answer(method, net);
            }
        }
        // Every replay from here on is refused: each revisit takes the
        // fallback re-analysis instead.
        let inj = FaultInjector::scripted(vec![FaultRule::new(
            "sparse.refactor",
            FaultKind::LuSingular,
            0,
            u64::MAX,
        )]);
        let _faults = inj.install();
        let reg = Registry::new();
        let _guard = reg.install();
        let answers: Vec<Vec<u64>> = (second.iter())
            .flat_map(|net| METHODS.map(|m| answer(m, net)))
            .collect();
        (answers, reg.counter_value("sparse.symbolic.fallback"))
    });
    assert!(fallbacks > 0, "the revisits never reached a replay");
    let mut k = 0;
    for net in second {
        for method in METHODS {
            let fresh = on_a_fresh_thread(|| answer(method, net));
            assert!(
                fresh == revisited[k],
                "{}, {method:?}: a fallback re-analysis moved the answer",
                net.name
            );
            k += 1;
        }
    }
}

#[test]
fn a_nested_call_works_on_its_own_engine() {
    // A solver reached while the thread's engine is checked out — here
    // by the test itself — must neither panic nor answer differently.
    let net = cases::load(CaseId::Ieee118);
    let plain = on_a_fresh_thread(|| METHODS.map(|m| answer(m, &net)));
    let nested = on_a_fresh_thread(|| {
        with_thread_engine(|held| {
            let inner = METHODS.map(|m| answer(m, &net));
            assert_eq!(
                held.cached_patterns(),
                0,
                "the nested solves used another engine"
            );
            inner
        })
    });
    assert!(plain == nested);
}

/// The narrated answer and its `recovery.*` rungs for one outage study
/// whose base case is pushed down the ladder by `faults`.
fn degraded_study(faults: Vec<FaultRule>) -> (String, [u64; 2]) {
    let inj = FaultInjector::scripted(faults);
    let _faults = inj.install();
    let mut gm = GridMind::new(ModelProfile::paper_models().remove(0));
    assert!(gm.session.load_case("case14").is_ok());
    let text = gm.ask("analyze the outage of line 0").text;
    let rungs = ["recovery.fdlf", "recovery.dc"].map(|k| gm.session.telemetry.counter_value(k));
    (text, rungs)
}

#[test]
fn the_recovery_ladder_descends_on_the_threads_engine() {
    // FDLF rung: B′, B″ and the nested Newton polish all go through the
    // engine the ladder holds. DC rung: `B'` through the same one. Twice
    // on one thread, so the second descent finds the first one's
    // analyses — and must narrate the same numbers.
    let diverging = |sites: &[&str]| -> Vec<FaultRule> {
        (sites.iter())
            .map(|site| FaultRule::new(site, FaultKind::NewtonDiverge, 0, 1))
            .collect()
    };
    let to_fdlf = ["pf.base", "pf.retry"];
    let to_dc = ["pf.base", "pf.retry", "pf.retry.fdlf"];
    // The text after the caveat is a function of the solved numbers.
    let numbers_of = |text: &str| text.split(CAVEAT_PREFIX).nth(1).map(str::to_string);
    on_a_fresh_thread(|| {
        for (sites, want) in [(&to_fdlf[..], [1, 0]), (&to_dc[..], [0, 1])] {
            let (first, rungs) = degraded_study(diverging(sites));
            assert!(first.contains(CAVEAT_PREFIX), "{first}");
            assert_eq!(rungs, want, "{first}");
            let (again, rungs) = degraded_study(diverging(sites));
            assert_eq!(rungs, want, "{again}");
            assert_eq!(numbers_of(&first), numbers_of(&again));
        }
    });
}

/// An `n × n` matrix: a dominant diagonal plus the given off-diagonal
/// positions.
fn with_offdiagonals(n: usize, at: &[(usize, usize)]) -> CsMat<f64> {
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 4.0 + i as f64 * 0.25);
    }
    for (k, &(i, j)) in at.iter().enumerate() {
        t.push(i, j, -1.0 - 0.1 * k as f64);
    }
    t.to_csr()
}

#[test]
fn equal_shape_with_another_pattern_is_a_miss_not_a_replay() {
    // Same dimension, same entry count, same row lengths even — only the
    // column of one entry differs. A hash could collide on these; a
    // compare cannot.
    let a = with_offdiagonals(6, &[(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)]);
    let b = with_offdiagonals(6, &[(0, 2), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4)]);
    assert_eq!((a.shape(), a.nnz()), (b.shape(), b.nnz()));
    assert_eq!(a.indptr(), b.indptr());

    let (sym, _) = SymbolicLu::analyze(&a, Default::default(), 0.1).expect("a factors");
    assert!(sym.same_pattern(&a) && !sym.same_pattern(&b));
    assert!(matches!(
        sym.refactor(&b),
        Err(SparseLuError::RefactorUnstable { step: 0 })
    ));

    let reg = Registry::new();
    let _guard = reg.install();
    let mut engine = LuEngine::new();
    let rhs = [1.0, -2.0, 0.5, 3.0, -1.0, 0.25];
    engine.factorize(&a).expect("a factors");
    let x = engine.factorize(&b).expect("b factors").solve(&rhs);
    assert_eq!(x, SparseLu::factor(&b).expect("b factors").solve(&rhs));
    assert_eq!(reg.counter_value("sparse.symbolic.build"), 2);
    assert_eq!(reg.counter_value("sparse.symbolic.reuse"), 0);
    assert_eq!(reg.counter_value("sparse.symbolic.miss_same_shape"), 1);
    assert_eq!(engine.cached_patterns(), 2);
}

#[test]
fn one_pattern_too_many_evicts_the_least_recently_used() {
    let pattern = |k: usize| with_offdiagonals(8, &[(k, (k + 3) % 8), ((k + 3) % 8, k)]);
    let rhs: Vec<f64> = (0..8).map(|i| (i as f64 - 3.5) * 0.5).collect();
    let reg = Registry::new();
    let _guard = reg.install();
    let mut engine = LuEngine::with_capacity(2);
    let mut factor = |k: usize| {
        let x = engine.factorize(&pattern(k)).expect("factors").solve(&rhs);
        let fresh = SparseLu::factor(&pattern(k)).expect("factors").solve(&rhs);
        assert_eq!(x, fresh, "pattern {k}");
    };
    let count = |name: &str| reg.counter_value(name);

    factor(0);
    factor(1);
    factor(0); // 0 is now the more recently used
    assert_eq!(
        (
            count("sparse.symbolic.build"),
            count("sparse.symbolic.evict")
        ),
        (2, 0)
    );
    factor(2); // one too many: 1 goes, 0 stays
    assert_eq!(
        (
            count("sparse.symbolic.build"),
            count("sparse.symbolic.evict")
        ),
        (3, 1)
    );
    factor(0);
    assert_eq!(count("sparse.symbolic.build"), 3, "0 was kept");
    factor(1);
    assert_eq!(
        (
            count("sparse.symbolic.build"),
            count("sparse.symbolic.evict")
        ),
        (4, 2)
    );

    // What the engine holds is reported each time an analysis lands.
    let retained = &reg.histograms_snapshot()["sparse.engine.retained_kb"];
    assert_eq!(retained.count, count("sparse.symbolic.build"));
    assert!(retained.min > 0.0);
}

#[test]
fn the_threads_engine_outlives_more_patterns_than_it_keeps() {
    on_a_fresh_thread(|| {
        let reg = Registry::new();
        let _guard = reg.install();
        let pattern = |k: usize| with_offdiagonals(40, &[(k, k + 7), (k + 7, k)]);
        let rhs: Vec<f64> = (0..40).map(|i| 1.0 / (1.0 + i as f64)).collect();
        for round in 0..2 {
            for k in 0..24 {
                let a = pattern(k);
                let x = with_thread_engine(|e| e.factorize(&a).map(|lu| lu.solve(&rhs)));
                let fresh = SparseLu::factor(&a).expect("factors").solve(&rhs);
                assert_eq!(x.expect("factors"), fresh, "round {round}, pattern {k}");
            }
        }
        let kept = with_thread_engine(|e| e.cached_patterns());
        assert!((1..24).contains(&kept), "kept {kept} of 24 patterns");
        assert_eq!(
            reg.counter_value("sparse.symbolic.evict") as usize,
            48 - kept,
            "cycling 24 patterns through {kept} slots re-analyzes every visit"
        );
    });
}
