//! History-independence of the per-thread `LuEngine` and of the IPM's
//! per-thread KKT plans (second half of this file).
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

use gm_acopf::ipm::{self, Nlp, Stamp};
use gm_acopf::{
    solve_acopf, solve_dcopf, solve_scopf, AcopfError, AcopfOptions, AcopfSolution, IpmOptions,
    ScopfOptions,
};
use gm_faults::{FaultInjector, FaultKind, FaultRule};
use gm_network::{cases, load_scale, topology, CaseId, Network, ScaleId};
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
use std::cell::RefCell;

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
    // FDLF rung: B′, B″ and the nested Newton polish all factor on the
    // thread's engine. DC rung: `B'` on the same one. Twice on one
    // thread, so the second descent finds the first one's analyses —
    // and must narrate the same numbers.
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

// ---- The IPM's kept KKT plans (`gm_acopf::ipm`) ----------------------
//
// `ipm::solve` keeps, per thread, the plan of every problem pattern it
// has built — structure, KKT slot program, LDLᵀ analysis, buffers — under
// the same two rules as the engine above (`gm_sparse::Mru`,
// `gm_sparse::with_checked_out`). Same contract, same kind of test: an
// answer on a thread with a history against the answer on a thread
// without one, bit for bit.

/// Every field of an ACOPF solution but the wall time, as bits. The
/// destructuring is exhaustive: a new field fails to compile here.
fn acopf_bits(sol: &AcopfSolution) -> Vec<u64> {
    let AcopfSolution {
        case_name,
        solved,
        objective_cost,
        gen_dispatch_mw,
        gen_dispatch_mvar,
        bus_vm_pu,
        bus_va_deg,
        bus_lmp,
        branch_loading,
        min_voltage_pu,
        max_voltage_pu,
        max_thermal_loading_pct,
        total_generation_mw,
        total_load_mw,
        losses_mw,
        iterations,
        solve_time_s: _,
        convergence_message,
        binding_constraints,
    } = sol;
    let mut text = Fnv1a::new();
    text.bytes(case_name.as_bytes());
    text.bytes(convergence_message.as_bytes());
    let mut bits = vec![
        text.finish(),
        *solved as u64,
        *iterations as u64,
        *binding_constraints as u64,
    ];
    let scalars = [
        objective_cost,
        min_voltage_pu,
        max_voltage_pu,
        max_thermal_loading_pct,
        total_generation_mw,
        total_load_mw,
        losses_mw,
    ];
    let vectors = [
        gen_dispatch_mw,
        gen_dispatch_mvar,
        bus_vm_pu,
        bus_va_deg,
        bus_lmp,
    ];
    bits.extend(scalars.into_iter().map(|v| v.to_bits()));
    bits.extend(vectors.into_iter().flatten().map(|v| v.to_bits()));
    bits.extend(branch_loading.iter().flat_map(|b| {
        [
            b.index as u64,
            b.s_mva.to_bits(),
            b.loading_pct.to_bits(),
            b.p_from_mw.to_bits(),
        ]
    }));
    bits
}

#[derive(Clone, Copy, Debug)]
enum Opf {
    /// `solve_acopf`.
    Ac,
    /// `solve_scopf`.
    Secure,
    /// `solve_dcopf`.
    Dc,
}

fn opf_answer(kind: Opf, net: &Network) -> Vec<u64> {
    let failed = |e: AcopfError| error_bits(&e);
    match kind {
        Opf::Ac => {
            solve_acopf(net, &AcopfOptions::default()).map_or_else(failed, |sol| acopf_bits(&sol))
        }
        Opf::Secure => solve_scopf(net, &ScopfOptions::default()).map_or_else(failed, |s| {
            let mut bits = acopf_bits(&s.solution);
            bits.extend([
                s.economic_cost.to_bits(),
                s.security_premium.to_bits(),
                s.n_security_constraints as u64,
            ]);
            bits
        }),
        Opf::Dc => solve_dcopf(net, &IpmOptions::default()).map_or_else(failed, |dc| {
            (dc.gen_dispatch_mw.iter())
                .chain(&dc.flow_mw)
                .chain(&dc.bus_va_deg)
                .chain([&dc.objective_cost])
                .map(|v| v.to_bits())
                .chain([dc.solved as u64, dc.iterations as u64])
                .collect()
        }),
    }
}

/// The edits of the paper's what-if loop, from a fixed stream: every
/// load moved by up to ±5 % and every third generator's upper limit cut
/// by 2–10 %. Neither changes the topology.
fn edited(net: &Network, seed: u64) -> Network {
    let mut net = perturbed(net, seed);
    let mut s = seed.rotate_left(17) | 1;
    for g in net.gens.iter_mut().step_by(3) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        g.p_max_mw *= 0.90 + 0.08 * (s >> 11) as f64 / (1u64 << 53) as f64;
    }
    net
}

/// A, B, C, … then A′, B′, C′, …: ACOPF case14 / 30 / 57, SCOPF
/// case30 / 57, DC-OPF case118, and the same six after seeded edits.
fn opf_sequence() -> Vec<(Opf, Network)> {
    let bases = [
        (Opf::Ac, CaseId::Ieee14),
        (Opf::Ac, CaseId::Ieee30),
        (Opf::Ac, CaseId::Ieee57),
        (Opf::Secure, CaseId::Ieee30),
        (Opf::Secure, CaseId::Ieee57),
        (Opf::Dc, CaseId::Ieee118),
    ]
    .map(|(kind, id)| (kind, cases::load(id)));
    let revisits: Vec<(Opf, Network)> = (bases.iter().zip(1u64..))
        .map(|((kind, net), k)| (*kind, edited(net, 0x51ed_270b * k)))
        .collect();
    bases.into_iter().chain(revisits).collect()
}

/// `acopf.kkt.structure_{builds, reuse, evict}` so far.
fn plan_counts(reg: &Registry) -> [u64; 3] {
    ["builds", "reuse", "evict"].map(|k| reg.counter_value(&format!("acopf.kkt.structure_{k}")))
}

#[test]
fn an_opf_sequence_on_one_thread_answers_like_fresh_threads() {
    let sequence = opf_sequence();
    let (on_one_thread, reg) = on_a_fresh_thread(|| {
        let reg = Registry::new();
        let _guard = reg.install();
        let answers: Vec<Vec<u64>> = (sequence.iter())
            .map(|(kind, net)| opf_answer(*kind, net))
            .collect();
        (answers, reg)
    });
    // The sequence did revisit: every economic solve of a SCOPF and every
    // primed solve found a plan.
    let [builds, reuse, _] = plan_counts(&reg);
    assert_eq!(builds + reuse, reg.counter_value("acopf.ipm.solves"));
    assert!(reuse >= 8, "{reuse} solves on kept plans, {builds} builds");
    assert_eq!(reg.counter_value("acopf.kkt.lu_fallbacks"), 0);

    for (visit, (kind, net)) in sequence.iter().enumerate() {
        let fresh = on_a_fresh_thread(|| opf_answer(*kind, net));
        assert!(fresh[0] != u64::MAX, "visit {visit}: {kind:?} failed");
        assert!(
            fresh == on_one_thread[visit],
            "visit {visit} ({kind:?} {}): answer depends on the thread's history",
            net.name
        );
    }
}

#[test]
fn lu_fallback_steps_on_a_kept_plan_change_no_bit() {
    // Every LDLᵀ step refused: each barrier step of the revisits is
    // taken from the one-shot pivoting LU of a KKT matrix that a kept
    // plan assembled.
    let refuse_ldl = || {
        FaultInjector::scripted(vec![FaultRule::new(
            "acopf.kkt.ldl",
            FaultKind::LuSingular,
            0,
            u64::MAX,
        )])
    };
    let sequence = opf_sequence();
    let (first, second) = sequence.split_at(sequence.len() / 2);
    let (revisited, reused, fallbacks) = on_a_fresh_thread(|| {
        for (kind, net) in first {
            opf_answer(*kind, net);
        }
        let inj = refuse_ldl();
        let _faults = inj.install();
        let reg = Registry::new();
        let _guard = reg.install();
        let answers: Vec<Vec<u64>> = (second.iter())
            .map(|(kind, net)| opf_answer(*kind, net))
            .collect();
        let fallbacks = reg.counter_value("acopf.kkt.lu_fallbacks");
        (answers, plan_counts(&reg)[1], fallbacks)
    });
    assert!(
        reused >= 6 && fallbacks > 100,
        "{reused} reuses, {fallbacks} LU steps"
    );
    for (visit, (kind, net)) in second.iter().enumerate() {
        let fresh = on_a_fresh_thread(|| {
            let inj = refuse_ldl();
            let _faults = inj.install();
            opf_answer(*kind, net)
        });
        assert!(
            fresh == revisited[visit],
            "{kind:?} {}: an LU step on a kept plan moved the answer",
            net.name
        );
    }
}

#[test]
fn another_topology_of_equal_sizes_is_a_miss_and_answers_right() {
    let base = cases::load(CaseId::Ieee14);
    // An outage: fewer stamped contributions, another pattern.
    let mut outage = base.clone();
    outage.branches[5].in_service = false;
    assert!(!topology::outage_islands(&base, 5));
    // Branch 5 (bus 3 – bus 4) re-terminated at bus 5: the same buses,
    // generators, limits and bounds — equal `nx` / `neq` / `niq` — and,
    // no end on the slack, as many contributions to `Jg`, `Jh` and `H` as
    // before, at other columns. Only comparing positions tells them apart.
    let mut rewired = base.clone();
    assert_eq!(
        (rewired.branches[5].from_bus, rewired.branches[5].to_bus),
        (2, 3)
    );
    rewired.branches[5].to_bus = 4;
    assert!(rewired.validate().is_ok() && rewired.slack() == Some(0));

    let visits = [&base, &outage, &base, &rewired, &base, &rewired, &outage];
    let (answers, counts) = on_a_fresh_thread(|| {
        let reg = Registry::new();
        let _guard = reg.install();
        let answers: Vec<Vec<u64>> = visits.iter().map(|net| opf_answer(Opf::Ac, net)).collect();
        (answers, plan_counts(&reg))
    });
    assert_eq!(counts, [3, 4, 0], "three patterns, each built once");
    for (visit, net) in visits.iter().enumerate() {
        let fresh = on_a_fresh_thread(|| opf_answer(Opf::Ac, net));
        assert!(fresh[0] != u64::MAX, "visit {visit} failed");
        assert!(
            fresh == answers[visit],
            "visit {visit}: a kept plan moved the answer"
        );
    }
    assert_ne!(
        answers[0], answers[3],
        "the rewired network is another problem"
    );
}

#[test]
fn more_patterns_than_plans_evicts_the_least_recently_used() {
    let base = cases::load(CaseId::Ieee14);
    let patterns: Vec<Network> = (0..base.branches.len())
        .filter(|&k| !topology::outage_islands(&base, k))
        .take(14)
        .map(|k| {
            let mut net = base.clone();
            net.branches[k].in_service = false;
            net
        })
        .collect();
    let m = patterns.len();
    let cold: Vec<Vec<u64>> = (patterns.iter())
        .map(|net| on_a_fresh_thread(|| opf_answer(Opf::Ac, net)))
        .collect();
    on_a_fresh_thread(|| {
        let reg = Registry::new();
        let _guard = reg.install();
        let solve = |k: usize| {
            assert!(opf_answer(Opf::Ac, &patterns[k]) == cold[k], "pattern {k}");
            plan_counts(&reg)
        };
        let mut seen = [0; 3];
        for k in 0..m {
            seen = solve(k);
        }
        let [builds, reuse, evicted] = seen;
        assert_eq!((builds, reuse), (m as u64, 0));
        let kept = m - evicted as usize;
        assert!((2..m).contains(&kept), "kept {kept} of {m} patterns");
        // The `kept` most recent ones are home, the one before them is not.
        assert_eq!(solve(m - 1), [builds, 1, evicted], "the newest was kept");
        assert_eq!(
            solve(m - kept),
            [builds, 2, evicted],
            "the oldest kept one too"
        );
        assert_eq!(
            solve(0),
            [builds + 1, 2, evicted + 1],
            "the first was evicted"
        );
        // That build pushed out the least recently used: not `m - kept`,
        // which was just used, but its successor.
        assert_eq!(solve(m - kept), [builds + 1, 3, evicted + 1]);
        assert_eq!(solve(m - kept + 1), [builds + 2, 3, evicted + 2]);
    });
}

#[test]
fn a_solve_that_stops_short_leaves_a_plan_the_next_one_can_use() {
    let net = cases::load(CaseId::Ieee30);
    let cold = on_a_fresh_thread(|| opf_answer(Opf::Ac, &net));
    on_a_fresh_thread(|| {
        let reg = Registry::new();
        let _guard = reg.install();
        let mut short = AcopfOptions::default();
        short.ipm.max_iter = 3;
        let stopped = solve_acopf(&net, &short);
        assert!(
            matches!(&stopped, Err(AcopfError::NotConverged { iterations: 3, message, .. })
                if message == "iteration limit reached"),
            "{stopped:?}"
        );
        assert!(opf_answer(Opf::Ac, &net) == cold);
        assert_eq!(plan_counts(&reg), [1, 1, 0]);
    });
}

/// min (x − 3)², whose `x0` callback — reached while `ipm::solve` has the
/// thread's plans checked out — solves an ACOPF of its own.
struct SolvesWhileSolved<'a> {
    inner: &'a Network,
    inner_answer: RefCell<Vec<u64>>,
}

impl Nlp for SolvesWhileSolved<'_> {
    fn nx(&self) -> usize {
        1
    }
    fn neq(&self) -> usize {
        0
    }
    fn niq(&self) -> usize {
        0
    }
    fn x0(&self, x: &mut [f64]) {
        *self.inner_answer.borrow_mut() = opf_answer(Opf::Ac, self.inner);
        x[0] = 1.0;
    }
    fn objective(&self, x: &[f64], df: &mut [f64]) -> f64 {
        df[0] = 2.0 * (x[0] - 3.0);
        (x[0] - 3.0).powi(2)
    }
    fn equalities<S: Stamp>(&self, _x: &[f64], _g: &mut [f64], _jg: &mut S) {}
    fn inequalities<S: Stamp>(&self, _x: &[f64], _h: &mut [f64], _jh: &mut S) {}
    fn lagrangian_hessian<S: Stamp>(&self, _x: &[f64], _l: &[f64], _m: &[f64], hess: &mut S) {
        hess.add(0, 0, 2.0);
    }
}

#[test]
fn a_nested_ipm_solve_works_on_plans_of_its_own() {
    let net = cases::load(CaseId::Ieee14);
    let cold = on_a_fresh_thread(|| opf_answer(Opf::Ac, &net));
    on_a_fresh_thread(|| {
        let reg = Registry::new();
        let _guard = reg.install();
        assert!(opf_answer(Opf::Ac, &net) == cold);
        assert_eq!(plan_counts(&reg), [1, 0, 0]);

        let outer = SolvesWhileSolved {
            inner: &net,
            inner_answer: RefCell::default(),
        };
        let res = ipm::solve(&outer, &IpmOptions::default());
        assert!(res.converged && (res.x[0] - 3.0).abs() < 1e-5, "{res:?}");
        assert!(
            *outer.inner_answer.borrow() == cold,
            "the nested answer moved"
        );
        // The nested solves found the home empty — the case14 plan was
        // checked out with the rest — and built on a list of their own,
        // which the outer call's return replaced.
        let [builds, reuse, _] = plan_counts(&reg);
        assert!(builds >= 3 && reuse <= 1, "{builds} builds, {reuse} reuses");
        // The thread's own list is back, the first plan still in it.
        assert!(opf_answer(Opf::Ac, &net) == cold);
        assert_eq!(plan_counts(&reg), [builds, reuse + 1, 0]);
    });
}
