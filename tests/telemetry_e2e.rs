//! Telemetry integration tests: a scripted conversation must leave a
//! coherent span tree and nonzero solver counters in the session
//! registry, two identical sessions must produce identical metrics
//! (replayability), and the instrumentation must stay cheap enough to
//! leave always-on.

use gm_network::{cases, CaseId};
use gm_powerflow::{solve, PfOptions};
use gridmind_core::{GridMind, ModelProfile};
use std::time::Instant;

fn scripted_session() -> Option<GridMind> {
    let mut gm = GridMind::new(ModelProfile::by_name("GPT-5")?);
    gm.ask("solve case30");
    gm.ask("run the n-1 contingency analysis");
    Some(gm)
}

#[test]
fn scripted_session_produces_span_tree_and_solver_counters() {
    let gm = scripted_session().expect("built-in GPT-5 profile");
    let snap = gm.session.telemetry.snapshot();

    // Every solver layer the conversation touched must have counted
    // real work: IPM iterations from the ACOPF turn, Newton iterations
    // and LU factorizations from the N-1 sweep, and the sweep itself.
    for key in [
        "pf.newton.iterations",
        "acopf.ipm.iterations",
        "ca.outages_evaluated",
        "sparse.lu.factorizations",
        "tool.invocations",
        "llm.turns",
    ] {
        let n = snap.counters.get(key).copied().unwrap_or(0);
        assert!(n > 0, "counter {key} is {n}, expected nonzero");
    }

    // The span tree nests agent work under the coordinator: each
    // `coordinator.ask` root has a `coordinator.step` child, and the
    // solver spans hang off the tool spans (never off the root).
    let roots: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "coordinator.ask")
        .collect();
    assert_eq!(roots.len(), 2, "one root span per ask");
    for root in &roots {
        assert!(
            snap.spans
                .iter()
                .any(|s| s.parent == Some(root.id) && s.name == "coordinator.step"),
            "root span {} has no coordinator.step child",
            root.id
        );
        assert!(root.dur_s.is_some(), "root span closed");
    }
    let newton = snap
        .spans
        .iter()
        .find(|s| s.name == "pf.newton.solve")
        .expect("newton spans recorded");
    let parent = &snap.spans[newton.parent.expect("newton span is nested")];
    assert_ne!(parent.name, "coordinator.ask");

    // The rayon-parallel contingency sweep re-parents its workers onto
    // the sweep span, so per-outage solves stay in the tree. Under the
    // default cascade mode most outages are screened out without an AC
    // solve; every outage that *was* AC-evaluated (compensated or
    // full-Newton fallback) must have left at least one child span.
    let sweep = snap
        .spans
        .iter()
        .find(|s| s.name == "ca.sweep")
        .expect("sweep span recorded");
    let sweep_children = snap
        .spans
        .iter()
        .filter(|s| s.parent == Some(sweep.id))
        .count();
    let counter = |k: &str| snap.counters.get(k).copied().unwrap_or(0) as usize;
    let ac_evaluated = counter("ca.screen.compensated") + counter("ca.screen.fallback");
    assert!(ac_evaluated > 0, "cascade AC-verified no outages");
    assert!(
        sweep_children >= ac_evaluated,
        "sweep has {sweep_children} children, expected at least the {ac_evaluated} AC evaluations"
    );
}

#[test]
fn every_required_solver_metric_is_live_after_a_full_dialogue() {
    // `gm-trace --check` as an assertion: one dialogue through the ACOPF
    // agent, the cascade N-1 sweep, the batch engine and a second case
    // must leave every `REQUIRED_SOLVER_METRICS` counter nonzero — a
    // solver path that went dark (or lost its instrumentation) shows up
    // here by name.
    let mut gm = GridMind::new(ModelProfile::paper_models().remove(0));
    for request in [
        "solve case30",
        "run the n-1 contingency analysis",
        "sweep the load from 90% to 110% in 6 steps",
        "what are the most critical contingencies in case14",
    ] {
        let reply = gm.ask(request);
        assert!(reply.steps.iter().all(|s| s.completed), "{request}");
    }
    let missing = gm_telemetry::check_required_metrics(&gm.session.telemetry.export())
        .expect("a session export embeds a snapshot");
    assert!(missing.is_empty(), "required metrics are zero: {missing:?}");
}

/// `scripted_session` on a thread of its own: no earlier solve's
/// symbolic analyses in the thread's `LuEngine`.
fn scripted_session_on_a_fresh_thread() -> Option<GridMind> {
    std::thread::spawn(scripted_session)
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[test]
fn identical_sessions_produce_identical_metrics() {
    // Replayability: the same scripted conversation must count the same
    // work, iteration for iteration. Wall-clock durations differ;
    // counters and deterministic histogram totals must not. The case
    // library is built first: that happens once per process and is
    // counted (`network.case_library.builds`) by whoever triggers it.
    // And each session runs on a thread of its own: the solvers keep
    // their symbolic analyses per thread (`gm_sparse::with_thread_engine`),
    // so "the same work" is a statement about equal thread histories —
    // what a shared history changes is pinned in the test below.
    gm_network::library::case(CaseId::Ieee30);
    let a = scripted_session_on_a_fresh_thread().expect("built-in GPT-5 profile");
    let b = scripted_session_on_a_fresh_thread().expect("built-in GPT-5 profile");
    let (sa, sb) = (
        a.session.telemetry.snapshot(),
        b.session.telemetry.snapshot(),
    );
    // `llm.tokens` is estimated from the narrated text, which embeds
    // *measured* tool wall times ("solved in 3.1 ms"), so its digit
    // count — and hence the estimate — can wobble by a token or two.
    // Every other counter is an exact work count and must match.
    let exact = |s: &gm_telemetry::TelemetrySnapshot| {
        let mut c = s.counters.clone();
        c.remove("llm.tokens");
        c
    };
    assert_eq!(exact(&sa), exact(&sb), "counter maps diverged");
    let tokens = |s: &gm_telemetry::TelemetrySnapshot| s.counters["llm.tokens"];
    assert!(
        tokens(&sa).abs_diff(tokens(&sb)) <= 8,
        "token estimates diverged beyond formatting noise: {} vs {}",
        tokens(&sa),
        tokens(&sb)
    );
    assert_eq!(
        sa.spans.len(),
        sb.spans.len(),
        "span trees have different sizes"
    );
    let names = |s: &gm_telemetry::TelemetrySnapshot| {
        let mut v: Vec<String> = s.spans.iter().map(|sp| sp.name.clone()).collect();
        v.sort();
        v
    };
    assert_eq!(names(&sa), names(&sb), "span name multisets diverged");
    // Virtual time mixes the seeded model latencies with *measured*
    // tool wall time (see VirtualClock::measure), so it is close but
    // not bit-identical across runs — only work counts are.
    assert!((sa.virtual_now_s - sb.virtual_now_s).abs() < 1.0);
}

#[test]
fn a_repeated_session_on_one_thread_reanalyzes_less_and_answers_the_same() {
    // The other half of the replay contract: a second session on the
    // thread that ran the first finds that one's symbolic analyses in
    // the thread's engine and its KKT plan beside them. It must give the
    // same answers from the same numeric work — iteration for
    // iteration, factorization for factorization — and only skip
    // analyses and structure builds.
    gm_network::library::case(CaseId::Ieee30);
    let (a, b) = std::thread::spawn(|| {
        let a = scripted_session().expect("built-in GPT-5 profile");
        (a, scripted_session().expect("built-in GPT-5 profile"))
    })
    .join()
    .expect("session thread panicked");

    let answers = |gm: &GridMind| {
        let pf = gm
            .session
            .fresh_base_pf()
            .expect("the sweep left a base PF");
        let ca = (gm.session.fresh_contingency()).expect("the sweep left a report");
        let acopf = gm.session.fresh_acopf().expect("the solve left an ACOPF");
        let mut bits: Vec<u64> = vec![acopf.objective_cost.to_bits()];
        bits.extend(
            pf.buses
                .iter()
                .flat_map(|b| [b.vm_pu, b.va_deg])
                .map(f64::to_bits),
        );
        bits.extend(
            (ca.outcomes.iter()).flat_map(|o| [o.max_loading_pct.to_bits(), o.min_vm.0.to_bits()]),
        );
        bits
    };
    assert_eq!(answers(&a), answers(&b), "answers depend on thread history");

    let (sa, sb) = (
        a.session.telemetry.snapshot(),
        b.session.telemetry.snapshot(),
    );
    let count =
        |s: &gm_telemetry::TelemetrySnapshot, k: &str| s.counters.get(k).copied().unwrap_or(0);
    for same in [
        "pf.newton.iterations",
        "sparse.lu.factorizations",
        "sparse.ldl.factorizations",
        "sparse.lu.solves",
        "acopf.ipm.solves",
        "acopf.ipm.iterations",
        "acopf.kkt.refine_steps",
    ] {
        assert_eq!(count(&sa, same), count(&sb, same), "{same} moved");
    }
    for fewer in ["sparse.symbolic.build", "acopf.kkt.structure_builds"] {
        assert!(
            count(&sb, fewer) < count(&sa, fewer),
            "{fewer}: {} in the repeat, {} in the first run",
            count(&sb, fewer),
            count(&sa, fewer)
        );
    }
    // The ACOPF turn's one IPM solve: built in the first session, found
    // kept in the second.
    let plans = |s| {
        [
            count(s, "acopf.kkt.structure_builds"),
            count(s, "acopf.kkt.structure_reuse"),
        ]
    };
    assert_eq!((plans(&sa), plans(&sb)), ([1, 0], [0, 1]));
}

#[test]
fn newton_telemetry_overhead_is_small_on_case118() {
    // Budget: <2 % wall overhead for the counters + span guard on a
    // case118 Newton solve. Wall timing in CI is noisy, so the assert
    // uses a very generous 1.5× margin — it exists to catch an
    // accidentally quadratic or allocating hot path, not to certify
    // the 2 % figure (`telemetry.span_ns` / `telemetry.counter_add_ns`
    // against `powerflow.newton_ms.case118` from `benchmark/run.sh
    // --trace` are the place to measure that).
    let net = cases::load(CaseId::Ieee118);
    let opts = PfOptions::default();
    let time_solves = |n: usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..n {
            let t0 = Instant::now();
            let rep = solve(&net, &opts).expect("case118 converges");
            assert!(rep.converged);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    // Warm-up, then best-of-N with no collector installed (the
    // counter/span calls hit the empty-TLS fast path).
    time_solves(2);
    let bare = time_solves(8);
    // Best-of-N with a collector recording everything.
    let reg = gm_telemetry::Registry::new();
    let _guard = reg.install();
    let instrumented = time_solves(8);
    assert!(
        reg.counters()["pf.newton.solves"] >= 8,
        "collector actually recorded"
    );
    assert!(
        instrumented < bare * 1.5 + 1e-3,
        "instrumented {instrumented:.6}s vs bare {bare:.6}s — telemetry overhead too high"
    );
}
