//! Exact work counts of the solver stack, pinned in one table.
//!
//! Iterations, factorizations, symbolic analyses, fill and the
//! screened / AC-verified split are deterministic functions of the code
//! and the embedded cases: the same on every machine, every run. They are
//! what a wall-time ratio is the shadow of — the cascade beats the brute
//! sweep *because* it AC-solves 19 of 186 outages, the batch beats the
//! naive loop *because* it analyzes 3 patterns instead of 96 — so this
//! table gates them directly, with no baseline file and no tolerance.
//! Wall times live in `benchmark/` alone.
//!
//! A row that moves fails its section's test by name. Fix the code, or —
//! when the change is *meant* to move the count — edit the row in the same
//! diff, where a reviewer sees it.
//!
//! Sweeps run with `parallel: false`: the serial N-1 sweep shares one
//! fresh engine across its outages, the parallel one gives every outage
//! its own, so `sparse.symbolic.*` would depend on the mode. And every
//! measurement runs on a thread of its own (`counted`): every power-flow
//! solver borrows a per-thread engine for each factorization
//! (`gm_sparse::with_thread_engine`), so a symbolic count is a function
//! of what the thread solved before — a fresh thread is the cold case,
//! and the `repeat_` rows pin the warm one. The IPM's KKT plans (`acopf.kkt.structure_*`) live per thread
//! under the same rules, with `repeat_` rows of their own.

use gm_acopf::{solve_acopf, solve_dcopf, solve_scopf, AcopfOptions, IpmOptions, ScopfOptions};
use gm_contingency::{n_minus_2_preview, run_gen_n1, run_n1, CaOptions, SweepMode};
use gm_network::{cases, load_scale, slack_pinned_bprime, CaseId, Network, ScaleId};
use gm_powerflow::{run_batch, solve, solve_fast_decoupled, InitStrategy, PfOptions, ScenarioSet};
use gm_sparse::{Ordering, SparseLu};
use gm_telemetry::Registry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `layer.count.case` → exact value, recorded at the commit before the
/// wall-time harness was retired (PR 17's parent) and identical across
/// runs and machines. Names follow `BENCHMARK.json`'s per-layer metrics.
const PINNED: &[(&str, u64)] = &[
    // Newton from a flat start: default options (Q-limits enforced) on
    // the paper cases, Q-limits off on the synthetic interconnects. One
    // Jacobian factorization per iteration.
    ("powerflow.newton_iters.case14", 4),
    ("powerflow.newton_iters.case30", 4),
    ("powerflow.newton_iters.case57", 3),
    ("powerflow.newton_iters.case118", 7),
    ("powerflow.newton_iters.case300", 10),
    ("powerflow.newton_iters.synth1354", 5),
    ("powerflow.newton_iters.synth2869", 9),
    ("powerflow.newton_iters.synth9241", 7),
    ("powerflow.newton_factorizations.case14", 4),
    ("powerflow.newton_factorizations.case30", 4),
    ("powerflow.newton_factorizations.case57", 3),
    ("powerflow.newton_factorizations.case118", 7),
    ("powerflow.newton_factorizations.case300", 10),
    ("powerflow.newton_factorizations.synth1354", 5),
    ("powerflow.newton_factorizations.synth2869", 9),
    ("powerflow.newton_factorizations.synth9241", 7),
    // One Jacobian analysis per cold solve (flat start, Q-limits off):
    // the stencil keeps explicit zeros, so the pattern is a function of
    // topology and roles and every iteration refactors into it. case14
    // and case30 read 2 while a flat start's exact-zero cancellations
    // were dropped from the first Jacobian's pattern.
    ("powerflow.newton_symbolic_builds.case14", 1),
    ("powerflow.newton_symbolic_builds.case30", 1),
    ("powerflow.newton_symbolic_builds.case57", 1),
    ("powerflow.newton_symbolic_builds.case118", 1),
    ("powerflow.newton_symbolic_builds.case300", 1),
    ("powerflow.newton_symbolic_builds.synth1354", 1),
    // The second of two identical solves on one thread: every pattern is
    // in the thread's engine, so it refactors and analyzes nothing. FDLF
    // counts its `B'`, `B''` and the polish Jacobian.
    ("powerflow.repeat_symbolic_builds.case118", 0),
    ("powerflow.repeat_symbolic_builds.synth1354", 0),
    ("powerflow.fdlf_repeat_symbolic_builds.case118", 0),
    // A second `InitStrategy::DcWarmStart` solve: the nested DC solve's
    // `B'` is in the thread's engine too.
    ("powerflow.dc_start_repeat_symbolic_builds.case118", 0),
    // `run_batch` over `load_sweep(0.90, 1.10, n)`: the batch is fast
    // because it analyzes a handful of Jacobian patterns, not one per
    // scenario, and warm-starts all but the first. On case300 three
    // scenarios fail in both engines and three seeded solves restart
    // flat; the diverging iterates are what demotes slots to direct
    // factorization (DESIGN.md 5d).
    ("powerflow.batch_converged.case118x96", 96),
    ("powerflow.batch_warm_hits.case118x96", 95),
    ("powerflow.batch_flat_restarts.case118x96", 0),
    // 3 Jacobian patterns + the DC seed's `B'`, which PR 23 moved from a
    // one-shot `SparseLu::factor` (uncounted) into the engine (was 3).
    ("powerflow.batch_symbolic_builds.case118x96", 4),
    ("powerflow.batch_direct_demotions.case118x96", 0),
    ("powerflow.batch_converged.case300x64", 61),
    ("powerflow.batch_warm_hits.case300x64", 60),
    ("powerflow.batch_flat_restarts.case300x64", 3),
    ("powerflow.batch_symbolic_builds.case300x64", 17),
    ("powerflow.batch_direct_demotions.case300x64", 88),
    // Interior-point ACOPF: one symbolic analysis of the KKT pattern per
    // solve, a numeric refactorization per barrier iteration. The
    // iteration rows were re-recorded when the fixed centering σ = 0.1
    // became Mehrotra's predictor–corrector (ROADMAP item 2(b)); the
    // parent's counts are beside them.
    ("acopf.ipm_iters.case14", 15),  // was 28
    ("acopf.ipm_iters.case30", 7),   // was 10
    ("acopf.ipm_iters.case57", 14),  // was 28
    ("acopf.ipm_iters.case118", 15), // was 32
    ("acopf.ipm_iters.case300", 16), // was 28
    ("acopf.symbolic_builds.case14", 1),
    ("acopf.symbolic_builds.case30", 1),
    ("acopf.symbolic_builds.case57", 1),
    ("acopf.symbolic_builds.case118", 1),
    ("acopf.symbolic_builds.case300", 1),
    // Preventive SCOPF: constraint-generation rounds after the economic
    // solve, security rows in the final problem, IPM iterations over all
    // rounds.
    ("acopf.scopf_rounds.case30", 1),
    ("acopf.scopf_security_rows.case30", 20),
    ("acopf.scopf_ipm_iters.case30", 15), // was 22
    ("acopf.scopf_rounds.case57", 2),
    ("acopf.scopf_security_rows.case57", 393),
    ("acopf.scopf_ipm_iters.case57", 43), // was 84
    // The DC-OPF the recovery ladder's DC rung runs: a QP on the same
    // IPM (29 under the fixed centering).
    ("acopf.dcopf_ipm_iters.case118", 11),
    // The KKT structure — pattern, slot program, LDLᵀ analysis — is
    // built once per IPM solve, never per barrier iteration: 1 for an
    // ACOPF; the economic solve plus one per round and relaxation for a
    // SCOPF. Each row is also checked against `acopf.ipm.solves`.
    ("acopf.kkt_structure_builds.case14", 1),
    ("acopf.kkt_structure_builds.case30", 1),
    ("acopf.kkt_structure_builds.case57", 1),
    ("acopf.kkt_structure_builds.case118", 1),
    ("acopf.kkt_structure_builds.case300", 1),
    ("acopf.scopf_kkt_structure_builds.case30", 2),
    ("acopf.scopf_kkt_structure_builds.case57", 3),
    // The second of two identical solves on one thread: every plan is
    // kept, so it builds no structure and analyzes no KKT pattern.
    ("acopf.repeat_kkt_structure_builds.case30", 0),
    ("acopf.repeat_kkt_structure_builds.case118", 0),
    ("acopf.repeat_symbolic_builds.case30", 0),
    ("acopf.repeat_symbolic_builds.case118", 0),
    ("acopf.scopf_repeat_kkt_structure_builds.case30", 0),
    // Cascade N-1, serial: the fidelity split. The cascade is faster than
    // the brute sweep exactly by the outages it does not AC-solve, and
    // the whole sweep shares one Jacobian analysis (the base case's; the
    // suspects are Woodbury-compensated against it, and its factor
    // replays that analysis on the thread's engine).
    ("contingency.outages.case118", 186),
    ("contingency.screened_out.case118", 167),
    ("contingency.ac_verified.case118", 19),
    ("contingency.newton_fallbacks.case118", 0),
    ("contingency.outages.case300", 411),
    ("contingency.screened_out.case300", 345),
    ("contingency.ac_verified.case300", 66),
    ("contingency.newton_fallbacks.case300", 0),
    // Engine analyses: the base Jacobian and the screen's B′. Was 1 while
    // the B′ and the compensation base were cold `SparseLu::factor`
    // calls, which this counter never saw; they are engine analyses or
    // replays now, so the rise is the B′ becoming visible.
    ("contingency.symbolic_builds.case118", 2),
    ("contingency.symbolic_builds.case300", 2),
    // Every fill-reducing ordering, cold or in the engine: the base
    // Jacobian and the B′. Was 3 while the compensation base ordered the
    // base Jacobian again instead of replaying it.
    ("contingency.amd_orders.case118", 2),
    ("contingency.amd_orders.case300", 2),
    // Serial topology sweeps on case118, base-case solve included,
    // analyse once per new post-outage pattern: the brute N-1 sweep (186
    // outages), the generator sweep (`run_gen_n1`, every unit outage a
    // bus-type change) and the N-2 preview verifying 16 pairs, as the
    // `study_sweep` benchmark workload calls it (its full-Newton
    // fallbacks factor). Analyses, refactorizations that fell back to
    // one, and demoted-slot direct factorizations. A new post-outage
    // pattern (ROADMAP items 7 and 14), or a factorization moving
    // between a cold `SparseLu::factor` and the thread's engine, moves
    // these rows on purpose; nothing else may.
    ("sweep.brute_symbolic_builds.case118", 181),
    // Was 54, one analysis per bus-type change: every unit outage is now
    // solved against the base Jacobian's factor (a replay of the base
    // solve's analysis), bordered where its bus turns PQ.
    ("sweep.gen_n1_symbolic_builds.case118", 1),
    ("sweep.gen_n1_newton_fallbacks.case118", 0),
    // Was 20: the B′ and the compensation base were cold factorizations
    // this counter never saw; the B′ is an engine analysis now.
    ("sweep.n2_symbolic_builds.case118", 21),
    ("sweep.n2_symbolic_fallbacks.case118", 12),
    ("sweep.n2_direct_factorizations.case118", 96),
    // Every fill-reducing ordering, cold or in the engine, so the fall
    // the symbolic rows above hide shows: the generator sweep was 54
    // (the base solve's, then one per unit outage's new pattern), the
    // N-2 preview 22 (the compensation base ordered the base Jacobian
    // again; its Newton fallbacks' analyses are the rest).
    ("sweep.gen_n1_amd_orders.case118", 1),
    ("sweep.n2_amd_orders.case118", 21),
    // nnz(L + U) of the slack-pinned DC B' under the default AMD ordering
    // and under greedy minimum degree (the A/B oracle), and the entries on
    // which the lane-blocked 64-RHS panel solve differs bitwise from the
    // scalar path. AMD orders synth9241 several times faster than greedy
    // (`sparse.amd_ms.*` in benchmark/); these rows hold that it does not
    // pay for that in fill.
    ("sparse.fill_amd.case118", 1380),
    ("sparse.fill_amd.case300", 2280),
    ("sparse.fill_amd.synth1354", 13_870),
    ("sparse.fill_amd.synth2869", 33_890),
    ("sparse.fill_amd.synth9241", 160_410),
    ("sparse.fill_greedy.case118", 1386),
    ("sparse.fill_greedy.case300", 2270),
    ("sparse.fill_greedy.synth1354", 13_884),
    ("sparse.fill_greedy.synth2869", 34_040),
    ("sparse.fill_greedy.synth9241", 164_996),
    ("sparse.panel64_mismatches.case118", 0),
    ("sparse.panel64_mismatches.case300", 0),
    ("sparse.panel64_mismatches.synth1354", 0),
    ("sparse.panel64_mismatches.synth2869", 0),
    ("sparse.panel64_mismatches.synth9241", 0),
];

type Rows = Vec<(String, u64)>;

/// Records one case's counts as `metric.case` rows.
fn put(rows: &mut Rows, case: &str, counts: &[(&str, u64)]) {
    rows.extend(
        counts
            .iter()
            .map(|(metric, value)| (format!("{metric}.{case}"), *value)),
    );
}

/// Runs `work` on a fresh thread — an empty per-thread `LuEngine` —
/// under a fresh telemetry registry, and hands back both.
fn counted<T: Send>(work: impl FnOnce() -> T + Send) -> (T, Registry) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let reg = Registry::new();
            let out = {
                let _guard = reg.install();
                work()
            };
            (out, reg)
        })
        .join()
    })
    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Compares one section's measured rows with the `PINNED` rows sharing its
/// prefix, in both directions, and fails listing every row that differs.
fn check(prefix: &str, measured: Rows) {
    let pinned = || PINNED.iter().filter(|(name, _)| name.starts_with(prefix));
    let mut diffs = Vec::new();
    for (name, got) in &measured {
        match pinned().find(|(n, _)| n == name) {
            Some((_, want)) if want == got => {}
            Some((_, want)) => diffs.push(format!("  {name}: pinned {want}, measured {got}")),
            None => diffs.push(format!("  {name}: not in the table, measured {got}")),
        }
    }
    for (name, want) in pinned() {
        if !measured.iter().any(|(n, _)| n == name) {
            diffs.push(format!("  {name}: pinned {want}, never measured"));
        }
    }
    assert!(
        diffs.is_empty(),
        "work counts moved (tests/work_counts.rs):\n{}",
        diffs.join("\n")
    );
}

fn paper_cases() -> impl Iterator<Item = (&'static str, Network)> {
    CaseId::ALL
        .into_iter()
        .map(|id| (id.short_name(), cases::load(id)))
}

fn scale_cases() -> impl Iterator<Item = (&'static str, &'static Network)> {
    ScaleId::ALL
        .into_iter()
        .map(|id| (id.short_name(), load_scale(id)))
}

#[test]
fn newton_iterations_and_factorizations() {
    let mut rows = Rows::new();
    let mut newton = |case: &str, net: &Network, opts: &PfOptions| {
        let (rep, reg) = counted(|| solve(net, opts).expect("Newton converges from flat"));
        let counts = [
            ("powerflow.newton_iters", rep.iterations as u64),
            (
                "powerflow.newton_factorizations",
                reg.counter_value("sparse.lu.factorizations"),
            ),
        ];
        put(&mut rows, case, &counts);
    };
    let no_q_limits = PfOptions {
        enforce_q_limits: false,
        ..Default::default()
    };
    for (case, net) in paper_cases() {
        newton(case, &net, &PfOptions::default());
    }
    for (case, net) in scale_cases() {
        newton(case, net, &no_q_limits);
    }
    let synth1354 = ("synth1354", Network::clone(load_scale(ScaleId::Synth1354)));
    for (case, net) in paper_cases().chain([synth1354]) {
        let (_, reg) = counted(|| solve(&net, &no_q_limits).expect("Newton converges from flat"));
        let builds = reg.counter_value("sparse.symbolic.build");
        rows.push((format!("powerflow.newton_symbolic_builds.{case}"), builds));
    }
    check("powerflow.newton_", rows);
}

#[test]
fn repeated_solves_on_one_thread_analyze_nothing() {
    /// `sparse.symbolic.build` of the second of two `solve` calls, which
    /// must also reproduce the first one's factorization count.
    fn second_run_builds<T>(solve: impl Fn() -> T + Sync) -> u64 {
        let (builds, _) = counted(|| {
            let first = Registry::new();
            {
                let _guard = first.install();
                solve();
            }
            assert!(first.counter_value("sparse.symbolic.build") > 0);
            let second = Registry::new();
            {
                let _guard = second.install();
                solve();
            }
            assert_eq!(
                first.counter_value("sparse.lu.factorizations"),
                second.counter_value("sparse.lu.factorizations")
            );
            second.counter_value("sparse.symbolic.build")
        });
        builds
    }
    let case118 = cases::load(CaseId::Ieee118);
    let synth1354 = load_scale(ScaleId::Synth1354);
    let opts = PfOptions::default();
    let fd_opts = PfOptions {
        enforce_q_limits: false,
        max_iter: 60,
        ..Default::default()
    };
    let newton = [("case118", &case118), ("synth1354", synth1354)].map(|(case, net)| {
        let builds = second_run_builds(|| solve(net, &opts).expect("Newton converges"));
        (format!("powerflow.repeat_symbolic_builds.{case}"), builds)
    });
    check("powerflow.repeat_", newton.to_vec());
    let fdlf =
        second_run_builds(|| solve_fast_decoupled(&case118, &fd_opts).expect("FDLF converges"));
    check(
        "powerflow.fdlf_repeat_",
        vec![("powerflow.fdlf_repeat_symbolic_builds.case118".into(), fdlf)],
    );
    let dc_start = PfOptions {
        init: InitStrategy::DcWarmStart,
        ..Default::default()
    };
    let dc = second_run_builds(|| solve(&case118, &dc_start).expect("Newton converges"));
    check(
        "powerflow.dc_start_repeat_",
        vec![(
            "powerflow.dc_start_repeat_symbolic_builds.case118".into(),
            dc,
        )],
    );
}

/// `acopf.kkt.structure_builds`: every IPM solve of the same call
/// either built its structure or found it kept.
fn kkt_structure_builds(reg: &Registry) -> u64 {
    let builds = reg.counter_value("acopf.kkt.structure_builds");
    let reuse = reg.counter_value("acopf.kkt.structure_reuse");
    assert_eq!(builds + reuse, reg.counter_value("acopf.ipm.solves"));
    builds
}

#[test]
fn ipm_iterations_and_kkt_analyses() {
    let mut rows = Rows::new();
    for (case, net) in paper_cases() {
        let (sol, reg) =
            counted(|| solve_acopf(&net, &AcopfOptions::default()).expect("ACOPF solves"));
        let counts = [
            ("acopf.ipm_iters", sol.iterations as u64),
            (
                "acopf.symbolic_builds",
                reg.counter_value("sparse.symbolic.build"),
            ),
            ("acopf.kkt_structure_builds", kkt_structure_builds(&reg)),
        ];
        put(&mut rows, case, &counts);
    }
    for id in [CaseId::Ieee30, CaseId::Ieee57] {
        let net = cases::load(id);
        let (sol, reg) =
            counted(|| solve_scopf(&net, &ScopfOptions::default()).expect("SCOPF secures"));
        let counts = [
            (
                "acopf.scopf_rounds",
                reg.counter_value("acopf.scopf.rounds"),
            ),
            (
                "acopf.scopf_security_rows",
                sol.n_security_constraints as u64,
            ),
            (
                "acopf.scopf_ipm_iters",
                reg.counter_value("acopf.ipm.iterations"),
            ),
            (
                "acopf.scopf_kkt_structure_builds",
                kkt_structure_builds(&reg),
            ),
        ];
        put(&mut rows, id.short_name(), &counts);
    }
    let case118 = cases::load(CaseId::Ieee118);
    let (dc, _) = counted(|| solve_dcopf(&case118, &IpmOptions::default()).expect("DC-OPF solves"));
    put(
        &mut rows,
        "case118",
        &[("acopf.dcopf_ipm_iters", dc.iterations as u64)],
    );
    // The warm side: the same solve again on the thread that just ran it.
    let repeated = |solve: &(dyn Fn() + Sync)| -> Registry {
        let (second, _) = counted(|| {
            solve();
            let second = Registry::new();
            {
                let _guard = second.install();
                solve();
            }
            second
        });
        second
    };
    for id in [CaseId::Ieee30, CaseId::Ieee118] {
        let net = cases::load(id);
        let reg = repeated(&|| {
            solve_acopf(&net, &AcopfOptions::default()).expect("ACOPF solves");
        });
        let counts = [
            (
                "acopf.repeat_kkt_structure_builds",
                kkt_structure_builds(&reg),
            ),
            (
                "acopf.repeat_symbolic_builds",
                reg.counter_value("sparse.symbolic.build"),
            ),
        ];
        put(&mut rows, id.short_name(), &counts);
    }
    let case30 = cases::load(CaseId::Ieee30);
    let reg = repeated(&|| {
        solve_scopf(&case30, &ScopfOptions::default()).expect("SCOPF secures");
    });
    let counts = [(
        "acopf.scopf_repeat_kkt_structure_builds",
        kkt_structure_builds(&reg),
    )];
    put(&mut rows, "case30", &counts);
    check("acopf.", rows);
}

#[test]
fn cascade_fidelity_split() {
    let serial = CaOptions {
        parallel: false,
        ..Default::default()
    };
    let mut rows = Rows::new();
    for id in [CaseId::Ieee118, CaseId::Ieee300] {
        let net = cases::load(id);
        let (rep, reg) = counted(|| run_n1(&net, &serial, None).expect("cascade sweeps"));
        let counts = [
            ("contingency.outages", rep.n_contingencies as u64),
            ("contingency.screened_out", rep.screened_out as u64),
            ("contingency.ac_verified", rep.ac_verified as u64),
            (
                "contingency.newton_fallbacks",
                reg.counter_value("ca.screen.fallback"),
            ),
            (
                "contingency.symbolic_builds",
                reg.counter_value("sparse.symbolic.build"),
            ),
            (
                "contingency.amd_orders",
                reg.counter_value("sparse.amd.orders"),
            ),
        ];
        put(&mut rows, id.short_name(), &counts);
    }
    check("contingency.", rows);
}

#[test]
fn topology_sweep_analyses() {
    let serial = CaOptions {
        parallel: false,
        ..Default::default()
    };
    let brute = CaOptions {
        mode: SweepMode::Brute,
        ..serial.clone()
    };
    let net = cases::load(CaseId::Ieee118);
    let builds = |reg: &Registry| reg.counter_value("sparse.symbolic.build");
    let orders = |reg: &Registry| reg.counter_value("sparse.amd.orders");
    let (_, n1) = counted(|| run_n1(&net, &brute, None).expect("brute sweeps"));
    let (_, gen) = counted(|| run_gen_n1(&net, &serial, None).expect("generator sweeps"));
    let (_, n2) = counted(|| n_minus_2_preview(&net, &serial, None, 16).expect("N-2 preview runs"));
    let counts = [
        ("sweep.brute_symbolic_builds", builds(&n1)),
        ("sweep.gen_n1_symbolic_builds", builds(&gen)),
        (
            "sweep.gen_n1_newton_fallbacks",
            gen.counter_value("ca.gen.fallback"),
        ),
        ("sweep.gen_n1_amd_orders", orders(&gen)),
        ("sweep.n2_symbolic_builds", builds(&n2)),
        ("sweep.n2_amd_orders", orders(&n2)),
        (
            "sweep.n2_symbolic_fallbacks",
            n2.counter_value("sparse.symbolic.fallback"),
        ),
        (
            "sweep.n2_direct_factorizations",
            n2.counter_value("sparse.symbolic.direct"),
        ),
    ];
    let mut rows = Rows::new();
    put(&mut rows, "case118", &counts);
    check("sweep.", rows);
}

#[test]
fn batch_warm_starts_and_analyses() {
    let mut rows = Rows::new();
    for (id, scenarios) in [(CaseId::Ieee118, 96), (CaseId::Ieee300, 64)] {
        let net = cases::load(id);
        let set = ScenarioSet::load_sweep(0.90, 1.10, scenarios);
        let (rep, reg) =
            counted(|| run_batch(&net, &PfOptions::default(), &set).expect("batch runs"));
        let converged = rep.outcomes.iter().filter(|o| o.report.is_ok()).count();
        let counts = [
            ("powerflow.batch_converged", converged as u64),
            ("powerflow.batch_warm_hits", rep.warm_hits),
            ("powerflow.batch_flat_restarts", rep.flat_restarts),
            (
                "powerflow.batch_symbolic_builds",
                reg.counter_value("sparse.symbolic.build"),
            ),
            (
                "powerflow.batch_direct_demotions",
                reg.counter_value("sparse.symbolic.direct"),
            ),
        ];
        let case = format!("{}x{scenarios}", id.short_name());
        put(&mut rows, &case, &counts);
    }
    check("powerflow.batch_", rows);
}

/// Entries on which the lane-blocked 64-RHS panel solve differs, bit for
/// bit, from 64 scalar solves of the same columns.
fn panel64_mismatches(lu: &SparseLu, n: usize) -> u64 {
    const NRHS: usize = 64;
    let mut rng = SmallRng::seed_from_u64(0x0064);
    let init: Vec<f64> = (0..n * NRHS).map(|_| rng.random_range(-2.0..2.0)).collect();
    let mut panel = init.clone();
    lu.solve_many_in_place(&mut panel, NRHS, &mut vec![0.0; n * NRHS + NRHS]);
    let (mut col, mut scratch) = (vec![0.0; n], vec![0.0; n]);
    let mut mismatches = 0;
    for s in 0..NRHS {
        for i in 0..n {
            col[i] = init[i * NRHS + s];
        }
        lu.solve_in_place(&mut col, &mut scratch);
        mismatches += (0..n)
            .filter(|&i| panel[i * NRHS + s].to_bits() != col[i].to_bits())
            .count() as u64;
    }
    mismatches
}

#[test]
fn fill_under_both_orderings_and_panel_kernel() {
    let mut rows = Rows::new();
    let mut factor = |case: &str, net: &Network| {
        // The slack-pinned DC B′: the power-grid Laplacian pattern class
        // every solver in the stack factors.
        let b = slack_pinned_bprime(net, net.slack().unwrap_or(0)).to_csr();
        let amd = SparseLu::factor_with(&b, Ordering::Amd, 0.1).expect("B' factors");
        let greedy = SparseLu::factor_with(&b, Ordering::MinDegree, 0.1).expect("B' factors");
        let (fill_amd, fill_greedy) = (amd.factor_nnz() as u64, greedy.factor_nnz() as u64);
        assert!(
            fill_amd * 10 <= fill_greedy * 11,
            "{case}: AMD fill {fill_amd} exceeds 1.1x greedy fill {fill_greedy}"
        );
        let counts = [
            ("sparse.fill_amd", fill_amd),
            ("sparse.fill_greedy", fill_greedy),
            (
                "sparse.panel64_mismatches",
                panel64_mismatches(&amd, b.rows()),
            ),
        ];
        put(&mut rows, case, &counts);
    };
    for id in [CaseId::Ieee118, CaseId::Ieee300] {
        factor(id.short_name(), &cases::load(id));
    }
    for (case, net) in scale_cases() {
        factor(case, net);
    }
    check("sparse.", rows);
}
