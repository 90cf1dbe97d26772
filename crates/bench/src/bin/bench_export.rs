//! Emits the machine-readable benchmark artifacts consumed by CI:
//! `BENCH_pf.json`, `BENCH_acopf.json`, `BENCH_sparse.json`,
//! `BENCH_e2e.json`, and `BENCH_serve.json`.
//!
//! Each file pairs wall-clock statistics with the full telemetry export
//! (counters, histograms, span tree) under a `"telemetry"` key, so
//! `gm-trace BENCH_e2e.json --check` can verify that every registered
//! solver metric was actually exercised by the run, and `gm-trace
//! BENCH_pf.json` renders the span tree behind the numbers.
//!
//! ```text
//! cargo run -p gm-bench --bin bench_export --release -- [out_dir] [--compare <baseline_dir>]
//! ```
//!
//! With `--compare`, each fresh artifact is additionally checked
//! against the committed baseline in `<baseline_dir>`: a tracked wall
//! statistic regressing by more than 25% (`BENCH_REGRESSION_TOLERANCE`
//! overrides), or any baseline-nonzero telemetry counter going to
//! zero, fails the run with a nonzero exit — the CI regression gate.
//! With or without it, the run fails when the ACOPF artifact's exact
//! work counts show more than one KKT symbolic analysis per IPM solve
//! or any pivoting-LU fallback step.
//!
//! Interpretation: `mean_s`/`std_s` are wall-clock per solve (host
//! dependent); the telemetry counters (`pf.newton.iterations`,
//! `acopf.ipm.iterations`, `sparse.lu.factorizations`, ...) are exact
//! work counts and therefore comparable across machines.

use std::process::ExitCode;
use std::time::Instant;

use gm_acopf::{solve_acopf, solve_scopf, AcopfOptions, ScopfOptions};
use gm_bench::compare::{compare_all, tolerances_from_env};
use gm_bench::{read_artifact, stats_value, write_artifact};
use gm_network::{cases, CaseId};
use gm_powerflow::{solve, PfOptions};
use gm_telemetry::Registry;
use gridmind_core::{GridMind, ModelProfile};
use serde_json::{json, Value};

const PF_RUNS: usize = 5;
const ACOPF_RUNS: usize = 3;
const SPARSE_RUNS: usize = 20;

/// Newton power flow across every paper case, telemetry installed.
fn bench_pf() -> Value {
    let reg = Registry::new();
    let _guard = reg.install();
    let mut per_case = serde_json::Map::new();
    for id in CaseId::ALL {
        let net = cases::load(id);
        let mut secs = Vec::with_capacity(PF_RUNS);
        let mut iterations = 0usize;
        for _ in 0..PF_RUNS {
            let t0 = Instant::now();
            let rep = solve(&net, &PfOptions::default()).expect("paper case converges");
            secs.push(t0.elapsed().as_secs_f64());
            iterations = rep.iterations;
        }
        let mut v = stats_value(&secs);
        v["n_bus"] = json!(net.n_bus());
        v["newton_iterations"] = json!(iterations);
        per_case.insert(format!("{id:?}"), v);
    }
    let mut out = json!({ "bench": "pf", "cases": Value::Object(per_case) });
    out["telemetry"] = reg.export();
    out
}

/// Interior-point ACOPF on the cases the paper evaluates (§4.2) plus
/// case300, and the preventive SCOPF on the two cases small enough to
/// repeat (`<case>-scopf` rows, gated like the rest through `mean_s`).
fn bench_acopf() -> Value {
    let reg = Registry::new();
    let _guard = reg.install();
    let mut per_case = serde_json::Map::new();
    for id in [
        CaseId::Ieee14,
        CaseId::Ieee30,
        CaseId::Ieee57,
        CaseId::Ieee118,
        CaseId::Ieee300,
    ] {
        let net = cases::load(id);
        let mut secs = Vec::with_capacity(ACOPF_RUNS);
        let mut iterations = 0usize;
        let mut cost = 0.0f64;
        for _ in 0..ACOPF_RUNS {
            let t0 = Instant::now();
            let sol = solve_acopf(&net, &AcopfOptions::default()).expect("paper case solves");
            secs.push(t0.elapsed().as_secs_f64());
            iterations = sol.iterations;
            cost = sol.objective_cost;
        }
        let mut v = stats_value(&secs);
        v["n_bus"] = json!(net.n_bus());
        v["ipm_iterations"] = json!(iterations);
        v["objective_cost"] = json!(cost);
        per_case.insert(format!("{id:?}"), v);
    }
    for id in [CaseId::Ieee30, CaseId::Ieee57] {
        let net = cases::load(id);
        let mut secs = Vec::with_capacity(ACOPF_RUNS);
        let mut last = None;
        for _ in 0..ACOPF_RUNS {
            let t0 = Instant::now();
            let sol = solve_scopf(&net, &ScopfOptions::default()).expect("paper case secures");
            secs.push(t0.elapsed().as_secs_f64());
            last = Some(sol);
        }
        let mut v = stats_value(&secs);
        v["n_bus"] = json!(net.n_bus());
        if let Some(sol) = last {
            v["objective_cost"] = json!(sol.solution.objective_cost);
            v["security_premium"] = json!(sol.security_premium);
            v["n_security_constraints"] = json!(sol.n_security_constraints);
        }
        per_case.insert(format!("{id:?}-scopf"), v);
    }
    let mut out = json!({ "bench": "acopf", "cases": Value::Object(per_case) });
    out["telemetry"] = reg.export();
    out
}

/// Deterministic work-count gate on the ACOPF artifact: the IPM must
/// analyze its KKT pattern once per solve and never need the pivoting-LU
/// fallback on the paper cases. Returns the violated rules.
fn acopf_kkt_violations(acopf: &Value) -> Vec<String> {
    let counter = |name: &str| acopf["telemetry"]["counters"][name].as_u64().unwrap_or(0);
    let (builds, solves) = (
        counter("sparse.symbolic.build"),
        counter("acopf.ipm.solves"),
    );
    let fallbacks = counter("acopf.kkt.lu_fallbacks");
    let mut out = Vec::new();
    if builds > solves {
        out.push(format!(
            "BENCH_acopf.json: {builds} symbolic analyses for {solves} IPM solves (more than one per solve)"
        ));
    }
    if fallbacks != 0 {
        out.push(format!(
            "BENCH_acopf.json: {fallbacks} KKT steps fell back to the pivoting LU"
        ));
    }
    out
}

/// Symbolic-analysis vs pattern-reuse refactorization microbenchmark on
/// the Ybus sparsity of the small and large paper cases — the structure
/// every Newton Jacobian inherits. `analyze` times a full factorization
/// (ordering + symbolic + numeric); `refactor` times the
/// [`gm_sparse::LuEngine`] cache-hit path on perturbed values of the
/// same pattern.
fn bench_sparse() -> Value {
    use gm_network::YBus;
    use gm_sparse::{CsMat, LuEngine, Ordering, SparseLu, Triplets};
    let reg = Registry::new();
    let _guard = reg.install();
    let mut per_case = serde_json::Map::new();
    for id in [CaseId::Ieee14, CaseId::Ieee118] {
        let net = cases::load(id);
        let ybus = YBus::assemble(&net);
        let n = net.n_bus();
        // Real-valued stand-in with the Ybus pattern; the boosted
        // diagonal keeps the pivot sequence stable under the per-run
        // value perturbation, so every engine hit stays on the
        // refactorization path.
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            let (cols, vals) = ybus.matrix.row(i);
            for (&j, &y) in cols.iter().zip(vals) {
                let mag = (y.re * y.re + y.im * y.im).sqrt();
                t.push(i, j, if i == j { 8.0 + mag } else { -0.1 * mag });
            }
        }
        let mut a: CsMat<f64> = t.to_csr();

        let mut analyze_secs = Vec::with_capacity(SPARSE_RUNS);
        for _ in 0..SPARSE_RUNS {
            let t0 = Instant::now();
            let lu = SparseLu::factor_with(&a, Ordering::MinDegree, 0.1).expect("ybus factors");
            analyze_secs.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(lu);
        }

        let mut engine = LuEngine::new();
        engine.factorize(&a).expect("ybus factors"); // untimed cache fill
        let mut refactor_secs = Vec::with_capacity(SPARSE_RUNS);
        for run in 0..SPARSE_RUNS {
            for (k, v) in a.values_mut().iter_mut().enumerate() {
                *v *= 1.0 + 1e-9 * (((run * 31 + k) as f64) * 0.7).sin();
            }
            let t0 = Instant::now();
            let lu = engine.factorize(&a).expect("refactor succeeds");
            refactor_secs.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(lu);
        }

        let analyze = stats_value(&analyze_secs);
        let refactor = stats_value(&refactor_secs);
        let speedup = analyze["mean_s"].as_f64().unwrap_or(0.0)
            / refactor["mean_s"]
                .as_f64()
                .unwrap_or(f64::INFINITY)
                .max(1e-12);
        per_case.insert(
            format!("{id:?}"),
            json!({
                "n_bus": n,
                "nnz": a.nnz(),
                "analyze": analyze,
                "refactor": refactor,
                "refactor_speedup": speedup,
            }),
        );
    }
    let mut out = json!({ "bench": "sparse", "cases": Value::Object(per_case) });
    out["telemetry"] = reg.export();
    out
}

/// Scripted agent session exercising the whole stack: NLU → coordinator
/// → ACOPF agent (IPM) → CA agent (Newton sweeps + LU). Its telemetry
/// export is the one `gm-trace --check` gates in CI.
fn bench_e2e() -> Value {
    let profile = ModelProfile::paper_models().remove(0);
    let model = profile.name.clone();
    let mut gm = GridMind::new(profile);
    let script = [
        "solve case30",
        "run the n-1 contingency analysis",
        "sweep the load from 90% to 110% in 6 steps",
        "what are the most critical contingencies in case14",
    ];
    let t0 = Instant::now();
    let mut steps = Vec::new();
    for request in script {
        let reply = gm.ask(request);
        steps.push(json!({
            "request": request,
            "completed": reply.steps.iter().all(|s| s.completed),
            "virtual_elapsed_s": reply.elapsed_s,
            "tokens": reply.tokens.total(),
        }));
    }
    let mut out = json!({
        "bench": "e2e",
        "model": model,
        "wall_elapsed_s": t0.elapsed().as_secs_f64(),
        "script": Value::Array(steps),
    });
    out["telemetry"] = gm.session.telemetry.export();
    out
}

/// Deterministic serve soak through the workload driver, summarized as
/// per-query-kind latency quantiles (`kinds.<kind>.{p50_s,p99_s}` are
/// the compare-gated statistics) with the merged server telemetry —
/// including the `serve.latency.*` sketches — embedded for
/// `gm-trace slo` and `gm-trace --check`.
fn bench_serve() -> Value {
    let report = gm_serve::workload::run(&gm_serve::workload::WorkloadConfig {
        workers: 4,
        sessions: 8,
        queue_capacity: 16,
        cache_capacity: 64,
        script: gm_serve::workload::default_script(),
        faults: None,
    });
    let mut out = json!({
        "bench": "serve",
        "passed": report.passed(),
        "expected": report.expected,
        "received": report.received,
        "cache_hits": report.cache.hits,
        "wall_s": report.wall_s,
        "kinds": report.latency_summary(),
    });
    out["telemetry"] = report.telemetry.clone();
    out
}

fn main() -> ExitCode {
    let (out_dir, baseline_dir) = match gm_bench::parse_args() {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("bench_export: {e}");
            return ExitCode::FAILURE;
        }
    };
    let acopf = bench_acopf();
    let kkt_violations = acopf_kkt_violations(&acopf);
    let artifacts = [
        ("BENCH_pf.json", bench_pf()),
        ("BENCH_acopf.json", acopf),
        ("BENCH_sparse.json", bench_sparse()),
        ("BENCH_e2e.json", bench_e2e()),
        ("BENCH_serve.json", bench_serve()),
    ];
    for (name, value) in &artifacts {
        match write_artifact(&out_dir, name, value) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("bench_export: writing {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for line in &kkt_violations {
        eprintln!("bench_export: REGRESSION {line}");
    }
    if !kkt_violations.is_empty() {
        return ExitCode::FAILURE;
    }

    if let Some(base_dir) = baseline_dir {
        let mut baselines = Vec::new();
        for (name, _) in &artifacts {
            match read_artifact(&base_dir, name) {
                Ok(doc) => baselines.push(doc),
                Err(e) => {
                    eprintln!("bench_export: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let triples: Vec<(&str, &Value, &Value)> = artifacts
            .iter()
            .zip(&baselines)
            .map(|((name, current), baseline)| (*name, baseline, current))
            .collect();
        let tolerances = tolerances_from_env();
        let report = compare_all(&triples, tolerances);
        println!(
            "compared {} wall stats and {} counters against {} (wall tolerance {:.0}%, quantile tolerance {:.0}%)",
            report.walls_checked,
            report.counters_checked,
            base_dir.display(),
            tolerances.wall * 100.0,
            tolerances.quantile * 100.0
        );
        if !report.passed() {
            for line in report.failures() {
                eprintln!("bench_export: REGRESSION {line}");
            }
            return ExitCode::FAILURE;
        }
        println!("no regressions");
    }

    println!("inspect with: cargo run -p gm-telemetry --bin gm-trace -- BENCH_e2e.json --check");
    ExitCode::SUCCESS
}
