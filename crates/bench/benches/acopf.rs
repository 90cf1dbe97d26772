//! Criterion bench: interior-point ACOPF per IEEE case (the solver cost
//! component visible in Figure 3 right), and what a thread's kept KKT
//! plans save a repeated solve (`repeat_solve`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gm_acopf::{
    economic_dispatch, solve_acopf, solve_dcopf, solve_scopf, AcopfOptions, IpmOptions,
    ScopfOptions,
};
use gm_network::{cases, CaseId, Network};
use gm_telemetry::Registry;
use std::hint::black_box;

fn bench_acopf(c: &mut Criterion) {
    let mut group = c.benchmark_group("acopf_ipm");
    group.sample_size(10);
    for id in [
        CaseId::Ieee14,
        CaseId::Ieee30,
        CaseId::Ieee57,
        CaseId::Ieee118,
    ] {
        let net = cases::load(id);
        group.bench_with_input(BenchmarkId::from_parameter(id.size()), &net, |b, net| {
            b.iter(|| {
                black_box(
                    solve_acopf(net, &AcopfOptions::default())
                        .unwrap()
                        .objective_cost,
                )
            })
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("opf_baselines_case118");
    group.sample_size(10);
    let net = cases::load(CaseId::Ieee118);
    group.bench_function("economic_dispatch", |b| {
        b.iter(|| black_box(economic_dispatch(&net, net.total_load_mw()).cost))
    });
    group.bench_function("dc_opf", |b| {
        b.iter(|| {
            black_box(
                solve_dcopf(&net, &IpmOptions::default())
                    .unwrap()
                    .objective_cost,
            )
        })
    });
    group.bench_function("ac_opf", |b| {
        b.iter(|| {
            black_box(
                solve_acopf(&net, &AcopfOptions::default())
                    .unwrap()
                    .objective_cost,
            )
        })
    });
    group.finish();
}

/// A named solve of a case, returning its objective.
type RepeatWorkload = (String, Network, fn(&Network) -> f64);

/// What `repeat_solve` times: ACOPF on four cases, SCOPF on case30.
fn repeat_workloads() -> Vec<RepeatWorkload> {
    let acopf: fn(&Network) -> f64 = |net| {
        let sol = solve_acopf(net, &AcopfOptions::default()).unwrap();
        sol.objective_cost
    };
    let scopf: fn(&Network) -> f64 = |net| {
        let sol = solve_scopf(net, &ScopfOptions::default()).unwrap();
        sol.solution.objective_cost
    };
    let mut out: Vec<RepeatWorkload> = [
        CaseId::Ieee14,
        CaseId::Ieee30,
        CaseId::Ieee57,
        CaseId::Ieee118,
    ]
    .into_iter()
    .map(|id| (format!("acopf/{}", id.short_name()), cases::load(id), acopf))
    .collect();
    out.push(("scopf/case30".into(), cases::load(CaseId::Ieee30), scopf));
    out
}

/// What the kept plans cost and save, from the solver's own timers:
/// the fastest plan build of five cold threads, the fastest lookup of
/// twenty warm solves — an upper bound: from the start of the search to
/// the last verified position, so the first evaluation of `Jg`, `Jh` and
/// `H`, which every solve makes, is in it — and what the thread's plan
/// list retains afterwards. A SCOPF line covers its economic and round
/// plans together.
fn print_plan_costs() {
    println!("repeat_solve: plan build vs lookup (min), retained after one cold solve");
    println!("  workload        plans   build µs  lookup µs  lookup/build  retained kB");
    for (name, net, solve) in repeat_workloads() {
        let (mut build_s, mut lookup_s, mut retained_kb, mut plans) = (f64::MAX, f64::MAX, 0.0, 0);
        for _ in 0..5 {
            let reg = Registry::new();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _guard = reg.install();
                    solve(&net);
                    plans = reg.counter_value("acopf.kkt.structure_builds");
                    for _ in 0..20 {
                        solve(&net);
                    }
                    assert_eq!(reg.counter_value("acopf.kkt.structure_builds"), plans);
                });
            });
            let h = reg.histograms_snapshot();
            // Per plan: the economic solve's and the round's both count.
            build_s = build_s.min(h["acopf.kkt.build_s"].sum);
            lookup_s = lookup_s.min(h["acopf.kkt.lookup_s"].min * plans as f64);
            retained_kb = h["sparse.engine.retained_kb"].max;
        }
        println!(
            "  {name:<14}  {plans:>5}  {:>9.1}  {:>9.2}  {:>11.1}%  {retained_kb:>11.1}",
            build_s * 1e6,
            lookup_s * 1e6,
            100.0 * lookup_s / build_s,
        );
    }
}

/// A thread that has solved this topology before keeps its KKT plan:
/// `cold_thread` pays for structure passes, KKT pattern, slot program and
/// LDLᵀ analysis on every sample, `warm_thread` only on the first (the
/// idiom `sparse_lu`'s `repeat_solve` set for Newton).
fn bench_repeat_solve(c: &mut Criterion) {
    print_plan_costs();
    let mut group = c.benchmark_group("repeat_solve");
    group.sample_size(20);
    for (name, net, solve) in repeat_workloads() {
        group.bench_with_input(BenchmarkId::new("cold_thread", &name), &net, |b, net| {
            b.iter(|| std::thread::scope(|s| black_box(s.spawn(|| solve(net)).join().unwrap())))
        });
        group.bench_with_input(BenchmarkId::new("warm_thread", &name), &net, |b, net| {
            b.iter(|| black_box(solve(net)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_acopf, bench_baselines, bench_repeat_solve);
criterion_main!(benches);
