//! Criterion bench: Newton–Raphson power flow per IEEE case, plus the
//! warm-start ablation (DESIGN.md §4.3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gm_network::{cases, CaseId};
use gm_powerflow::{solve, solve_from, InitStrategy, PfOptions};
use std::hint::black_box;

fn bench_newton(c: &mut Criterion) {
    let mut group = c.benchmark_group("newton_power_flow");
    group.sample_size(20);
    for id in CaseId::ALL {
        let net = cases::load(id);
        let opts = PfOptions {
            enforce_q_limits: false,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("flat_start", id.size()), &net, |b, net| {
            b.iter(|| black_box(solve(net, &opts).unwrap().iterations))
        });
    }
    group.finish();
}

fn bench_warm_vs_flat(c: &mut Criterion) {
    let mut group = c.benchmark_group("newton_start_strategy");
    group.sample_size(20);
    let net = cases::load(CaseId::Ieee118);
    let opts = PfOptions {
        enforce_q_limits: false,
        ..Default::default()
    };
    let base = solve(&net, &opts).unwrap();
    let v0 = base.voltages();
    // Perturbed case (one outage) resolved warm vs flat — the contingency
    // engine's inner loop.
    let mut outaged = net.clone();
    outaged.branches[40].in_service = false;

    group.bench_function("case118_outage_warm", |b| {
        b.iter(|| black_box(solve_from(&outaged, &opts, Some(&v0)).unwrap().iterations))
    });
    group.bench_function("case118_outage_flat", |b| {
        b.iter(|| black_box(solve(&outaged, &opts).unwrap().iterations))
    });
    let dc_opts = PfOptions {
        init: InitStrategy::DcWarmStart,
        enforce_q_limits: false,
        ..Default::default()
    };
    group.bench_function("case118_outage_dc_start", |b| {
        b.iter(|| black_box(solve(&outaged, &dc_opts).unwrap().iterations))
    });
    group.finish();
}

criterion_group!(benches, bench_newton, bench_warm_vs_flat);
criterion_main!(benches);
