//! Criterion bench: Newton–Raphson power flow per IEEE case, plus the
//! warm-start ablation (DESIGN.md §4.3) on one case118 outage and one
//! case300 outage.

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
    let opts = PfOptions {
        enforce_q_limits: false,
        ..Default::default()
    };
    let dc_opts = PfOptions {
        init: InitStrategy::DcWarmStart,
        ..opts.clone()
    };
    // One outage resolved warm vs flat: the contingency engine's
    // full-Newton inner loop.
    for (group, id, branch) in [
        ("newton_start_strategy", CaseId::Ieee118, 40),
        ("newton_start_strategy_case300", CaseId::Ieee300, 40),
    ] {
        let mut group = c.benchmark_group(group);
        group.sample_size(20);
        let net = cases::load(id);
        let v0 = solve(&net, &opts).unwrap().voltages();
        let mut outaged = net.clone();
        outaged.branches[branch].in_service = false;
        let case = format!("case{}", id.size());
        group.bench_function(format!("{case}_outage_warm"), |b| {
            b.iter(|| black_box(solve_from(&outaged, &opts, Some(&v0)).unwrap().iterations))
        });
        group.bench_function(format!("{case}_outage_flat"), |b| {
            b.iter(|| black_box(solve(&outaged, &opts).unwrap().iterations))
        });
        if id == CaseId::Ieee118 {
            group.bench_function(format!("{case}_outage_dc_start"), |b| {
                b.iter(|| black_box(solve(&outaged, &dc_opts).unwrap().iterations))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_newton, bench_warm_vs_flat);
criterion_main!(benches);
