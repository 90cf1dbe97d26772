//! Criterion bench: the N-1 sweep — serial vs rayon-parallel (ablation
//! DESIGN.md §4.1) and warm- vs flat-started post-outage solves (§4.3).

use criterion::{criterion_group, criterion_main, Criterion};
use gm_contingency::{run_n1, solve_base, CaOptions};
use gm_network::{cases, CaseId};
use std::hint::black_box;

fn bench_parallel_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("n1_sweep_case118");
    group.sample_size(10);
    let net = cases::load(CaseId::Ieee118);
    let par = CaOptions::default();
    let ser = CaOptions {
        parallel: false,
        ..Default::default()
    };
    let base = solve_base(&net, &par).unwrap();
    group.bench_function("parallel_rayon", |b| {
        b.iter(|| black_box(run_n1(&net, &par, Some(&base)).unwrap().n_contingencies))
    });
    group.bench_function("serial", |b| {
        b.iter(|| black_box(run_n1(&net, &ser, Some(&base)).unwrap().n_contingencies))
    });
    group.finish();
}

fn bench_sweep_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("n1_sweep_scaling");
    group.sample_size(10);
    for id in [CaseId::Ieee14, CaseId::Ieee30, CaseId::Ieee57] {
        let net = cases::load(id);
        let opts = CaOptions::default();
        group.bench_function(format!("case{}", id.size()), |b| {
            b.iter(|| black_box(run_n1(&net, &opts, None).unwrap().total_violations))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_ablation, bench_sweep_scaling);
criterion_main!(benches);
