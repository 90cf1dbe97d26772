//! Criterion bench: the sweeps serial vs parallel (ablation DESIGN.md
//! §4.1) — cascade N-1 on case118 and case300, the generator sweep and
//! the N-2 preview on case118 — and the N-1 sweep's scaling over the
//! small cases. `cargo bench -p gm-bench --bench contingency` prints
//! each group's `parallel` and `serial` rows; their ratio is the sweep's
//! speedup. The `compensated_outage` group times one cascade
//! verification alone: a single outage solved against the base-case
//! factorization on case118 and case300.

use criterion::{criterion_group, criterion_main, Criterion};
use gm_contingency::{n_minus_2_preview, run_gen_n1, run_n1, solve_base, CaOptions};
use gm_network::{cases, CaseId};
use gm_powerflow::{CompensationBase, PfReport};
use std::hint::black_box;

/// Benches `sweep` under parallel and serial options, both warm-started
/// from one solved base case.
fn parallel_vs_serial<R>(
    c: &mut Criterion,
    group: &str,
    id: CaseId,
    sweep: impl Fn(&gm_network::Network, &CaOptions, &PfReport) -> R,
) {
    let mut group = c.benchmark_group(group);
    group.sample_size(10);
    let net = cases::load(id);
    let par = CaOptions::default();
    let ser = CaOptions {
        parallel: false,
        ..Default::default()
    };
    let base = solve_base(&net, &par).unwrap();
    group.bench_function("parallel", |b| {
        b.iter(|| black_box(sweep(&net, &par, &base)))
    });
    group.bench_function("serial", |b| b.iter(|| black_box(sweep(&net, &ser, &base))));
    group.finish();
}

fn bench_parallel_ablation(c: &mut Criterion) {
    for (group, id) in [
        ("n1_sweep_case118", CaseId::Ieee118),
        ("n1_sweep_case300", CaseId::Ieee300),
    ] {
        parallel_vs_serial(c, group, id, |net, opts, base| {
            run_n1(net, opts, Some(base)).unwrap().n_contingencies
        });
    }
    parallel_vs_serial(c, "gen_n1_case118", CaseId::Ieee118, |net, opts, base| {
        run_gen_n1(net, opts, Some(base)).unwrap().len()
    });
    parallel_vs_serial(
        c,
        "n2_preview_case118",
        CaseId::Ieee118,
        |net, opts, base| {
            n_minus_2_preview(net, opts, Some(base), 16)
                .unwrap()
                .verified
                .len()
        },
    );
}

fn bench_compensated_outage(c: &mut Criterion) {
    let mut group = c.benchmark_group("compensated_outage");
    for id in [CaseId::Ieee118, CaseId::Ieee300] {
        let net = cases::load(id);
        let opts = CaOptions::default();
        let base = solve_base(&net, &opts).unwrap();
        let comp = CompensationBase::new(&net, &opts.pf, &base).unwrap();
        // The first outage the compensated path accepts.
        let (branch, work) = (0..net.branches.len())
            .map(|k| {
                let mut work = net.clone();
                work.branches[k].in_service = false;
                (k, work)
            })
            .find(|(k, work)| comp.solve_outage(work, &opts.pf, &[*k]).is_ok())
            .expect("a compensated outage");
        group.bench_function(format!("case{}", id.size()), |b| {
            b.iter(|| {
                black_box(
                    comp.solve_outage(&work, &opts.pf, &[branch])
                        .unwrap()
                        .iterations,
                )
            })
        });
    }
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

criterion_group!(
    benches,
    bench_parallel_ablation,
    bench_compensated_outage,
    bench_sweep_scaling
);
criterion_main!(benches);
