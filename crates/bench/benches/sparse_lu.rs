//! Criterion bench: sparse vs dense LU on power-flow-Jacobian-like
//! matrices (ablation DESIGN.md §4.2), plus the ordering ablation, and
//! the two numbers DESIGN.md §5d quotes for the engine: what a
//! values-only refactorization of a Newton Jacobian costs beside its
//! analysis, and what a solve costs on a thread that has seen the
//! topology against one that has not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gm_network::{load_scale, BusKind, Network, ScaleId, YBus};
use gm_numeric::{DMat, DenseLu};
use gm_powerflow::{solve, PfOptions};
use gm_sparse::{CsMat, LuEngine, Ordering, SparseLu, SymbolicLu, Triplets};
use std::hint::black_box;

/// Builds a Jacobian-like sparse matrix: 2D-mesh stencil of size n×n.
fn mesh_matrix(m: usize) -> CsMat<f64> {
    let n = m * m;
    let mut t = Triplets::new(n, n);
    for r in 0..m {
        for c in 0..m {
            let i = r * m + c;
            t.push(i, i, 8.0 + (i % 7) as f64 * 0.1);
            if c + 1 < m {
                t.push(i, i + 1, -1.1);
                t.push(i + 1, i, -0.9);
            }
            if r + 1 < m {
                t.push(i, i + m, -1.2);
                t.push(i + m, i, -0.8);
            }
        }
    }
    t.to_csr()
}

fn bench_sparse_vs_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu_factor_solve");
    group.sample_size(20);
    for m in [8usize, 14, 20] {
        let n = m * m;
        let a = mesh_matrix(m);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        group.bench_with_input(BenchmarkId::new("sparse_min_degree", n), &a, |bch, a| {
            bch.iter(|| black_box(SparseLu::factor(a).unwrap().solve(&b)))
        });
        group.bench_with_input(BenchmarkId::new("sparse_natural", n), &a, |bch, a| {
            bch.iter(|| {
                black_box(
                    SparseLu::factor_with(a, Ordering::Natural, 0.1)
                        .unwrap()
                        .solve(&b),
                )
            })
        });
        let mut d = DMat::zeros(n, n);
        a.to_dense_with(|i, j, v| d[(i, j)] = v);
        group.bench_with_input(BenchmarkId::new("dense", n), &d, |bch, d| {
            bch.iter(|| black_box(DenseLu::factor(d).unwrap().solve(&b)))
        });
    }
    group.finish();
}

/// The flat-start polar Jacobian of `net` — θ of every non-slack bus,
/// then |V| of every PQ bus — with the pattern and the magnitudes a
/// Newton iteration factors (`H = L = −B`, `N = −M = G` at `V = 1∠0`).
fn flat_start_jacobian(net: &Network) -> CsMat<f64> {
    let y = YBus::assemble(net).matrix;
    let n = net.n_bus();
    let slack = net.slack().expect("scale cases have a slack");
    let has_gen: Vec<bool> = {
        let mut at = vec![false; n];
        for g in net.gens.iter().filter(|g| g.in_service) {
            at[g.bus] = true;
        }
        at
    };
    let (mut col_th, mut col_vm) = (vec![usize::MAX; n], vec![usize::MAX; n]);
    let mut nvar = 0;
    for i in (0..n).filter(|&i| i != slack) {
        col_th[i] = nvar;
        nvar += 1;
    }
    for i in (0..n).filter(|&i| i != slack) {
        if !(net.buses[i].kind == BusKind::Pv && has_gen[i]) {
            col_vm[i] = nvar;
            nvar += 1;
        }
    }
    let mut t = Triplets::new(nvar, nvar);
    for i in 0..n {
        let (cols, vals) = y.row(i);
        for (&j, yij) in cols.iter().zip(vals) {
            let rows = [(col_th[i], -yij.im, yij.re), (col_vm[i], -yij.re, -yij.im)];
            for (row, d_th, d_vm) in rows.into_iter().filter(|r| r.0 != usize::MAX) {
                if col_th[j] != usize::MAX {
                    t.push(row, col_th[j], d_th);
                }
                if col_vm[j] != usize::MAX {
                    t.push(row, col_vm[j], d_vm);
                }
            }
        }
    }
    t.to_csr_structural()
}

fn bench_refactor_values_only(c: &mut Criterion) {
    let mut group = c.benchmark_group("refactor_values_only");
    group.sample_size(10);
    for id in [ScaleId::Synth1354, ScaleId::Synth9241] {
        let jac = flat_start_jacobian(load_scale(id));
        let name = id.short_name();
        group.bench_with_input(BenchmarkId::new("analyze", name), &jac, |bch, jac| {
            bch.iter(|| black_box(SymbolicLu::analyze(jac, Ordering::Amd, 0.1).unwrap()))
        });
        let (sym, mut numeric) = SymbolicLu::analyze(&jac, Ordering::Amd, 0.1).unwrap();
        let mut scratch = Vec::new();
        group.bench_with_input(BenchmarkId::new("refactor_into", name), &jac, |bch, jac| {
            bch.iter(|| sym.refactor_into(jac, &mut numeric, &mut scratch).unwrap())
        });
        // The same replay behind the engine's exact pattern lookup.
        let mut engine = LuEngine::new();
        engine.factorize(&jac).unwrap();
        group.bench_with_input(BenchmarkId::new("engine_hit", name), &jac, |bch, jac| {
            bch.iter(|| black_box(engine.factorize(jac).unwrap().dim()))
        });
        println!(
            "refactor_values_only/{name}: n = {}, nnz = {}, nnz(L+U) = {}, retained = {} kB",
            jac.rows(),
            jac.nnz(),
            numeric.factor_nnz(),
            engine.retained_bytes() / 1024
        );
    }
    group.finish();
}

fn bench_repeat_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("repeat_solve");
    group.sample_size(10);
    let opts = PfOptions {
        enforce_q_limits: false,
        ..Default::default()
    };
    for id in [ScaleId::Synth1354, ScaleId::Synth9241] {
        let net = load_scale(id);
        // A new thread has an empty engine: every sample analyzes.
        group.bench_with_input(
            BenchmarkId::new("cold_thread", id.short_name()),
            net,
            |b, net| {
                b.iter(|| {
                    std::thread::scope(|s| {
                        let solved = s.spawn(|| solve(net, &opts).unwrap().iterations);
                        black_box(solved.join().unwrap())
                    })
                })
            },
        );
        // The bench thread keeps its engine: every sample after the
        // first only refactors.
        group.bench_with_input(
            BenchmarkId::new("warm_thread", id.short_name()),
            net,
            |b, net| b.iter(|| black_box(solve(net, &opts).unwrap().iterations)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sparse_vs_dense,
    bench_refactor_values_only,
    bench_repeat_solve
);
criterion_main!(benches);
