//! Tier-1 coverage for the interconnect-scale tier (PR 10).
//!
//! Only `synth1354` is exercised here — the runtime size cap that keeps
//! tier-1 wall time bounded. The 2869/9241-bus cases are solved, factored
//! and panel-checked once in `tests/work_counts.rs` and timed by the
//! `grid_scale` workload of `benchmark/`. The network is generated once
//! per process (`load_scale` reads the case library), so the cost of the
//! sampled DC N-1 calibration is paid a single time across all tests in
//! this binary.

use gm_network::{load_scale, ScaleId};
use gm_sparse::{CsMat, Ordering, SparseLu, Triplets};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// DC B-matrix with the first bus pinned — the same pattern class the
/// Newton Jacobian has (symmetric power-grid Laplacian), and nonsingular.
fn b_matrix(net: &gm_network::Network) -> CsMat<f64> {
    let n = net.n_bus();
    let mut t = Triplets::new(n, n);
    for br in net.branches.iter().filter(|b| b.in_service) {
        let b = 1.0 / br.x_pu;
        let (i, j) = (br.from_bus, br.to_bus);
        if i != 0 && j != 0 {
            t.push(i, i, b);
            t.push(j, j, b);
            t.push(i, j, -b);
            t.push(j, i, -b);
        } else if i != 0 {
            t.push(i, i, b);
        } else if j != 0 {
            t.push(j, j, b);
        }
    }
    t.push(0, 0, 1.0);
    t.to_csr()
}

#[test]
fn synth1354_loads_validates_and_newton_converges() {
    let net = load_scale(ScaleId::Synth1354);
    assert_eq!(net.n_bus(), 1354);
    net.validate().expect("synth1354 must validate");
    assert_eq!(gm_network::topology::connected_components(net), 1);

    let rep = gm_powerflow::solve(
        net,
        &gm_powerflow::PfOptions {
            enforce_q_limits: false,
            ..Default::default()
        },
    )
    .expect("Newton must converge on synth1354 from a flat start");
    assert!(
        rep.min_vm.0 > 0.8,
        "voltage collapse: min vm {}",
        rep.min_vm.0
    );
    // Power balance holds at scale.
    let gen: f64 = rep.gens.iter().map(|g| g.p_mw).sum();
    assert!((gen - net.total_load_mw() - rep.losses_mw).abs() < 1.0);
}

#[test]
fn synth1354_resolves_by_name() {
    let (net, conf) = gm_network::load_case("synth1354").expect("name must resolve");
    assert_eq!(net.n_bus(), 1354);
    assert_eq!(conf, 1.0);
}

#[test]
fn synth1354_generation_is_deterministic() {
    // Fresh generation must match the cached network bit-for-bit.
    let cached = load_scale(ScaleId::Synth1354);
    let fresh = gm_network::generate_scale(&ScaleId::Synth1354.spec()).unwrap();
    assert_eq!(cached.branches.len(), fresh.branches.len());
    for (a, b) in cached.branches.iter().zip(&fresh.branches) {
        assert_eq!(a.x_pu.to_bits(), b.x_pu.to_bits());
        assert_eq!(a.rating_mva.to_bits(), b.rating_mva.to_bits());
    }
    for (a, b) in cached.loads.iter().zip(&fresh.loads) {
        assert_eq!(a.p_mw.to_bits(), b.p_mw.to_bits());
    }
}

/// Satellite: determinism pin for the AMD ordering — same matrix, same
/// permutation, every time, at real scale.
#[test]
fn amd_permutation_is_deterministic_on_synth1354() {
    let net = load_scale(ScaleId::Synth1354);
    let b = b_matrix(net);
    let p1 = Ordering::Amd.permutation(&b).unwrap();
    let p2 = Ordering::Amd.permutation(&b).unwrap();
    assert_eq!(p1, p2, "AMD must be deterministic");
    // And it is a valid permutation of 0..n.
    let mut seen = vec![false; b.rows()];
    for &v in &p1 {
        assert!(!seen[v], "duplicate index {v}");
        seen[v] = true;
    }
    assert!(seen.iter().all(|&s| s));
}

/// Satellite: the lane-blocked panel kernel in `solve_many_in_place` is
/// pinned bitwise against the scalar per-column path on a 64-RHS panel at
/// case1354 scale.
#[test]
fn solve_many_lane_block_matches_scalar_path_at_1354() {
    let net = load_scale(ScaleId::Synth1354);
    let b = b_matrix(net);
    let lu = SparseLu::factor(&b).expect("B matrix must factor");
    let n = b.rows();
    const NRHS: usize = 64;

    let mut rng = SmallRng::seed_from_u64(0x1354_0064);
    let panel_init: Vec<f64> = (0..n * NRHS).map(|_| rng.random_range(-2.0..2.0)).collect();

    // Lane-blocked panel solve (structure-of-arrays layout).
    let mut panel = panel_init.clone();
    let mut scratch = vec![0.0f64; n * NRHS + NRHS];
    lu.solve_many_in_place(&mut panel, NRHS, &mut scratch);

    // Scalar per-column reference.
    let mut col = vec![0.0f64; n];
    let mut col_scratch = vec![0.0f64; n];
    for s in 0..NRHS {
        for i in 0..n {
            col[i] = panel_init[i * NRHS + s];
        }
        lu.solve_in_place(&mut col, &mut col_scratch);
        for i in 0..n {
            assert_eq!(
                panel[i * NRHS + s].to_bits(),
                col[i].to_bits(),
                "lane {s}, row {i}: panel kernel diverged from scalar path"
            );
        }
    }
}
