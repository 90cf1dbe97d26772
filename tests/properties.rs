//! Property-based tests on the core numerical and data-model invariants.

use gm_network::{caseformat, cases, synth, CaseId, DiffLog, Modification};
use gm_numeric::{Complex, DMat, DenseLu};
use gm_sparse::{CsMat, Ordering, SparseLu, Triplets};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Sparse linear algebra
// ---------------------------------------------------------------------

/// Builds a random diagonally dominant sparse matrix from proptest input.
fn sparse_from(n: usize, entries: &[(usize, usize, f64)]) -> CsMat<f64> {
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 8.0 + (i as f64) * 0.1);
    }
    for &(i, j, v) in entries {
        let (i, j) = (i % n, j % n);
        if i != j {
            t.push(i, j, v);
        }
    }
    t.to_csr()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sparse_lu_matches_dense_lu(
        n in 2usize..24,
        entries in prop::collection::vec(
            (0usize..32, 0usize..32, -2.0f64..2.0), 0..80),
        rhs_seed in -5.0f64..5.0,
    ) {
        let a = sparse_from(n, &entries);
        let b: Vec<f64> = (0..n).map(|i| rhs_seed * (i as f64 + 1.0).sin()).collect();
        let xs = SparseLu::factor(&a).unwrap().solve(&b);
        let mut d = DMat::zeros(n, n);
        a.to_dense_with(|i, j, v| d[(i, j)] = v);
        let xd = DenseLu::factor(&d).unwrap().solve(&b);
        for (s, dv) in xs.iter().zip(&xd) {
            prop_assert!((s - dv).abs() < 1e-8, "{s} vs {dv}");
        }
    }

    #[test]
    fn sparse_lu_residual_small_for_any_ordering(
        n in 2usize..20,
        entries in prop::collection::vec(
            (0usize..32, 0usize..32, -2.0f64..2.0), 0..60),
    ) {
        let a = sparse_from(n, &entries);
        let b = vec![1.0; n];
        for ordering in [Ordering::Natural, Ordering::MinDegree] {
            let x = SparseLu::factor_with(&a, ordering, 0.1).unwrap().solve(&b);
            let ax = a.mul_vec(&x);
            for (axi, bi) in ax.iter().zip(&b) {
                prop_assert!((axi - bi).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn transpose_is_involution(
        n in 1usize..16,
        entries in prop::collection::vec(
            (0usize..16, 0usize..16, -3.0f64..3.0), 0..50),
    ) {
        let a = sparse_from(n, &entries);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn complex_field_axioms(
        ar in -10.0f64..10.0, ai in -10.0f64..10.0,
        br in -10.0f64..10.0, bi in -10.0f64..10.0,
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        // Commutativity and conjugate homomorphism.
        prop_assert!(((a * b) - (b * a)).abs() < 1e-12);
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-9);
        // |ab| = |a||b|.
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9 * (1.0 + a.abs() * b.abs()));
    }
}

// ---------------------------------------------------------------------
// Network model and diff log
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn diff_log_replay_reconstructs_any_modification_sequence(
        loads in prop::collection::vec((1u32..15, 1.0f64..120.0), 1..8),
        scale in 0.5f64..1.5,
    ) {
        let base = cases::load(CaseId::Ieee14);
        let mut live = base.clone();
        let mut log = DiffLog::new();
        for (bus_id, p_mw) in loads {
            // Some bus ids may not carry loads; SetBusLoad creates them.
            log.apply(&mut live, Modification::SetBusLoad { bus_id, p_mw, q_mvar: None })
                .unwrap();
        }
        log.apply(&mut live, Modification::ScaleAllLoads { factor: scale }).unwrap();
        let replayed = log.replay(&base).unwrap();
        prop_assert!((replayed.total_load_mw() - live.total_load_mw()).abs() < 1e-9);
        prop_assert_eq!(replayed.loads.len(), live.loads.len());
        // Replay reaches the live network bit for bit: one identity.
        prop_assert_eq!(replayed.content_hash(), live.content_hash());
    }

    #[test]
    fn case_format_round_trip_preserves_modified_networks(
        bus in 1u32..14,
        p in 1.0f64..90.0,
    ) {
        let mut net = cases::load(CaseId::Ieee14);
        Modification::SetBusLoad { bus_id: bus + 1, p_mw: p, q_mvar: None }
            .apply(&mut net)
            .unwrap();
        let text = caseformat::serialize(&net);
        let back = caseformat::parse(&text).unwrap();
        prop_assert!((back.total_load_mw() - net.total_load_mw()).abs() < 1e-9);
        prop_assert_eq!(back.branches.len(), net.branches.len());
        prop_assert!((back.total_gen_capacity_mw() - net.total_gen_capacity_mw()).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// Synthetic generator + power flow robustness
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_synthetic_networks_are_solvable(
        seed in 0u64..5000,
        n_bus in 20usize..60,
    ) {
        let n_trafo = 4 + (seed as usize % 4);
        let n_line = n_bus + 10 + (seed as usize % 12);
        let spec = synth::SynthSpec {
            name: format!("prop-{seed}"),
            n_bus,
            n_gen: (n_bus / 5).max(2),
            n_load: (n_bus * 2 / 3).max(2),
            n_line,
            n_trafo,
            total_load_mw: 18.0 * n_bus as f64,
            total_gen_capacity_mw: 45.0 * n_bus as f64,
            seed,
            rating_margin: 1.0,
        };
        let net = synth::generate(&spec);
        prop_assert!(net.is_ok(), "seed {seed}, n_bus {n_bus}: {:?}", net.err());
        let net = net.unwrap();
        prop_assert!(net.validate().is_ok());
        // Newton power flow must converge on every generated network.
        let rep = gm_powerflow::solve(
            &net,
            &gm_powerflow::PfOptions { enforce_q_limits: false, ..Default::default() },
        );
        prop_assert!(rep.is_ok(), "seed {seed}, n_bus {n_bus}: {:?}", rep.err());
        let rep = rep.unwrap();
        prop_assert!(rep.min_vm.0 > 0.8, "voltage collapse at seed {seed}");
        // Power balance holds.
        let gen: f64 = rep.gens.iter().map(|g| g.p_mw).sum();
        prop_assert!((gen - net.total_load_mw() - rep.losses_mw).abs() < 0.5);
    }
}
