//! Property tests for the static-order LDLᵀ on KKT-shaped systems.
//!
//! The matrices mirror what the interior point method hands it:
//!
//! ```text
//! [ H + δI    Jᵀ ]      H symmetric, positive definite plus an
//! [ J       −εI  ]      indefinite part; J full row rank
//! ```
//!
//! with the IPM's own regularisation (δ = 1e-10, ε = 1e-11). The
//! contract under test: a refined LDLᵀ solve agrees with the pivoting
//! LU; a numeric refactorization is bit-identical to a fresh
//! analyse-and-factor, so reuse can change speed but never answers; and
//! a pivot that must vanish comes back as the typed error — never a
//! panic, never a NaN solution.

use gm_sparse::{CsMat, LdlError, SparseLdl, SparseLu, Triplets};
use proptest::prelude::*;

/// Assembles the KKT matrix for `nx` primal and `m ≤ nx` dual rows.
/// `h_off` are off-diagonal Hessian entries, `indef` pulls a few
/// diagonals negative (the Lagrangian Hessian is not definite away from
/// the solution), `j_extra` are Jacobian entries on top of a unit
/// `J[r][r]` staircase that guarantees full row rank.
fn kkt(
    nx: usize,
    m: usize,
    h_off: &[(usize, usize, f64)],
    indef: &[(usize, f64)],
    j_extra: &[(usize, usize, f64)],
    scale: f64,
) -> CsMat<f64> {
    let n = nx + m;
    let mut t = Triplets::new(n, n);
    let mut push_sym = |i: usize, j: usize, v: f64| {
        t.push(i, j, v);
        if i != j {
            t.push(j, i, v);
        }
    };
    // Diagonally dominant SPD part: each off-diagonal adds its
    // magnitude to both diagonals it touches.
    let mut diag = vec![1.0 * scale; nx];
    for &(i, j, v) in h_off {
        let (i, j) = (i % nx, j % nx);
        if i != j {
            push_sym(i, j, v * scale);
            diag[i] += v.abs() * scale;
            diag[j] += v.abs() * scale;
        }
    }
    for &(i, v) in indef {
        diag[i % nx] -= v * scale;
    }
    for (i, d) in diag.iter().enumerate() {
        push_sym(i, i, d + 1e-10);
    }
    for r in 0..m {
        push_sym(nx + r, r, 1.0 + 0.25 * scale);
        push_sym(nx + r, nx + r, -1e-11);
    }
    for &(r, j, v) in j_extra {
        let (r, j) = (r % m, j % nx);
        if j != r {
            push_sym(nx + r, j, v);
        }
    }
    t.to_csr_structural()
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i as f64) * 0.7 + 0.3).sin()).collect()
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Refined LDLᵀ solve ≡ pivoting-LU solve to 1e-9 relative.
    #[test]
    fn refined_solve_matches_sparse_lu(
        nx in 3usize..28,
        m_frac in 0.1f64..1.0,
        h_off in prop::collection::vec((0usize..64, 0usize..64, -1.5f64..1.5), 0..70),
        indef in prop::collection::vec((0usize..64, 0.5f64..3.0), 0..6),
        j_extra in prop::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 0..60),
    ) {
        let m = ((nx as f64 * m_frac) as usize).clamp(1, nx);
        let a = kkt(nx, m, &h_off, &indef, &j_extra, 1.0);
        let b = rhs(nx + m);
        let Ok(lu) = SparseLu::factor(&a) else {
            // The indefinite pull can make the matrix itself singular;
            // nothing to compare against then.
            return Ok(());
        };
        let want = lu.solve(&b);
        let mut ldl = SparseLdl::analyze(&a).unwrap();
        let (mut x, mut ws) = (Vec::new(), Vec::new());
        let solved = ldl
            .factor(&a)
            .and_then(|()| ldl.solve_refined(&a, &b, &mut x, &mut ws, 1e-13, 10));
        match solved {
            Ok(r) => {
                prop_assert!(r.residual <= 1e-13);
                let err = x.iter().zip(&want).fold(0.0f64, |e, (u, v)| e.max((u - v).abs()));
                prop_assert!(
                    err <= 1e-9 * norm_inf(&want).max(1.0),
                    "LDLᵀ and LU disagree by {err:e}"
                );
            }
            // A static order may legitimately fail where pivoting
            // succeeds — but only with a typed error the caller can
            // route to the LU fallback.
            Err(e) => prop_assert!(
                matches!(e, LdlError::PivotBreakdown { .. } | LdlError::ResidualNotReached { .. }),
                "unexpected error {e}"
            ),
        }
    }

    /// Factoring new values into an existing analysis gives the same
    /// bits as analysing those values from scratch.
    #[test]
    fn refactor_is_bit_identical_to_fresh_analysis(
        nx in 3usize..24,
        h_off in prop::collection::vec((0usize..64, 0usize..64, -1.5f64..1.5), 0..60),
        j_extra in prop::collection::vec((0usize..64, 0usize..64, -2.0f64..2.0), 0..50),
        scale in 0.2f64..5.0,
    ) {
        let m = (nx / 2).max(1);
        let a = kkt(nx, m, &h_off, &[], &j_extra, 1.0);
        let b = kkt(nx, m, &h_off, &[], &j_extra, scale);
        prop_assert_eq!(a.indices(), b.indices());
        let mut warm = SparseLdl::analyze(&a).unwrap();
        warm.factor(&a).unwrap();
        warm.factor(&b).unwrap();
        let mut cold = SparseLdl::analyze(&b).unwrap();
        cold.factor(&b).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(warm.pivots()), bits(cold.pivots()));
        let r = rhs(nx + m);
        let (mut xw, mut xc) = (r.clone(), r);
        let mut ws = vec![0.0; nx + m];
        warm.solve_in_place(&mut xw, &mut ws);
        cold.solve_in_place(&mut xc, &mut ws);
        prop_assert_eq!(bits(&xw), bits(&xc));
    }

    /// Two identical rows coupled through a zero (2,2) block force an
    /// exactly vanishing pivot in every elimination order: the result is
    /// the typed breakdown, and the refined solve never returns `Ok`
    /// around a non-finite iterate.
    #[test]
    fn vanishing_pivot_is_a_typed_error(n in 2usize..12, v in 0.5f64..4.0) {
        // v·(all-ones matrix): rank one, every Schur complement is 0.
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            for j in 0..n {
                t.push(i, j, v);
            }
        }
        let a = t.to_csr();
        let mut ldl = SparseLdl::analyze(&a).unwrap();
        prop_assert_eq!(ldl.factor(&a), Err(LdlError::PivotBreakdown { step: 1 }));
        // Whatever the failed factorization left behind, a refined
        // solve against it reports failure instead of handing back NaN.
        let (mut x, mut ws) = (Vec::new(), Vec::new());
        match ldl.solve_refined(&a, &rhs(n), &mut x, &mut ws, 1e-12, 4) {
            Ok(_) => prop_assert!(x.iter().all(|xi| xi.is_finite())),
            Err(e) => prop_assert!(matches!(e, LdlError::ResidualNotReached { .. })),
        }
    }
}
