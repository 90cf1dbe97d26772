//! Test-only reference for the IPM's slot-program assembly.
//!
//! Until PR 22 every barrier iteration rebuilt `Jg`, `Jh` and `H` as
//! fresh CSR matrices through [`Triplets::to_csr_structural`], pushed
//! them with the `JhᵀZ⁻¹MJh` products into a second triplet list and
//! sort-merged that into the KKT matrix. That path is kept here, out of
//! the solver, as the oracle the slot programs are held to bit for bit:
//! same patterns, same values, the same predictor and corrector
//! right-hand sides, at the initial point and at later iterates of a
//! real solve.

#[cfg(test)]
mod tests {
    use crate::acopf::AcopfProblem;
    use crate::dcopf::DcOpfProblem;
    use crate::ipm::{self, passes, IpmOptions, Nlp, Structure, System};
    use crate::scopf::{secure, ScopfOptions, ScopfProblem};
    use gm_network::{cases, CaseId, Network};
    use gm_sparse::{CsMat, SparseLu, Stencil, Triplets};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The reduced KKT matrix as the parent assembled it.
    fn kkt_reference(
        hess: &CsMat<f64>,
        jh: &CsMat<f64>,
        jg: &CsMat<f64>,
        mu: &[f64],
        z: &[f64],
    ) -> CsMat<f64> {
        let (nx, neq) = (hess.rows(), jg.rows());
        let mut t = Triplets::new(nx + neq, nx + neq);
        for (i, j, v) in hess.iter() {
            t.push(i, j, v);
        }
        for r in 0..jh.rows() {
            let wr = mu[r] / z[r];
            let (cols, vals) = jh.row(r);
            for (idx_a, (&ca, &va)) in cols.iter().zip(vals).enumerate() {
                for (&cb, &vb) in cols[idx_a..].iter().zip(&vals[idx_a..]) {
                    let prod = wr * va * vb;
                    t.push(ca, cb, prod);
                    if ca != cb {
                        t.push(cb, ca, prod);
                    }
                }
            }
        }
        for i in 0..nx {
            t.push(i, i, 1e-10);
        }
        for (r, j, v) in jg.iter() {
            t.push(nx + r, j, v);
            t.push(j, nx + r, v);
        }
        for r in 0..neq {
            t.push(nx + r, nx + r, -1e-11);
        }
        t.to_csr_structural()
    }

    /// Holds one written matrix to the parent's conversion of the same
    /// pass: the stamped part is `to_csr_structural()` of the triplets, the
    /// constant rows behind it are what the structure stated.
    fn assert_written(what: &str, written: &Stencil, pass: &Triplets<f64>, stated: &Stencil) {
        let reference = pass.to_csr_structural();
        let (mat, n) = (written.mat(), reference.nnz());
        assert_eq!(mat.shape(), reference.shape(), "{what} shape");
        assert_eq!(mat.indices()[..n], *reference.indices(), "{what} pattern");
        assert_eq!(
            bits(&mat.values()[..n]),
            bits(reference.values()),
            "{what} values"
        );
        assert_eq!(mat.indptr(), stated.mat().indptr(), "{what} rows");
        assert_eq!(
            bits(&mat.values()[n..]),
            bits(&stated.mat().values()[n..]),
            "{what} constants"
        );
    }

    /// The parent's right-hand side for the per-row complementarity
    /// target `γ`, allocating products and all.
    fn rhs_reference(sys: &System, lam: &[f64], mu: &[f64], z: &[f64], target: &[f64]) -> Vec<f64> {
        let (jh, jg) = (sys.s.jh.mat(), sys.s.jg.mat());
        let nx = sys.df.len();
        let mut lx = sys.df.clone();
        let (jgt_lam, jht_mu) = (jg.mul_vec_t(lam), jh.mul_vec_t(mu));
        for i in 0..nx {
            lx[i] += jgt_lam[i] + jht_mu[i];
        }
        let zinv_term: Vec<f64> = (0..z.len())
            .map(|r| (target[r] + mu[r] * sys.h[r]) / z[r])
            .collect();
        let jht_zt = jh.mul_vec_t(&zinv_term);
        (0..nx)
            .map(|i| -(lx[i] + jht_zt[i]))
            .chain(sys.g.iter().map(|g| -g))
            .collect()
    }

    /// Assembles the system at `(x, λ, μ, z)` through the slot programs
    /// and through the triplet reference and demands equal bits — of the
    /// matrix and of both right-hand sides an iteration solves on it: the
    /// predictor's (`γ = 0`) and the corrector's, whose target the
    /// predictor's direction sets.
    fn assert_assembly_matches<P: Nlp>(
        prob: &P,
        sys: &mut System,
        x: &[f64],
        lam: &[f64],
        mu: &[f64],
        z: &[f64],
    ) {
        sys.evaluate(prob, x).unwrap();
        sys.gradient(lam, mu);
        sys.assemble(prob, x, lam, mu, z).unwrap();

        let stated = Structure::of(prob).unwrap();
        let [jg, jh, hess] = passes(prob, x, lam, mu);
        assert_written("Jg", &sys.s.jg, &jg, &stated.jg);
        assert_written("Jh", &sys.s.jh, &jh, &stated.jh);
        assert_written("H", &sys.s.hess, &hess, &stated.hess);

        let (hess, jh, jg) = (sys.s.hess.mat(), sys.s.jh.mat(), sys.s.jg.mat());
        let kkt = kkt_reference(hess, jh, jg, mu, z);
        assert_eq!(sys.kkt.mat().indptr(), kkt.indptr(), "KKT rows");
        assert_eq!(sys.kkt.mat().indices(), kkt.indices(), "KKT pattern");
        assert_eq!(bits(sys.kkt.mat().values()), bits(kkt.values()), "KKT");

        let predictor = vec![0.0; z.len()];
        sys.load_rhs(mu, z, &predictor);
        let rhs = rhs_reference(sys, lam, mu, z, &predictor);
        assert_eq!(bits(&sys.rhs), bits(&rhs), "predictor rhs");

        // The corrector's target and right-hand side, as an iteration
        // leaves them, from directions the pivoting LU solves for.
        let lu = SparseLu::factor(sys.kkt.mat()).unwrap();
        let mut target = Vec::new();
        let (mut dz, mut dmu) = (vec![0.0; z.len()], vec![0.0; z.len()]);
        let lu_solve = |sys: &System, sol: &mut Vec<f64>| {
            sol.clone_from(&sys.rhs);
            lu.solve_in_place(sol, &mut vec![0.0; sys.rhs.len()]);
            true
        };
        let centre = ipm::predict_correct(
            sys,
            (z, mu),
            &mut target,
            (&mut dz, &mut dmu),
            &mut Vec::new(),
            lu_solve,
        )
        .unwrap();
        assert!(centre > 0.0 && target.iter().any(|&t| t != centre));
        let rhs = rhs_reference(sys, lam, mu, z, &target);
        assert_eq!(bits(&sys.rhs), bits(&rhs), "corrector rhs");
    }

    /// The differential test: `x0` with the MIPS starting multipliers, then
    /// the iterates a real solve has reached after 2 and after 6 barrier
    /// steps, with slacks of the size they have there.
    fn assert_matches_reference<P: Nlp>(prob: &P) {
        let mut sys = System::build(prob).unwrap();
        let mut x0 = vec![0.0; prob.nx()];
        prob.x0(&mut x0);
        sys.evaluate(prob, &x0).unwrap();
        let z0: Vec<f64> = sys.h.iter().map(|h| (-h).max(1.0)).collect();
        let mu0: Vec<f64> = z0.iter().map(|z| 1.0 / z).collect();
        let lam0 = vec![0.0; prob.neq()];
        assert_assembly_matches(prob, &mut sys, &x0, &lam0, &mu0, &z0);

        for steps in [2, 6] {
            let opts = IpmOptions { max_iter: steps };
            let at = ipm::solve(prob, &opts);
            assert!(!at.converged && at.iterations == steps, "{}", at.message);
            assert!(at.lam.iter().any(|&l| l != 0.0) || prob.neq() == 0);
            sys.evaluate(prob, &at.x).unwrap();
            let z: Vec<f64> = sys.h.iter().map(|h| (-h).max(1e-3)).collect();
            assert_assembly_matches(prob, &mut sys, &at.x, &at.lam, &at.mu, &z);
        }
    }

    fn acopf(net: &Network) -> AcopfProblem<'_> {
        AcopfProblem::build(net).unwrap()
    }

    /// The final SCOPF problem of `solve_scopf` on the case.
    fn scopf(net: &Network) -> ScopfProblem<'_> {
        let (_, security) = secure(net, &ScopfOptions::default()).unwrap();
        ScopfProblem {
            base: acopf(net),
            security,
        }
    }

    #[test]
    fn acopf_assembly_matches_the_triplet_reference_on_every_paper_case() {
        for id in CaseId::ALL {
            assert_matches_reference(&acopf(&cases::load(id)));
        }
    }

    #[test]
    fn scopf_assembly_matches_the_triplet_reference_on_case57() {
        let net = cases::load(CaseId::Ieee57);
        let prob = scopf(&net);
        assert_eq!(prob.security.len(), 393);
        assert_matches_reference(&prob);
    }

    #[test]
    fn dcopf_assembly_matches_the_triplet_reference_on_case118() {
        let net = cases::load(CaseId::Ieee118);
        assert_matches_reference(&DcOpfProblem::build(&net).unwrap());
    }

    /// The contract the structure rests on: whatever the iterate, a pass
    /// sends the positions the structure was stated from, in the same
    /// order, and every value it writes is finite.
    fn assert_structure_holds<P: Nlp>(prob: &P, seed: u64) -> Result<(), TestCaseError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut x = vec![0.0; prob.nx()];
        prob.x0(&mut x);
        let [jg0, jh0, hess0] = passes(prob, &x, &vec![0.0; prob.neq()], &vec![0.0; prob.niq()]);
        for xi in &mut x {
            *xi += rng.random_range(-0.4..0.4);
        }
        let lam: Vec<f64> = (0..prob.neq())
            .map(|_| rng.random_range(-1e4..1e4))
            .collect();
        let mu: Vec<f64> = (0..prob.niq())
            .map(|_| rng.random_range(0.0..1e3))
            .collect();
        let z: Vec<f64> = (0..prob.niq())
            .map(|_| rng.random_range(1e-6..10.0))
            .collect();

        let positions = |t: &Triplets<f64>| -> Vec<(usize, usize)> {
            t.entries().iter().map(|&(r, c, _)| (r, c)).collect()
        };
        let [jg, jh, hess] = passes(prob, &x, &lam, &mu);
        prop_assert_eq!(positions(&jg), positions(&jg0));
        prop_assert_eq!(positions(&jh), positions(&jh0));
        prop_assert_eq!(positions(&hess), positions(&hess0));

        let mut sys = System::build(prob).unwrap();
        let stated = Structure::of(prob).unwrap();
        let f = sys.evaluate(prob, &x);
        prop_assert!(matches!(f, Ok(f) if f.is_finite()), "{f:?}");
        sys.gradient(&lam, &mu);
        prop_assert_eq!(sys.assemble(prob, &x, &lam, &mu, &z), Ok(()));
        sys.load_rhs(&mu, &z, &vec![0.1; z.len()]);
        for (written, stated) in [
            (&sys.s.jg, &stated.jg),
            (&sys.s.jh, &stated.jh),
            (&sys.s.hess, &stated.hess),
        ] {
            prop_assert_eq!(written.mat().indptr(), stated.mat().indptr());
            prop_assert_eq!(written.mat().indices(), stated.mat().indices());
            prop_assert!(written.mat().values().iter().all(|v| v.is_finite()));
        }
        let finite = |v: &[f64]| v.iter().all(|v| v.is_finite());
        prop_assert!(finite(sys.kkt.mat().values()) && finite(&sys.rhs));
        prop_assert!(finite(&sys.g) && finite(&sys.h) && finite(&sys.df));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn structure_is_independent_of_the_iterate(seed in any::<u64>()) {
            let net = cases::load(CaseId::Ieee30);
            assert_structure_holds(&acopf(&net), seed)?;
            assert_structure_holds(&DcOpfProblem::build(&net).unwrap(), seed)?;
            let mut rng = SmallRng::seed_from_u64(seed);
            let nb = net.branches.len();
            let security = (0..12)
                .map(|_| crate::SecurityConstraint {
                    outage: rng.random_range(0..nb),
                    monitored: rng.random_range(0..nb),
                    lodf: [0.0, rng.random_range(-1.0..1.0)][rng.random_range(0..2usize)],
                    limit_pu: rng.random_range(0.1..2.0),
                })
                .collect();
            let prob = ScopfProblem { base: acopf(&net), security };
            assert_structure_holds(&prob, seed)?;
        }
    }
}
