//! Sparse LDLᵀ factorization for symmetric indefinite systems with a
//! static pivot order.
//!
//! The interior-point KKT matrix is symmetric, and its regularised
//! diagonals make it factorizable in *any* symmetric order, so the
//! unsymmetric threshold-pivoting [`crate::SparseLu`] pays twice for
//! nothing: its row swaps wreck the fill-reducing order, and the pivot
//! sequence changes every iteration, which defeats symbolic reuse.
//! [`SparseLdl`] fixes the order once — AMD on the symmetric pattern —
//! and never looks at a value to choose a pivot, so the elimination
//! tree, the fill structure of `L` and the access plan into the CSR
//! values are all pure functions of the pattern:
//! [`SparseLdl::analyze`] computes them once and every later
//! [`SparseLdl::factor`] is a numeric replay into the same structure
//! (up-looking, one sparse triangular solve per row, after Davis' LDL
//! package). A caller that owns both the matrix and the analysis made
//! from it skips `factor`'s pattern compare and hands
//! [`SparseLdl::replay`] the values alone.
//!
//! No pivoting means no stability guarantee. The contract is the
//! opposite of [`crate::SymbolicLu`]'s: the factorization is *cheap and
//! unverified*, and callers verify the **solution** instead —
//! [`SparseLdl::solve_refined`] iteratively refines against the matrix
//! and reports [`LdlError::ResidualNotReached`] when the factors are too
//! inaccurate to get there; a zero or non-finite pivot is
//! [`LdlError::PivotBreakdown`]. Either way the caller falls back to the
//! pivoting LU for that one system.
//!
//! Telemetry keeps the names the LU path established, so reuse ratios
//! stay comparable: an analysis counts as `sparse.symbolic.build`, a
//! numeric factorization on an analysis that has been factored before as
//! `sparse.symbolic.reuse`, and every numeric factorization bumps
//! `sparse.lu.factorizations` plus `sparse.ldl.factorizations`;
//! `sparse.analyze_s` / `sparse.refactor_s` record the wall times.

use crate::csmat::CsMat;
use crate::lu::Idx;
use crate::order::{Ordering, OrderingError};
use crate::symbolic::same_indices;
use std::time::Instant;

/// Failure modes of the LDLᵀ factorization and its refined solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LdlError {
    /// The matrix is not square.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// The matrix handed to [`SparseLdl::factor`] does not have the
    /// analyzed sparsity pattern.
    PatternMismatch,
    /// A pivot came out exactly zero or non-finite: the static order
    /// cannot factor these values.
    PivotBreakdown {
        /// Elimination step of the offending pivot.
        step: usize,
    },
    /// Iterative refinement stopped short of the requested residual:
    /// the factors are too inaccurate for this right-hand side.
    ResidualNotReached {
        /// Relative residual of the last iterate.
        residual: f64,
    },
}

impl std::fmt::Display for LdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LdlError::NotSquare { shape } => {
                write!(f, "sparse LDLᵀ requires a square matrix, got {shape:?}")
            }
            LdlError::PatternMismatch => {
                write!(f, "matrix pattern differs from the analyzed pattern")
            }
            LdlError::PivotBreakdown { step } => {
                write!(f, "zero or non-finite LDLᵀ pivot at step {step}")
            }
            LdlError::ResidualNotReached { residual } => {
                write!(
                    f,
                    "iterative refinement stalled at relative residual {residual:e}"
                )
            }
        }
    }
}

impl std::error::Error for LdlError {}

/// Outcome of a successful [`SparseLdl::solve_refined`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Refinement {
    /// Correction solves applied after the initial solve.
    pub steps: usize,
    /// Final relative residual `‖b − A·x‖∞ / ‖|A|·|x| + |b|‖∞`.
    pub residual: f64,
}

/// A sparse `P·A·Pᵀ = L·D·Lᵀ` factorization (unit lower-triangular `L`,
/// diagonal `D` of either sign) with the symbolic analysis kept for
/// numeric refactorization.
#[derive(Clone, Debug)]
pub struct SparseLdl {
    n: usize,
    /// The analyzed pattern, kept so [`SparseLdl::factor`] can check its
    /// input exactly (a compare, cheaper than a fingerprint). Like every
    /// index array below it is stored in 32 bits: a kept analysis costs
    /// half the memory and a replay streams half the bytes.
    indptr: Vec<Idx>,
    indices: Vec<Idx>,
    /// Elimination order: original index `perm[k]` is pivot `k`.
    perm: Vec<Idx>,
    /// Strictly-lower structure of `L` by columns, rows ascending.
    l_colptr: Vec<Idx>,
    l_rows: Vec<Idx>,
    /// The same structure by rows: row `k` of `L` has its columns
    /// `row_cols[row_ptr[k]..row_ptr[k+1]]`, ascending (a topological
    /// order for the row's triangular solve), and `row_dst` gives each
    /// entry's slot in `l_vals`. A column fills in row order, so at row
    /// `k` the entries of column `i` above row `k` are exactly
    /// `l_colptr[i]..row_dst[p]`.
    row_ptr: Vec<Idx>,
    row_cols: Vec<Idx>,
    row_dst: Vec<Idx>,
    /// Upper-triangle access plan: pivot column `k` of `P·A·Pᵀ` reads
    /// its entries in pivot rows `up_rows[..] ≤ k` from the CSR value
    /// offsets `up_src[..]`, span `up_ptr[k]..up_ptr[k+1]`.
    up_ptr: Vec<Idx>,
    up_rows: Vec<Idx>,
    up_src: Vec<Idx>,
    l_vals: Vec<f64>,
    d: Vec<f64>,
    /// Dense accumulator of the row solve; all zero between rows.
    work: Vec<f64>,
    /// Whether a numeric factorization has completed on this analysis.
    factored: bool,
}

impl SparseLdl {
    /// Symbolic analysis of `a`'s pattern: AMD order, elimination tree,
    /// the structure of `L`, and the upper-triangle access plan. `a`
    /// must be structurally symmetric; only the entries on or above the
    /// diagonal of the permuted matrix are ever read. No values are
    /// factored — follow with [`SparseLdl::factor`].
    pub fn analyze(a: &CsMat<f64>) -> Result<SparseLdl, LdlError> {
        let t0 = Instant::now();
        let perm = Ordering::Amd
            .permutation(a)
            .map_err(|OrderingError::NotSquare { shape }| LdlError::NotSquare { shape })?;
        let n = a.rows();
        // Every stored index is a row, a CSR offset or an offset into
        // `L` (checked once its size is known): the arrays that are kept
        // are built in 32 bits from the start.
        assert!(
            n <= Idx::MAX as usize && a.nnz() <= Idx::MAX as usize,
            "LDLᵀ pattern exceeds the 32-bit index range"
        );
        let mut pinv = vec![0usize; n];
        for (k, &orig) in perm.iter().enumerate() {
            pinv[orig] = k;
        }

        // Row `perm[k]` of a symmetric CSR matrix is column `k` of the
        // permuted matrix; keep what lands on or above the diagonal.
        let mut up_ptr: Vec<Idx> = Vec::with_capacity(n + 1);
        let mut up_rows: Vec<Idx> = Vec::with_capacity(a.nnz() / 2 + n);
        let mut up_src: Vec<Idx> = Vec::with_capacity(a.nnz() / 2 + n);
        up_ptr.push(0);
        for (k, &orig) in perm.iter().enumerate() {
            let base = a.indptr()[orig];
            for (off, &j) in a.row(orig).0.iter().enumerate() {
                if pinv[j] <= k {
                    up_rows.push(pinv[j] as Idx);
                    up_src.push((base + off) as Idx);
                }
            }
            up_ptr.push(up_rows.len() as Idx);
        }
        up_rows.shrink_to_fit();
        up_src.shrink_to_fit();

        // Elimination tree and row patterns in one pass: the pattern of
        // row `k` of `L` is everything reached by walking the tree up
        // from each above-diagonal entry of column `k` (Liu).
        const NONE: usize = usize::MAX;
        let mut parent = vec![NONE; n];
        let mut flag = vec![NONE; n];
        let mut row_ptr: Vec<Idx> = Vec::with_capacity(n + 1);
        let mut row_cols: Vec<Idx> = Vec::new();
        let mut col_count = vec![0usize; n];
        row_ptr.push(0);
        for k in 0..n {
            flag[k] = k;
            let start = row_cols.len();
            for &top in &up_rows[up_ptr[k] as usize..up_ptr[k + 1] as usize] {
                let mut i = top as usize;
                while flag[i] != k {
                    if parent[i] == NONE {
                        parent[i] = k;
                    }
                    row_cols.push(i as Idx);
                    col_count[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
            row_cols[start..].sort_unstable();
            assert!(
                row_cols.len() <= Idx::MAX as usize,
                "LDLᵀ fill exceeds the 32-bit index range"
            );
            row_ptr.push(row_cols.len() as Idx);
        }
        row_cols.shrink_to_fit();

        let mut l_colptr: Vec<Idx> = Vec::with_capacity(n + 1);
        l_colptr.push(0);
        for i in 0..n {
            l_colptr.push(l_colptr[i] + col_count[i] as Idx);
        }
        let mut cursor = l_colptr[..n].to_vec();
        let mut l_rows: Vec<Idx> = vec![0; row_cols.len()];
        let mut row_dst: Vec<Idx> = vec![0; row_cols.len()];
        for row in 0..n {
            for p in row_ptr[row] as usize..row_ptr[row + 1] as usize {
                let i = row_cols[p] as usize;
                l_rows[cursor[i] as usize] = row as Idx;
                row_dst[p] = cursor[i];
                cursor[i] += 1;
            }
        }

        let narrow = |v: &[usize]| -> Vec<Idx> { v.iter().map(|&i| i as Idx).collect() };
        gm_telemetry::counter_add("sparse.symbolic.build", 1);
        gm_telemetry::histogram_record("sparse.analyze_s", t0.elapsed().as_secs_f64());
        Ok(SparseLdl {
            n,
            indptr: narrow(a.indptr()),
            indices: narrow(a.indices()),
            perm: narrow(&perm),
            l_vals: vec![0.0; l_rows.len()],
            l_colptr,
            l_rows,
            row_ptr,
            row_cols,
            row_dst,
            up_ptr,
            up_rows,
            up_src,
            d: vec![0.0; n],
            work: vec![0.0; n],
            factored: false,
        })
    }

    /// Number of stored nonzeros in `L` plus the diagonal `D`.
    pub fn factor_nnz(&self) -> usize {
        self.l_rows.len() + self.n
    }

    /// The pivots `D`, in elimination order.
    pub fn pivots(&self) -> &[f64] {
        &self.d
    }

    /// Heap bytes the analysis and its numeric factor keep alive.
    pub fn retained_bytes(&self) -> usize {
        let idx = self.indptr.len()
            + self.indices.len()
            + self.perm.len()
            + self.l_colptr.len()
            + self.l_rows.len()
            + self.row_ptr.len()
            + self.row_cols.len()
            + self.row_dst.len()
            + self.up_ptr.len()
            + self.up_rows.len()
            + self.up_src.len();
        let vals = self.l_vals.len() + self.d.len() + self.work.len();
        idx * std::mem::size_of::<Idx>() + vals * std::mem::size_of::<f64>()
    }

    /// Numeric factorization of `a` — which must have the analyzed
    /// pattern — into the analyzed structure. The result depends only
    /// on the pattern and the values, never on what was factored
    /// before. On `Err` the numeric part is unspecified (the analysis
    /// stays valid): factor again before solving.
    pub fn factor(&mut self, a: &CsMat<f64>) -> Result<(), LdlError> {
        if a.shape() != (self.n, self.n)
            || !same_indices(a.indptr(), &self.indptr)
            || !same_indices(a.indices(), &self.indices)
        {
            return Err(LdlError::PatternMismatch);
        }
        self.replay(a.values())
    }

    /// The values-only factorization behind [`SparseLdl::factor`], for
    /// the caller that made this analysis from a matrix it still owns
    /// and has only rewritten the values of since: `avals` are that
    /// matrix's values, in its CSR order. The pattern is not compared
    /// again — that happened where the pair was made. A slice of
    /// another length is refused; one of the right length from another
    /// pattern factors the wrong matrix, which the owner's verified
    /// solve ([`SparseLdl::solve_refined`]) then reports.
    pub fn replay(&mut self, avals: &[f64]) -> Result<(), LdlError> {
        if avals.len() != self.indices.len() {
            return Err(LdlError::PatternMismatch);
        }
        let t0 = Instant::now();
        gm_telemetry::counter_add("sparse.lu.factorizations", 1);
        gm_telemetry::counter_add("sparse.ldl.factorizations", 1);
        let y = &mut self.work[..];
        for k in 0..self.n {
            let span = self.up_ptr[k] as usize..self.up_ptr[k + 1] as usize;
            for (&i, &src) in self.up_rows[span.clone()].iter().zip(&self.up_src[span]) {
                y[i as usize] = avals[src as usize];
            }
            let mut dk = y[k];
            y[k] = 0.0;
            for p in self.row_ptr[k] as usize..self.row_ptr[k + 1] as usize {
                let i = self.row_cols[p] as usize;
                let dst = self.row_dst[p] as usize;
                let yi = y[i];
                y[i] = 0.0;
                let above = self.l_colptr[i] as usize..dst;
                for (&r, &lv) in self.l_rows[above.clone()].iter().zip(&self.l_vals[above]) {
                    y[r as usize] -= lv * yi;
                }
                let lki = yi / self.d[i];
                dk -= lki * yi;
                self.l_vals[dst] = lki;
            }
            if dk == 0.0 || !dk.is_finite() {
                return Err(LdlError::PivotBreakdown { step: k });
            }
            self.d[k] = dk;
        }
        if self.factored {
            gm_telemetry::counter_add("sparse.symbolic.reuse", 1);
            gm_telemetry::histogram_record("sparse.refactor_s", t0.elapsed().as_secs_f64());
        }
        self.factored = true;
        Ok(())
    }

    /// Solves `A·x = b` in place with the current factors: `b` holds
    /// the right-hand side on entry and the solution on return;
    /// `scratch` is caller-owned workspace of length `n`.
    ///
    /// # Panics
    /// Panics when `b` or `scratch` is not of length `n`.
    pub fn solve_in_place(&self, b: &mut [f64], scratch: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(scratch.len(), self.n, "scratch length mismatch");
        let x = scratch;
        for (k, &orig) in self.perm.iter().enumerate() {
            x[k] = b[orig as usize];
        }
        for j in 0..self.n {
            let span = self.l_colptr[j] as usize..self.l_colptr[j + 1] as usize;
            let xj = x[j];
            for (&r, &lv) in self.l_rows[span.clone()].iter().zip(&self.l_vals[span]) {
                x[r as usize] -= lv * xj;
            }
        }
        for (xj, dj) in x.iter_mut().zip(&self.d) {
            *xj /= dj;
        }
        for j in (0..self.n).rev() {
            let span = self.l_colptr[j] as usize..self.l_colptr[j + 1] as usize;
            let mut xj = x[j];
            for (&r, &lv) in self.l_rows[span.clone()].iter().zip(&self.l_vals[span]) {
                xj -= lv * x[r as usize];
            }
            x[j] = xj;
        }
        for (k, &orig) in self.perm.iter().enumerate() {
            b[orig as usize] = x[k];
        }
    }

    /// Solves `A·x = b` and iteratively refines `x` against `a` (the
    /// matrix that was factored) until the relative residual
    /// `‖b − A·x‖∞ / ‖|A|·|x| + |b|‖∞` is at most `tol`, taking at most
    /// `max_steps` correction solves. The denominator is the largest
    /// magnitude any equation's terms reach, so the test asks for the
    /// residual to be small against the quantities it was computed
    /// from — attainable in floating point whatever the scaling of `a`,
    /// which `‖b‖∞` alone is not once `a` holds entries of 1e17. `x`
    /// receives the solution; `scratch` is resized as needed.
    ///
    /// Fails with [`LdlError::ResidualNotReached`] — `x` is then not to
    /// be used — when the residual stops shrinking or the step budget
    /// runs out; a non-finite iterate fails the same way.
    pub fn solve_refined(
        &self,
        a: &CsMat<f64>,
        b: &[f64],
        x: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
        tol: f64,
        max_steps: usize,
    ) -> Result<Refinement, LdlError> {
        let n = self.n;
        // scratch = [residual / correction | triangular-solve workspace]
        scratch.resize(2 * n, 0.0);
        let (r, ws) = scratch.split_at_mut(n);
        x.clear();
        x.extend_from_slice(b);
        self.solve_in_place(x, ws);
        let mut last_rnorm = f64::INFINITY;
        let mut steps = 0;
        loop {
            let (mut rnorm, mut scale) = (0.0f64, 0.0f64);
            for i in 0..n {
                let (cols, vals) = a.row(i);
                let (mut ax, mut mag) = (0.0f64, b[i].abs());
                for (&j, &v) in cols.iter().zip(vals) {
                    ax += v * x[j];
                    mag += (v * x[j]).abs();
                }
                r[i] = b[i] - ax;
                rnorm = nan_max(rnorm, r[i].abs());
                scale = nan_max(scale, mag);
            }
            let residual = if rnorm == 0.0 { 0.0 } else { rnorm / scale };
            if residual <= tol {
                return Ok(Refinement { steps, residual });
            }
            // Stalled once a correction fails to shrink ‖r‖∞ (the
            // ratio can wobble as `x`, hence `scale`, settles). A NaN
            // fails both comparisons: a non-finite iterate stops here.
            let shrinking = rnorm < last_rnorm;
            if steps == max_steps || !shrinking {
                return Err(LdlError::ResidualNotReached { residual });
            }
            last_rnorm = rnorm;
            self.solve_in_place(r, ws);
            for (xi, ri) in x.iter_mut().zip(r.iter()) {
                *xi += ri;
            }
            steps += 1;
        }
    }
}

/// `f64::max` that keeps a NaN instead of dropping it.
fn nan_max(acc: f64, next: f64) -> f64 {
    if next > acc || next.is_nan() {
        next
    } else {
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::SparseLu;
    use crate::triplets::Triplets;

    fn sym(n: usize, entries: &[(usize, usize, f64)]) -> CsMat<f64> {
        let mut t = Triplets::new(n, n);
        for &(i, j, v) in entries {
            t.push(i, j, v);
            if i != j {
                t.push(j, i, v);
            }
        }
        t.to_csr()
    }

    /// Arrow + band pattern with mixed-sign diagonal: fill, indefinite.
    fn indefinite(n: usize, shift: f64) -> CsMat<f64> {
        let mut e = Vec::new();
        for i in 0..n {
            let d = if i % 3 == 2 {
                -3.0 - shift
            } else {
                5.0 + shift + i as f64 * 0.1
            };
            e.push((i, i, d));
            if i + 2 < n {
                e.push((i, i + 2, 1.0 + 0.1 * shift));
            }
            if i > 0 && i + 1 < n {
                e.push((0, i + 1, 0.5));
            }
        }
        sym(n, &e)
    }

    #[test]
    fn solves_indefinite_system_like_lu() {
        let a = indefinite(30, 0.0);
        let mut ldl = SparseLdl::analyze(&a).unwrap();
        ldl.factor(&a).unwrap();
        assert!(ldl.pivots().iter().any(|&d| d < 0.0));
        assert!(ldl.pivots().iter().any(|&d| d > 0.0));
        // AMD defers the arrow's hub: fill stays linear in n.
        assert!(ldl.factor_nnz() < 4 * 30, "fill {}", ldl.factor_nnz());
        let b: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut x = b.clone();
        ldl.solve_in_place(&mut x, &mut vec![0.0; 30]);
        let want = SparseLu::factor(&a).unwrap().solve(&b);
        for (u, v) in x.iter().zip(&want) {
            assert!((u - v).abs() < 1e-12, "{u} vs {v}");
        }
    }

    #[test]
    fn refactor_is_independent_of_history() {
        let a = indefinite(25, 0.0);
        let b = indefinite(25, 0.7);
        let mut warm = SparseLdl::analyze(&a).unwrap();
        warm.factor(&a).unwrap();
        warm.factor(&b).unwrap();
        let mut cold = SparseLdl::analyze(&b).unwrap();
        cold.factor(&b).unwrap();
        assert_eq!(warm.pivots(), cold.pivots());
        assert_eq!(warm.l_vals, cold.l_vals);
    }

    #[test]
    fn zero_pivot_is_a_typed_error_and_the_analysis_survives() {
        // [[1, 1], [1, 1]]: the second pivot is 1 − 1·1 = 0 in any order.
        let bad = sym(2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)]);
        let mut ldl = SparseLdl::analyze(&bad).unwrap();
        assert_eq!(ldl.factor(&bad), Err(LdlError::PivotBreakdown { step: 1 }));
        let good = sym(2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 1, 3.0)]);
        ldl.factor(&good).unwrap();
        let mut x = vec![2.0, 4.0];
        ldl.solve_in_place(&mut x, &mut [0.0; 2]);
        assert!(
            (x[0] - 1.0).abs() < 1e-15 && (x[1] - 1.0).abs() < 1e-15,
            "{x:?}"
        );
    }

    #[test]
    fn rejects_foreign_pattern_and_non_square() {
        let a = indefinite(8, 0.0);
        let mut ldl = SparseLdl::analyze(&a).unwrap();
        assert_eq!(
            ldl.factor(&CsMat::identity(8)),
            Err(LdlError::PatternMismatch)
        );
        let rect: Triplets<f64> = Triplets::new(2, 3);
        assert!(matches!(
            SparseLdl::analyze(&rect.to_csr()),
            Err(LdlError::NotSquare { shape: (2, 3) })
        ));
    }

    #[test]
    fn refinement_recovers_from_a_tiny_pivot_and_reports_stalls() {
        // Eliminating the −1e-11 diagonal first costs ~11 digits in the
        // Schur complement; refinement buys them back.
        let a = sym(
            3,
            &[
                (0, 0, -1e-11),
                (0, 1, 1.0),
                (0, 2, 0.5),
                (1, 1, 2.0),
                (1, 2, 0.25),
                (2, 2, 3.0),
            ],
        );
        let mut ldl = SparseLdl::analyze(&a).unwrap();
        ldl.factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let (mut x, mut ws) = (Vec::new(), Vec::new());
        let got = ldl
            .solve_refined(&a, &b, &mut x, &mut ws, 1e-13, 10)
            .unwrap();
        assert!(got.residual <= 1e-13);
        let want = SparseLu::factor(&a).unwrap().solve(&b);
        for (u, v) in x.iter().zip(&want) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
        // Refining against a different matrix cannot converge.
        let other = indefinite(3, 0.0);
        assert!(matches!(
            ldl.solve_refined(&other, &b, &mut x, &mut ws, 1e-13, 10),
            Err(LdlError::ResidualNotReached { .. })
        ));
    }

    #[test]
    fn telemetry_counts_build_then_reuse() {
        let reg = gm_telemetry::Registry::new();
        let _g = reg.install();
        let a = indefinite(12, 0.0);
        let mut ldl = SparseLdl::analyze(&a).unwrap();
        for _ in 0..3 {
            ldl.factor(&a).unwrap();
        }
        assert_eq!(reg.counter_value("sparse.symbolic.build"), 1);
        assert_eq!(reg.counter_value("sparse.symbolic.reuse"), 2);
        assert_eq!(reg.counter_value("sparse.lu.factorizations"), 3);
        assert_eq!(reg.counter_value("sparse.ldl.factorizations"), 3);
    }
}
