//! Sparse LU factorization (left-looking Gilbert–Peierls with partial
//! pivoting).
//!
//! The algorithm follows the structure of Davis' CSparse `cs_lu`: for each
//! column (in a fill-reducing order) a sparse triangular solve
//! `x = L \ A(:,q[k])` is performed, where the nonzero pattern of `x` is
//! discovered by depth-first search over the graph of the partially built
//! `L`. The pivot row is chosen by threshold partial pivoting: the diagonal
//! candidate is kept when it is within `pivot_tol` of the largest-magnitude
//! candidate, preserving sparsity on the diagonally dominant matrices power
//! systems produce.

use crate::csmat::CsMat;
use crate::order::Ordering;
use std::sync::Arc;

/// Failure modes of the sparse factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseLuError {
    /// No usable pivot in some column: the matrix is singular to working
    /// precision.
    Singular {
        /// Elimination step at which factorization failed.
        step: usize,
    },
    /// The matrix is not square.
    NotSquare {
        /// Actual shape.
        shape: (usize, usize),
    },
    /// A pattern-reuse refactorization could not reproduce the captured
    /// pivot sequence on the new values: the pivot quality degraded past
    /// the threshold-partial-pivoting criterion. Recover by running a
    /// fresh full analysis — [`crate::LuEngine`] does this
    /// automatically.
    RefactorUnstable {
        /// Elimination step at which the replay diverged.
        step: usize,
    },
}

impl std::fmt::Display for SparseLuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseLuError::Singular { step } => {
                write!(f, "sparse matrix numerically singular at step {step}")
            }
            SparseLuError::NotSquare { shape } => {
                write!(f, "sparse LU requires a square matrix, got {shape:?}")
            }
            SparseLuError::RefactorUnstable { step } => {
                write!(
                    f,
                    "pattern-reuse refactorization unstable at step {step}; full re-analysis required"
                )
            }
        }
    }
}

impl std::error::Error for SparseLuError {}

/// Index type of every stored structure array: row indices, column
/// pointers, permutations and CSR value offsets. Half the width of
/// `usize` on the targets this runs on, which halves what a retained
/// analysis costs in memory and what a replay streams through the
/// cache; [`elimination_plan`] asserts the dimensions fit before any
/// index is narrowed.
pub(crate) type Idx = u32;

/// Column-compressed factor under construction (diagonal-first for `L`,
/// diagonal-last for `U`).
struct CscFactor {
    colptr: Vec<Idx>,
    rows: Vec<Idx>,
    vals: Vec<f64>,
}

impl CscFactor {
    fn with_capacity(n: usize, cap: usize) -> Self {
        let mut colptr = Vec::with_capacity(n + 1);
        colptr.push(0);
        CscFactor {
            colptr,
            rows: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    fn close_col(&mut self) {
        assert!(
            self.rows.len() <= Idx::MAX as usize,
            "factor fill exceeds the 32-bit structure index"
        );
        self.colptr.push(self.rows.len() as Idx);
    }

    fn col_rows(&self, j: usize) -> &[Idx] {
        &self.rows[self.colptr[j] as usize..self.colptr[j + 1] as usize]
    }
}

/// Column-major access plan into a CSR matrix: for elimination step `k`
/// (column `q[k]`), `rows/src[colptr[k]..colptr[k+1]]` list the original
/// row indices, ascending, and the offsets of their values in the CSR
/// `data` array. Replaces the per-factorization transpose allocation and
/// lets a refactorization read fresh values straight out of the matrix.
#[derive(Clone, Debug)]
pub(crate) struct ColAccess {
    pub(crate) colptr: Vec<Idx>,
    pub(crate) rows: Vec<Idx>,
    pub(crate) src: Vec<Idx>,
}

impl ColAccess {
    /// Builds the access plan for `a`'s columns taken in order `q`.
    /// Row indices within each column come out ascending — the same
    /// order `CsMat::transpose` produces — so factorizations driven by
    /// this plan are bit-identical to the transpose-based path.
    pub(crate) fn build(a: &CsMat<f64>, q: &[Idx]) -> ColAccess {
        let n = a.rows();
        let nnz = a.nnz();
        // Count per original column, prefix-sum, then fill row-by-row so
        // each column's rows stay ascending.
        let mut head = vec![0usize; n + 1];
        for &j in a.indices() {
            head[j + 1] += 1;
        }
        for j in 0..n {
            head[j + 1] += head[j];
        }
        let col_of = head.clone();
        let mut next = head;
        let mut rows = vec![0; nnz];
        let mut src = vec![0; nnz];
        let indptr = a.indptr();
        let indices = a.indices();
        for i in 0..n {
            for p in indptr[i]..indptr[i + 1] {
                let j = indices[p];
                rows[next[j]] = i as Idx;
                src[next[j]] = p as Idx;
                next[j] += 1;
            }
        }
        // Re-order columns into elimination order `q` so step `k` reads
        // a contiguous span.
        let mut colptr = Vec::with_capacity(n + 1);
        let mut qrows = Vec::with_capacity(nnz);
        let mut qsrc = Vec::with_capacity(nnz);
        colptr.push(0);
        for &col in q {
            let span = col_of[col as usize]..col_of[col as usize + 1];
            qrows.extend_from_slice(&rows[span.clone()]);
            qsrc.extend_from_slice(&src[span]);
            colptr.push(qrows.len() as Idx);
        }
        ColAccess {
            colptr,
            rows: qrows,
            src: qsrc,
        }
    }

    pub(crate) fn col(&self, k: usize) -> (&[Idx], &[Idx]) {
        let span = self.colptr[k] as usize..self.colptr[k + 1] as usize;
        (&self.rows[span.clone()], &self.src[span])
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        (self.colptr.len() + self.rows.len() + self.src.len()) * std::mem::size_of::<Idx>()
    }
}

/// What both factorization entry points start from: the fill-reducing
/// column order of `a` and the access plan along it. This is where
/// indices are narrowed, so it is where the dimensions are held to
/// [`Idx`] — with `Idx::MAX` left over as the "not yet pivoted" mark.
pub(crate) fn elimination_plan(
    a: &CsMat<f64>,
    ordering: Ordering,
) -> Result<(Vec<Idx>, ColAccess), SparseLuError> {
    let q =
        ordering
            .permutation(a)
            .map_err(|crate::order::OrderingError::NotSquare { shape }| {
                SparseLuError::NotSquare { shape }
            })?;
    assert!(
        a.rows() < Idx::MAX as usize && a.nnz() <= Idx::MAX as usize,
        "a {0}x{0} matrix with {1} entries exceeds the 32-bit structure index",
        a.rows(),
        a.nnz()
    );
    let q: Vec<Idx> = q.iter().map(|&j| j as Idx).collect();
    let acc = ColAccess::build(a, &q);
    Ok((q, acc))
}

/// Structure captured during an analysis factorization, consumed by
/// [`crate::SymbolicLu`]: the per-step reach patterns in DFS postorder,
/// exactly as the numeric loop iterates them. Because the stored factors
/// keep explicit zeros (see [`factor_core`]), the pattern together with
/// the pivot permutation fully determines the `L`/`U` fill structure.
#[derive(Clone, Debug, Default)]
pub(crate) struct PatternCapture {
    pub(crate) pat_ptr: Vec<Idx>,
    pub(crate) pat_rows: Vec<Idx>,
}

/// Everything about a factorization that is a function of the sparsity
/// pattern and the pivot sequence alone: the two permutations and the
/// fill structure of `L` and `U`. It exists once per analysis, shared by
/// the [`crate::SymbolicLu`] that captured it and by every numeric
/// factor replayed from it, so a refactorization copies none of it.
#[derive(Debug)]
pub(crate) struct LuStructure {
    pub(crate) n: usize,
    /// `pinv[original_row] = pivot position`.
    pub(crate) pinv: Vec<Idx>,
    /// Column order: column `q[k]` eliminated at step `k`.
    pub(crate) q: Vec<Idx>,
    /// `L` by columns, unit diagonal first, rows in pivot order.
    pub(crate) l_colptr: Vec<Idx>,
    pub(crate) l_rows: Vec<Idx>,
    /// `U` by columns, diagonal last.
    pub(crate) u_colptr: Vec<Idx>,
    pub(crate) u_rows: Vec<Idx>,
}

impl LuStructure {
    pub(crate) fn heap_bytes(&self) -> usize {
        (self.pinv.len()
            + self.q.len()
            + self.l_colptr.len()
            + self.l_rows.len()
            + self.u_colptr.len()
            + self.u_rows.len())
            * std::mem::size_of::<Idx>()
    }
}

/// A sparse LU factorization `A[:, q] = P⁻¹ L U` usable for repeated
/// solves: the values of `L` and `U` plus a shared reference to their
/// structure.
#[derive(Clone, Debug)]
pub struct SparseLu {
    pub(crate) s: Arc<LuStructure>,
    pub(crate) l_vals: Vec<f64>,
    pub(crate) u_vals: Vec<f64>,
}

impl SparseLu {
    /// Factors with the default ordering ([`Ordering::Amd`]) and
    /// pivot threshold 0.1.
    pub fn factor(a: &CsMat<f64>) -> Result<Self, SparseLuError> {
        Self::factor_with(a, Ordering::default(), 0.1)
    }

    /// Factors with explicit ordering and threshold-partial-pivoting
    /// tolerance in `(0, 1]` (1.0 = strict partial pivoting).
    pub fn factor_with(
        a: &CsMat<f64>,
        ordering: Ordering,
        pivot_tol: f64,
    ) -> Result<Self, SparseLuError> {
        let (q, acc) = elimination_plan(a, ordering)?;
        factor_core(a.rows(), a.nnz(), &acc, a.values(), q, pivot_tol, None)
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.s.n
    }

    /// Number of nonzeros in `L` plus `U` (fill metric).
    pub fn factor_nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len()
    }

    /// Column `j` of `L`: rows in pivot order, unit diagonal first.
    #[inline]
    fn l_col(&self, j: usize) -> (&[Idx], &[f64]) {
        let span = self.s.l_colptr[j] as usize..self.s.l_colptr[j + 1] as usize;
        (&self.s.l_rows[span.clone()], &self.l_vals[span])
    }

    /// Column `j` of `U`, diagonal last.
    #[inline]
    fn u_col(&self, j: usize) -> (&[Idx], &[f64]) {
        let span = self.s.u_colptr[j] as usize..self.s.u_colptr[j + 1] as usize;
        (&self.s.u_rows[span.clone()], &self.u_vals[span])
    }

    /// Solves `A·x = b`, allocating the result. Thin wrapper over
    /// [`SparseLu::solve_in_place`]; hot loops should own their buffers
    /// and call that directly.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut out = b.to_vec();
        let mut scratch = vec![0.0f64; self.dim()];
        self.solve_in_place(&mut out, &mut scratch);
        out
    }

    /// Solves `A·x = b` in place: `b` holds the right-hand side on entry
    /// and the solution on return. `scratch` is caller-owned workspace of
    /// length `n` (contents ignored on entry, clobbered on return), so
    /// repeated solves allocate nothing.
    ///
    /// # Panics
    /// Panics when `b` or `scratch` is not of length `n`.
    pub fn solve_in_place(&self, b: &mut [f64], scratch: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length mismatch");
        assert_eq!(scratch.len(), n, "scratch length mismatch");
        gm_telemetry::counter_add("sparse.lu.solves", 1);
        // x = P b
        let x = scratch;
        for (orig, &pk) in self.s.pinv.iter().enumerate() {
            x[pk as usize] = b[orig];
        }
        // L solve (unit diagonal first entry per column).
        for j in 0..n {
            let (rows, vals) = self.l_col(j);
            let xj = x[j];
            if xj != 0.0 {
                for (&r, &v) in rows.iter().zip(vals).skip(1) {
                    x[r as usize] -= v * xj;
                }
            }
        }
        // U solve (diagonal last entry per column).
        for j in (0..n).rev() {
            let (rows, vals) = self.u_col(j);
            let last = rows.len() - 1;
            debug_assert_eq!(rows[last] as usize, j);
            x[j] /= vals[last];
            let xj = x[j];
            if xj != 0.0 {
                for (&r, &v) in rows[..last].iter().zip(&vals[..last]) {
                    x[r as usize] -= v * xj;
                }
            }
        }
        // Undo the column permutation: out[q[k]] = x[k].
        for (k, &qk) in self.s.q.iter().enumerate() {
            b[qk as usize] = x[k];
        }
    }

    /// Solves `A·X = B` for `nrhs` right-hand sides in place. `panel` is a
    /// structure-of-arrays layout over the right-hand sides: entry `i` of
    /// side `s` lives at `panel[i * nrhs + s]`, so all lanes of one row
    /// are contiguous and the triangular sweeps stream a dense AXPY over
    /// the lane block per factor nonzero (SIMD-friendly, one pass over
    /// `L`/`U` regardless of `nrhs`). `scratch` is caller-owned workspace
    /// of length `n * nrhs + nrhs` (contents ignored on entry).
    ///
    /// Bitwise contract: the result equals `nrhs` independent
    /// [`SparseLu::solve_in_place`] calls on the de-interleaved columns —
    /// including the `±0.0` edge cases, which is why the mixed-lane path
    /// below keeps the per-lane skip-on-zero of the single-RHS sweep
    /// (an unconditional `x -= v·0.0` could flip a `-0.0` to `+0.0`).
    /// Property-tested in `tests/solve_many_props.rs`.
    ///
    /// # Panics
    /// Panics when `nrhs` is zero or the slice lengths disagree with
    /// `n * nrhs` / `n * nrhs + nrhs`.
    pub fn solve_many_in_place(&self, panel: &mut [f64], nrhs: usize, scratch: &mut [f64]) {
        let n = self.dim();
        assert!(nrhs > 0, "at least one right-hand side");
        assert_eq!(panel.len(), n * nrhs, "panel length mismatch");
        assert_eq!(scratch.len(), n * nrhs + nrhs, "scratch length mismatch");
        gm_telemetry::counter_add("sparse.lu.solves", nrhs as u64);
        let (x, lanes) = scratch.split_at_mut(n * nrhs);
        // X = P B, lane blocks move wholesale.
        for (orig, &pk) in self.s.pinv.iter().enumerate() {
            let pk = pk as usize;
            x[pk * nrhs..(pk + 1) * nrhs].copy_from_slice(&panel[orig * nrhs..(orig + 1) * nrhs]);
        }
        // L solve (unit diagonal first entry per column).
        for j in 0..n {
            let (rows, vals) = self.l_col(j);
            lanes.copy_from_slice(&x[j * nrhs..(j + 1) * nrhs]);
            let live = lanes.iter().filter(|v| **v != 0.0).count();
            if live == 0 {
                continue;
            }
            if live == nrhs {
                // Every lane active: blocked dense AXPY over the lane block.
                for (&r, &v) in rows.iter().zip(vals).skip(1) {
                    let r = r as usize;
                    axpy_lane_blocked(&mut x[r * nrhs..(r + 1) * nrhs], lanes, v);
                }
            } else {
                // Mixed lanes: keep the single-RHS skip-on-zero per lane.
                for (&r, &v) in rows.iter().zip(vals).skip(1) {
                    let r = r as usize;
                    for (xr, &xj) in x[r * nrhs..(r + 1) * nrhs].iter_mut().zip(lanes.iter()) {
                        if xj != 0.0 {
                            *xr -= v * xj;
                        }
                    }
                }
            }
        }
        // U solve (diagonal last entry per column).
        for j in (0..n).rev() {
            let (rows, vals) = self.u_col(j);
            let last = rows.len() - 1;
            debug_assert_eq!(rows[last] as usize, j);
            let d = vals[last];
            for (xj, lane) in x[j * nrhs..(j + 1) * nrhs].iter_mut().zip(lanes.iter_mut()) {
                *xj /= d;
                *lane = *xj;
            }
            let live = lanes.iter().filter(|v| **v != 0.0).count();
            if live == 0 {
                continue;
            }
            if live == nrhs {
                for (&r, &v) in rows[..last].iter().zip(&vals[..last]) {
                    let r = r as usize;
                    axpy_lane_blocked(&mut x[r * nrhs..(r + 1) * nrhs], lanes, v);
                }
            } else {
                for (&r, &v) in rows[..last].iter().zip(&vals[..last]) {
                    let r = r as usize;
                    for (xr, &xj) in x[r * nrhs..(r + 1) * nrhs].iter_mut().zip(lanes.iter()) {
                        if xj != 0.0 {
                            *xr -= v * xj;
                        }
                    }
                }
            }
        }
        // Undo the column permutation: out[q[k]] = x[k], lane blocks.
        for (k, &qk) in self.s.q.iter().enumerate() {
            let qk = qk as usize;
            panel[qk * nrhs..(qk + 1) * nrhs].copy_from_slice(&x[k * nrhs..(k + 1) * nrhs]);
        }
    }
}

/// Lane width for the blocked panel AXPY: two 256-bit `f64x4` vectors'
/// worth, fixed at compile time so the inner loop is fully unrolled and
/// auto-vectorized without per-iteration slice-length checks.
const PANEL_LANE: usize = 8;

/// `xrow -= v * lanes`, elementwise over the lane block, in fixed-width
/// chunks plus a scalar remainder. Each lane's update is an independent
/// fused-order `mul`/`sub` pair, so the result is bit-identical to the
/// straight-line scalar loop it replaces.
#[inline(always)]
fn axpy_lane_blocked(xrow: &mut [f64], lanes: &[f64], v: f64) {
    let mut xb = xrow.chunks_exact_mut(PANEL_LANE);
    let mut lb = lanes.chunks_exact(PANEL_LANE);
    for (xc, lc) in (&mut xb).zip(&mut lb) {
        for s in 0..PANEL_LANE {
            xc[s] -= v * lc[s];
        }
    }
    for (xr, &xj) in xb.into_remainder().iter_mut().zip(lb.remainder()) {
        *xr -= v * xj;
    }
}

/// The left-looking Gilbert–Peierls elimination loop shared by the
/// one-shot [`SparseLu::factor_with`] path and the symbolic-capturing
/// [`crate::SymbolicLu::analyze`] path. When `capture` is provided, the
/// per-step reach patterns are recorded for later pattern-reuse
/// refactorizations; the numeric result is bit-identical either way.
///
/// Every reached pattern entry is stored, including exact zeros — the
/// fill structure depends only on the sparsity pattern and the pivot
/// sequence, never on value cancellations, which is what lets a
/// refactorization replay the structure without re-running the DFS.
pub(crate) fn factor_core(
    n: usize,
    nnz: usize,
    acc: &ColAccess,
    avals: &[f64],
    q: Vec<Idx>,
    pivot_tol: f64,
    mut capture: Option<&mut PatternCapture>,
) -> Result<SparseLu, SparseLuError> {
    const UNPIVOTED: Idx = Idx::MAX;
    gm_telemetry::counter_add("sparse.lu.factorizations", 1);
    let mut l = CscFactor::with_capacity(n, 4 * nnz.max(n));
    let mut u = CscFactor::with_capacity(n, 4 * nnz.max(n));
    let mut pinv = vec![UNPIVOTED; n];

    // Workspaces.
    let mut x = vec![0.0f64; n];
    let mut marked = vec![false; n];
    let mut pattern: Vec<Idx> = Vec::with_capacity(n); // topological order (reverse)
    let mut dfs_stack: Vec<(Idx, usize)> = Vec::with_capacity(n);

    if let Some(cap) = capture.as_deref_mut() {
        cap.pat_ptr.clear();
        cap.pat_ptr.push(0);
        cap.pat_rows.clear();
    }

    for k in 0..n {
        let col = q[k] as usize;
        let (bcols, bsrc) = acc.col(k); // A(:, col), rows ascending

        // --- Symbolic: pattern of x = L \ A(:,col) via DFS. ---
        pattern.clear();
        for &i in bcols {
            if !marked[i as usize] {
                dfs_stack.push((i, 0));
                marked[i as usize] = true;
                while let Some(top) = dfs_stack.last_mut() {
                    let node = top.0;
                    let jcol = pinv[node as usize];
                    let mut next_child = None;
                    if jcol != UNPIVOTED {
                        let lrows = l.col_rows(jcol as usize);
                        while top.1 < lrows.len() {
                            let r = lrows[top.1];
                            top.1 += 1;
                            if !marked[r as usize] {
                                next_child = Some(r);
                                break;
                            }
                        }
                    }
                    match next_child {
                        Some(r) => {
                            marked[r as usize] = true;
                            dfs_stack.push((r, 0));
                        }
                        None => {
                            // Leaf or children exhausted: emit postorder.
                            dfs_stack.pop();
                            pattern.push(node);
                        }
                    }
                }
            }
        }
        // `pattern` is now in topological order for the numeric solve
        // when traversed in reverse.
        if let Some(cap) = capture.as_deref_mut() {
            cap.pat_rows.extend_from_slice(&pattern);
            assert!(
                cap.pat_rows.len() <= Idx::MAX as usize,
                "reach patterns exceed the 32-bit structure index"
            );
            cap.pat_ptr.push(cap.pat_rows.len() as Idx);
        }

        // --- Numeric: scatter b, then eliminate. ---
        for &i in &pattern {
            x[i as usize] = 0.0;
        }
        for (&i, &p) in bcols.iter().zip(bsrc) {
            x[i as usize] = avals[p as usize];
        }
        for idx in (0..pattern.len()).rev() {
            let i = pattern[idx] as usize;
            let jcol = pinv[i];
            if jcol == UNPIVOTED {
                continue;
            }
            // L column jcol is diagonal-first with unit diagonal.
            let span = l.colptr[jcol as usize] as usize..l.colptr[jcol as usize + 1] as usize;
            let (lrows, lvals) = (&l.rows[span.clone()], &l.vals[span]);
            let xi = x[i]; // already fully updated (topological order)
            if xi != 0.0 {
                for (&r, &lv) in lrows.iter().zip(lvals).skip(1) {
                    x[r as usize] -= lv * xi;
                }
            }
        }

        // --- Pivot selection (threshold partial pivoting). ---
        let mut ipiv = usize::MAX;
        let mut amax = 0.0f64;
        for &i in &pattern {
            let i = i as usize;
            if pinv[i] == UNPIVOTED {
                let t = x[i].abs();
                if t > amax {
                    amax = t;
                    ipiv = i;
                }
            }
        }
        if ipiv == usize::MAX || amax <= 0.0 {
            return Err(SparseLuError::Singular { step: k });
        }
        // Prefer the diagonal candidate when acceptable.
        if pinv[col] == UNPIVOTED && x[col].abs() >= pivot_tol * amax && x[col] != 0.0 {
            ipiv = col;
        }
        let pivot = x[ipiv];

        // --- Store U column k (rows already pivoted), diagonal last.
        // Exact zeros are kept: structure must not depend on values. ---
        for &i in &pattern {
            if pinv[i as usize] != UNPIVOTED {
                u.rows.push(pinv[i as usize]);
                u.vals.push(x[i as usize]);
            }
        }
        u.rows.push(k as Idx);
        u.vals.push(pivot);
        u.close_col();

        // --- Store L column k (unpivoted rows), unit diagonal first. ---
        pinv[ipiv] = k as Idx;
        l.rows.push(ipiv as Idx);
        l.vals.push(1.0);
        for &i in &pattern {
            if pinv[i as usize] == UNPIVOTED {
                l.rows.push(i);
                l.vals.push(x[i as usize] / pivot);
            }
        }
        l.close_col();

        for &i in &pattern {
            marked[i as usize] = false;
        }
    }

    // Rewrite L's row indices into pivot order so solves are plain
    // triangular sweeps. The build buffers were reserved for worst-case
    // fill; what outlives this call is shrunk to the fill that happened.
    for r in &mut l.rows {
        *r = pinv[*r as usize];
    }
    l.rows.shrink_to_fit();
    l.vals.shrink_to_fit();
    u.rows.shrink_to_fit();
    u.vals.shrink_to_fit();
    Ok(SparseLu {
        s: Arc::new(LuStructure {
            n,
            pinv,
            q,
            l_colptr: l.colptr,
            l_rows: l.rows,
            u_colptr: u.colptr,
            u_rows: u.rows,
        }),
        l_vals: l.vals,
        u_vals: u.vals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplets::Triplets;
    use gm_numeric::{DMat, DenseLu};

    fn residual_inf(a: &CsMat<f64>, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x);
        ax.iter()
            .zip(b)
            .fold(0.0f64, |m, (axi, bi)| m.max((axi - bi).abs()))
    }

    fn dense_random(n: usize, density: f64, seed: u64) -> CsMat<f64> {
        let mut s = seed.max(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64, s)
        };
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let (u, _) = next();
                if i == j {
                    t.push(i, j, 10.0 + u);
                } else if u < density {
                    let (v, _) = next();
                    t.push(i, j, v - 0.5);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn identity_solve() {
        let a: CsMat<f64> = CsMat::identity(5);
        let lu = SparseLu::factor(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(lu.solve(&b), b);
    }

    #[test]
    fn small_known_system() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        let a = t.to_csr();
        let lu = SparseLu::factor(&a).unwrap();
        let x = lu.solve(&[5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn permutation_required_zero_diagonal() {
        // Anti-diagonal matrix forces row pivoting.
        let mut t = Triplets::new(3, 3);
        t.push(0, 2, 1.0);
        t.push(1, 1, 2.0);
        t.push(2, 0, 3.0);
        let a = t.to_csr();
        let lu = SparseLu::factor_with(&a, Ordering::Natural, 1.0).unwrap();
        let x = lu.solve(&[3.0, 4.0, 6.0]);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert!((x[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 4.0);
        let a = t.to_csr();
        assert!(matches!(
            SparseLu::factor(&a),
            Err(SparseLuError::Singular { .. })
        ));
    }

    #[test]
    fn structurally_singular_detected() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        // Row/col 2 empty.
        let a = t.to_csr();
        assert!(SparseLu::factor(&a).is_err());
    }

    #[test]
    fn not_square_rejected() {
        let t: Triplets<f64> = Triplets::new(2, 3);
        assert!(matches!(
            SparseLu::factor(&t.to_csr()),
            Err(SparseLuError::NotSquare { .. })
        ));
    }

    #[test]
    fn matches_dense_lu_on_random_matrices() {
        for seed in 1..6u64 {
            let n = 30;
            let a = dense_random(n, 0.2, seed * 7919);
            let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let xs = SparseLu::factor(&a).unwrap().solve(&b);
            let mut d = DMat::zeros(n, n);
            a.to_dense_with(|i, j, v| d[(i, j)] = v);
            let xd = DenseLu::factor(&d).unwrap().solve(&b);
            for (s, dv) in xs.iter().zip(&xd) {
                assert!((s - dv).abs() < 1e-9, "seed {seed}: {s} vs {dv}");
            }
            assert!(residual_inf(&a, &xs, &b) < 1e-9);
        }
    }

    #[test]
    fn orderings_agree() {
        let a = dense_random(40, 0.15, 42);
        let b: Vec<f64> = (0..40).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let x_nat = SparseLu::factor_with(&a, Ordering::Natural, 0.1)
            .unwrap()
            .solve(&b);
        let x_md = SparseLu::factor_with(&a, Ordering::MinDegree, 0.1)
            .unwrap()
            .solve(&b);
        for (u, v) in x_nat.iter().zip(&x_md) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn min_degree_reduces_fill_on_grid_like_matrix() {
        // 2D 9-point-ish mesh gives meaningful fill differences.
        let m = 12usize;
        let n = m * m;
        let mut t = Triplets::new(n, n);
        for r in 0..m {
            for c in 0..m {
                let i = r * m + c;
                t.push(i, i, 8.0);
                if c + 1 < m {
                    t.push(i, i + 1, -1.0);
                    t.push(i + 1, i, -1.0);
                }
                if r + 1 < m {
                    t.push(i, i + m, -1.0);
                    t.push(i + m, i, -1.0);
                }
            }
        }
        let a = t.to_csr();
        let nat = SparseLu::factor_with(&a, Ordering::Natural, 0.1).unwrap();
        let md = SparseLu::factor_with(&a, Ordering::MinDegree, 0.1).unwrap();
        assert!(
            md.factor_nnz() < nat.factor_nnz(),
            "min-degree fill {} !< natural fill {}",
            md.factor_nnz(),
            nat.factor_nnz()
        );
        // Both must still solve correctly.
        let b = vec![1.0; n];
        assert!(residual_inf(&a, &md.solve(&b), &b) < 1e-9);
        assert!(residual_inf(&a, &nat.solve(&b), &b) < 1e-9);
    }

    #[test]
    fn solve_many_matches_repeated_single_solves_bitwise() {
        let n = 30;
        let a = dense_random(n, 0.25, 4242);
        let lu = SparseLu::factor(&a).unwrap();
        for nrhs in [1usize, 2, 3, 7] {
            // Interleaved panel with some exact-zero and negative-zero
            // lanes to exercise the skip-on-zero paths.
            let mut panel = vec![0.0f64; n * nrhs];
            let mut singles: Vec<Vec<f64>> = vec![vec![0.0; n]; nrhs];
            for i in 0..n {
                for s in 0..nrhs {
                    let v = match (i + s) % 4 {
                        0 => ((i * 7 + s * 3) as f64).sin(),
                        1 => 0.0,
                        2 => -0.0,
                        _ => -((i + 2 * s) as f64).cos(),
                    };
                    panel[i * nrhs + s] = v;
                    singles[s][i] = v;
                }
            }
            let mut scratch = vec![0.0f64; n * nrhs + nrhs];
            lu.solve_many_in_place(&mut panel, nrhs, &mut scratch);
            let mut ws = vec![0.0f64; n];
            for (s, b) in singles.iter_mut().enumerate() {
                lu.solve_in_place(b, &mut ws);
                for i in 0..n {
                    assert_eq!(
                        panel[i * nrhs + s].to_bits(),
                        b[i].to_bits(),
                        "nrhs {nrhs}, lane {s}, row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_many_counts_one_solve_per_lane() {
        let reg = gm_telemetry::Registry::new();
        let _g = reg.install();
        let a: CsMat<f64> = CsMat::identity(4);
        let lu = SparseLu::factor(&a).unwrap();
        let mut panel = vec![1.0f64; 4 * 3];
        let mut scratch = vec![0.0f64; 4 * 3 + 3];
        lu.solve_many_in_place(&mut panel, 3, &mut scratch);
        assert_eq!(reg.counter_value("sparse.lu.solves"), 3);
        assert_eq!(panel, vec![1.0; 12]);
    }

    #[test]
    fn repeated_solves_reuse_factorization() {
        let a = dense_random(20, 0.3, 99);
        let lu = SparseLu::factor(&a).unwrap();
        for k in 0..5 {
            let b: Vec<f64> = (0..20).map(|i| ((i + k) as f64).cos()).collect();
            let x = lu.solve(&b);
            assert!(residual_inf(&a, &x, &b) < 1e-9);
        }
    }
}
