//! Symbolic/numeric split for the sparse LU factorization.
//!
//! Newton, fast-decoupled, and interior-point iterations factor a long
//! sequence of matrices that share one sparsity pattern — only the values
//! change. The one-shot [`SparseLu::factor_with`] path pays for the
//! fill-reducing ordering (quadratic greedy minimum degree) and the
//! reach-pattern DFS on every call. [`SymbolicLu`] runs that analysis
//! once and captures everything the numeric loop needs — column order,
//! pivot sequence, per-step reach patterns, fill structure, and a
//! column-access plan into the CSR values — so later factorizations of
//! the same pattern are a cheap numeric replay
//! ([`SymbolicLu::refactor_into`]).
//!
//! The replay is *verified*, not trusted: at every elimination step the
//! threshold-partial-pivoting selection is re-run on the fresh values,
//! and any deviation from the captured pivot choice aborts the
//! refactorization with [`SparseLuError::RefactorUnstable`] so the
//! caller falls back to a full re-analysis. The fill structure needs no
//! such check — stored factors keep explicit zeros (see
//! [`crate::lu`]), so the structure is a pure function of the pattern
//! and the pivot sequence. The payoff of the pivot strictness: **a
//! successful refactorization is bit-identical to a fresh
//! [`SparseLu::factor_with`] on the same matrix**, so pattern caches can
//! never change a solver's answer, only its speed.
//!
//! [`LuEngine`] packages the policy: a small MRU cache of symbolic
//! objects keyed by [`CsMat::pattern_fingerprint`], automatic fallback,
//! reusable numeric buffers, and telemetry
//! (`sparse.symbolic.{build,reuse,fallback}` counters,
//! `sparse.analyze_s`/`sparse.refactor_s` timings).

use crate::csmat::CsMat;
use crate::lu::{factor_core, ColAccess, PatternCapture, SparseLu, SparseLuError};
use crate::order::Ordering;
use std::time::Instant;

/// Reusable symbolic analysis of one sparsity pattern: fill-reducing
/// column order, captured pivot sequence, and per-step reach patterns of
/// the analysis factorization. Stored factors keep explicit zeros, so
/// these three fully determine the `L`/`U` fill structure.
#[derive(Clone, Debug)]
pub struct SymbolicLu {
    n: usize,
    nnz: usize,
    fingerprint: u64,
    ordering: Ordering,
    pivot_tol: f64,
    /// Column order: column `q[k]` eliminated at step `k`.
    q: Vec<usize>,
    /// Captured pivot permutation: `pinv[original_row] = pivot position`.
    pinv: Vec<usize>,
    /// Per-step reach pattern (`pat_rows` spans indexed by `pat_ptr`),
    /// re-ordered from the captured DFS postorder into two runs per
    /// step: rows already pivoted before step `k` (`pinv[i] < k`, the
    /// elimination sources, still in postorder among themselves) up to
    /// `pat_split[k]`, then the not-yet-pivoted rows. The numeric replay
    /// then runs branch-free: the same operations in the same order as
    /// the analysis loop, minus the per-entry `pinv` comparisons.
    pat_ptr: Vec<usize>,
    pat_split: Vec<usize>,
    pat_rows: Vec<usize>,
    /// Exact entry counts of the analysis factors, for reservation.
    l_nnz: usize,
    u_nnz: usize,
    /// Final factor structure — a pure function of pattern + pivot
    /// sequence, so a refactorization only writes values into it:
    /// `l_rows_orig` holds L's row indices as original rows (what the
    /// elimination scatter indexes), `l_rows_piv` the same entries
    /// rewritten into pivot order (what the finished factor stores).
    l_colptr: Vec<usize>,
    l_rows_orig: Vec<usize>,
    l_rows_piv: Vec<usize>,
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
    /// Column-access plan: step `k` reads `A(:, q[k])` values straight
    /// out of the CSR data array.
    acc: ColAccess,
}

impl SymbolicLu {
    /// Runs a full analysis factorization of `a`, returning the captured
    /// symbolic structure together with the numeric factors. The numeric
    /// result is bit-identical to
    /// [`SparseLu::factor_with`]`(a, ordering, pivot_tol)`.
    pub fn analyze(
        a: &CsMat<f64>,
        ordering: Ordering,
        pivot_tol: f64,
    ) -> Result<(SymbolicLu, SparseLu), SparseLuError> {
        if a.rows() != a.cols() {
            return Err(SparseLuError::NotSquare { shape: a.shape() });
        }
        let q = ordering.permutation(a).map_err(
            |crate::order::OrderingError::NotSquare { shape }| SparseLuError::NotSquare { shape },
        )?;
        let acc = ColAccess::build(a, &q);
        let mut cap = PatternCapture::default();
        let numeric = factor_core(
            a.rows(),
            a.nnz(),
            &acc,
            a.values(),
            q.clone(),
            pivot_tol,
            Some(&mut cap),
        )?;
        let n = a.rows();
        let pinv = numeric.pinv.clone();
        // Split each step's postorder pattern into eliminated-before-k /
        // not-yet-pivoted runs (see the `pat_split` field docs). Both
        // runs preserve their relative postorder, so the replay executes
        // the exact same floating-point sequence as the analysis.
        let mut pat_split = vec![0usize; n];
        let mut pat_rows = Vec::with_capacity(cap.pat_rows.len());
        for k in 0..n {
            let span = &cap.pat_rows[cap.pat_ptr[k]..cap.pat_ptr[k + 1]];
            for &i in span {
                if pinv[i] < k {
                    pat_rows.push(i);
                }
            }
            pat_split[k] = pat_rows.len();
            for &i in span {
                if pinv[i] >= k {
                    pat_rows.push(i);
                }
            }
        }
        // Capture the final factor structure. L's stored rows are in
        // pivot order; the elimination reads them as original rows, so
        // keep both images of the same index sequence.
        let mut pivot_row = vec![0usize; n];
        for (orig, &pk) in pinv.iter().enumerate() {
            pivot_row[pk] = orig;
        }
        let l_rows_piv = numeric.l.rows.clone();
        let l_rows_orig: Vec<usize> = l_rows_piv.iter().map(|&r| pivot_row[r]).collect();
        let sym = SymbolicLu {
            n,
            nnz: a.nnz(),
            fingerprint: a.pattern_fingerprint(),
            ordering,
            pivot_tol,
            q,
            pinv,
            pat_ptr: cap.pat_ptr,
            pat_split,
            pat_rows,
            l_nnz: numeric.l.rows.len(),
            u_nnz: numeric.u.rows.len(),
            l_colptr: numeric.l.colptr.clone(),
            l_rows_orig,
            l_rows_piv,
            u_colptr: numeric.u.colptr.clone(),
            u_rows: numeric.u.rows.clone(),
            acc,
        };
        Ok((sym, numeric))
    }

    /// Matrix dimension this analysis applies to.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Nonzero count of the analyzed pattern.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Pattern fingerprint of the analyzed matrix
    /// (see [`CsMat::pattern_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Ordering the analysis was built with.
    pub fn ordering(&self) -> Ordering {
        self.ordering
    }

    /// Pivot threshold the analysis was built with.
    pub fn pivot_tol(&self) -> f64 {
        self.pivot_tol
    }

    /// Numeric refactorization of `a` (same pattern as the analyzed
    /// matrix) into a fresh factor. Convenience wrapper over
    /// [`SymbolicLu::refactor_into`].
    pub fn refactor(&self, a: &CsMat<f64>) -> Result<SparseLu, SparseLuError> {
        let mut out = SparseLu::empty();
        let mut scratch = Vec::new();
        self.refactor_into(a, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Fresh numeric factorization of `a` reusing only the cached
    /// fill-reducing ordering and column-access plan — pivoting is
    /// re-run from scratch, so this succeeds where
    /// [`SymbolicLu::refactor`] reports instability. Bit-identical to
    /// [`SparseLu::factor_with`]`(a, ordering, pivot_tol)` (the
    /// ordering is a pure function of the pattern), while skipping the
    /// ordering and transpose work that dominates a cold factorization.
    pub fn factor_fresh(&self, a: &CsMat<f64>) -> Result<SparseLu, SparseLuError> {
        if a.rows() != a.cols() {
            return Err(SparseLuError::NotSquare { shape: a.shape() });
        }
        if a.rows() != self.n || a.nnz() != self.nnz || a.pattern_fingerprint() != self.fingerprint
        {
            return Err(SparseLuError::RefactorUnstable { step: 0 });
        }
        factor_core(
            self.n,
            self.nnz,
            &self.acc,
            a.values(),
            self.q.clone(),
            self.pivot_tol,
            None,
        )
    }

    /// Numeric refactorization: replays the captured elimination on
    /// `a`'s values, reusing `out`'s buffers and `scratch` (resized to
    /// `n`; contents irrelevant) so the steady state allocates nothing.
    ///
    /// On `Ok`, `out` is bit-identical to what a fresh
    /// [`SparseLu::factor_with`]`(a, ordering, pivot_tol)` would
    /// produce. On `Err` — the pivot sequence no longer reproduces
    /// ([`SparseLuError::RefactorUnstable`]), the matrix went singular,
    /// or the pattern differs from the analyzed one
    /// ([`SparseLuError::NotSquare`] / unstable at step 0) — `out` is
    /// left in an unspecified state and must be rebuilt via
    /// [`SymbolicLu::analyze`].
    pub fn refactor_into(
        &self,
        a: &CsMat<f64>,
        out: &mut SparseLu,
        scratch: &mut Vec<f64>,
    ) -> Result<(), SparseLuError> {
        if a.rows() != a.cols() {
            return Err(SparseLuError::NotSquare { shape: a.shape() });
        }
        if a.rows() != self.n || a.nnz() != self.nnz || a.pattern_fingerprint() != self.fingerprint
        {
            return Err(SparseLuError::RefactorUnstable { step: 0 });
        }
        gm_telemetry::counter_add("sparse.lu.factorizations", 1);
        let n = self.n;
        let avals = a.values();
        let pinv = &self.pinv;

        // The fill structure is a pure function of pattern + verified
        // pivot sequence, so the captured colptr/rows ARE the output
        // structure: the replay below only writes values, through a
        // cursor per factor, with no per-push capacity checks and no
        // final row-rewrite pass. Elimination reads L's in-progress
        // columns through the captured original-row image
        // (`l_rows_orig`) — only values change between refactorizations.
        out.n = n;
        out.q.clone_from(&self.q);
        out.pinv.clone_from(pinv);
        out.l.colptr.clone_from(&self.l_colptr);
        out.l.rows.clone_from(&self.l_rows_piv);
        out.l.vals.resize(self.l_nnz, 0.0);
        out.u.colptr.clone_from(&self.u_colptr);
        out.u.rows.clone_from(&self.u_rows);
        out.u.vals.resize(self.u_nnz, 0.0);
        scratch.resize(n, 0.0);
        let x = &mut scratch[..];
        let mut lpos = 0usize;
        let mut upos = 0usize;

        for k in 0..n {
            // Pattern runs for step k: rows pivoted before k (the
            // elimination sources, in the captured postorder), then the
            // not-yet-pivoted rest. Same index sets the analysis loop
            // partitioned per entry — pre-split, so the hot loops are
            // branch-free.
            let elim = &self.pat_rows[self.pat_ptr[k]..self.pat_split[k]];
            let rest = &self.pat_rows[self.pat_split[k]..self.pat_ptr[k + 1]];

            // --- Numeric: scatter A(:, q[k]), then eliminate in the
            // captured topological order (reverse postorder). ---
            for &i in elim {
                x[i] = 0.0;
            }
            for &i in rest {
                x[i] = 0.0;
            }
            let (bcols, bsrc) = self.acc.col(k);
            for (&i, &p) in bcols.iter().zip(bsrc) {
                x[i] = avals[p];
            }
            for idx in (0..elim.len()).rev() {
                let i = elim[idx];
                let jcol = pinv[i];
                let lrows = &self.l_rows_orig[self.l_colptr[jcol]..self.l_colptr[jcol + 1]];
                let lvals = &out.l.vals[self.l_colptr[jcol]..self.l_colptr[jcol + 1]];
                let xi = x[i];
                if xi != 0.0 {
                    for (&r, &lv) in lrows.iter().zip(lvals).skip(1) {
                        x[r] -= lv * xi;
                    }
                }
            }

            // --- Re-run threshold partial pivoting on the fresh values;
            // any deviation from the captured choice is instability. ---
            let mut ipiv = usize::MAX;
            let mut amax = 0.0f64;
            for &i in rest {
                let t = x[i].abs();
                if t > amax {
                    amax = t;
                    ipiv = i;
                }
            }
            if ipiv == usize::MAX || amax <= 0.0 {
                return Err(SparseLuError::Singular { step: k });
            }
            let col = self.q[k];
            if pinv[col] >= k && x[col].abs() >= self.pivot_tol * amax && x[col] != 0.0 {
                ipiv = col;
            }
            if pinv[ipiv] != k {
                return Err(SparseLuError::RefactorUnstable { step: k });
            }
            let pivot = x[ipiv];

            // --- Write U and L values for column k straight into the
            // captured structure (explicit zeros included). ---
            for &i in elim {
                out.u.vals[upos] = x[i];
                upos += 1;
            }
            out.u.vals[upos] = pivot;
            upos += 1;

            out.l.vals[lpos] = 1.0;
            lpos += 1;
            for &i in rest {
                if pinv[i] > k {
                    out.l.vals[lpos] = x[i] / pivot;
                    lpos += 1;
                }
            }
        }
        debug_assert_eq!(lpos, self.l_nnz);
        debug_assert_eq!(upos, self.u_nnz);
        Ok(())
    }
}

impl SparseLu {
    /// An empty placeholder factor for [`SymbolicLu::refactor_into`] /
    /// [`LuEngine`] buffer reuse. Not usable for solves until filled.
    pub fn empty() -> SparseLu {
        SparseLu {
            n: 0,
            l: crate::lu::CscFactor {
                colptr: vec![0],
                rows: Vec::new(),
                vals: Vec::new(),
            },
            u: crate::lu::CscFactor {
                colptr: vec![0],
                rows: Vec::new(),
                vals: Vec::new(),
            },
            pinv: Vec::new(),
            q: Vec::new(),
        }
    }
}

struct Slot {
    fingerprint: u64,
    sym: SymbolicLu,
    numeric: SparseLu,
    /// Consecutive refactorizations that degraded into a re-analysis.
    /// At [`DIRECT_DEMOTION_STREAK`] the slot stops attempting replays
    /// and switches to [`SymbolicLu::factor_fresh`] permanently.
    fallback_streak: u32,
}

/// Consecutive fallbacks after which a slot is demoted to direct
/// factorization. Iterating solvers whose pivot sequence is stable
/// (Newton Jacobians, FDLF B matrices) never reach it; indefinite
/// systems whose pivots churn every iteration (IPM KKT) hit it
/// immediately and stop paying for doomed replay attempts.
const DIRECT_DEMOTION_STREAK: u32 = 2;

/// Pattern-reuse factorization engine: the one-stop API the solvers use
/// instead of calling [`SparseLu::factor`] per iteration.
///
/// Keeps a small MRU cache of symbolic analyses keyed by pattern
/// fingerprint. [`LuEngine::factorize`] refactors numerically on a
/// pattern hit (falling back to a fresh analysis whenever the replay
/// reports instability, so results never depend on cache state) and
/// analyzes on a miss. Numeric factors and scratch space are owned by
/// the engine and reused across calls.
///
/// A slot whose replays keep failing (`DIRECT_DEMOTION_STREAK`
/// consecutive fallbacks) is demoted: further hits skip the replay and
/// run [`SymbolicLu::factor_fresh`] — cached ordering, fresh pivots —
/// which is still well below cold-factorization cost.
///
/// Telemetry: `sparse.symbolic.build` counts full analyses,
/// `sparse.symbolic.reuse` successful refactorizations,
/// `sparse.symbolic.fallback` refactorizations that degraded into a
/// re-analysis (also counted as a build), `sparse.symbolic.direct`
/// demoted-slot factorizations; `sparse.analyze_s` /
/// `sparse.refactor_s` / `sparse.direct_s` record the respective wall
/// times. The `sparse.refactor` fault site (gm-faults, kind
/// `LuSingular`) forces the fallback path for chaos testing.
pub struct LuEngine {
    capacity: usize,
    /// MRU-first.
    slots: Vec<Slot>,
    scratch: Vec<f64>,
}

impl Default for LuEngine {
    fn default() -> Self {
        LuEngine::new()
    }
}

impl LuEngine {
    /// Engine holding up to 4 analyzed patterns — plenty for the
    /// iterate-on-one-pattern solvers (Newton, FDLF, IPM).
    pub fn new() -> LuEngine {
        LuEngine::with_capacity(4)
    }

    /// Engine holding up to `capacity` analyzed patterns. The N-1 sweep
    /// uses a slightly larger cache so base-pattern and post-outage
    /// patterns can coexist per worker.
    pub fn with_capacity(capacity: usize) -> LuEngine {
        LuEngine {
            capacity: capacity.max(1),
            slots: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Factors `a` with the default ordering and pivot threshold (the
    /// same defaults as [`SparseLu::factor`]), reusing a cached symbolic
    /// analysis when `a`'s pattern has been seen before.
    pub fn factorize(&mut self, a: &CsMat<f64>) -> Result<&SparseLu, SparseLuError> {
        self.factorize_with(a, Ordering::default(), 0.1)
    }

    /// Factors `a` with explicit ordering and pivot threshold. The
    /// returned factor is bit-identical to
    /// [`SparseLu::factor_with`]`(a, ordering, pivot_tol)` regardless of
    /// cache state: refactorizations that cannot reproduce the fresh
    /// result fall back to a full analysis.
    pub fn factorize_with(
        &mut self,
        a: &CsMat<f64>,
        ordering: Ordering,
        pivot_tol: f64,
    ) -> Result<&SparseLu, SparseLuError> {
        if a.rows() != a.cols() {
            return Err(SparseLuError::NotSquare { shape: a.shape() });
        }
        let fingerprint = a.pattern_fingerprint();
        let hit = self.slots.iter().position(|s| {
            s.fingerprint == fingerprint
                && s.sym.dim() == a.rows()
                && s.sym.nnz() == a.nnz()
                && s.sym.ordering() == ordering
                // Cache-key identity: bitwise compare so the slot only
                // matches the exact threshold it was analyzed with
                // (NaN-safe, unlike `==`).
                && s.sym.pivot_tol().to_bits() == pivot_tol.to_bits()
        });

        if let Some(idx) = hit {
            // Move to MRU position.
            self.slots[..=idx].rotate_right(1);
            if self.slots[0].fallback_streak >= DIRECT_DEMOTION_STREAK {
                // This pattern's pivots churn between factorizations:
                // skip the doomed replay, reuse the cached ordering and
                // column plan, pivot fresh. Same bits as a cold
                // factorization at a fraction of its cost.
                gm_telemetry::counter_add("sparse.symbolic.direct", 1);
                let t0 = Instant::now();
                let numeric = self.slots[0].sym.factor_fresh(a)?;
                self.slots[0].numeric = numeric;
                gm_telemetry::histogram_record("sparse.direct_s", t0.elapsed().as_secs_f64());
                return Ok(&self.slots[0].numeric);
            }
            let injected = matches!(
                gm_faults::inject("sparse.refactor"),
                Some(gm_faults::FaultKind::LuSingular)
            );
            let slot = &mut self.slots[0];
            let t0 = Instant::now();
            let refactored = if injected {
                Err(SparseLuError::RefactorUnstable { step: 0 })
            } else {
                slot.sym
                    .refactor_into(a, &mut slot.numeric, &mut self.scratch)
            };
            match refactored {
                Ok(()) => {
                    gm_telemetry::counter_add("sparse.symbolic.reuse", 1);
                    gm_telemetry::histogram_record("sparse.refactor_s", t0.elapsed().as_secs_f64());
                    self.slots[0].fallback_streak = 0;
                    return Ok(&self.slots[0].numeric);
                }
                Err(SparseLuError::RefactorUnstable { .. })
                | Err(SparseLuError::Singular { .. }) => {
                    // Degraded pivot or an injected fault: re-analyze
                    // from scratch. A truly singular matrix fails the
                    // re-analysis too, with an authoritative step index.
                    gm_telemetry::counter_add("sparse.symbolic.fallback", 1);
                    let (sym, numeric) = self.analyze_timed(a, ordering, pivot_tol)?;
                    let slot = &mut self.slots[0];
                    slot.sym = sym;
                    slot.numeric = numeric;
                    slot.fallback_streak += 1;
                    return Ok(&self.slots[0].numeric);
                }
                Err(e) => return Err(e),
            }
        }

        let (sym, numeric) = self.analyze_timed(a, ordering, pivot_tol)?;
        self.slots.insert(
            0,
            Slot {
                fingerprint,
                sym,
                numeric,
                fallback_streak: 0,
            },
        );
        self.slots.truncate(self.capacity);
        Ok(&self.slots[0].numeric)
    }

    fn analyze_timed(
        &self,
        a: &CsMat<f64>,
        ordering: Ordering,
        pivot_tol: f64,
    ) -> Result<(SymbolicLu, SparseLu), SparseLuError> {
        let t0 = Instant::now();
        let pair = SymbolicLu::analyze(a, ordering, pivot_tol)?;
        gm_telemetry::counter_add("sparse.symbolic.build", 1);
        gm_telemetry::histogram_record("sparse.analyze_s", t0.elapsed().as_secs_f64());
        Ok(pair)
    }

    /// Number of analyzed patterns currently cached.
    pub fn cached_patterns(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplets::Triplets;

    fn tridiag(n: usize, f: impl Fn(usize) -> f64) -> CsMat<f64> {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0 + f(i));
            if i + 1 < n {
                t.push(i, i + 1, -1.0 - f(i) * 0.1);
                t.push(i + 1, i, -1.0 + f(i) * 0.1);
            }
        }
        t.to_csr()
    }

    fn factors_equal(a: &SparseLu, b: &SparseLu) -> bool {
        a.n == b.n
            && a.pinv == b.pinv
            && a.q == b.q
            && a.l.colptr == b.l.colptr
            && a.l.rows == b.l.rows
            && a.l.vals == b.l.vals
            && a.u.colptr == b.u.colptr
            && a.u.rows == b.u.rows
            && a.u.vals == b.u.vals
    }

    #[test]
    fn analyze_matches_one_shot_factor() {
        let a = tridiag(25, |i| (i as f64 * 0.7).sin());
        let (sym, numeric) = SymbolicLu::analyze(&a, Ordering::MinDegree, 0.1).unwrap();
        let oneshot = SparseLu::factor_with(&a, Ordering::MinDegree, 0.1).unwrap();
        assert!(factors_equal(&numeric, &oneshot));
        assert_eq!(sym.fingerprint(), a.pattern_fingerprint());
    }

    #[test]
    fn refactor_bit_identical_to_fresh_factor() {
        let a = tridiag(25, |i| (i as f64 * 0.7).sin());
        let (sym, _) = SymbolicLu::analyze(&a, Ordering::MinDegree, 0.1).unwrap();
        // Perturb values only.
        let b = tridiag(25, |i| (i as f64 * 0.7).sin() * 1.25 + 0.01);
        let re = sym.refactor(&b).unwrap();
        let fresh = SparseLu::factor_with(&b, Ordering::MinDegree, 0.1).unwrap();
        assert!(
            factors_equal(&re, &fresh),
            "refactor diverged from fresh factor"
        );
    }

    #[test]
    fn refactor_rejects_different_pattern() {
        let a = tridiag(10, |_| 0.0);
        let (sym, _) = SymbolicLu::analyze(&a, Ordering::MinDegree, 0.1).unwrap();
        let b = CsMat::identity(10);
        assert!(matches!(
            sym.refactor(&b),
            Err(SparseLuError::RefactorUnstable { .. })
        ));
    }

    #[test]
    fn refactor_detects_pivot_degradation() {
        // Analysis on a diagonally dominant matrix keeps the diagonal
        // pivots; swinging an off-diagonal far above the diagonal forces
        // a different pivot choice, which the replay must refuse.
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 10.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 10.0);
        t.push(2, 2, 10.0);
        t.push(1, 2, 1.0);
        t.push(2, 1, 1.0);
        let a = t.to_csr();
        let (sym, _) = SymbolicLu::analyze(&a, Ordering::Natural, 0.5).unwrap();

        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1e-9);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 10.0);
        t.push(2, 2, 10.0);
        t.push(1, 2, 1.0);
        t.push(2, 1, 1.0);
        let bad = t.to_csr();
        assert!(matches!(
            sym.refactor(&bad),
            Err(SparseLuError::RefactorUnstable { .. })
        ));
    }

    #[test]
    fn engine_reuses_and_falls_back() {
        let reg = gm_telemetry::Registry::new();
        let _g = reg.install();
        let mut eng = LuEngine::new();
        let a = tridiag(20, |_| 0.0);
        let b = tridiag(20, |i| 0.3 * (i as f64).cos());
        let fa = eng.factorize(&a).unwrap().solve(&[1.0; 20]);
        let fb = eng.factorize(&b).unwrap().solve(&[1.0; 20]);
        assert_eq!(fa.len(), 20);
        assert_eq!(fb.len(), 20);
        let c = reg.counters();
        assert_eq!(c["sparse.symbolic.build"], 1);
        assert_eq!(c["sparse.symbolic.reuse"], 1);
        assert!(!c.contains_key("sparse.symbolic.fallback"));
        // Same answers as the one-shot path.
        let fresh = SparseLu::factor(&b).unwrap().solve(&[1.0; 20]);
        assert_eq!(fb, fresh);
    }

    #[test]
    fn engine_fallback_result_matches_fresh_factor() {
        let reg = gm_telemetry::Registry::new();
        let _g = reg.install();
        let mut eng = LuEngine::new();
        // Diagonally dominant analysis, then adversarial values that
        // break the captured pivot order: the engine must fall back and
        // still return the fresh-factor answer.
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 10.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 10.0);
        let a = t.to_csr();
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1e-12);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1e-12);
        let bad = t.to_csr();
        eng.factorize(&a).unwrap();
        let x = eng.factorize(&bad).unwrap().solve(&[1.0, 2.0]);
        let fresh = SparseLu::factor(&bad).unwrap().solve(&[1.0, 2.0]);
        assert_eq!(x, fresh);
        let c = reg.counters();
        assert_eq!(c["sparse.symbolic.fallback"], 1);
        assert_eq!(c["sparse.symbolic.build"], 2);
    }

    #[test]
    fn persistent_fallbacks_demote_slot_to_direct_factorization() {
        let reg = gm_telemetry::Registry::new();
        let _g = reg.install();
        let mut eng = LuEngine::new();
        // Two-state pattern whose pivot flips between the states: every
        // replay against the opposite state's captured pivots fails.
        let mat = |flip: bool| {
            let (d, o) = if flip { (1e-9, 1e3) } else { (10.0, 1.0) };
            let mut t = Triplets::new(2, 2);
            t.push(0, 0, d);
            t.push(0, 1, 1.0);
            t.push(1, 0, o);
            t.push(1, 1, 10.0);
            t.to_csr()
        };
        for round in 0..6 {
            let a = mat(round % 2 == 1);
            let x = eng.factorize(&a).unwrap().solve(&[1.0, 2.0]);
            let fresh = SparseLu::factor(&a).unwrap().solve(&[1.0, 2.0]);
            assert_eq!(x, fresh, "round {round} diverged from fresh factor");
        }
        let c = reg.counters();
        // Round 0 builds, rounds 1-2 fall back, rounds 3+ run direct.
        assert_eq!(c["sparse.symbolic.fallback"], 2);
        assert_eq!(c["sparse.symbolic.direct"], 3);
        assert!(!c.contains_key("sparse.symbolic.reuse"));
    }

    #[test]
    fn engine_evicts_least_recently_used() {
        let mut eng = LuEngine::with_capacity(2);
        let mats: Vec<CsMat<f64>> = (3..6).map(|n| tridiag(n, |_| 0.0)).collect();
        for m in &mats {
            eng.factorize(m).unwrap();
        }
        assert_eq!(eng.cached_patterns(), 2);
    }

    #[test]
    fn engine_propagates_singularity() {
        let mut eng = LuEngine::new();
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 4.0);
        let a = t.to_csr();
        assert!(matches!(
            eng.factorize(&a),
            Err(SparseLuError::Singular { .. })
        ));
    }
}
