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
//! objects looked up by shape and confirmed by comparing the pattern
//! itself, automatic fallback, reusable numeric buffers, and telemetry
//! (`sparse.symbolic.{build,reuse,fallback}` counters,
//! `sparse.analyze_s`/`sparse.refactor_s` timings).
//! [`with_thread_engine`] is its per-thread home: every power-flow
//! solver borrows it for each factorization, so a thread analyzes each
//! pattern it meets once, not once per call, and a solver that calls
//! another reaches the same engine without holding one.
//! [`with_fresh_engine`] lends the thread an empty engine for a closure,
//! for callers that want work done cold on purpose.
//!
//! The two rules that make such a home safe are stated once, for every
//! owner of kept analyses (this engine, the IPM's KKT plans in
//! gm-acopf): [`Mru`] — what is kept, and what goes first when there is
//! no room — and [`with_checked_out`] — who may touch it, and when.

use crate::csmat::CsMat;
use crate::lu::{
    elimination_plan, factor_core, ColAccess, Idx, LuStructure, PatternCapture, SparseLu,
    SparseLuError,
};
use crate::order::Ordering;
use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::thread::LocalKey;
use std::time::Instant;

/// Reusable symbolic analysis of one sparsity pattern: fill-reducing
/// column order, captured pivot sequence, and per-step reach patterns of
/// the analysis factorization. Stored factors keep explicit zeros, so
/// these three fully determine the `L`/`U` fill structure — which lives
/// here once (`LuStructure`, shared with every numeric factor replayed
/// from this analysis), in 32-bit indices.
#[derive(Clone, Debug)]
pub struct SymbolicLu {
    ordering: Ordering,
    pivot_tol: f64,
    /// The analyzed pattern itself, so a matrix is matched against it by
    /// comparing, exactly, instead of by hashing (as
    /// [`crate::SparseLdl`] does).
    indptr: Vec<Idx>,
    indices: Vec<Idx>,
    /// Column order, captured pivot permutation and the final factor
    /// structure — a pure function of pattern + pivot sequence, so a
    /// refactorization only writes values beside it.
    structure: Arc<LuStructure>,
    /// Per-step reach pattern (`pat_rows` spans indexed by `pat_ptr`),
    /// re-ordered from the captured DFS postorder into two runs per
    /// step: rows already pivoted before step `k` (`pinv[i] < k`, the
    /// elimination sources, still in postorder among themselves) up to
    /// `pat_split[k]`, then the not-yet-pivoted rows. The numeric replay
    /// then runs branch-free: the same operations in the same order as
    /// the analysis loop, minus the per-entry `pinv` comparisons.
    pat_ptr: Vec<Idx>,
    pat_split: Vec<Idx>,
    pat_rows: Vec<Idx>,
    /// `structure.l_rows` as original rows (what the elimination scatter
    /// indexes); the structure keeps the same entries in pivot order
    /// (what the finished factor stores).
    l_rows_orig: Vec<Idx>,
    /// Column-access plan: step `k` reads `A(:, q[k])` values straight
    /// out of the CSR data array.
    acc: ColAccess,
}

/// `wide == narrow`, element for element. A stored index that did not
/// fit `Idx` cannot have come from an analysis ([`elimination_plan`] and
/// [`crate::SparseLdl::analyze`] assert the fit), and would compare
/// unequal here rather than alias.
pub(crate) fn same_indices(wide: &[usize], narrow: &[Idx]) -> bool {
    wide.len() == narrow.len() && wide.iter().zip(narrow).all(|(&w, &s)| w == s as usize)
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
        let (q, acc) = elimination_plan(a, ordering)?;
        let mut cap = PatternCapture::default();
        let numeric = factor_core(
            a.rows(),
            a.nnz(),
            &acc,
            a.values(),
            q,
            pivot_tol,
            Some(&mut cap),
        )?;
        let n = a.rows();
        let structure = Arc::clone(&numeric.s);
        let pinv = &structure.pinv;
        // Split each step's postorder pattern into eliminated-before-k /
        // not-yet-pivoted runs (see the `pat_split` field docs). Both
        // runs preserve their relative postorder, so the replay executes
        // the exact same floating-point sequence as the analysis.
        let mut pat_split = vec![0; n];
        let mut pat_rows = Vec::with_capacity(cap.pat_rows.len());
        for k in 0..n {
            let span = &cap.pat_rows[cap.pat_ptr[k] as usize..cap.pat_ptr[k + 1] as usize];
            for &i in span {
                if (pinv[i as usize] as usize) < k {
                    pat_rows.push(i);
                }
            }
            pat_split[k] = pat_rows.len() as Idx;
            for &i in span {
                if pinv[i as usize] as usize >= k {
                    pat_rows.push(i);
                }
            }
        }
        // L's stored rows are in pivot order; the elimination reads them
        // as original rows, so keep that image of the same sequence.
        let mut pivot_row = vec![0; n];
        for (orig, &pk) in pinv.iter().enumerate() {
            pivot_row[pk as usize] = orig as Idx;
        }
        let l_rows_orig = structure
            .l_rows
            .iter()
            .map(|&r| pivot_row[r as usize])
            .collect();
        let sym = SymbolicLu {
            ordering,
            pivot_tol,
            indptr: a.indptr().iter().map(|&p| p as Idx).collect(),
            indices: a.indices().iter().map(|&j| j as Idx).collect(),
            structure,
            pat_ptr: cap.pat_ptr,
            pat_split,
            pat_rows,
            l_rows_orig,
            acc,
        };
        Ok((sym, numeric))
    }

    /// Matrix dimension this analysis applies to.
    pub fn dim(&self) -> usize {
        self.structure.n
    }

    /// Nonzero count of the analyzed pattern.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Ordering the analysis was built with.
    pub fn ordering(&self) -> Ordering {
        self.ordering
    }

    /// Pivot threshold the analysis was built with.
    pub fn pivot_tol(&self) -> f64 {
        self.pivot_tol
    }

    /// Whether `a` has exactly the analyzed pattern: shape, `indptr` and
    /// `indices` compared element for element.
    pub fn same_pattern(&self, a: &CsMat<f64>) -> bool {
        a.shape() == (self.dim(), self.dim())
            && same_indices(a.indptr(), &self.indptr)
            && same_indices(a.indices(), &self.indices)
    }

    /// Heap bytes this analysis keeps alive, the shared factor structure
    /// included.
    fn retained_bytes(&self) -> usize {
        let idx = self.indptr.len()
            + self.indices.len()
            + self.pat_ptr.len()
            + self.pat_split.len()
            + self.pat_rows.len()
            + self.l_rows_orig.len();
        idx * std::mem::size_of::<Idx>() + self.structure.heap_bytes() + self.acc.heap_bytes()
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

    /// Fresh numeric factorization of `a` (already matched against this
    /// analysis) reusing only the cached fill-reducing ordering and
    /// column-access plan — pivoting is re-run from scratch, so this
    /// succeeds where a replay reports instability. Bit-identical to
    /// [`SparseLu::factor_with`]`(a, ordering, pivot_tol)` (the ordering
    /// is a pure function of the pattern), while skipping the ordering
    /// and transpose work that dominates a cold factorization.
    fn factor_fresh(&self, a: &CsMat<f64>) -> Result<SparseLu, SparseLuError> {
        factor_core(
            self.dim(),
            self.nnz(),
            &self.acc,
            a.values(),
            self.structure.q.clone(),
            self.pivot_tol,
            None,
        )
    }

    /// The public entry points' guard: the replay indexes `a`'s values
    /// by stored offsets, so anything but the analyzed pattern is
    /// refused before a value is read.
    fn check_pattern(&self, a: &CsMat<f64>) -> Result<(), SparseLuError> {
        if a.rows() != a.cols() {
            return Err(SparseLuError::NotSquare { shape: a.shape() });
        }
        if !self.same_pattern(a) {
            return Err(SparseLuError::RefactorUnstable { step: 0 });
        }
        Ok(())
    }

    /// Numeric refactorization: replays the captured elimination on
    /// `a`'s values, reusing `out`'s value buffers and `scratch`
    /// (resized to `n`; contents irrelevant) so the steady state
    /// allocates nothing and copies no structure — `out` ends up
    /// sharing this analysis's.
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
        self.check_pattern(a)?;
        self.replay(a.values(), out, scratch)
    }

    /// The replay behind [`SymbolicLu::refactor_into`], for callers that
    /// have already matched `avals`' matrix against this analysis
    /// ([`SymbolicLu::same_pattern`]).
    fn replay(
        &self,
        avals: &[f64],
        out: &mut SparseLu,
        scratch: &mut Vec<f64>,
    ) -> Result<(), SparseLuError> {
        gm_telemetry::counter_add("sparse.lu.factorizations", 1);
        let s = &*self.structure;
        let n = s.n;
        let pinv = &s.pinv[..];
        // The fill structure is a pure function of pattern + verified
        // pivot sequence, so the captured structure IS the output
        // structure: the replay below only writes values, through a
        // cursor per factor, with no per-push capacity checks and no
        // final row-rewrite pass. Elimination reads L's in-progress
        // columns through the captured original-row image
        // (`l_rows_orig`) — only values change between refactorizations.
        out.s = Arc::clone(&self.structure);
        out.l_vals.resize(s.l_rows.len(), 0.0);
        out.u_vals.resize(s.u_rows.len(), 0.0);
        let (l_vals, u_vals) = (&mut out.l_vals[..], &mut out.u_vals[..]);
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
            let split = self.pat_split[k] as usize;
            let elim = &self.pat_rows[self.pat_ptr[k] as usize..split];
            let rest = &self.pat_rows[split..self.pat_ptr[k + 1] as usize];

            // --- Numeric: scatter A(:, q[k]), then eliminate in the
            // captured topological order (reverse postorder). ---
            for &i in elim {
                x[i as usize] = 0.0;
            }
            for &i in rest {
                x[i as usize] = 0.0;
            }
            let (bcols, bsrc) = self.acc.col(k);
            for (&i, &p) in bcols.iter().zip(bsrc) {
                x[i as usize] = avals[p as usize];
            }
            for &i in elim.iter().rev() {
                let jcol = pinv[i as usize] as usize;
                let span = s.l_colptr[jcol] as usize..s.l_colptr[jcol + 1] as usize;
                let lrows = &self.l_rows_orig[span.clone()];
                let lvals = &l_vals[span];
                let xi = x[i as usize];
                if xi != 0.0 {
                    for (&r, &lv) in lrows.iter().zip(lvals).skip(1) {
                        x[r as usize] -= lv * xi;
                    }
                }
            }

            // --- Re-run threshold partial pivoting on the fresh values;
            // any deviation from the captured choice is instability. ---
            let mut ipiv = usize::MAX;
            let mut amax = 0.0f64;
            for &i in rest {
                let t = x[i as usize].abs();
                if t > amax {
                    amax = t;
                    ipiv = i as usize;
                }
            }
            if ipiv == usize::MAX || amax <= 0.0 {
                return Err(SparseLuError::Singular { step: k });
            }
            let col = s.q[k] as usize;
            if pinv[col] as usize >= k && x[col].abs() >= self.pivot_tol * amax && x[col] != 0.0 {
                ipiv = col;
            }
            if pinv[ipiv] as usize != k {
                return Err(SparseLuError::RefactorUnstable { step: k });
            }
            let pivot = x[ipiv];

            // --- Write U and L values for column k straight into the
            // captured structure (explicit zeros included). ---
            for &i in elim {
                u_vals[upos] = x[i as usize];
                upos += 1;
            }
            u_vals[upos] = pivot;
            upos += 1;

            l_vals[lpos] = 1.0;
            lpos += 1;
            for &i in rest {
                if pinv[i as usize] as usize > k {
                    l_vals[lpos] = x[i as usize] / pivot;
                    lpos += 1;
                }
            }
        }
        debug_assert_eq!(lpos, l_vals.len());
        debug_assert_eq!(upos, u_vals.len());
        Ok(())
    }
}

impl SparseLu {
    /// An empty placeholder factor for [`SymbolicLu::refactor_into`] /
    /// [`LuEngine`] buffer reuse. Not usable for solves until filled.
    pub fn empty() -> SparseLu {
        SparseLu {
            s: Arc::new(LuStructure {
                n: 0,
                pinv: Vec::new(),
                q: Vec::new(),
                l_colptr: vec![0],
                l_rows: Vec::new(),
                u_colptr: vec![0],
                u_rows: Vec::new(),
            }),
            l_vals: Vec::new(),
            u_vals: Vec::new(),
        }
    }
}

/// The keeping rule of a per-thread home: a list of constant capacity,
/// most recently used first. A lookup walks it in that order (it derefs
/// to a slice), the owner [`Mru::promote`]s what it matched, and an
/// [`Mru::insert`] beyond the capacity drops from the far end — the
/// least recently used — and says how many went, so the owner counts
/// them. What an item *is* and how a match is decided (always by
/// comparing, never by hashing) is the owner's business.
#[derive(Debug)]
pub struct Mru<T> {
    capacity: usize,
    items: Vec<T>,
}

impl<T> Mru<T> {
    /// An empty list keeping at most `capacity` items (at least one).
    pub fn new(capacity: usize) -> Mru<T> {
        Mru {
            capacity: capacity.max(1),
            items: Vec::new(),
        }
    }

    /// Makes the item at `idx` the most recently used one.
    pub fn promote(&mut self, idx: usize) {
        self.items[..=idx].rotate_right(1);
    }

    /// Puts `item` in front and returns how many items that pushed out.
    #[must_use = "evictions are counted by the owner"]
    pub fn insert(&mut self, item: T) -> usize {
        self.items.insert(0, item);
        let evicted = self.items.len().saturating_sub(self.capacity);
        self.items.truncate(self.capacity);
        evicted
    }

    /// Takes the item at `idx` out of the list.
    pub fn remove(&mut self, idx: usize) -> T {
        self.items.remove(idx)
    }
}

impl<T> Deref for Mru<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items
    }
}

impl<T> DerefMut for Mru<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items
    }
}

/// The access rule of a per-thread home: runs `f` with what rests in
/// `home` — or with `fresh()` when nothing does — and puts it back
/// afterwards.
///
/// Per thread, not per process: a test, a rayon worker or a serve worker
/// each has its own history, there is nothing to lock, and exact work
/// counts stay a function of what that thread did. The kept state is
/// checked out for the duration of `f`; a nested call (a solver reached
/// from inside another's `f`) finds the home empty and works on a fresh
/// one of its own, which the outer call's return replaces; if `f`
/// panics the state is dropped with the unwind and the next call starts
/// from `fresh()`. Hidden state like this is acceptable only when results
/// are bit-identical whatever it holds — each owner tests that
/// (`tests/engine_history.rs`).
pub fn with_checked_out<T: 'static, R>(
    home: &'static LocalKey<Cell<Option<T>>>,
    fresh: impl FnOnce() -> T,
    f: impl FnOnce(&mut T) -> R,
) -> R {
    // `try_with`: a solve from another thread-local's destructor must
    // not abort the process.
    let mut kept = home
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_else(fresh);
    let out = f(&mut kept);
    // An exiting thread's home is already gone; the state goes with it.
    home.try_with(|h| h.set(Some(kept))).unwrap_or(());
    out
}

struct Slot {
    sym: SymbolicLu,
    numeric: SparseLu,
    /// Consecutive refactorizations that degraded into a re-analysis.
    /// At [`DIRECT_DEMOTION_STREAK`] the slot stops attempting replays
    /// and switches to fresh pivoting on its cached ordering permanently.
    fallback_streak: u32,
}

impl Slot {
    /// Heap bytes the slot keeps alive. A factor that came out of a
    /// demoted slot's fresh pivoting carries a structure of its own.
    fn retained_bytes(&self) -> usize {
        let own_structure = if Arc::ptr_eq(&self.numeric.s, &self.sym.structure) {
            0
        } else {
            self.numeric.s.heap_bytes()
        };
        self.sym.retained_bytes()
            + own_structure
            + self.numeric.factor_nnz() * std::mem::size_of::<f64>()
    }
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
/// Keeps a small MRU cache of symbolic analyses. A lookup shortlists by
/// `(dim, nnz)` and confirms by comparing the pattern itself against the
/// copy the analysis keeps — a hit is exact, never a hash's word for it.
/// [`LuEngine::factorize`] refactors numerically on a pattern hit
/// (falling back to a fresh analysis whenever the replay reports
/// instability, so results never depend on cache state) and analyzes on
/// a miss. Numeric factors and scratch space are owned by the engine and
/// reused across calls.
///
/// A slot whose replays keep failing (`DIRECT_DEMOTION_STREAK`
/// consecutive fallbacks) is demoted: further hits skip the replay and
/// pivot fresh on the cached ordering and column plan, which is still
/// well below cold-factorization cost.
///
/// Telemetry: `sparse.symbolic.build` counts full analyses,
/// `sparse.symbolic.reuse` successful refactorizations,
/// `sparse.symbolic.fallback` refactorizations that degraded into a
/// re-analysis (also counted as a build), `sparse.symbolic.direct`
/// demoted-slot factorizations, `sparse.symbolic.miss_same_shape`
/// misses that had a cached pattern of equal `dim`/`nnz` to rule out,
/// `sparse.symbolic.evict` analyses dropped for room;
/// `sparse.analyze_s` / `sparse.refactor_s` / `sparse.direct_s` record
/// the respective wall times and `sparse.engine.retained_kb` what the
/// engine holds after each analysis. The `sparse.refactor` fault site
/// (gm-faults, kind `LuSingular`) forces the fallback path for chaos
/// testing.
pub struct LuEngine {
    slots: Mru<Slot>,
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

    /// Engine holding up to `capacity` analyzed patterns. The thread's
    /// engine ([`with_thread_engine`], [`with_fresh_engine`]) keeps 8.
    pub fn with_capacity(capacity: usize) -> LuEngine {
        LuEngine {
            slots: Mru::new(capacity),
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
        let mut same_shape = false;
        let hit = self.slots.iter().position(|s| {
            let shortlisted = s.sym.dim() == a.rows()
                && s.sym.nnz() == a.nnz()
                && s.sym.ordering() == ordering
                // Cache-key identity: bitwise compare so the slot only
                // matches the exact threshold it was analyzed with
                // (NaN-safe, unlike `==`).
                && s.sym.pivot_tol().to_bits() == pivot_tol.to_bits();
            same_shape |= shortlisted;
            shortlisted && s.sym.same_pattern(a)
        });

        if let Some(idx) = hit {
            self.slots.promote(idx);
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
                    .replay(a.values(), &mut slot.numeric, &mut self.scratch)
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
                    self.record_retained();
                    return Ok(&self.slots[0].numeric);
                }
                Err(e) => return Err(e),
            }
        }

        if same_shape {
            gm_telemetry::counter_add("sparse.symbolic.miss_same_shape", 1);
        }
        let (sym, numeric) = self.analyze_timed(a, ordering, pivot_tol)?;
        let evicted = self.slots.insert(Slot {
            sym,
            numeric,
            fallback_streak: 0,
        });
        if evicted > 0 {
            gm_telemetry::counter_add("sparse.symbolic.evict", evicted as u64);
        }
        self.record_retained();
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

    fn record_retained(&self) {
        gm_telemetry::histogram_record(
            "sparse.engine.retained_kb",
            self.retained_bytes() as f64 / 1024.0,
        );
    }

    /// Number of analyzed patterns currently cached.
    pub fn cached_patterns(&self) -> usize {
        self.slots.len()
    }

    /// Heap bytes the cached analyses and their numeric factors keep
    /// alive.
    pub fn retained_bytes(&self) -> usize {
        self.slots.iter().map(Slot::retained_bytes).sum::<usize>()
            + self.scratch.capacity() * std::mem::size_of::<f64>()
    }
}

/// Patterns the per-thread engine keeps: one more than the largest
/// working set measured on a single thread (the `grid_scale` script
/// cycles seven — three Jacobians, two DC `B'`, FDLF's `B'` and `B''`),
/// evicted least-recently-used first.
const THREAD_ENGINE_SLOTS: usize = 8;

thread_local! {
    /// Where the thread's engine rests between calls of
    /// [`with_thread_engine`]; empty before the first one and while a
    /// call has it checked out.
    static THREAD_ENGINE: Cell<Option<LuEngine>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's long-lived [`LuEngine`]: the home
/// of every symbolic analysis a power-flow solver makes, borrowed for one
/// factorization and the solves on that factor, so that a repeated solve
/// on one topology pays for refactorizations only.
/// Checked out per call under [`with_checked_out`]'s rules; safe for the
/// reason any engine is — results are bit-identical whatever it holds.
pub fn with_thread_engine<R>(f: impl FnOnce(&mut LuEngine) -> R) -> R {
    with_checked_out(
        &THREAD_ENGINE,
        || LuEngine::with_capacity(THREAD_ENGINE_SLOTS),
        f,
    )
}

/// Runs `f` with a fresh engine lent to the calling thread: every
/// factorization inside `f` — however deeply nested its solver — borrows
/// that engine from [`with_thread_engine`], and the caller's engine comes
/// back afterwards, untouched. For work that must not share analyses
/// with what the thread did before: the N-1 sweep's outage evaluation
/// and the batch's unshared reference replay.
pub fn with_fresh_engine<R>(f: impl FnOnce() -> R) -> R {
    // Checking the caller's engine out leaves the home empty: the first
    // factorization inside `f` starts a fresh engine there, the ones
    // after it find that one, and this call's return puts the caller's
    // engine back over it.
    with_thread_engine(|_caller| f())
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
        let (sa, sb) = (&a.s, &b.s);
        sa.n == sb.n
            && sa.pinv == sb.pinv
            && sa.q == sb.q
            && sa.l_colptr == sb.l_colptr
            && sa.l_rows == sb.l_rows
            && a.l_vals == b.l_vals
            && sa.u_colptr == sb.u_colptr
            && sa.u_rows == sb.u_rows
            && a.u_vals == b.u_vals
    }

    #[test]
    fn analyze_matches_one_shot_factor() {
        let a = tridiag(25, |i| (i as f64 * 0.7).sin());
        let (sym, numeric) = SymbolicLu::analyze(&a, Ordering::MinDegree, 0.1).unwrap();
        let oneshot = SparseLu::factor_with(&a, Ordering::MinDegree, 0.1).unwrap();
        assert!(factors_equal(&numeric, &oneshot));
        assert!(sym.same_pattern(&a));
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
    fn mru_keeps_the_most_recently_used_and_says_what_it_dropped() {
        let mut list = Mru::new(3);
        assert_eq!([1, 2, 3].map(|k| list.insert(k)), [0, 0, 0]);
        assert_eq!(*list, [3, 2, 1]);
        list.promote(2);
        assert_eq!(*list, [1, 3, 2]);
        assert_eq!(list.insert(4), 1, "2 was the least recently used");
        assert_eq!(*list, [4, 1, 3]);
        assert_eq!(list.remove(1), 1);
        assert_eq!((list.insert(5), list.len()), (0, 3));
        // A capacity of zero would keep nothing, not even the item a
        // caller is about to use: it means one.
        let mut one = Mru::new(0);
        assert_eq!((one.insert('a'), one.insert('b')), (0, 1));
        assert_eq!(*one, ['b']);
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

    #[test]
    fn a_fresh_engine_is_lent_for_the_closure_and_the_callers_comes_back() {
        let (a, b) = (tridiag(5, |i| i as f64), tridiag(7, |i| i as f64));
        let patterns = || with_thread_engine(|e| e.cached_patterns());
        with_thread_engine(|e| e.factorize(&a).map(drop)).unwrap();
        let inside = with_fresh_engine(|| {
            assert_eq!(patterns(), 0, "the caller's analyses leaked in");
            with_thread_engine(|e| e.factorize(&b).map(drop)).unwrap();
            // One lent engine for the whole closure, not one per borrow.
            patterns()
        });
        assert_eq!(inside, 1);
        assert_eq!(patterns(), 1, "the closure's analyses leaked out");
    }
}
