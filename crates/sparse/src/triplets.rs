//! Coordinate-format (COO) assembly buffer.
//!
//! Ybus and Jacobian construction naturally "stamp" contributions per
//! branch/bus; duplicates are summed when converting to compressed storage,
//! exactly like MATPOWER's `sparse(i, j, v)` idiom.

use crate::csmat::CsMat;
use crate::scalar::Scalar;

/// A growable list of `(row, col, value)` entries.
#[derive(Clone, Debug)]
pub struct Triplets<T: Scalar> {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, T)>,
}

impl<T: Scalar> Triplets<T> {
    /// Creates an empty buffer for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Removes all entries, keeping the allocation. Hot assembly loops
    /// clear and re-stamp the same buffer instead of allocating a new
    /// one per iteration.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Adds `value` at `(row, col)`. Duplicates accumulate on conversion.
    ///
    /// # Panics
    /// Panics if the position is out of bounds.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: T) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// The raw (pre-deduplication) entries, in push order.
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Number of raw (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Declared shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Converts to CSR, summing duplicate positions and dropping exact
    /// zeros that result from cancellation.
    pub fn to_csr(&self) -> CsMat<T> {
        self.csr::<false>()
    }

    /// Converts to CSR like [`Triplets::to_csr`] but keeps every pushed
    /// position, explicit zeros included: the output pattern is a
    /// function of the push positions alone, never of the values. For
    /// matrices whose pattern feeds a reusable symbolic analysis.
    pub fn to_csr_structural(&self) -> CsMat<T> {
        self.csr::<true>()
    }

    fn csr<const KEEP_ZEROS: bool>(&self) -> CsMat<T> {
        // Counting sort by row, then sort-merge within each row.
        let mut counts = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            counts[r + 1] += 1;
        }
        for i in 0..self.rows {
            counts[i + 1] += counts[i];
        }
        let mut slots = counts.clone();
        let mut cols = vec![0usize; self.entries.len()];
        let mut vals = vec![T::zero(); self.entries.len()];
        for &(r, c, v) in &self.entries {
            let p = slots[r];
            cols[p] = c;
            vals[p] = v;
            slots[r] += 1;
        }

        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut out_cols = Vec::with_capacity(self.entries.len());
        let mut out_vals = Vec::with_capacity(self.entries.len());
        indptr.push(0);
        let mut order: Vec<usize> = Vec::new();
        for r in 0..self.rows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            order.clear();
            order.extend(lo..hi);
            // Tie-break equal columns on slot index: slots within a row
            // are in push order, so duplicate accumulation order is the
            // push order — the same order [`ScatterMap::scatter`] replays
            // with its single sequential pass over the entries.
            order.sort_unstable_by_key(|&p| (cols[p], p));
            let mut k = 0;
            while k < order.len() {
                let c = cols[order[k]];
                let mut acc = T::zero();
                while k < order.len() && cols[order[k]] == c {
                    acc += vals[order[k]];
                    k += 1;
                }
                if KEEP_ZEROS || !acc.is_zero() {
                    out_cols.push(c);
                    out_vals.push(acc);
                }
            }
            indptr.push(out_cols.len());
        }
        CsMat::from_raw(self.rows, self.cols, indptr, out_cols, out_vals)
    }

    /// Converts to CSR like [`Triplets::to_csr`] — the returned matrix is
    /// bit-identical, including the dropping of exact-zero cancellations —
    /// and additionally returns a [`ScatterMap`] that can re-run the
    /// numeric part of the conversion in place on a later stamping of the
    /// same position sequence.
    pub fn to_csr_with_map(&self) -> (CsMat<T>, ScatterMap) {
        self.csr_with_checked_map::<false>()
    }

    /// [`Triplets::to_csr_structural`] plus its [`ScatterMap`]: with no
    /// position ever dropped, the map applies to every later stamping
    /// of the same position sequence, whatever the values.
    pub fn to_csr_structural_with_map(&self) -> (CsMat<T>, ScatterMap) {
        self.csr_with_checked_map::<true>()
    }

    /// [`Triplets::to_csr_structural`] plus, for each pushed entry in push
    /// order, the value slot it was summed into. A caller that stamps the
    /// same position sequence again replays the conversion's arithmetic
    /// with `vals[slot[k]] += v_k` from zeroed values — no buffer, no
    /// sort, no position check.
    pub fn to_csr_structural_with_slots(&self) -> (CsMat<T>, Vec<usize>) {
        let (mat, map) = self.csr_with_map::<true>();
        (mat, map.dst_of_raw)
    }

    /// [`Triplets::csr_with_map`] plus the pushed positions a
    /// [`ScatterMap`] that leaves this module checks later stampings
    /// against — taken once the conversion's own buffers are gone.
    fn csr_with_checked_map<const KEEP_ZEROS: bool>(&self) -> (CsMat<T>, ScatterMap) {
        let (mat, mut map) = self.csr_with_map::<KEEP_ZEROS>();
        // Narrowed: a position beyond 32 bits is stored wrong and then
        // never equals the wide one `scatter` compares it with, so the
        // map just stops applying.
        map.pos = (self.entries.iter())
            .map(|&(r, c, _)| (r as u32, c as u32))
            .collect();
        (mat, map)
    }

    fn csr_with_map<const KEEP_ZEROS: bool>(&self) -> (CsMat<T>, ScatterMap) {
        // Counting sort by row, tracking the raw entry index of each slot.
        let mut counts = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            counts[r + 1] += 1;
        }
        for i in 0..self.rows {
            counts[i + 1] += counts[i];
        }
        let mut slots = counts.clone();
        let mut cols = vec![0usize; self.entries.len()];
        let mut vals = vec![T::zero(); self.entries.len()];
        let mut raw = vec![0usize; self.entries.len()];
        for (idx, &(r, c, v)) in self.entries.iter().enumerate() {
            let p = slots[r];
            cols[p] = c;
            vals[p] = v;
            raw[p] = idx;
            slots[r] += 1;
        }

        let mut indptr = Vec::with_capacity(self.rows + 1);
        let mut out_cols = Vec::with_capacity(self.entries.len());
        let mut out_vals = Vec::with_capacity(self.entries.len());
        indptr.push(0);
        let mut dst_of_raw = vec![usize::MAX; self.entries.len()];
        let mut dropped_raw: Vec<usize> = Vec::new();
        let mut dropped_ptr = vec![0usize];
        let mut order: Vec<usize> = Vec::new();
        for r in 0..self.rows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            order.clear();
            order.extend(lo..hi);
            // Same stable (column, push-order) key as [`Triplets::to_csr`]:
            // duplicate accumulation order is the push order, which is what
            // lets `scatter` replay it with one forward pass over the raw
            // entries instead of a gather through an index array.
            order.sort_unstable_by_key(|&p| (cols[p], p));
            let mut k = 0;
            while k < order.len() {
                let c = cols[order[k]];
                let start = k;
                let mut acc = T::zero();
                while k < order.len() && cols[order[k]] == c {
                    acc += vals[order[k]];
                    k += 1;
                }
                if KEEP_ZEROS || !acc.is_zero() {
                    let slot = out_cols.len();
                    for &p in &order[start..k] {
                        dst_of_raw[raw[p]] = slot;
                    }
                    out_cols.push(c);
                    out_vals.push(acc);
                } else {
                    for &p in &order[start..k] {
                        dropped_raw.push(raw[p]);
                    }
                    dropped_ptr.push(dropped_raw.len());
                }
            }
            indptr.push(out_cols.len());
        }
        let nnz = out_cols.len();
        let mat = CsMat::from_raw(self.rows, self.cols, indptr, out_cols, out_vals);
        let map = ScatterMap {
            rows: self.rows,
            cols: self.cols,
            nnz,
            pos: Vec::new(),
            keep_zeros: KEEP_ZEROS,
            dst_of_raw,
            dropped_raw,
            dropped_ptr,
        };
        (mat, map)
    }
}

/// Precomputed triplet → CSR scatter plan.
///
/// Built once by [`Triplets::to_csr_with_map`]; [`ScatterMap::scatter`]
/// then refreshes only the values of an existing matrix for each later
/// stamping of the *same* position sequence, with zero allocation. The
/// plan is a raw-entry → value-slot map, so the refresh is one forward
/// streaming pass over the freshly stamped entries — no index gather, no
/// per-row sorting — which is what keeps Jacobian assembly from
/// thrashing the cache at 10k-bus sizes. Duplicate accumulation lands in
/// push order, the exact order [`Triplets::to_csr`] sums (its column
/// sort tie-breaks on push order), so the refreshed values are
/// bit-identical to what a fresh `to_csr()` would produce — or `scatter`
/// reports `false` and the caller rebuilds, whenever the push sequence
/// or the cancellation structure changed (a dropped position became
/// nonzero, or a kept one cancelled to exact zero).
#[derive(Clone, Debug)]
pub struct ScatterMap {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// The `(row, col)` push sequence the map was built for, which
    /// `scatter` holds each later stamping against entry by entry.
    pos: Vec<(u32, u32)>,
    /// Built by the structural conversion: exact-zero sums stay in the
    /// pattern, so they never invalidate the map.
    keep_zeros: bool,
    /// Per raw entry (push order): destination slot in the CSR value
    /// array, or `usize::MAX` when the entry belongs to a position that
    /// cancelled to exact zero and was dropped from the pattern.
    dst_of_raw: Vec<usize>,
    /// Raw entry indices of the dropped positions, grouped by position
    /// (`dropped_ptr` bounds), so `scatter` can verify each still
    /// cancels.
    dropped_raw: Vec<usize>,
    dropped_ptr: Vec<usize>,
}

impl ScatterMap {
    /// Scatters a re-stamped triplet buffer into the values of `dst`.
    ///
    /// Returns `true` when `dst` now holds exactly `t.to_csr()`. Returns
    /// `false` — leaving `dst`'s values unspecified; rebuild with
    /// [`Triplets::to_csr_with_map`] — when the map does not apply: the
    /// push sequence (length or positions) differs from the one the map
    /// was built for, or an exact-zero cancellation appeared or
    /// disappeared, which changes the output pattern.
    #[must_use]
    pub fn scatter<T: Scalar>(&self, t: &Triplets<T>, dst: &mut CsMat<T>) -> bool {
        if t.shape() != (self.rows, self.cols)
            || t.entries.len() != self.pos.len()
            || dst.shape() != (self.rows, self.cols)
            || dst.nnz() != self.nnz
        {
            return false;
        }
        // One forward pass: each slot accumulates its duplicates in push
        // order, starting from zero — the same operation sequence as the
        // conversion, so the values come out bit-identical — while each
        // entry's position is held against the one the map was built
        // for.
        let vals = dst.values_mut();
        for v in vals.iter_mut() {
            *v = T::zero();
        }
        let mut same_positions = true;
        for ((&d, &(r, c)), e) in self.dst_of_raw.iter().zip(&self.pos).zip(&t.entries) {
            same_positions &= (e.0, e.1) == (r as usize, c as usize);
            if d != usize::MAX {
                vals[d] += e.2;
            }
        }
        if !same_positions {
            return false;
        }
        // A kept position that now cancels to exact zero would have been
        // dropped by `to_csr` — pattern change, rebuild.
        if !self.keep_zeros && vals.iter().any(|v| v.is_zero()) {
            return false;
        }
        // Dropped positions must still cancel exactly.
        for g in 0..self.dropped_ptr.len() - 1 {
            let mut acc = T::zero();
            for &raw in &self.dropped_raw[self.dropped_ptr[g]..self.dropped_ptr[g + 1]] {
                acc += t.entries[raw].2;
            }
            if !acc.is_zero() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_triplets_make_empty_matrix() {
        let t: Triplets<f64> = Triplets::new(3, 3);
        assert!(t.is_empty());
        let m = t.to_csr();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.shape(), (3, 3));
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, 2.5);
        t.push(1, 1, -1.0);
        let m = t.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), 3.5);
        assert_eq!(m.get(1, 1), -1.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn exact_cancellation_is_dropped() {
        let mut t = Triplets::new(1, 1);
        t.push(0, 0, 2.0);
        t.push(0, 0, -2.0);
        assert_eq!(t.to_csr().nnz(), 0);
    }

    #[test]
    fn structural_conversion_keeps_zeros_and_its_map_always_applies() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(0, 0, -2.0);
        t.push(1, 0, 0.0);
        t.push(1, 1, 4.0);
        assert_eq!(t.to_csr().nnz(), 1);
        let (mut m, map) = t.to_csr_structural_with_map();
        assert_eq!(m.indices(), t.to_csr_structural().indices());
        assert_eq!(m.indices(), &[0, 0, 1]);
        assert_eq!(m.values(), &[0.0, 0.0, 4.0]);
        // Zero ↔ nonzero flips in either direction keep the pattern.
        t.clear();
        t.push(0, 0, 2.0);
        t.push(0, 0, 1.0);
        t.push(1, 0, 5.0);
        t.push(1, 1, 0.0);
        assert!(map.scatter(&t, &mut m));
        assert_eq!(m.values(), &[3.0, 5.0, 0.0]);
    }

    #[test]
    fn slots_replay_the_structural_conversion_bit_for_bit() {
        let mut t = Triplets::new(2, 3);
        for &(r, c, v) in &[
            (1, 2, 0.1),
            (0, 1, 1e16),
            (1, 2, 0.2),
            (0, 1, 1.0),
            (1, 0, 0.0),
            (0, 1, -1e16),
            (1, 2, 0.3),
        ] {
            t.push(r, c, v);
        }
        let (m, slots) = t.to_csr_structural_with_slots();
        assert_eq!(m, t.to_csr_structural());
        assert_eq!(slots, [2, 0, 2, 0, 1, 0, 2]);
        // Summation order is the push order, so the replay rounds alike.
        let mut vals = vec![0.0; m.nnz()];
        for (&slot, &(_, _, v)) in slots.iter().zip(t.entries()) {
            vals[slot] += v;
        }
        assert_eq!(vals, m.values());
        assert_eq!(vals[0], 0.0, "1e16 + 1 - 1e16 in push order");
    }

    #[test]
    fn columns_sorted_within_rows() {
        let mut t = Triplets::new(1, 4);
        t.push(0, 3, 3.0);
        t.push(0, 1, 1.0);
        t.push(0, 2, 2.0);
        let m = t.to_csr();
        let (cols, vals) = m.row(0);
        assert_eq!(cols, &[1, 2, 3]);
        assert_eq!(vals, &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        let mut t: Triplets<f64> = Triplets::new(2, 2);
        t.push(2, 0, 1.0);
    }
}
