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
    /// First contribution [`Triplets::push_checked`] found outside the
    /// matrix: its index among the contributions, and its position.
    pub(crate) outside: Option<(usize, usize, usize)>,
}

impl<T: Scalar> Triplets<T> {
    /// Creates an empty buffer for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::new(),
            outside: None,
        }
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
            outside: None,
        }
    }

    /// Removes all entries, keeping the allocation. Hot assembly loops
    /// clear and re-stamp the same buffer instead of allocating a new
    /// one per iteration.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.outside = None;
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

    /// [`Triplets::push`] for a stamping pass that must not abort the
    /// process: a position outside the matrix is dropped, and the first
    /// one is recorded.
    #[inline]
    pub(crate) fn push_checked(&mut self, row: usize, col: usize, value: T) {
        if row < self.rows && col < self.cols {
            self.entries.push((row, col, value));
        } else if self.outside.is_none() {
            self.outside = Some((self.entries.len(), row, col));
        }
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
            // push order — the same order a [`crate::Stamper`] replays
            // with its single sequential pass over the contributions.
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

    /// [`Triplets::to_csr_structural`] plus, for each pushed entry in push
    /// order, the value slot it was summed into. A caller that stamps the
    /// same position sequence again replays the conversion's arithmetic
    /// with `vals[slot[k]] += v_k` from zeroed values — no buffer, no
    /// sort, no position check ([`crate::Stencil`]).
    pub fn to_csr_structural_with_slots(&self) -> (CsMat<T>, Vec<usize>) {
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
        let mut slot_of_raw = vec![0usize; self.entries.len()];
        let mut order: Vec<usize> = Vec::new();
        for r in 0..self.rows {
            let (lo, hi) = (counts[r], counts[r + 1]);
            order.clear();
            order.extend(lo..hi);
            // Same stable (column, push-order) key as [`Triplets::to_csr`]:
            // duplicate accumulation order is the push order, which is what
            // lets a replay sum in one forward pass over the raw entries.
            order.sort_unstable_by_key(|&p| (cols[p], p));
            let mut k = 0;
            while k < order.len() {
                let c = cols[order[k]];
                let slot = out_cols.len();
                let mut acc = T::zero();
                while k < order.len() && cols[order[k]] == c {
                    acc += vals[order[k]];
                    slot_of_raw[raw[order[k]]] = slot;
                    k += 1;
                }
                out_cols.push(c);
                out_vals.push(acc);
            }
            indptr.push(out_cols.len());
        }
        let mat = CsMat::from_raw(self.rows, self.cols, indptr, out_cols, out_vals);
        (mat, slot_of_raw)
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
