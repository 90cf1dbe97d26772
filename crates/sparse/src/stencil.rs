//! Fixed-pattern assembly: the one way a solver fills a matrix it
//! assembles more than once.
//!
//! A solver that stamps the same positions on every iterate — Newton's
//! Jacobian, the IPM's derivative and KKT matrices — sends one stamping
//! pass into a [`Triplets`] buffer and keeps the result as a [`Stencil`]:
//! the CSR pattern with explicit zeros kept (so it is a function of the
//! positions alone, never of the values) and, for each contribution of
//! the pass in stamping order, the value slot it sums into. Every later
//! pass goes through a [`Stamper`], which writes `vals[slot[k]] += v_k`
//! from zeroed values — the operation sequence of
//! [`Triplets::to_csr_structural`], so the values come out bit for bit
//! what a fresh conversion gives — with no buffer, no sort and no
//! position check. A `VERIFY` pass, the first a solver makes on a kept
//! stencil, also holds each position to its slot's; a pass that strays
//! or writes another number of contributions is an `Err`, and the
//! caller builds a new stencil instead of summing into wrong entries.

use crate::csmat::CsMat;
use crate::triplets::Triplets;
use std::mem::size_of;

/// Where one stamping pass sends its elemental contributions: into a
/// [`Triplets`] buffer when a structure is built, into a [`Stamper`] on
/// every pass after that.
pub trait Stamp {
    /// Adds `v` at `(row, col)`; contributions to one position sum.
    fn add(&mut self, row: usize, col: usize, v: f64);
}

/// The building sink: a contribution outside the matrix is not pushed
/// but recorded, and [`Stencil::stamped`] reports the first one.
impl Stamp for Triplets<f64> {
    #[inline]
    fn add(&mut self, row: usize, col: usize, v: f64) {
        self.push_checked(row, col, v);
    }
}

/// One matrix as a solver holds it: the CSR pattern and, for each
/// contribution of a stamping pass, in stamping order, the value slot it
/// sums into — which also says where it was stamped: a slot's position
/// is its row and column in the pattern. Rows appended as constants
/// keep the values they came with.
#[derive(Clone, Debug)]
pub struct Stencil {
    mat: CsMat<f64>,
    slots: Vec<u32>,
    /// Leading values a pass rewrites; the rest are constants.
    varying: usize,
    /// Trailing rows stated as constants.
    constant_rows: usize,
}

impl Stencil {
    /// The pattern one stamping pass touched, explicit zeros kept, with
    /// the pass's values. `Err` names the first contribution the pass
    /// sent outside the matrix, prefixed with `what`.
    pub fn stamped(pass: &Triplets<f64>, what: &str) -> Result<Stencil, String> {
        if let Some((k, row, col)) = pass.outside {
            let (rows, cols) = pass.shape();
            return Err(format!(
                "{what}: contribution {k} at ({row},{col}) outside {rows}x{cols}"
            ));
        }
        let (mut mat, slots) = pass.to_csr_structural_with_slots();
        let slots = (slots.into_iter().map(u32::try_from))
            .collect::<Result<_, _>>()
            .map_err(|_| format!("{what}: {} entries overflow a slot index", mat.nnz()))?;
        // Kept across passes: not with room for every push.
        mat.shrink_to_fit();
        Ok(Stencil {
            varying: mat.nnz(),
            mat,
            slots,
            constant_rows: 0,
        })
    }

    /// Appends rows whose values never change (linear constraints). The
    /// caller has checked that `rows` has this stencil's column count.
    pub fn append_constant_rows(&mut self, rows: &CsMat<f64>) {
        self.mat = self.mat.vstack(rows);
        self.constant_rows += rows.rows();
    }

    /// The matrix with the values of the last pass.
    pub fn mat(&self) -> &CsMat<f64> {
        &self.mat
    }

    /// Whether `rows` (`None`: no rows) are, position for position, the
    /// constant rows this stencil was stated with.
    pub fn has_constant_rows(&self, rows: Option<&CsMat<f64>>) -> bool {
        let Some(rows) = rows else {
            return self.constant_rows == 0;
        };
        let first = self.mat.rows() - self.constant_rows;
        rows.shape() == (self.constant_rows, self.mat.cols())
            && self.mat.indices()[self.varying..] == *rows.indices()
            && (self.mat.indptr()[first..].iter().zip(rows.indptr()))
                .all(|(&kept, &stated)| kept == stated + self.varying)
    }

    /// Takes the values of `rows`, which [`Stencil::has_constant_rows`].
    pub fn restate_constant_rows(&mut self, rows: Option<&CsMat<f64>>) {
        if let Some(rows) = rows {
            self.mat.values_mut()[self.varying..].copy_from_slice(rows.values());
        }
    }

    /// Zeroes the varying values and opens a pass over them, held to the
    /// stamped positions when `VERIFY` is set.
    pub fn stamper<const VERIFY: bool>(&mut self) -> Stamper<'_, VERIFY> {
        let (indptr, indices, vals) = self.mat.pattern_and_values_mut();
        vals[..self.varying].fill(0.0);
        Stamper {
            vals,
            slots: &self.slots,
            indptr,
            indices,
            next: 0,
            strayed: None,
        }
    }

    /// Bytes the stencil keeps allocated.
    pub fn retained_bytes(&self) -> usize {
        let m = &self.mat;
        (m.indptr().len() + m.indices().len()) * size_of::<usize>()
            + m.nnz() * size_of::<f64>()
            + self.slots.len() * size_of::<u32>()
    }
}

/// One pass of values into a [`Stencil`]: the `k`-th contribution lands
/// in the slot the building pass recorded for its `k`-th position. A
/// `VERIFY` pass also compares the position it is handed with that
/// slot's; the others ignore it, at no cost.
pub struct Stamper<'a, const VERIFY: bool> {
    vals: &'a mut [f64],
    slots: &'a [u32],
    indptr: &'a [usize],
    indices: &'a [usize],
    next: usize,
    /// First contribution handed another position than its slot's.
    strayed: Option<(usize, usize, usize)>,
}

impl<const VERIFY: bool> Stamp for Stamper<'_, VERIFY> {
    #[inline]
    fn add(&mut self, row: usize, col: usize, v: f64) {
        if let Some(&slot) = self.slots.get(self.next) {
            let slot = slot as usize;
            self.vals[slot] += v;
            if VERIFY {
                // Slot `s` sits at `(r, indices[s])` for the one row `r`
                // with `indptr[r] <= s < indptr[r + 1]`.
                let rows = self.indptr.get(row..row + 2);
                let there = self.indices[slot] == col
                    && matches!(rows, Some(&[lo, hi]) if lo <= slot && slot < hi);
                if !there && self.strayed.is_none() {
                    self.strayed = Some((self.next, row, col));
                }
            }
        }
        self.next += 1;
    }
}

impl<const VERIFY: bool> Stamper<'_, VERIFY> {
    /// `Err`, prefixed with `what`, when a verifying pass was handed a
    /// position the stencil does not hold there, or any pass wrote a
    /// different number of contributions than the stencil holds (a
    /// surplus was dropped, not indexed). The values are then unusable.
    pub fn finish(self, what: &str) -> Result<(), String> {
        if let Some((k, row, col)) = self.strayed {
            let slot = self.slots[k] as usize;
            let r = self.indptr.partition_point(|&start| start <= slot) - 1;
            return Err(format!(
                "{what}: contribution {k} at ({row},{col}), structure has ({r},{})",
                self.indices[slot]
            ));
        }
        if self.next == self.slots.len() {
            Ok(())
        } else {
            Err(format!(
                "{what}: structure states {} contributions, {} written",
                self.slots.len(),
                self.next
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Positions with duplicates, an explicit zero and a cancellation
    /// that only sums to zero in push order.
    const PASS: [(usize, usize, f64); 7] = [
        (1, 2, 0.1),
        (0, 1, 1e16),
        (1, 2, 0.2),
        (0, 1, 1.0),
        (1, 0, 0.0),
        (0, 1, -1e16),
        (1, 2, 0.3),
    ];

    fn stamp(out: &mut impl Stamp, scale: f64) {
        for &(r, c, v) in &PASS {
            out.add(r, c, scale * v);
        }
    }

    #[test]
    fn a_plain_pass_reproduces_the_structural_conversion_bit_for_bit() {
        let mut t = Triplets::new(2, 3);
        stamp(&mut t, 1.0);
        let mut st = Stencil::stamped(&t, "A").unwrap();
        assert_eq!(*st.mat(), t.to_csr_structural());
        for scale in [1.0, -3.0, 0.0] {
            let mut pass = st.stamper::<false>();
            stamp(&mut pass, scale);
            pass.finish("A").unwrap();
            let mut fresh = Triplets::new(2, 3);
            stamp(&mut fresh, scale);
            let fresh = fresh.to_csr_structural();
            assert_eq!(st.mat().indices(), fresh.indices());
            assert_eq!(bits(st.mat().values()), bits(fresh.values()));
        }
        // Push-order summation, and both zeros stay in the pattern.
        assert_eq!(st.mat().indices(), &[1, 0, 2]);
        assert_eq!(st.mat().values()[0], 0.0, "1e16 + 1 - 1e16 in push order");
    }

    #[test]
    fn a_verify_pass_catches_a_moved_position_at_an_equal_count() {
        let mut t = Triplets::new(2, 3);
        stamp(&mut t, 1.0);
        let mut st = Stencil::stamped(&t, "A").unwrap();
        let mut same = st.stamper::<true>();
        stamp(&mut same, 2.0);
        assert_eq!(same.finish("A"), Ok(()));

        let mut moved = st.stamper::<true>();
        for (k, &(r, c, v)) in PASS.iter().enumerate() {
            // Contribution 4 goes to (1,1) instead of (1,0): a position
            // the pattern does not hold at all.
            moved.add(r, if k == 4 { 1 } else { c }, v);
        }
        assert_eq!(
            moved.finish("A"),
            Err("A: contribution 4 at (1,1), structure has (1,0)".into())
        );
        // Two contributions swapped: both positions are in the pattern,
        // each in the other's slot.
        let mut swapped = st.stamper::<true>();
        let mut order = PASS;
        order.swap(0, 1);
        for &(r, c, v) in &order {
            swapped.add(r, c, v);
        }
        assert_eq!(
            swapped.finish("A"),
            Err("A: contribution 0 at (0,1), structure has (1,2)".into())
        );
    }

    #[test]
    fn a_short_or_long_pass_is_an_err() {
        let mut t = Triplets::new(2, 3);
        stamp(&mut t, 1.0);
        let mut st = Stencil::stamped(&t, "A").unwrap();
        let mut short = st.stamper::<false>();
        for &(r, c, v) in &PASS[..6] {
            short.add(r, c, v);
        }
        assert_eq!(
            short.finish("A"),
            Err("A: structure states 7 contributions, 6 written".into())
        );
        let mut long = st.stamper::<true>();
        stamp(&mut long, 1.0);
        long.add(0, 1, 5.0);
        assert_eq!(
            long.finish("A"),
            Err("A: structure states 7 contributions, 8 written".into())
        );
    }

    #[test]
    fn a_building_pass_outside_the_matrix_is_an_err_not_a_panic() {
        let mut t = Triplets::new(1, 2);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(0, 2, 1.0);
        assert_eq!(
            Stencil::stamped(&t, "Jg").unwrap_err(),
            "Jg: contribution 1 at (1,0) outside 1x2"
        );
        t.clear();
        t.add(0, 1, 1.0);
        assert!(Stencil::stamped(&t, "Jg").is_ok());
    }
}
