//! Compressed sparse row (CSR) matrix.

use crate::scalar::Scalar;
use crate::triplets::Triplets;
use gm_numeric::DMat;

/// A sparse matrix in compressed sparse row format.
///
/// `indptr` has `rows + 1` entries; row `i` occupies
/// `indices[indptr[i]..indptr[i+1]]` / `data[...]`, with column indices
/// sorted ascending and unique within each row.
#[derive(Clone, Debug, PartialEq)]
pub struct CsMat<T: Scalar> {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<T>,
}

impl<T: Scalar> CsMat<T> {
    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    /// Panics when the arrays are inconsistent (wrong `indptr` length,
    /// unsorted or out-of-range column indices).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<T>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "indptr length mismatch");
        assert_eq!(indices.len(), data.len(), "indices/data length mismatch");
        assert_eq!(*indptr.last().unwrap_or(&0), indices.len());
        for r in 0..rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {r} columns not strictly ascending");
            }
            if let Some(&last) = row.last() {
                assert!(last < cols, "row {r} column out of range");
            }
        }
        CsMat {
            rows,
            cols,
            indptr,
            indices,
            data,
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CsMat {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            data: vec![T::one(); n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[T]) {
        let span = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[span.clone()], &self.data[span])
    }

    /// Raw `indptr` array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Raw column-index array (all rows concatenated).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Raw value array, aligned with [`CsMat::indices`].
    pub fn values(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the stored values only. The sparsity pattern is
    /// untouched, so the CSR invariants cannot be violated; this is the
    /// hook for in-place numeric re-assembly of a fixed-pattern matrix.
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Gives back what the index and value arrays hold beyond their
    /// length (a conversion reserves for every pushed entry): for a
    /// matrix that is kept.
    pub fn shrink_to_fit(&mut self) {
        self.indptr.shrink_to_fit();
        self.indices.shrink_to_fit();
        self.data.shrink_to_fit();
    }

    /// The pattern (`indptr`, `indices`) beside mutable access to the
    /// values: for a writer that checks where a value belongs while it
    /// writes it.
    pub fn pattern_and_values_mut(&mut self) -> (&[usize], &[usize], &mut [T]) {
        (&self.indptr, &self.indices, &mut self.data)
    }

    /// Value at `(i, j)`, `zero()` if not stored. Binary-searches the row.
    pub fn get(&self, i: usize, j: usize) -> T {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(p) => vals[p],
            Err(_) => T::zero(),
        }
    }

    /// Matrix-vector product `y = A·x`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.rows];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// [`CsMat::mul_vec`] into a caller-owned `y` (overwritten), for
    /// loops that reuse one buffer.
    pub fn mul_vec_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.cols, "mul_vec dimension mismatch");
        assert_eq!(y.len(), self.rows, "mul_vec output length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut acc = T::zero();
            for (&j, &v) in cols.iter().zip(vals) {
                acc += v * x[j];
            }
            *yi = acc;
        }
    }

    /// Transposed product `y = Aᵀ·x`.
    pub fn mul_vec_t(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.cols];
        self.mul_vec_t_into(x, &mut y);
        y
    }

    /// [`CsMat::mul_vec_t`] into a caller-owned `y` (overwritten).
    pub fn mul_vec_t_into(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.rows, "mul_vec_t dimension mismatch");
        assert_eq!(y.len(), self.cols, "mul_vec_t output length mismatch");
        y.fill(T::zero());
        for (i, &xi) in x.iter().enumerate() {
            if xi.is_zero() {
                continue;
            }
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                y[j] += v * xi;
            }
        }
    }

    /// Returns the transpose as a new CSR matrix (equivalently: this matrix
    /// reinterpreted in CSC).
    pub fn transpose(&self) -> CsMat<T> {
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        let mut indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![T::zero(); self.nnz()];
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let p = indptr[j];
                indices[p] = i;
                data[p] = v;
                indptr[j] += 1;
            }
        }
        // Shift back to get the real indptr.
        let mut real = vec![0usize; self.cols + 1];
        real[1..].copy_from_slice(&indptr[..self.cols]);
        CsMat {
            rows: self.cols,
            cols: self.rows,
            indptr: real,
            indices,
            data,
        }
    }

    /// Scales every entry by `k`.
    pub fn scale(&mut self, k: T) {
        for v in &mut self.data {
            *v = *v * k;
        }
    }

    /// Sum `A + B` (same shape).
    pub fn add(&self, other: &CsMat<T>) -> CsMat<T> {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let mut t = Triplets::with_capacity(self.rows, self.cols, self.nnz() + other.nnz());
        for m in [self, other] {
            for i in 0..m.rows {
                let (cols, vals) = m.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    t.push(i, j, v);
                }
            }
        }
        t.to_csr()
    }

    /// Densifies (test/diagnostic helper).
    pub fn to_dense_with(&self, mut put: impl FnMut(usize, usize, T)) {
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                put(i, j, v);
            }
        }
    }

    /// Vertically stacks `self` on top of `other` (column counts must
    /// match).
    pub fn vstack(&self, other: &CsMat<T>) -> CsMat<T> {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut indptr = Vec::with_capacity(self.rows + other.rows + 1);
        indptr.extend_from_slice(&self.indptr);
        let offset = self.nnz();
        indptr.extend(other.indptr[1..].iter().map(|p| p + offset));
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        indices.extend_from_slice(&self.indices);
        indices.extend_from_slice(&other.indices);
        let mut data = Vec::with_capacity(self.nnz() + other.nnz());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        CsMat {
            rows: self.rows + other.rows,
            cols: self.cols,
            indptr,
            indices,
            data,
        }
    }

    /// Iterates over all stored `(row, col, value)` entries in row order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&j, &v)| (i, j, v))
        })
    }
}

impl CsMat<f64> {
    /// Conversion to the dense type for cross-checking against dense kernels.
    pub fn to_dense(&self) -> DMat {
        let mut m = DMat::zeros(self.rows, self.cols);
        self.to_dense_with(|i, j, v| m[(i, j)] = v);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_numeric::Complex;

    fn sample() -> CsMat<f64> {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut t = Triplets::new(3, 3);
        for &(i, j, v) in &[
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ] {
            t.push(i, j, v);
        }
        t.to_csr()
    }

    #[test]
    fn structure_queries() {
        let m = sample();
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(2, 0), 4.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn mat_vec() {
        let m = sample();
        assert_eq!(m.mul_vec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0, 9.0]);
        assert_eq!(m.mul_vec_t(&[1.0, 1.0, 1.0]), vec![5.0, 3.0, 7.0]);
        // The `_into` forms overwrite whatever the buffer held.
        let mut y = [f64::NAN; 3];
        m.mul_vec_into(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, [3.0, 3.0, 9.0]);
        m.mul_vec_t_into(&[1.0, 0.0, 1.0], &mut y);
        assert_eq!(y, [5.0, 0.0, 7.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
        assert_eq!(m.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn transpose_matches_mul_vec_t() {
        let m = sample();
        let x = [0.5, -1.0, 2.0];
        assert_eq!(m.transpose().mul_vec(&x), m.mul_vec_t(&x));
    }

    #[test]
    fn add_matrices() {
        let m = sample();
        let s = m.add(&m);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(2, 2), 10.0);
        assert_eq!(s.nnz(), 5);
    }

    #[test]
    fn identity_mul_is_identity_map() {
        let i: CsMat<f64> = CsMat::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.mul_vec(&x), x.to_vec());
    }

    #[test]
    fn complex_matrix_works() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, Complex::new(1.0, 1.0));
        t.push(1, 0, Complex::J);
        let m = t.to_csr();
        let y = m.mul_vec(&[Complex::ONE, Complex::ZERO]);
        assert_eq!(y[0], Complex::new(1.0, 1.0));
        assert_eq!(y[1], Complex::J);
    }

    #[test]
    fn to_dense_matches() {
        let m = sample();
        let d = m.to_dense();
        assert_eq!(d[(2, 2)], 5.0);
        assert_eq!(d[(1, 0)], 0.0);
    }

    #[test]
    fn scale_in_place() {
        let mut m = sample();
        m.scale(2.0);
        assert_eq!(m.get(1, 1), 6.0);
    }

    #[test]
    fn vstack_stacks_rows() {
        let m = sample();
        let s = m.vstack(&m);
        assert_eq!(s.shape(), (6, 3));
        assert_eq!(s.nnz(), 10);
        assert_eq!(s.get(0, 0), 1.0);
        assert_eq!(s.get(3, 0), 1.0);
        assert_eq!(s.get(5, 2), 5.0);
        // Stacking with an empty matrix is identity-like.
        let empty = Triplets::<f64>::new(0, 3).to_csr();
        assert_eq!(m.vstack(&empty), m);
    }

    #[test]
    #[should_panic(expected = "columns not strictly ascending")]
    fn from_raw_validates_sorting() {
        CsMat::from_raw(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }
}
