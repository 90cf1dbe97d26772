//! Corpus: float comparison.

fn float_comparisons(a: f64, b: f64, tol: f64) -> bool {
    if a == b {
        // finding: float-eq (exact equality on measured values)
        return true;
    }
    let close = (a - b).abs() < tol; // no finding: tolerance compare
    let zero_skip = a == 0.0; // no finding: exact-zero sparsity idiom
    let zero_skip2 = 0.0 != b; // no finding: exact-zero, either side
    let drift = a * 1.5 != b; // finding: float-eq
    close || zero_skip || zero_skip2 || drift
}

fn integer_equality_is_fine(n: usize, m: usize) -> bool {
    n == m // no finding: no float evidence
}
