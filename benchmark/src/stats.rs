//! Order statistics for the run shape: best-of-R per op, percentiles,
//! quartiles, and the plateau rule.

/// Sorted copy (NaN-free inputs).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of a **sorted**
/// slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// `(q1, median, q3)` of an unsorted slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        percentile(&s, 0.25),
        percentile(&s, 0.5),
        percentile(&s, 0.75),
    )
}

/// Per-op minimum over rounds: `rounds[r][i]` is op `i`'s latency in
/// round `r`. The machine's noise is one-sided (a slow episode only
/// ever adds time), so the minimum is the estimate least disturbed by
/// it.
pub fn best_of_rounds(rounds: &[Vec<f64>]) -> Vec<f64> {
    let n = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Where a percentile landed, for the plateau rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Plateau {
    /// The class whose latency range holds the whole margin window.
    pub class: Option<usize>,
    /// Classes seen inside the window, ascending.
    pub classes_in_window: Vec<usize>,
}

/// The plateau rule: sort ops by latency and look at the ranks from
/// `q - margin` to `q + margin`; the percentile cannot flip to another
/// latency tier only if that whole window lies between the fastest and
/// the slowest op of one class. Neighbouring classes may overlap (a
/// case14 ACOPF with a binding limit costs what a case30 one does): an
/// op of another class inside the holder's range does not move the
/// percentile off the plateau. When several classes qualify, the one
/// with most ops in the window holds it. `samples[i] = (latency, class)`.
pub fn plateau(samples: &[(f64, usize)], q: f64, margin: f64) -> Plateau {
    let mut by_latency = samples.to_vec();
    by_latency.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = by_latency.len();
    if n == 0 {
        return Plateau {
            class: None,
            classes_in_window: Vec::new(),
        };
    }
    let rank = |p: f64| ((p.clamp(0.0, 1.0) * (n - 1) as f64).round() as usize).min(n - 1);
    let (lo, hi) = (rank(q - margin), rank(q + margin));
    let window = &by_latency[lo..=hi];
    let mut seen: Vec<usize> = window.iter().map(|s| s.1).collect();
    seen.sort_unstable();
    seen.dedup();
    // A class spans the ranks from its first to its last op.
    let spans = |c: usize| {
        let first = by_latency.iter().position(|s| s.1 == c);
        let last = by_latency.iter().rposition(|s| s.1 == c);
        matches!((first, last), (Some(f), Some(l)) if f <= lo && hi <= l)
    };
    let class = seen
        .iter()
        .copied()
        .filter(|&c| spans(c))
        .max_by_key(|&c| window.iter().filter(|s| s.1 == c).count());
    Plateau {
        class,
        classes_in_window: seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert!((percentile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        let (q1, m, q3) = quartiles(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q1, m, q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn best_of_rounds_takes_the_per_op_minimum() {
        let rounds = vec![
            vec![3.0, 9.0, 1.0],
            vec![2.0, 10.0, 4.0],
            vec![5.0, 8.0, 2.0],
        ];
        assert_eq!(best_of_rounds(&rounds), vec![2.0, 8.0, 1.0]);
        assert!(best_of_rounds(&[]).is_empty());
    }

    #[test]
    fn plateau_rule_accepts_one_class_and_rejects_a_boundary() {
        // 100 ops: class 0 holds ranks 0..40, class 1 ranks 40..80,
        // class 2 the rest; latency grows with rank.
        let samples: Vec<(f64, usize)> = (0..100)
            .map(|i| {
                (
                    i as f64,
                    if i < 40 {
                        0
                    } else if i < 80 {
                        1
                    } else {
                        2
                    },
                )
            })
            .collect();
        assert_eq!(plateau(&samples, 0.5, 0.05).class, Some(1));
        assert_eq!(plateau(&samples, 0.9, 0.05).class, Some(2));
        // p80 sits on the class 1 / class 2 boundary.
        let edge = plateau(&samples, 0.8, 0.05);
        assert_eq!(edge.class, None);
        assert_eq!(edge.classes_in_window, vec![1, 2]);
        // A class-0 straggler inside class 1's latency range does not
        // take p50 off the plateau; class 1 still holds it.
        let mut overlap = samples.clone();
        overlap[10].0 = 50.5;
        let held = plateau(&overlap, 0.5, 0.05);
        assert_eq!(held.class, Some(1));
        assert_eq!(held.classes_in_window, vec![0, 1]);
    }
}
