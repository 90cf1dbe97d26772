//! Log-linear (HDR-style) quantile sketch.
//!
//! The fixed-bucket [`crate::Histogram`] answers "how many samples fell
//! under each hand-picked edge", which is enough for mean/max summaries
//! but useless for tail percentiles: p99 of a latency distribution needs
//! resolution that tracks the *value*, not a static grid. A
//! [`QuantileSketch`] buckets samples at geometrically spaced edges
//! `base · γ^i` with `γ = 2^(1/32)`, so every bucket spans a constant
//! *relative* width of `γ − 1`. With [`SUB`] = 32 sub-buckets per
//! octave, `γ ≈ 1.0219`: any quantile estimate is within **2.2%**
//! relative error of the exact nearest-rank percentile (for samples
//! ≥ `BASE`; see [`QuantileSketch::quantile`] for the proof sketch).
//!
//! Memory is bounded: the count vector is dense but grows only to the
//! highest observed bucket, capped at `1 + 64·32` entries (64 octaves
//! above `BASE` = 1 ns covers every duration up to ~584 years). Every
//! sketch has the one resolution, so sketches merge exactly — the serve
//! layer merges per-worker sketches into the server registry at shutdown
//! exactly like fixed-bucket histograms. Exports written when the
//! resolution was a field carry a `"sub": 32` key; it is ignored on load.

use serde::{Deserialize, Serialize};

/// Smallest resolvable sample (seconds): 1 ns. Samples below `BASE` land
/// in the underflow bucket and are reported as the recorded minimum.
pub const BASE: f64 = 1e-9;
/// Sub-buckets per octave (γ = 2^(1/32) ≈ 1.0219 → ≤2.2% error).
pub const SUB: u32 = 32;
/// Octave cap: bucket indices above `1 + 64·SUB` clamp into the last
/// bucket, bounding memory regardless of input.
const MAX_OCTAVES: u32 = 64;

/// Log-linear quantile sketch with bounded relative error.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct QuantileSketch {
    /// Dense per-bucket counts. Index 0 is the underflow bucket
    /// (samples < [`BASE`]); bucket `i ≥ 1` spans
    /// `[BASE·γ^(i−1), BASE·γ^i)`. Grows lazily to the highest index hit.
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples (exact).
    pub sum: f64,
    /// Smallest sample (0 when empty; exact).
    pub min: f64,
    /// Largest sample (0 when empty; exact).
    pub max: f64,
}

impl QuantileSketch {
    /// γ, the ratio between consecutive bucket edges.
    pub fn gamma(&self) -> f64 {
        (2f64).powf(1.0 / f64::from(SUB))
    }

    /// Guaranteed relative error bound of [`QuantileSketch::quantile`]
    /// for samples ≥ [`BASE`]: `γ − 1` (≈ 0.0219 at the default
    /// resolution).
    pub fn relative_error_bound(&self) -> f64 {
        self.gamma() - 1.0
    }

    fn max_index(&self) -> usize {
        1 + (MAX_OCTAVES * SUB) as usize
    }

    /// Bucket index for a finite sample `x ≥ 0`.
    fn index_of(&self, x: f64) -> usize {
        if x < BASE {
            return 0;
        }
        // log2(x) - log2(BASE) rather than log2(x / BASE): the quotient
        // overflows to infinity for x near f64::MAX.
        let octaves = x.log2() - BASE.log2();
        let i = 1 + (octaves * f64::from(SUB)).floor() as usize;
        i.min(self.max_index())
    }

    /// Lower edge of bucket `i ≥ 1`.
    fn lower_edge(&self, i: usize) -> f64 {
        BASE * (2f64).powf((i - 1) as f64 / f64::from(SUB))
    }

    /// Records one sample. Non-finite and negative samples are ignored.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() || x < 0.0 {
            return;
        }
        let idx = self.index_of(x);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
    }

    /// Mean of recorded samples (0 when empty; exact).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate for `q ∈ [0, 1]`, `None` when
    /// empty.
    ///
    /// The rank-`r` sample (r = ⌈q·n⌉, clamped to [1, n]) lies in the
    /// bucket where the cumulative count first reaches `r`, i.e. in
    /// `[lo, lo·γ)`. The estimate log-interpolates within that bucket by
    /// rank fraction and clamps to `[min, max]`, so both the estimate
    /// and the true sample sit in `[lo, lo·γ)`: the error is at most
    /// `lo·(γ−1) ≤ v·(γ−1)` — the documented relative bound. Samples in
    /// the underflow bucket (< [`BASE`]) report the exact recorded
    /// minimum instead; the relative bound does not apply below 1 ns.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                if i == 0 {
                    return Some(self.min);
                }
                let lo = self.lower_edge(i);
                let frac = (rank - cum) as f64 / c as f64;
                let est = lo * self.gamma().powf(frac);
                return Some(est.clamp(self.min, self.max));
            }
            cum += c;
        }
        Some(self.max)
    }

    /// Merges another sketch into this one, exactly: bucket counts add
    /// elementwise and `count`/`sum`/`min`/`max` combine.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_percentile(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::default();
        assert!(s.quantile(0.5).is_none());
        assert_eq!(s.count, 0);
        assert!((s.mean() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut s = QuantileSketch::default();
        s.record(0.125);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let est = s.quantile(q).unwrap();
            assert!((est - 0.125).abs() <= 0.125 * s.relative_error_bound());
        }
    }

    #[test]
    fn quantiles_track_exact_percentiles_within_bound() {
        let mut s = QuantileSketch::default();
        let mut xs: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-4).collect();
        for &x in &xs {
            s.record(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999] {
            let exact = exact_percentile(&xs, q);
            let est = s.quantile(q).unwrap();
            assert!(
                (est - exact).abs() <= exact * s.relative_error_bound(),
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn rejects_junk_samples() {
        let mut s = QuantileSketch::default();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(-1.0);
        assert_eq!(s.count, 0);
        s.record(1.0);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn underflow_bucket_reports_min() {
        let mut s = QuantileSketch::default();
        s.record(1e-12);
        s.record(2e-12);
        assert_eq!(s.counts[0], 2);
        assert!((s.quantile(0.5).unwrap() - 1e-12).abs() < 1e-18);
    }

    #[test]
    fn huge_samples_clamp_into_last_bucket() {
        let mut s = QuantileSketch::default();
        s.record(1e300);
        assert_eq!(s.count, 1);
        assert!(s.counts.len() <= 1 + (MAX_OCTAVES * SUB) as usize + 1);
        // max is exact even though the bucket saturated
        assert!((s.max - 1e300).abs() < 1e288);
    }

    #[test]
    fn merge_same_resolution_is_exact() {
        let mut a = QuantileSketch::default();
        let mut b = QuantileSketch::default();
        let mut all = Vec::new();
        for i in 1..=100 {
            let x = i as f64 * 1e-3;
            if i % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.push(x);
        }
        a.merge(&b);
        all.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a.count, 100);
        for q in [0.1, 0.5, 0.99] {
            let exact = exact_percentile(&all, q);
            let est = a.quantile(q).unwrap();
            assert!((est - exact).abs() <= exact * a.relative_error_bound());
        }
    }

    #[test]
    fn serde_round_trip() {
        let mut s = QuantileSketch::default();
        for i in 1..=50 {
            s.record(i as f64 * 1e-3);
        }
        let json = serde_json::to_string(&s).unwrap();
        let back: QuantileSketch = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count, s.count);
        assert_eq!(back.counts, s.counts);
        assert!((back.quantile(0.9).unwrap() - s.quantile(0.9).unwrap()).abs() < 1e-15);
    }
}
