//! # gm-bench
//!
//! The experiment harness: binaries that regenerate every table and
//! figure of the paper's evaluation (§4), plus Criterion benches for the
//! solver substrates and the design-choice ablations called out in
//! DESIGN.md.
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table2` (bin) | Table 2 — test case inventory |
//! | `figure3` (bin) | Figure 3 — ACOPF agent success / latency panels |
//! | `table1` (bin) | Table 1 — CA agent per-model performance |
//! | `calibrate_ratings` (bin) | regenerates the embedded rating tables |
//! | `power_flow` (bench) | Newton solver scaling per case |
//! | `acopf` (bench) | interior-point ACOPF scaling per case |
//! | `contingency` (bench) | serial vs rayon-parallel N-1 ablation |
//! | `sparse_lu` (bench) | sparse vs dense factorization crossover |
//! | `agent_pipeline` (bench) | end-to-end agent turn (real compute) |
//!
//! Wall-time regression tracking is not here: `benchmark/` at the
//! repository root is the one yardstick, and the solvers' exact work
//! counts are pinned in `tests/work_counts.rs`.

use gridmind_core::{GridMind, ModelProfile};

/// Runs one scripted conversation and returns `(virtual seconds, success,
/// total tokens)`.
pub fn timed_ask(gm: &mut GridMind, request: &str) -> (f64, bool, u64) {
    let reply = gm.ask(request);
    let ok = reply.steps.iter().all(|s| s.completed);
    (reply.elapsed_s, ok, reply.tokens.total())
}

/// Builds a model profile whose RNG seed is offset per run, so repeated
/// runs of the same backend sample fresh latencies (the paper's "5 runs").
pub fn profile_for_run(base: &ModelProfile, run: u64) -> ModelProfile {
    let mut p = base.clone();
    p.seed = p.seed.wrapping_add(run.wrapping_mul(0x9E37_79B9));
    p
}

/// Simple descriptive statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std: f64,
}

/// Computes [`Stats`] over a sample.
pub fn stats(xs: &[f64]) -> Stats {
    if xs.is_empty() {
        return Stats::default();
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = if xs.len() > 1 {
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
    } else {
        0.0
    };
    Stats {
        min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
        max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        mean,
        std: var.sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert_eq!(stats(&[]).mean, 0.0);
    }

    #[test]
    fn run_offset_profiles_differ() {
        let base = ModelProfile::by_name("GPT-5").unwrap();
        let a = profile_for_run(&base, 0);
        let b = profile_for_run(&base, 1);
        assert_eq!(a.seed, base.seed);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.name, b.name);
    }
}
