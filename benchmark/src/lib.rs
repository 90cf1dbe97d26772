//! The repository benchmark: five closed-loop workloads, six end-to-end
//! metrics, and a per-layer budget — all measured from outside, by
//! timing calls into the crates' public functions. `README.md` has the
//! definitions; `BENCHMARK.json` at the repository root has the
//! contract.

pub mod compare;
pub mod probes;
pub mod rng;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod sys;
pub mod trace;
pub mod workloads;

/// Where a single run's record goes.
pub fn result_path(results_dir: &str, workload: &str, seed: u64, trace: bool) -> String {
    format!(
        "{results_dir}/{workload}-seed{seed}{}.json",
        if trace { "-trace" } else { "" }
    )
}
