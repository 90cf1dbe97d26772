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

pub mod compare;

use gridmind_core::{GridMind, ModelProfile};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

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

/// The `{runs, mean_s, std_s, min_s, max_s}` JSON block every `BENCH_*`
/// artifact records per wall-time sample set (and `compare` gates on).
pub fn stats_value(samples: &[f64]) -> Value {
    let s = stats(samples);
    serde_json::json!({
        "runs": samples.len(),
        "mean_s": s.mean,
        "std_s": s.std,
        "min_s": s.min,
        "max_s": s.max,
    })
}

/// Parses the `[out_dir] [--compare <baseline_dir>]` command line every
/// `bench_*` bin takes.
pub fn parse_args() -> Result<(PathBuf, Option<PathBuf>), String> {
    let mut out_dir = PathBuf::from(".");
    let mut baseline_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--compare" {
            let dir = args.next().ok_or("--compare needs a baseline directory")?;
            baseline_dir = Some(PathBuf::from(dir));
        } else {
            out_dir = PathBuf::from(arg);
        }
    }
    if !out_dir.is_dir() {
        return Err(format!(
            "output directory {} does not exist",
            out_dir.display()
        ));
    }
    Ok((out_dir, baseline_dir))
}

/// Writes one pretty-printed `BENCH_*.json` artifact.
pub fn write_artifact(dir: &Path, name: &str, value: &Value) -> std::io::Result<PathBuf> {
    let path = dir.join(name);
    let text = serde_json::to_string_pretty(value).expect("artifact serializes");
    std::fs::write(&path, text + "\n")?;
    Ok(path)
}

/// Reads one `BENCH_*.json` artifact back.
pub fn read_artifact(dir: &Path, name: &str) -> Result<Value, String> {
    let path = dir.join(name);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}

/// The tail of a single-artifact bench bin: write `doc` as `name`, fail
/// on a broken `invariant`, then gate against the baseline directory.
pub fn finish_artifact(
    bin: &str,
    name: &str,
    doc: &Value,
    invariant: Result<(), &str>,
    out_dir: &Path,
    baseline_dir: Option<&Path>,
) -> ExitCode {
    let run = || -> Result<(), String> {
        let path =
            write_artifact(out_dir, name, doc).map_err(|e| format!("writing {name}: {e}"))?;
        println!("wrote {}", path.display());
        invariant?;
        if let Some(base_dir) = baseline_dir {
            let baseline = read_artifact(base_dir, name)?;
            let tolerances = compare::tolerances_from_env();
            let report = compare::compare_artifact(name, &baseline, doc, tolerances);
            println!(
                "compared {} wall stats and {} counters against {} (wall tolerance {:.0}%)",
                report.walls_checked,
                report.counters_checked,
                base_dir.display(),
                tolerances.wall * 100.0
            );
            if !report.passed() {
                for line in report.failures() {
                    eprintln!("{bin}: REGRESSION {line}");
                }
                return Err(format!("regressed against {}", base_dir.display()));
            }
            println!("no regressions");
        }
        println!("inspect with: cargo run -p gm-telemetry --bin gm-trace -- {name}");
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{bin}: {e}");
            ExitCode::FAILURE
        }
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
