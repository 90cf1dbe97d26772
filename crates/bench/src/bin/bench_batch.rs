//! Batched multi-scenario benchmark and equivalence gate — emits
//! `BENCH_batch.json` for the CI `bench` job.
//!
//! For case118 and case300 a load sweep (≥64 scenarios on case118) runs
//! through two paths back to back:
//!
//! - **naive**: the public one-at-a-time API — `gm_powerflow::solve`
//!   per scenario network, flat start, full validation, YBus assembly,
//!   and symbolic analysis every time. This is the loop
//!   `examples/what_if_study.rs` used to run.
//! - **batch**: [`gm_powerflow::run_batch`] — one symbolic analysis,
//!   one DC seed panel solved with a single multi-RHS call, refactor
//!   per scenario, warm starts from the nearest solved neighbor.
//!
//! The run enforces the engine's contract before any baseline
//! comparison:
//!
//! 1. **Equivalence**: every per-scenario answer from the batch must be
//!    bit-for-bit identical to [`gm_powerflow::run_naive`] (the
//!    same-policy per-scenario replay).
//! 2. **Speed**: on case118 the batch must clear a ≥5x scenarios/sec
//!    speedup over the naive loop (best of 5 runs per side — the batch
//!    leg is tens of milliseconds, where scheduler noise inflates the
//!    mean; the min is the noise-robust statistic since preemption only
//!    ever adds time).
//! 3. **Warm starts engage**: `batch.warm_hits` must be nonzero.
//!
//! ```text
//! cargo run -p gm-bench --bin bench_batch --release -- [out_dir] [--compare <baseline_dir>]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use gm_bench::{stats, stats_value};
use gm_network::{cases, CaseId};
use gm_powerflow::{run_batch, run_naive, solve, BatchReport, PfOptions, ScenarioSet};
use gm_telemetry::Registry;
use serde_json::{json, Value};

const RUNS: usize = 5;
/// Minimum speedup the batch must clear over the naive loop on case118.
const MIN_SPEEDUP: f64 = 5.0;

/// Bit-for-bit comparison of two batch reports (labels, flags, and
/// every solved quantity down to the float bits).
fn reports_bitwise_equal(a: &BatchReport, b: &BatchReport) -> bool {
    if a.scenarios != b.scenarios || a.warm_hits != b.warm_hits {
        return false;
    }
    a.outcomes.iter().zip(&b.outcomes).all(|(x, y)| {
        if x.label != y.label || x.warm_started != y.warm_started {
            return false;
        }
        match (&x.report, &y.report) {
            (Ok(rx), Ok(ry)) => {
                rx.iterations == ry.iterations
                    && rx.buses.iter().zip(&ry.buses).all(|(p, q)| {
                        p.vm_pu.to_bits() == q.vm_pu.to_bits()
                            && p.va_deg.to_bits() == q.va_deg.to_bits()
                    })
                    && rx
                        .branches
                        .iter()
                        .zip(&ry.branches)
                        .all(|(p, q)| p.p_from_mw.to_bits() == q.p_from_mw.to_bits())
            }
            (Err(ex), Err(ey)) => ex == ey,
            _ => false,
        }
    })
}

/// Runs one case; returns its JSON block and whether the invariants held.
fn bench_case(id: CaseId, n_scenarios: usize, gate_speedup: bool) -> (Value, bool) {
    let net = cases::load(id);
    let opts = PfOptions::default();
    // A tight sweep around nominal: the operating-envelope shape the
    // batch_study tool produces, and the regime where neighbor warm
    // starts pay (adjacent scenarios differ by a fraction of a percent).
    let set = ScenarioSet::load_sweep(0.90, 1.10, n_scenarios);
    let nets = set.materialize(&net).expect("paper case scenarios");

    let mut batch_secs = Vec::with_capacity(RUNS);
    let mut batch_report = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let rep = run_batch(&net, &opts, &set).expect("paper case batch");
        batch_secs.push(t0.elapsed().as_secs_f64());
        batch_report = Some(rep);
    }
    let batch_report = batch_report.expect("at least one run");

    let mut naive_secs = Vec::with_capacity(RUNS);
    let mut naive_converged = 0usize;
    for _ in 0..RUNS {
        naive_converged = 0;
        let t0 = Instant::now();
        for net_k in &nets {
            if solve(net_k, &opts).is_ok() {
                naive_converged += 1;
            }
        }
        naive_secs.push(t0.elapsed().as_secs_f64());
    }

    // Equivalence gate: batch answers are bitwise identical to the
    // same-policy per-scenario replay.
    let replay = run_naive(&net, &opts, &set).expect("paper case replay");
    let bitwise_identical = reports_bitwise_equal(&batch_report, &replay);

    let batch_min = stats(&batch_secs).min;
    let naive_min = stats(&naive_secs).min;
    let speedup = naive_min / batch_min.max(1e-12);
    let warm_engaged = batch_report.warm_hits > 0;
    let fast_enough = !gate_speedup || speedup >= MIN_SPEEDUP;
    let ok = bitwise_identical && warm_engaged && fast_enough;

    if !bitwise_identical {
        eprintln!("bench_batch: {id:?} batch answers differ from the naive replay");
    }
    if !warm_engaged {
        eprintln!("bench_batch: {id:?} warm starts never engaged");
    }
    if !fast_enough {
        eprintln!(
            "bench_batch: {id:?} speedup {speedup:.2}x below the {MIN_SPEEDUP:.0}x floor \
             (batch {batch_min:.4}s vs naive {naive_min:.4}s, best of {RUNS})"
        );
    }

    let converged = batch_report
        .outcomes
        .iter()
        .filter(|o| o.report.is_ok())
        .count();
    let block = json!({
        "n_bus": net.n_bus(),
        "scenarios": batch_report.scenarios,
        "converged": converged,
        "naive_converged": naive_converged,
        "warm_hits": batch_report.warm_hits,
        "flat_restarts": batch_report.flat_restarts,
        "batch": stats_value(&batch_secs),
        "naive": stats_value(&naive_secs),
        "speedup": speedup,
        "scenarios_per_sec": batch_report.scenarios as f64 / batch_min.max(1e-12),
        "bitwise_identical": bitwise_identical,
    });
    (block, ok)
}

fn main() -> ExitCode {
    let (out_dir, baseline_dir) = match gm_bench::parse_args() {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("bench_batch: {e}");
            return ExitCode::FAILURE;
        }
    };

    let reg = Registry::new();
    let guard = reg.install();
    let mut per_case = serde_json::Map::new();
    let mut all_ok = true;
    for (id, n_scenarios, gate_speedup) in
        [(CaseId::Ieee118, 96, true), (CaseId::Ieee300, 64, false)]
    {
        let (block, ok) = bench_case(id, n_scenarios, gate_speedup);
        println!(
            "{id:?}: batch {:.4}s naive {:.4}s speedup {:.2}x ({:.1} scenarios/s) \
             warm_hits {} bitwise_identical {}",
            block["batch"]["min_s"].as_f64().unwrap_or(0.0),
            block["naive"]["min_s"].as_f64().unwrap_or(0.0),
            block["speedup"].as_f64().unwrap_or(0.0),
            block["scenarios_per_sec"].as_f64().unwrap_or(0.0),
            block["warm_hits"],
            block["bitwise_identical"],
        );
        per_case.insert(format!("{id:?}"), block);
        all_ok &= ok;
    }
    drop(guard);

    let mut doc = json!({ "bench": "batch", "cases": Value::Object(per_case) });
    doc["telemetry"] = reg.export();

    gm_bench::finish_artifact(
        "bench_batch",
        "BENCH_batch.json",
        &doc,
        all_ok
            .then_some(())
            .ok_or("equivalence/speedup invariant failed"),
        &out_dir,
        baseline_dir.as_deref(),
    )
}
