//! Contingency-cascade benchmark and equivalence gate — emits
//! `BENCH_ca.json` for the CI `contingency` job.
//!
//! For case118 and case300 the brute N-1 sweep (full AC solve per
//! outage) and the screening cascade (LODF ranking + Woodbury-compensated
//! AC verification of suspects) run back to back from the same base
//! solution. The run itself enforces the Table 1 invariant before any
//! baseline comparison:
//!
//! 1. **Equivalence**: the top-5 criticality rankings must be identical
//!    between brute and cascade, and every outage the brute sweep finds
//!    thermally violating must have been AC-verified by the cascade.
//! 2. **Speed**: the cascade's mean wall time must beat brute's on every
//!    case.
//!
//! ```text
//! cargo run -p gm-bench --bin bench_ca --release -- [out_dir] [--compare <baseline_dir>]
//! ```
//!
//! With `--compare`, the fresh artifact is additionally gated against the
//! committed `BENCH_baseline/BENCH_ca.json` under the standard rules:
//! wall regression beyond tolerance fails, and any `ca.screen.*` counter
//! that goes dark fails (the screen silently never engaging is a
//! regression even at equal speed).

use std::process::ExitCode;
use std::time::Instant;

use gm_bench::{stats, stats_value};
use gm_contingency::{run_n1, solve_base, CaOptions, ContingencyReport, SweepMode};
use gm_network::{cases, CaseId};
use gm_telemetry::Registry;
use serde_json::{json, Value};

const RUNS: usize = 3;
const TOP_K: usize = 5;

struct SweepOutcome {
    report: ContingencyReport,
    secs: Vec<f64>,
}

fn timed_sweeps(
    net: &gm_network::Network,
    opts: &CaOptions,
    base: &gm_powerflow::PfReport,
) -> SweepOutcome {
    let mut secs = Vec::with_capacity(RUNS);
    let mut report = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let rep = run_n1(net, opts, Some(base)).expect("paper case sweeps");
        secs.push(t0.elapsed().as_secs_f64());
        report = Some(rep);
    }
    SweepOutcome {
        report: report.expect("at least one run"),
        secs,
    }
}

/// Runs one case; returns its JSON block and whether the invariants held.
fn bench_case(id: CaseId) -> (Value, bool) {
    let net = cases::load(id);
    let brute_opts = CaOptions {
        mode: SweepMode::Brute,
        ..Default::default()
    };
    let cascade_opts = CaOptions::default();
    let base = solve_base(&net, &cascade_opts).expect("base case converges");

    let brute = timed_sweeps(&net, &brute_opts, &base);
    let cascade = timed_sweeps(&net, &cascade_opts, &base);

    let brute_top = brute.report.top_labels(TOP_K);
    let cascade_top = cascade.report.top_labels(TOP_K);
    let top_identical = brute_top == cascade_top;
    // Coverage: every brute-detected thermal violator must be AC-verified.
    let mut missed_criticals = 0usize;
    for (b, c) in brute.report.outcomes.iter().zip(&cascade.report.outcomes) {
        if b.n_thermal() > 0 && !c.ac_solved {
            missed_criticals += 1;
        }
    }
    let brute_mean = stats(&brute.secs).mean;
    let cascade_mean = stats(&cascade.secs).mean;
    let faster = cascade_mean < brute_mean;
    let ok = top_identical && faster && missed_criticals == 0;

    if !top_identical {
        eprintln!(
            "bench_ca: {id:?} top-{TOP_K} mismatch: brute {brute_top:?} vs cascade {cascade_top:?}"
        );
    }
    if missed_criticals > 0 {
        eprintln!(
            "bench_ca: {id:?} cascade screened out {missed_criticals} thermally violating outages"
        );
    }
    if !faster {
        eprintln!(
            "bench_ca: {id:?} cascade not faster: {cascade_mean:.4}s vs brute {brute_mean:.4}s"
        );
    }

    let block = json!({
        "n_bus": net.n_bus(),
        "n_contingencies": cascade.report.n_contingencies,
        "brute": stats_value(&brute.secs),
        "cascade": stats_value(&cascade.secs),
        "speedup": brute_mean / cascade_mean.max(1e-12),
        "screened_out": cascade.report.screened_out,
        "ac_verified": cascade.report.ac_verified,
        "top5": cascade_top,
        "top5_identical": top_identical,
        "missed_criticals": missed_criticals,
    });
    (block, ok)
}

fn main() -> ExitCode {
    let (out_dir, baseline_dir) = match gm_bench::parse_args() {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("bench_ca: {e}");
            return ExitCode::FAILURE;
        }
    };

    let reg = Registry::new();
    let guard = reg.install();
    let mut per_case = serde_json::Map::new();
    let mut all_ok = true;
    for id in [CaseId::Ieee118, CaseId::Ieee300] {
        let (block, ok) = bench_case(id);
        println!(
            "{id:?}: brute {:.4}s cascade {:.4}s speedup {:.2}x screened_out {} top5_identical {}",
            block["brute"]["mean_s"].as_f64().unwrap_or(0.0),
            block["cascade"]["mean_s"].as_f64().unwrap_or(0.0),
            block["speedup"].as_f64().unwrap_or(0.0),
            block["screened_out"],
            block["top5_identical"],
        );
        per_case.insert(format!("{id:?}"), block);
        all_ok &= ok;
    }
    drop(guard);

    let mut doc = json!({ "bench": "ca", "cases": Value::Object(per_case) });
    doc["telemetry"] = reg.export();

    gm_bench::finish_artifact(
        "bench_ca",
        "BENCH_ca.json",
        &doc,
        all_ok
            .then_some(())
            .ok_or("cascade equivalence/speed invariant failed"),
        &out_dir,
        baseline_dir.as_deref(),
    )
}
