//! Network-axis scaling benchmark — emits `BENCH_scale.json` for the CI
//! `scale` job.
//!
//! Measures solve time and fill-in versus bus count across
//! {case118, case300, synth1354, synth2869, synth9241} for the three
//! layers the large-network tier rebuilt:
//!
//! - **analyze**: full symbolic + numeric factorization
//!   ([`SymbolicLu::analyze`]) of the case's DC B-matrix under the AMD
//!   ordering, with the greedy min-degree ordering timed side by side
//!   (`analyze_greedy`) and fill-in recorded for both.
//! - **refactor**: the pattern-reuse numeric replay
//!   ([`SymbolicLu::refactor_into`]) on the same matrix.
//! - **newton**: the end-to-end AC power flow
//!   ([`gm_powerflow::solve_from_with_engine`]) with a fresh engine per
//!   run, once under the default AMD ordering and once pinned to
//!   `Ordering::MinDegree` (`newton_greedy`) — the A/B the ≥2x speedup
//!   gate reads.
//! - **panel**: the 64-RHS lane-blocked panel solve
//!   ([`SparseLu::solve_many_in_place`]) against the scalar per-column
//!   path, verified bitwise identical while being timed.
//!
//! The run enforces the tier's contract before any baseline comparison:
//!
//! 1. **Fill parity**: AMD fill ≤ 1.1x greedy fill on every case.
//! 2. **Newton speedup**: ≥ 2x over the greedy leg on synth9241.
//! 3. **Subquadratic analysis**: AMD analyze growth 2869 → 9241 stays
//!    below the quadratic bound `(9241/2869)^2`.
//! 4. **Panel equivalence**: the lane-blocked kernel answers bitwise
//!    match the scalar path.
//!
//! ```text
//! cargo run -p gm-bench --bin bench_scale --release -- [out_dir] [--compare <baseline_dir>]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use gm_bench::{stats, stats_value};
use gm_network::{cases, load_scale, slack_pinned_bprime, CaseId, Network, ScaleId};
use gm_powerflow::{solve_from_with_engine, PfOptions};
use gm_sparse::{CsMat, LuEngine, Ordering, SparseLu, SymbolicLu};
use gm_telemetry::Registry;
use serde_json::{json, Value};

const RUNS: usize = 3;
const NRHS: usize = 64;
/// Newton (AMD + blocked kernels) must clear this over the
/// greedy-ordering leg on synth9241.
const MIN_NEWTON_SPEEDUP: f64 = 2.0;
/// AMD fill must stay within this factor of greedy fill everywhere.
const MAX_FILL_RATIO: f64 = 1.1;

/// DC B-matrix with the slack row pinned: the power-grid Laplacian
/// pattern class every solver in the stack factors, assembled from the
/// public network model so the bench needs no solver internals.
fn b_matrix(net: &Network) -> CsMat<f64> {
    slack_pinned_bprime(net, net.slack().unwrap_or(0)).to_csr()
}

/// Deterministic pseudo-random RHS panel (no rand dependency needed:
/// splitmix64 over the index).
fn panel_values(n: usize) -> Vec<f64> {
    (0..n as u64)
        .map(|i| {
            let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
        })
        .collect()
}

struct CaseResult {
    block: Value,
    ok: bool,
    amd_analyze_min: f64,
    newton_speedup: f64,
}

fn bench_case(name: &str, net: &Network) -> CaseResult {
    let b = b_matrix(net);
    let n = b.rows();
    let mut ok = true;

    // ---- analyze: AMD vs greedy, time and fill.
    let mut amd_secs = Vec::with_capacity(RUNS);
    let mut greedy_secs = Vec::with_capacity(RUNS);
    let mut fill_amd = 0usize;
    let mut fill_greedy = 0usize;
    let mut sym_amd: Option<(SymbolicLu, SparseLu)> = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let pair = SymbolicLu::analyze(&b, Ordering::Amd, 0.1).expect("B matrix must analyze");
        amd_secs.push(t0.elapsed().as_secs_f64());
        fill_amd = pair.1.factor_nnz();
        sym_amd = Some(pair);
    }
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let lu = SparseLu::factor_with(&b, Ordering::MinDegree, 0.1).expect("B matrix must factor");
        greedy_secs.push(t0.elapsed().as_secs_f64());
        fill_greedy = lu.factor_nnz();
    }
    let fill_ratio = fill_amd as f64 / fill_greedy as f64;
    if fill_ratio > MAX_FILL_RATIO {
        eprintln!(
            "bench_scale: {name} AMD fill {fill_amd} exceeds {MAX_FILL_RATIO}x greedy fill \
             {fill_greedy}"
        );
        ok = false;
    }
    let (sym, mut numeric) = sym_amd.expect("at least one analyze run");

    // ---- refactor: numeric replay on the captured structure.
    let mut refactor_secs = Vec::with_capacity(RUNS);
    let mut scratch = Vec::new();
    for _ in 0..RUNS {
        let t0 = Instant::now();
        sym.refactor_into(&b, &mut numeric, &mut scratch)
            .expect("same-pattern refactor must replay");
        refactor_secs.push(t0.elapsed().as_secs_f64());
    }

    // ---- panel: lane-blocked 64-RHS solve vs the scalar per-column
    // path, bitwise-verified.
    let panel_init = panel_values(n * NRHS);
    let mut blocked_secs = Vec::with_capacity(RUNS);
    let mut panel = Vec::new();
    let mut panel_scratch = vec![0.0f64; n * NRHS + NRHS];
    for _ in 0..RUNS {
        panel = panel_init.clone();
        let t0 = Instant::now();
        numeric.solve_many_in_place(&mut panel, NRHS, &mut panel_scratch);
        blocked_secs.push(t0.elapsed().as_secs_f64());
    }
    let mut percol_secs = Vec::with_capacity(RUNS);
    let mut cols = Vec::new();
    for _ in 0..RUNS {
        cols = vec![0.0f64; n * NRHS];
        let mut col = vec![0.0f64; n];
        let mut col_scratch = vec![0.0f64; n];
        let t0 = Instant::now();
        for s in 0..NRHS {
            for i in 0..n {
                col[i] = panel_init[i * NRHS + s];
            }
            numeric.solve_in_place(&mut col, &mut col_scratch);
            for i in 0..n {
                cols[i * NRHS + s] = col[i];
            }
        }
        percol_secs.push(t0.elapsed().as_secs_f64());
    }
    let panel_identical = panel
        .iter()
        .zip(&cols)
        .all(|(a, c)| a.to_bits() == c.to_bits());
    if !panel_identical {
        eprintln!("bench_scale: {name} lane-blocked panel diverged from the scalar path");
        ok = false;
    }

    // ---- newton: end-to-end AC solve, AMD vs greedy ordering. A fresh
    // engine per run so each leg pays its ordering + analysis, which is
    // exactly the cost the A/B is about.
    let opts = PfOptions {
        enforce_q_limits: false,
        ..Default::default()
    };
    let mut newton_amd_secs = Vec::with_capacity(RUNS);
    let mut iterations = 0usize;
    for _ in 0..RUNS {
        let mut engine = LuEngine::new().with_ordering(Ordering::Amd);
        let t0 = Instant::now();
        let rep = solve_from_with_engine(net, &opts, None, &mut engine)
            .expect("Newton must converge under AMD");
        newton_amd_secs.push(t0.elapsed().as_secs_f64());
        iterations = rep.iterations;
    }
    let mut newton_greedy_secs = Vec::with_capacity(RUNS);
    let mut iterations_greedy = 0usize;
    for _ in 0..RUNS {
        let mut engine = LuEngine::new().with_ordering(Ordering::MinDegree);
        let t0 = Instant::now();
        let rep = solve_from_with_engine(net, &opts, None, &mut engine)
            .expect("Newton must converge under greedy min-degree");
        newton_greedy_secs.push(t0.elapsed().as_secs_f64());
        iterations_greedy = rep.iterations;
    }
    let newton_amd_min = stats(&newton_amd_secs).min;
    let newton_greedy_min = stats(&newton_greedy_secs).min;
    let newton_speedup = newton_greedy_min / newton_amd_min.max(1e-12);

    let amd_analyze_min = stats(&amd_secs).min;
    let block = json!({
        "n_bus": n,
        "nnz": b.nnz(),
        "fill_amd": fill_amd,
        "fill_greedy": fill_greedy,
        "fill_ratio": fill_ratio,
        "analyze": stats_value(&amd_secs),
        "analyze_greedy": stats_value(&greedy_secs),
        "refactor": stats_value(&refactor_secs),
        "panel_blocked": stats_value(&blocked_secs),
        "panel_percol": stats_value(&percol_secs),
        "panel_nrhs": NRHS,
        "panel_identical": panel_identical,
        "newton": stats_value(&newton_amd_secs),
        "newton_greedy": stats_value(&newton_greedy_secs),
        "newton_iterations": iterations,
        "newton_iterations_greedy": iterations_greedy,
        "newton_speedup": newton_speedup,
    });
    CaseResult {
        block,
        ok,
        amd_analyze_min,
        newton_speedup,
    }
}

fn main() -> ExitCode {
    let (out_dir, baseline_dir) = match gm_bench::parse_args() {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("bench_scale: {e}");
            return ExitCode::FAILURE;
        }
    };

    let reg = Registry::new();
    let guard = reg.install();
    let mut per_case = serde_json::Map::new();
    let mut all_ok = true;
    let mut analyze_min_2869 = 0.0f64;
    let mut analyze_min_9241 = 0.0f64;
    let mut speedup_9241 = 0.0f64;

    let small = [(CaseId::Ieee118, "case118"), (CaseId::Ieee300, "case300")];
    for (id, name) in small {
        let net = cases::load(id);
        let res = bench_case(name, &net);
        print_case(name, &res);
        per_case.insert(name.to_string(), res.block);
        all_ok &= res.ok;
    }
    for id in ScaleId::ALL {
        let name = id.short_name();
        let t0 = Instant::now();
        let net = load_scale(id);
        println!("{name}: generated in {:.2}s", t0.elapsed().as_secs_f64());
        let res = bench_case(name, net);
        print_case(name, &res);
        match id {
            ScaleId::Synth2869 => analyze_min_2869 = res.amd_analyze_min,
            ScaleId::Synth9241 => {
                analyze_min_9241 = res.amd_analyze_min;
                speedup_9241 = res.newton_speedup;
            }
            ScaleId::Synth1354 => {}
        }
        per_case.insert(name.to_string(), res.block);
        all_ok &= res.ok;
    }
    drop(guard);

    // Tier gates: ≥2x Newton at 9241, subquadratic analyze growth.
    if speedup_9241 < MIN_NEWTON_SPEEDUP {
        eprintln!(
            "bench_scale: synth9241 Newton speedup {speedup_9241:.2}x below the \
             {MIN_NEWTON_SPEEDUP:.0}x floor"
        );
        all_ok = false;
    }
    let growth = analyze_min_9241 / analyze_min_2869.max(1e-12);
    let quadratic_bound = (9241.0f64 / 2869.0).powi(2);
    if growth >= quadratic_bound {
        eprintln!(
            "bench_scale: analyze growth 2869→9241 is {growth:.2}x, at or above the quadratic \
             bound {quadratic_bound:.2}x"
        );
        all_ok = false;
    }
    println!(
        "scaling: analyze growth 2869→9241 {growth:.2}x (quadratic bound {quadratic_bound:.2}x), \
         synth9241 newton speedup {speedup_9241:.2}x"
    );

    let mut doc = json!({
        "bench": "scale",
        "cases": Value::Object(per_case),
        "scaling": {
            "analyze_growth_2869_to_9241": growth,
            "quadratic_bound": quadratic_bound,
            "newton_speedup_9241": speedup_9241,
        },
    });
    doc["telemetry"] = reg.export();

    gm_bench::finish_artifact(
        "bench_scale",
        "BENCH_scale.json",
        &doc,
        all_ok.then_some(()).ok_or("scaling-tier invariant failed"),
        &out_dir,
        baseline_dir.as_deref(),
    )
}

fn print_case(name: &str, res: &CaseResult) {
    let b = &res.block;
    println!(
        "{name}: n {} nnz {} | analyze amd {:.2}ms greedy {:.2}ms fill ratio {:.3} | \
         refactor {:.2}ms | newton amd {:.2}ms greedy {:.2}ms ({:.2}x) | panel {:.2}ms vs {:.2}ms",
        b["n_bus"],
        b["nnz"],
        b["analyze"]["min_s"].as_f64().unwrap_or(0.0) * 1e3,
        b["analyze_greedy"]["min_s"].as_f64().unwrap_or(0.0) * 1e3,
        b["fill_ratio"].as_f64().unwrap_or(0.0),
        b["refactor"]["min_s"].as_f64().unwrap_or(0.0) * 1e3,
        b["newton"]["min_s"].as_f64().unwrap_or(0.0) * 1e3,
        b["newton_greedy"]["min_s"].as_f64().unwrap_or(0.0) * 1e3,
        b["newton_speedup"].as_f64().unwrap_or(0.0),
        b["panel_blocked"]["min_s"].as_f64().unwrap_or(0.0) * 1e3,
        b["panel_percol"]["min_s"].as_f64().unwrap_or(0.0) * 1e3,
    );
}
