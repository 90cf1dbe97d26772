//! `gm-trace` — render and gate telemetry trace exports.
//!
//! Usage:
//!
//! ```text
//! gm-trace <file.json> [--check]
//! gm-trace slo <file.json> [--spec slo.toml]
//! ```
//!
//! Files may be raw `gm-telemetry` exports (`gm-serve --out`) or saved
//! GridMind sessions (telemetry embedded under the `"telemetry"` key).
//!
//! With `--check` the process exits nonzero unless every required solver
//! metric (Newton/IPM iterations, LU factorizations, contingency
//! evaluations, tool/LLM/coordinator activity) is present and nonzero —
//! and, for serve traces, the serve latency sketches and flight-recorder
//! counters too. All missing metrics are reported in one run.
//!
//! `slo` evaluates the per-query-kind p50/p99/max targets in an
//! `slo.toml` spec against the trace's `serve.latency.<kind>.total_s`
//! quantile sketches and exits nonzero on any violation — the soak/chaos
//! CI latency gate.

use std::process::ExitCode;

const USAGE: &str = "usage: gm-trace <file.json> [--check]
       gm-trace slo <file.json> [--spec slo.toml]";

fn load(path: &str) -> Result<serde_json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not valid JSON: {e}"))
}

fn run_report(args: &[String]) -> Result<bool, String> {
    let mut check = false;
    let mut path: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            other if path.is_none() => path = Some(other),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    let path = path.ok_or_else(|| USAGE.to_string())?;
    let blob = load(path)?;
    print!("{}", gm_telemetry::render_report(&blob)?);
    if check {
        let missing = gm_telemetry::check_required_metrics(&blob)?;
        if !missing.is_empty() {
            eprintln!("\ncheck FAILED: required metrics absent or zero:");
            for m in &missing {
                eprintln!("  - {m}");
            }
            return Ok(false);
        }
        println!("\ncheck OK: all required metrics nonzero");
    }
    Ok(true)
}

fn run_slo(args: &[String]) -> Result<bool, String> {
    let mut spec_path = "slo.toml".to_string();
    let mut trace_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => {
                spec_path = it
                    .next()
                    .ok_or_else(|| "--spec needs a path".to_string())?
                    .clone();
            }
            other if trace_path.is_none() => trace_path = Some(other),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    let trace_path = trace_path.ok_or_else(|| USAGE.to_string())?;
    let spec_text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec = gm_telemetry::SloSpec::parse(&spec_text)?;
    let blob = load(trace_path)?;
    let snap = gm_telemetry::find_snapshot(&blob)
        .ok_or_else(|| format!("{trace_path} holds no telemetry snapshot"))?;
    print!("{}", spec.render_table(&snap));
    let violations = spec.evaluate(&snap);
    if violations.is_empty() {
        println!(
            "\nslo OK: all targets met ({} kinds gated)",
            spec.kinds.len()
        );
        Ok(true)
    } else {
        eprintln!("\nslo FAILED: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        Ok(false)
    }
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(!args.is_empty())
        }
        Some("slo") => run_slo(&args[1..]),
        _ => run_report(&args),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("gm-trace: {msg}");
            ExitCode::FAILURE
        }
    }
}
