//! The whole benchmark from one command: every workload in its own
//! fresh process, results gathered into one file `compare` can read.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use serde_json::{json, Map, Value};
use std::path::Path;
use std::process::Command;

pub struct SuiteConfig {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    /// Make the untraced runs (end-to-end metrics).
    pub untraced: bool,
    /// Make a traced run of each workload (per-layer metrics).
    pub traced: bool,
    /// Untraced runs per workload; more than one gives `compare` a
    /// run-to-run spread.
    pub runs: usize,
    pub smoke: bool,
    pub results_dir: String,
}

fn child(config: &SuiteConfig, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--results-dir", &config.results_dir]);
    if config.smoke {
        cmd.arg("--smoke");
    }
    // The child prints its metric lines itself; only the record it
    // writes is read back.
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let path = crate::result_path(&config.results_dir, workload, config.seed, trace);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("{workload}: no result at {path}: {e}"))?;
    let record: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if !status.success() && record["correct"].as_bool() != Some(false) {
        return Err(format!("{workload} exited with {status}"));
    }
    Ok(record)
}

/// Runs the suite; returns the combined record and whether every run
/// was correct.
pub fn run(config: &SuiteConfig) -> Result<(Value, bool), String> {
    let mut workloads = Map::new();
    let mut all_correct = true;
    for w in &config.workloads {
        let mut end_to_end: Map<String, Value> = Map::new();
        let (mut attempted, mut failed, mut diagnostics) = (Vec::new(), Vec::new(), Vec::new());
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut samples = vec![0u64; END_TO_END.len()];
        for _ in 0..if config.untraced {
            config.runs.max(1)
        } else {
            0
        } {
            let r = child(config, w, false)?;
            all_correct &= r["correct"].as_bool() == Some(true);
            attempted.push(r["ops_attempted"].clone());
            failed.push(r["ops_failed"].clone());
            diagnostics.push(r["diagnostics"].clone());
            for (i, m) in END_TO_END.iter().enumerate() {
                if let Some(v) = r["metrics"][m.name]["value"].as_f64() {
                    series[i].push(v);
                    samples[i] = r["metrics"][m.name]["samples"].as_u64().unwrap_or(0);
                }
            }
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let (q1, median, q3) = quartiles(&series[i]);
            end_to_end.insert(
                m.name.to_string(),
                json!({"unit": m.unit, "values": series[i], "median": median, "q1": q1, "q3": q3, "samples": samples[i]}),
            );
        }
        let mut entry = json!({
            "ops_attempted": attempted,
            "ops_failed": failed,
            "end_to_end": Value::Object(end_to_end),
            "diagnostics": diagnostics,
        });
        if config.traced {
            let r = child(config, w, true)?;
            all_correct &= r["correct"].as_bool() == Some(true);
            let per_layer: Map<String, Value> = PER_LAYER
                .iter()
                .map(|m| {
                    let got = &r["metrics"][m.name];
                    (
                        m.name.to_string(),
                        json!({"unit": m.unit, "value": got["value"], "samples": got["samples"], "exact": m.exact}),
                    )
                })
                .collect();
            entry["per_layer"] = Value::Object(per_layer);
            entry["trace_diagnostics"] = r["diagnostics"].clone();
        }
        workloads.insert(w.clone(), entry);
    }
    let record = json!({
        "seed": config.seed,
        "seconds": config.seconds,
        "runs": config.runs,
        "smoke": config.smoke,
        "cores": crate::sys::cores(),
        "workers": crate::sys::serve_workers(),
        "workloads": Value::Object(workloads),
    });
    Ok((record, all_correct))
}

/// Writes `value` as pretty JSON, creating the directory.
pub fn write_json(path: &str, value: &Value) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))
}
