//! Command line of the repository benchmark; see `README.md`.
//!
//! ```text
//! gm-benchmark --workload W --seed N --seconds S --trace 0|1   one run, in this process
//! gm-benchmark --seed N [--workload W]... [--trace] [--runs K] [--out FILE]
//!                                                              the suite, a process per run
//! gm-benchmark compare A.json B.json [--exact-counts] [--spec BENCHMARK.json]
//! ```

use gm_benchmark::runner::{self, Config, Report};
use gm_benchmark::suite::{self, write_json, SuiteConfig};
use gm_benchmark::workloads::{Size, WORKLOADS};
use gm_benchmark::{compare, result_path};
use serde_json::{json, Value};
use std::process::ExitCode;

/// `--trace 0`, `--trace 1`, or a bare `--trace` (both kinds of run).
#[derive(Clone, Copy, PartialEq)]
enum Trace {
    Off,
    On,
    Both,
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: Trace,
    runs: usize,
    smoke: bool,
    out: Option<String>,
    results_dir: String,
}

fn usage() -> String {
    format!(
        "usage: gm-benchmark --seed N [--workload W]... [--seconds S] [--trace [0|1]] [--runs K] \
         [--smoke] [--out FILE] [--results-dir DIR]\n       gm-benchmark compare A.json B.json \
         [--exact-counts] [--spec BENCHMARK.json]\nworkloads: {WORKLOADS:?}"
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 11,
        seconds: 14.0,
        trace: Trace::Off,
        runs: 1,
        smoke: false,
        out: None,
        results_dir: "benchmark/results".into(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => out.workloads.push(value("--workload")?),
            "--seed" => {
                out.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => {
                out.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => out.out = Some(value("--out")?),
            "--results-dir" => out.results_dir = value("--results-dir")?,
            "--smoke" => out.smoke = true,
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => Trace::Off,
                    Some("1") => Trace::On,
                    _ => Trace::Both,
                };
                if out.trace != Trace::Both {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if let Some(bad) = out
        .workloads
        .iter()
        .find(|w| !WORKLOADS.contains(&w.as_str()))
    {
        return Err(format!("unknown workload {bad:?}\n{}", usage()));
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

fn print_metrics(report: &Report) {
    for m in &report.metrics {
        println!(
            "{} {} {} {} n={}",
            report.config.workload, m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{} ops_attempted {} count\n{} ops_failed {} count",
        report.config.workload, report.attempted, report.config.workload, report.failed
    );
    let d = &report.diagnostics;
    for key in ["problems", "failures"] {
        for line in d[key].as_array().into_iter().flatten() {
            eprintln!(
                "{}: {}",
                report.config.workload,
                line.as_str().unwrap_or("?")
            );
        }
    }
    if d["mix"]["enforced"].as_bool() == Some(true) {
        eprintln!(
            "{}: mix.enforced ok={} p50 in {} p90 in {}",
            report.config.workload, d["mix"]["ok"], d["mix"]["p50_class"], d["mix"]["p90_class"]
        );
    }
}

/// One workload, one kind of run, in this process. The last line of
/// standard output is the driver's JSON object.
fn single(args: &Args) -> Result<bool, String> {
    let trace = args.trace == Trace::On;
    let report = runner::run(Config {
        workload: args.workloads[0].clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace,
        size: if args.smoke { Size::Smoke } else { Size::Full },
    })?;
    print_metrics(&report);
    let path = result_path(&args.results_dir, &report.config.workload, args.seed, trace);
    write_json(&path, &report.to_json())?;
    if let Some(spans) = &report.spans {
        let w = &report.config.workload;
        write_json(
            &format!("{}/trace-{w}.json", args.results_dir),
            &json!({"workload": w, "seed": args.seed, "spans": spans}),
        )?;
    }
    println!("{}", report.driver_line());
    Ok(report.correct)
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn compare_cmd(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let (mut exact, mut spec) = (false, "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--exact-counts" => exact = true,
            "--spec" => spec = it.next().cloned().ok_or("--spec needs a file")?,
            f => files.push(f.to_string()),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(usage());
    };
    let bounds = compare::bounds_of(&read_json(&spec)?);
    let rows = compare::compare(&read_json(a)?, &read_json(b)?, &bounds);
    let (text, failed) = compare::render(&rows, exact);
    print!("{text}");
    Ok(!failed)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare_cmd(&argv[1..]);
    }
    let args = parse(&argv)?;
    if args.workloads.len() == 1
        && args.trace != Trace::Both
        && args.runs == 1
        && args.out.is_none()
    {
        return single(&args);
    }
    let config = SuiteConfig {
        workloads: if args.workloads.is_empty() {
            WORKLOADS.iter().map(|w| w.to_string()).collect()
        } else {
            args.workloads.clone()
        },
        seed: args.seed,
        seconds: args.seconds,
        untraced: args.trace != Trace::On,
        traced: args.trace != Trace::Off,
        runs: args.runs,
        smoke: args.smoke,
        results_dir: args.results_dir.clone(),
    };
    let (record, correct) = suite::run(&config)?;
    let out = args
        .out
        .unwrap_or(format!("{}/all-seed-{}.json", args.results_dir, args.seed));
    write_json(&out, &record)?;
    eprintln!("wrote {out}");
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
