//! `gm-audit` CLI: workspace static analysis.
//!
//! ```text
//! cargo run -p gm-audit -- lint-src [--json PATH]    # source invariants
//! cargo run -p gm-audit -- lock-graph [--json PATH]  # lock discipline
//! cargo run -p gm-audit -- lint-case <case>          # model invariants
//! ```
//!
//! `lint-src` and `lock-graph` lint the tree in the working directory,
//! which must hold the workspace's `crates/` (exit 2 otherwise), so one
//! built binary can lint any checkout, a `git archive` of an old commit
//! included. Exits nonzero when any violation (or, for `lint-case`, any
//! error-severity finding) is present — suitable as a CI gate.
//! `--json` additionally writes the findings as a machine-readable
//! artifact (hand-rolled serialization: this crate stays
//! zero-dependency).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use gm_audit::locks::lint_locks;
use gm_audit::{lint_sources, GridLint, Severity, SourceFinding};

/// The tree to lint: the working directory, or an error naming it when
/// it holds no `crates/`, so a run from the wrong place never lints
/// nothing and passes.
fn tree_root() -> Result<PathBuf, String> {
    let dir =
        std::env::current_dir().map_err(|e| format!("cannot read the working directory: {e}"))?;
    if dir.join("crates").is_dir() {
        Ok(dir)
    } else {
        Err(format!(
            "{} has no crates/ directory; run gm-audit from the repository root",
            dir.display()
        ))
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gm-audit <lint-src [--json PATH] | lock-graph [--json PATH] | lint-case CASE>"
    );
    ExitCode::from(2)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_findings(findings: &[SourceFinding]) -> String {
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "{{\"file\":{},\"line\":{},\"rule\":{},\"excerpt\":{}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.excerpt)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

fn write_json(path: &str, body: &str) -> ExitCode {
    match std::fs::write(path, body) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::from(2)
        }
    }
}

fn lint_src(json: Option<&str>) -> ExitCode {
    let root = match tree_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("lint-src: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rep = match lint_sources(&root) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("lint-src: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    match gm_audit::xref::lint_telemetry_xref(&root) {
        Ok(mut xref) => rep.findings.append(&mut xref),
        Err(e) => {
            eprintln!("lint-src: telemetry xref failed: {e}");
            return ExitCode::from(2);
        }
    }
    for f in &rep.findings {
        println!("{f}");
    }
    if let Some(path) = json {
        let body = format!(
            "{{\"findings\":{},\"files_scanned\":{}}}\n",
            json_findings(&rep.findings),
            rep.files_scanned,
        );
        let code = write_json(path, &body);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    if rep.is_clean() {
        println!("lint-src clean: {} files scanned", rep.files_scanned);
        ExitCode::SUCCESS
    } else {
        println!("lint-src: {} violation(s)", rep.findings.len());
        ExitCode::FAILURE
    }
}

fn lock_graph(json: Option<&str>) -> ExitCode {
    let root = match tree_root() {
        Ok(root) => root,
        Err(e) => {
            eprintln!("lock-graph: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match lint_locks(&root) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("lock-graph: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    println!(
        "lock-graph: {} lock(s), {} order edge(s), {} function(s) analyzed",
        rep.locks.len(),
        rep.edges.len(),
        rep.functions_analyzed
    );
    for l in &rep.locks {
        println!("  lock {} ({}) at {}:{}", l.id, l.kind, l.file, l.line);
    }
    for e in &rep.edges {
        println!("  order {} -> {} at {}", e.held, e.acquired, e.site);
    }
    for f in &rep.findings {
        println!("{f}");
    }
    for c in &rep.cycles {
        println!("  CYCLE: {}", c.join(" -> "));
    }
    if let Some(path) = json {
        let locks: Vec<String> = rep
            .locks
            .iter()
            .map(|l| {
                format!(
                    "{{\"id\":{},\"kind\":{},\"file\":{},\"line\":{}}}",
                    json_str(&l.id),
                    json_str(l.kind),
                    json_str(&l.file),
                    l.line
                )
            })
            .collect();
        let edges: Vec<String> = rep
            .edges
            .iter()
            .map(|e| {
                format!(
                    "{{\"held\":{},\"acquired\":{},\"site\":{}}}",
                    json_str(&e.held),
                    json_str(&e.acquired),
                    json_str(&e.site)
                )
            })
            .collect();
        let cycles: Vec<String> = rep
            .cycles
            .iter()
            .map(|c| {
                format!(
                    "[{}]",
                    c.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(",")
                )
            })
            .collect();
        let body = format!(
            "{{\"locks\":[{}],\"edges\":[{}],\"cycles\":[{}],\"findings\":{}}}\n",
            locks.join(","),
            edges.join(","),
            cycles.join(","),
            json_findings(&rep.findings),
        );
        let code = write_json(path, &body);
        if code != ExitCode::SUCCESS {
            return code;
        }
    }
    if rep.is_clean() {
        println!("lock-graph clean: order acyclic, no guard spans an engine entry");
        ExitCode::SUCCESS
    } else {
        println!(
            "lock-graph: {} finding(s), {} cycle(s)",
            rep.findings.len(),
            rep.cycles.len()
        );
        ExitCode::FAILURE
    }
}

fn lint_case(name: &str) -> ExitCode {
    let (net, conf) = match gm_network::cases::load_case(name) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("lint-case: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "auditing {} ({} buses, {} branches; matched with confidence {conf:.2})",
        net.name,
        net.n_bus(),
        net.branches.len()
    );
    let findings = GridLint.audit(&net);
    for f in &findings {
        println!("{f}");
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    if errors == 0 {
        println!("lint-case clean: {} finding(s), no errors", findings.len());
        ExitCode::SUCCESS
    } else {
        println!("lint-case: {errors} error(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_arg = |idx: usize| -> Option<&str> {
        match args.get(idx).map(String::as_str) {
            Some("--json") => args.get(idx + 1).map(String::as_str),
            _ => None,
        }
    };
    match args.first().map(String::as_str) {
        Some("lint-src") => {
            if args.len() > 1 && json_arg(1).is_none() {
                return usage();
            }
            lint_src(json_arg(1))
        }
        Some("lock-graph") => {
            if args.len() > 1 && json_arg(1).is_none() {
                return usage();
            }
            lock_graph(json_arg(1))
        }
        Some("lint-case") => match args.get(1) {
            Some(case) => lint_case(case),
            None => usage(),
        },
        _ => usage(),
    }
}
