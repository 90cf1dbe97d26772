//! Trace/metrics export and the report renderer behind `gm-trace`.
//!
//! [`Registry::snapshot`] captures everything a registry recorded into a
//! serializable [`TelemetrySnapshot`]; [`Registry::export`] is the same
//! as JSON. [`render_report`] turns an exported snapshot (or any JSON
//! blob embedding one under a `"telemetry"` key, e.g. a saved session)
//! back into a human-readable report: a flamegraph-style span tree
//! (siblings aggregated by name) plus counter and histogram summary
//! tables.

use crate::flight::FlightEvent;
use crate::quantile::QuantileSketch;
use crate::registry::{Event, Histogram, Registry, SpanNode};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;

/// Serializable capture of one registry's full state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Wall seconds the registry had been alive at capture.
    pub wall_elapsed_s: f64,
    /// Virtual-clock time at capture (0 without an attached clock).
    pub virtual_now_s: f64,
    /// Counter values.
    pub counters: BTreeMap<String, u64>,
    /// Histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Quantile sketches (absent in pre-SLO exports).
    #[serde(default)]
    pub quantiles: BTreeMap<String, QuantileSketch>,
    /// Flight-recorder ring contents, oldest first (absent in pre-SLO
    /// exports).
    #[serde(default)]
    pub flight: Vec<FlightEvent>,
    /// Buffered events, chronological.
    pub events: Vec<Event>,
    /// Span tree (flat, parent-linked).
    pub spans: Vec<SpanNode>,
}

impl Registry {
    /// Captures the registry state.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            wall_elapsed_s: self.wall_elapsed(),
            virtual_now_s: self.virtual_now(),
            counters: self.counters(),
            histograms: self.histograms_snapshot(),
            quantiles: self.quantiles_snapshot(),
            flight: self.flight_snapshot(),
            events: self.events(),
            spans: self.spans(),
        }
    }

    /// Captures the registry state as JSON (the trace-export format).
    pub fn export(&self) -> Value {
        serde_json::to_value(self.snapshot()).unwrap_or(Value::Null)
    }
}

/// Locates the telemetry snapshot inside an arbitrary exported JSON file:
/// either the value itself is a snapshot, or it embeds one under a
/// `"telemetry"` key (saved sessions).
pub fn find_snapshot(blob: &Value) -> Option<TelemetrySnapshot> {
    let candidate = if blob.get("counters").is_some() && blob.get("spans").is_some() {
        blob.clone()
    } else {
        blob.get("telemetry")?.clone()
    };
    serde_json::from_value(candidate).ok()
}

/// One aggregated row of the span tree: all same-named siblings under the
/// same aggregated parent path, collapsed flamegraph-style.
struct TreeRow {
    depth: usize,
    name: String,
    calls: usize,
    total_s: f64,
    max_s: f64,
}

fn aggregate(
    snapshot: &TelemetrySnapshot,
    children: &BTreeMap<Option<usize>, Vec<usize>>,
    ids: &[usize],
    depth: usize,
    rows: &mut Vec<TreeRow>,
) {
    // Group sibling spans by name, preserving first-seen order.
    let mut order: Vec<&str> = Vec::new();
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &id in ids {
        let name = snapshot.spans[id].name.as_str();
        if !groups.contains_key(name) {
            order.push(name);
        }
        groups.entry(name).or_default().push(id);
    }
    for name in order {
        let members = &groups[name];
        let durs: Vec<f64> = members
            .iter()
            .map(|&id| snapshot.spans[id].dur_s.unwrap_or(0.0))
            .collect();
        rows.push(TreeRow {
            depth,
            name: name.to_string(),
            calls: members.len(),
            total_s: durs.iter().sum(),
            max_s: durs.iter().fold(0.0f64, |m, &d| m.max(d)),
        });
        let mut kid_ids: Vec<usize> = members
            .iter()
            .flat_map(|&id| children.get(&Some(id)).cloned().unwrap_or_default())
            .collect();
        kid_ids.sort_unstable();
        if !kid_ids.is_empty() {
            aggregate(snapshot, children, &kid_ids, depth + 1, rows);
        }
    }
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Renders the per-session report: span tree, counters, histograms,
/// events. Returns an error string when `blob` holds no snapshot.
pub fn render_report(blob: &Value) -> Result<String, String> {
    let snap = find_snapshot(blob).ok_or_else(|| {
        "no telemetry snapshot found (expected a gm-telemetry export or a saved session)"
            .to_string()
    })?;
    let mut out = String::new();
    out.push_str(&format!(
        "session: wall {} | virtual {:.2}s | {} spans | {} events\n",
        fmt_secs(snap.wall_elapsed_s),
        snap.virtual_now_s,
        snap.spans.len(),
        snap.events.len(),
    ));

    // ---- Span tree (aggregated flamegraph-style).
    let mut children: BTreeMap<Option<usize>, Vec<usize>> = BTreeMap::new();
    for s in &snap.spans {
        children.entry(s.parent).or_default().push(s.id);
    }
    let roots = children.get(&None).cloned().unwrap_or_default();
    if !roots.is_empty() {
        out.push_str("\nspan tree (wall time, siblings aggregated by name):\n");
        let mut rows = Vec::new();
        aggregate(&snap, &children, &roots, 0, &mut rows);
        let root_total: f64 = rows
            .iter()
            .filter(|r| r.depth == 0)
            .map(|r| r.total_s)
            .sum();
        for r in &rows {
            let pct = if root_total > 0.0 {
                100.0 * r.total_s / root_total
            } else {
                0.0
            };
            let calls = if r.calls > 1 {
                format!(" ×{}", r.calls)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  {:indent$}{}{}  {} total ({:.1}%), {} max\n",
                "",
                r.name,
                calls,
                fmt_secs(r.total_s),
                pct,
                fmt_secs(r.max_s),
                indent = 2 * r.depth,
            ));
        }
    }

    // ---- Counters.
    if !snap.counters.is_empty() {
        out.push_str("\ncounters:\n");
        let width = snap.counters.keys().map(|k| k.len()).max().unwrap_or(0);
        for (k, v) in &snap.counters {
            out.push_str(&format!("  {k:width$}  {v}\n"));
        }
    }

    // ---- Histograms.
    if !snap.histograms.is_empty() {
        out.push_str("\nhistograms (count / mean / max):\n");
        let width = snap.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
        for (k, h) in &snap.histograms {
            out.push_str(&format!(
                "  {k:width$}  {} / {:.4} / {:.4}\n",
                h.count,
                h.mean(),
                h.max
            ));
        }
    }

    // ---- Quantile sketches.
    if !snap.quantiles.is_empty() {
        out.push_str("\nquantiles (count / p50 / p99 / max):\n");
        let width = snap.quantiles.keys().map(|k| k.len()).max().unwrap_or(0);
        for (k, s) in &snap.quantiles {
            out.push_str(&format!(
                "  {k:width$}  {} / {} / {} / {}\n",
                s.count,
                fmt_secs(s.quantile(0.5).unwrap_or(0.0)),
                fmt_secs(s.quantile(0.99).unwrap_or(0.0)),
                fmt_secs(s.max),
            ));
        }
    }

    // ---- Flight recorder.
    if !snap.flight.is_empty() {
        out.push_str(&format!(
            "\nflight recorder ({} entries, oldest first):\n",
            snap.flight.len()
        ));
        for e in &snap.flight {
            out.push_str(&format!(
                "  [#{:<5} v {:7.2}s] {}: {}\n",
                e.seq, e.v_at_s, e.kind, e.detail
            ));
        }
    }

    // ---- Events.
    if !snap.events.is_empty() {
        out.push_str("\nevents:\n");
        for e in &snap.events {
            out.push_str(&format!(
                "  [v {:7.2}s] {:?} {}: {}\n",
                e.v_at_s, e.level, e.target, e.message
            ));
        }
    }
    Ok(out)
}

/// Solver metrics every fully instrumented end-to-end session must have
/// recorded with a nonzero value — the CI gate behind `gm-trace --check`.
pub const REQUIRED_SOLVER_METRICS: &[&str] = &[
    "pf.newton.solves",
    "pf.newton.iterations",
    "sparse.lu.factorizations",
    "sparse.symbolic.build",
    "sparse.symbolic.reuse",
    // The AMD ordering is the default fill-reducing preorder: any
    // instrumented session that factors at all must have ordered
    // through it at least once.
    "sparse.amd.orders",
    "acopf.ipm.solves",
    "acopf.ipm.iterations",
    // One KKT plan (structure, slot program, LDLᵀ analysis) per problem
    // pattern per thread: zero here means the build lost its counter.
    // Its complement `acopf.kkt.structure_reuse` (`tests/work_counts.rs`
    // holds the sum to `acopf.ipm.solves`) and `acopf.kkt.structure_evict`
    // are honestly zero in a session whose thread never re-solves a
    // pattern — the serve soak's two IPM solves land on two workers — so
    // they are held by tests, not demanded here.
    "acopf.kkt.structure_builds",
    "ca.outages_evaluated",
    // Cascade screening must actually engage: every sweep classifies its
    // outages (`verified`) and solves suspects through the compensated
    // base factorization (`compensated`). `ca.screen.screened_out` is
    // deliberately absent — on unrated networks the screen honestly
    // verifies everything, so zero screened-out is a legal outcome.
    "ca.screen.verified",
    "ca.screen.compensated",
    // The batched multi-scenario engine: the scenario count and the
    // warm-start hit count must both be live — a batch that flat-starts
    // every scenario has silently lost its amortization.
    "batch.scenarios",
    "batch.warm_hits",
    "tool.invocations",
    "llm.turns",
    "coordinator.steps",
];

/// Serve-layer metrics every serve trace must additionally carry. An
/// entry ending in `.` is a prefix family: at least one quantile sketch
/// or counter under that prefix must be live. Exact entries are counters
/// that must be nonzero.
pub const REQUIRED_SERVE_METRICS: &[&str] = &[
    "serve.requests",
    "serve.latency.",
    "telemetry.flight.recorded",
];

/// True when the snapshot came from a serve run (any `serve.` counter
/// was touched) — such traces are held to [`REQUIRED_SERVE_METRICS`] on
/// top of the solver set.
pub fn is_serve_snapshot(snap: &TelemetrySnapshot) -> bool {
    snap.counters.keys().any(|k| k.starts_with("serve."))
}

/// Checks that every required metric is present and nonzero in the
/// snapshot embedded in `blob`, accumulating **all** failures rather than
/// stopping at the first: the full solver set, plus — for serve traces —
/// the serve latency/flight-recorder set. Returns the list of
/// missing/zero metric names (empty = pass); prefix families are
/// reported as `prefix.*`.
pub fn check_required_metrics(blob: &Value) -> Result<Vec<String>, String> {
    let snap = find_snapshot(blob).ok_or_else(|| "no telemetry snapshot found".to_string())?;
    let mut missing: Vec<String> = REQUIRED_SOLVER_METRICS
        .iter()
        .filter(|m| snap.counters.get(**m).copied().unwrap_or(0) == 0)
        .map(|m| m.to_string())
        .collect();
    if is_serve_snapshot(&snap) {
        for m in REQUIRED_SERVE_METRICS {
            if m.ends_with('.') {
                let live = snap
                    .quantiles
                    .iter()
                    .any(|(k, s)| k.starts_with(*m) && s.count > 0)
                    || snap
                        .counters
                        .iter()
                        .any(|(k, v)| k.starts_with(*m) && *v > 0);
                if !live {
                    missing.push(format!("{m}*"));
                }
            } else if snap.counters.get(*m).copied().unwrap_or(0) == 0 {
                missing.push(m.to_string());
            }
        }
    }
    Ok(missing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> Registry {
        let reg = Registry::new();
        let _g = reg.install();
        {
            let _a = crate::span!("coordinator.ask");
            for _ in 0..3 {
                let _b = crate::span!("pf.newton.solve", case = "case14");
            }
        }
        crate::counter_add("pf.newton.solves", 3);
        crate::histogram_record("pf.newton.iterations_per_solve", 4.0);
        crate::event("quality", "Solution quality assessment: Overall=7.2/10");
        reg
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = populated();
        let blob = reg.export();
        let snap = find_snapshot(&blob).expect("snapshot present");
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.counters["pf.newton.solves"], 3);
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn embedded_snapshot_is_found() {
        let reg = populated();
        let mut wrapper = serde_json::json!({"active_case": "case14"});
        wrapper["telemetry"] = reg.export();
        let snap = find_snapshot(&wrapper).expect("embedded snapshot");
        assert_eq!(snap.counters["pf.newton.solves"], 3);
    }

    #[test]
    fn report_renders_tree_and_tables() {
        let reg = populated();
        let report = render_report(&reg.export()).expect("renders");
        assert!(report.contains("coordinator.ask"));
        assert!(report.contains("pf.newton.solve ×3"));
        assert!(report.contains("pf.newton.solves"));
        assert!(report.contains("Overall=7.2/10"));
    }

    #[test]
    fn check_reports_missing_metrics() {
        let reg = populated();
        let missing = check_required_metrics(&reg.export()).expect("snapshot");
        assert!(missing.contains(&"acopf.ipm.solves".to_string()));
        assert!(!missing.contains(&"pf.newton.solves".to_string()));
    }

    #[test]
    fn render_rejects_foreign_json() {
        assert!(render_report(&serde_json::json!({"x": 1})).is_err());
    }

    #[test]
    fn pre_slo_exports_still_deserialize() {
        // A snapshot serialized before the quantile/flight fields existed.
        let legacy = serde_json::json!({
            "wall_elapsed_s": 1.0,
            "virtual_now_s": 0.0,
            "counters": {"pf.newton.solves": 3},
            "histograms": {},
            "events": [],
            "spans": [],
        });
        let snap = find_snapshot(&legacy).expect("legacy snapshot parses");
        assert!(snap.quantiles.is_empty());
        assert!(snap.flight.is_empty());
    }

    #[test]
    fn serve_traces_demand_serve_metrics_too() {
        let reg = populated();
        // Mark it as a serve trace, but record none of the serve set.
        reg.add("serve.busy_rejections", 1);
        let missing = check_required_metrics(&reg.export()).expect("snapshot");
        assert!(missing.contains(&"serve.requests".to_string()));
        assert!(missing.contains(&"serve.latency.*".to_string()));
        assert!(missing.contains(&"telemetry.flight.recorded".to_string()));
        // Solver misses are reported in the same run, not short-circuited.
        assert!(missing.contains(&"acopf.ipm.solves".to_string()));

        // Satisfy the serve set: demands clear.
        reg.add("serve.requests", 4);
        reg.record_quantile("serve.latency.pf.total_s", 0.01);
        reg.flight_record("serve.pickup", "session=0".into());
        let missing = check_required_metrics(&reg.export()).expect("snapshot");
        assert!(!missing.iter().any(|m| m.starts_with("serve.")));
        assert!(!missing.contains(&"telemetry.flight.recorded".to_string()));
    }

    #[test]
    fn non_serve_traces_skip_the_serve_set() {
        let reg = populated();
        let missing = check_required_metrics(&reg.export()).expect("snapshot");
        assert!(!missing.iter().any(|m| m.starts_with("serve.")));
    }

    /// A trace export written while a sketch's resolution was a field:
    /// every sketch carried `"sub": 32`, the only value ever written.
    const EXPORT_WITH_SUB: &str = r#"{"counters":{"pf.newton.solves":2},"events":[],"flight":[],"histograms":{},"quantiles":{"serve.exec_s":{"count":2,"counts":[1,1],"max":0.000000001,"min":0.0000000005,"sub":32,"sum":0.0000000015000000000000002}},"spans":[{"attrs":{"agent":"x"},"dur_s":0.000000157,"id":0,"name":"agent.turn","parent":null,"start_s":0.000027902,"v_end_s":0.0,"v_start_s":0.0}],"virtual_now_s":0.0,"wall_elapsed_s":0.000135637}"#;

    #[test]
    fn exports_with_a_sketch_resolution_field_still_load() {
        let blob: Value = serde_json::from_str(EXPORT_WITH_SUB).unwrap();
        let snap = find_snapshot(&blob).expect("the old export parses");
        let old = &snap.quantiles["serve.exec_s"];
        // The same two samples recorded today land in the same buckets.
        let mut fresh = QuantileSketch::default();
        fresh.record(5e-10);
        fresh.record(1e-9);
        assert_eq!((old.count, &old.counts), (fresh.count, &fresh.counts));
        assert_eq!(old.quantile(0.99), fresh.quantile(0.99));
        let report = render_report(&blob).expect("renders");
        assert!(report.contains("serve.exec_s  2 / "), "{report}");
        assert!(report.contains("agent.turn"), "{report}");
    }

    #[test]
    fn report_renders_quantiles_and_flight() {
        let reg = populated();
        reg.record_quantile("serve.latency.pf.total_s", 0.025);
        reg.flight_record("cache.miss", "kind=pf".into());
        let report = render_report(&reg.export()).expect("renders");
        assert!(report.contains("serve.latency.pf.total_s"));
        assert!(report.contains("flight recorder (1 entries"));
        assert!(report.contains("cache.miss: kind=pf"));
    }
}
