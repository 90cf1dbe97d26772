//! `compare A.json B.json`: per (workload, metric) delta of two suite
//! results against the bound `BENCHMARK.json` fixes, one row per
//! pairing, no combined score.
//!
//! Verdicts for an end-to-end metric, B measured against A:
//! `worse` (B's median is worse than A's by more than the bound),
//! `improved` (better by more than the bound), `unchanged`, or
//! `unresolved` (either side's own run-to-run spread is wider than the
//! bound, and the runs of one side do not all beat the other's).
//! Work counts are compared exactly.

use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
    /// An exact count that differs.
    Changed,
    /// Present on one side only.
    Missing,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
            Verdict::Missing => "missing",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Signed share of A by which B is worse (negative = better).
    pub worsening: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

/// Bounds by metric name, from the `end_to_end` list of `BENCHMARK.json`.
pub fn bounds_of(spec: &Value) -> BTreeMap<String, f64> {
    spec["end_to_end"]
        .as_array()
        .map(|list| {
            list.iter()
                .filter_map(|m| Some((m["name"].as_str()?.to_string(), m["bound"].as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

fn values_of(metric: &Value) -> Vec<f64> {
    metric["values"]
        .as_array()
        .map(|v| v.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Verdict for one end-to-end metric from the runs of each side.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (aq1, am, aq3) = quartiles(a);
    let (bq1, bm, bq3) = quartiles(b);
    if a.is_empty() || b.is_empty() || am == 0.0 {
        return (0.0, Verdict::Missing);
    }
    let worsening = match better {
        Better::Lower => (bm - am) / am,
        Better::Higher => (am - bm) / am,
    };
    let spread = ((aq3 - aq1) / am).abs().max(((bq3 - bq1) / bm).abs());
    let range = |v: &[f64]| {
        (
            v.iter().copied().fold(f64::INFINITY, f64::min),
            v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let b_always_better = match better {
        Better::Lower => b_hi < a_lo,
        Better::Higher => b_lo > a_hi,
    };
    let b_always_worse = match better {
        Better::Lower => b_lo > a_hi,
        Better::Higher => b_hi < a_lo,
    };
    let verdict = if spread > bound && !(b_always_better || b_always_worse) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worsening, verdict)
}

fn failed_share(w: &Value) -> f64 {
    let sum = |k: &str| -> f64 {
        w[k].as_array()
            .map_or(0.0, |v| v.iter().filter_map(Value::as_f64).sum())
    };
    let attempted = sum("ops_attempted");
    if attempted > 0.0 {
        sum("ops_failed") / attempted
    } else {
        0.0
    }
}

/// Compares two suite results. Every (workload, metric) present on
/// either side gets a row.
pub fn compare(a: &Value, b: &Value, bounds: &BTreeMap<String, f64>) -> Vec<Row> {
    let mut rows = Vec::new();
    let empty = BTreeMap::new();
    let (wa, wb) = (
        a["workloads"].as_object().unwrap_or(&empty),
        b["workloads"].as_object().unwrap_or(&empty),
    );
    let mut names: Vec<&String> = wa.keys().chain(wb.keys()).collect();
    names.sort();
    names.dedup();
    for w in names {
        let (Some(ra), Some(rb)) = (wa.get(w), wb.get(w)) else {
            rows.push(Row {
                workload: w.clone(),
                metric: "*".into(),
                a: 0.0,
                b: 0.0,
                worsening: 0.0,
                bound: None,
                verdict: Verdict::Missing,
            });
            continue;
        };
        for m in &END_TO_END {
            let (va, vb) = (
                values_of(&ra["end_to_end"][m.name]),
                values_of(&rb["end_to_end"][m.name]),
            );
            if va.is_empty() && vb.is_empty() {
                // Traced-only results carry no end-to-end values.
                continue;
            }
            let bound = bounds.get(m.name).copied();
            let (worsening, verdict) = judge(&va, &vb, m.better, bound.unwrap_or(0.25));
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.into(),
                a: crate::stats::median(&va),
                b: crate::stats::median(&vb),
                worsening,
                bound,
                verdict,
            });
        }
        // A failed op misses any latency target: a larger failed share
        // is a regression whatever the timings say.
        let (fa, fb) = (failed_share(ra), failed_share(rb));
        rows.push(Row {
            workload: w.clone(),
            metric: "ops_failed_share".into(),
            a: fa,
            b: fb,
            worsening: fb - fa,
            bound: Some(0.0),
            verdict: if fb > fa {
                Verdict::Worse
            } else if fb < fa {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            },
        });
        for m in &PER_LAYER {
            let (la, lb) = (&ra["per_layer"][m.name], &rb["per_layer"][m.name]);
            let (Some(x), Some(y)) = (la["value"].as_f64(), lb["value"].as_f64()) else {
                continue;
            };
            let worsening = if x == 0.0 {
                0.0
            } else {
                match m.better {
                    Better::Lower => (y - x) / x,
                    Better::Higher => (x - y) / x,
                }
            };
            // Layer timings carry no bound: they say where a change in
            // an end-to-end metric came from, they do not gate.
            let verdict = match (m.exact, x == y) {
                (true, false) => Verdict::Changed,
                _ => Verdict::Unchanged,
            };
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.into(),
                a: x,
                b: y,
                worsening,
                bound: None,
                verdict,
            });
        }
    }
    rows
}

/// Renders the rows; returns whether any is `worse` (or, with
/// `exact_counts`, any count `changed`).
pub fn render(rows: &[Row], exact_counts: bool) -> (String, bool) {
    let mut out = String::new();
    let mut tally: BTreeMap<&str, usize> = BTreeMap::new();
    for r in rows {
        *tally.entry(r.verdict.as_str()).or_insert(0) += 1;
        let gated =
            r.bound.is_some() || r.verdict == Verdict::Changed || r.verdict == Verdict::Missing;
        if !gated {
            continue;
        }
        out.push_str(&format!(
            "{:<15} {:<44} {:>14.6} -> {:>14.6}  {:>+8.2}%  bound {:>5}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worsening * 100.0,
            r.bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            r.verdict.as_str(),
        ));
    }
    out.push_str(&format!("summary: {tally:?}\n"));
    let failed = rows
        .iter()
        .any(|r| r.verdict == Verdict::Worse || (exact_counts && r.verdict == Verdict::Changed));
    (out, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_in_the_metric_direction() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(&a, &[10.2, 10.3, 10.1], Better::Lower, 0.1).1,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&a, &[12.0, 12.1, 11.9], Better::Lower, 0.1).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[8.0, 8.1, 7.9], Better::Lower, 0.1).1,
            Verdict::Improved
        );
        // Throughput: lower is worse.
        assert_eq!(
            judge(&a, &[8.0, 8.1, 7.9], Better::Higher, 0.1).1,
            Verdict::Worse
        );
        assert_eq!(judge(&a, &[], Better::Lower, 0.1).1, Verdict::Missing);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_one_side_always_wins() {
        let noisy = [10.0, 14.0, 7.0, 12.0, 8.0];
        assert_eq!(
            judge(&noisy, &[10.5, 13.0, 7.5, 12.5, 9.0], Better::Lower, 0.1).1,
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: resolved despite the spread.
        assert_eq!(
            judge(&noisy, &[5.0, 6.0, 4.0, 6.5, 5.5], Better::Lower, 0.1).1,
            Verdict::Improved
        );
    }

    #[test]
    fn counts_compare_exactly_and_failures_gate() {
        let side = |iters: f64, failed: f64| {
            serde_json::json!({"workloads": {"w": {
                "ops_attempted": [100.0], "ops_failed": [failed],
                "end_to_end": {"op_p50_ms": {"values": [5.0]}},
                "per_layer": {"acopf.ipm_iters.case14": {"value": iters}, "acopf.solve_ms.case14": {"value": iters}},
            }}})
        };
        let bounds = BTreeMap::from([("op_p50_ms".to_string(), 0.1)]);
        let rows = compare(&side(28.0, 0.0), &side(29.0, 2.0), &bounds);
        let verdict = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict("acopf.ipm_iters.case14"), Verdict::Changed);
        assert_eq!(verdict("acopf.solve_ms.case14"), Verdict::Unchanged);
        assert_eq!(verdict("op_p50_ms"), Verdict::Unchanged);
        assert_eq!(verdict("ops_failed_share"), Verdict::Worse);
        assert!(render(&rows, false).1);
        let same = compare(&side(28.0, 0.0), &side(28.0, 0.0), &bounds);
        assert!(!render(&same, true).1);
    }
}
