//! The benchmark's own span recorder. Spans are taken around the calls
//! the benchmark makes into the crates — never inside them — kept in
//! memory, and written out when the run ends.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Index of the op the span belongs to; spans of one op share it.
    pub op: Option<usize>,
    /// Crate the time is attributed to.
    pub layer: &'static str,
    pub name: String,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    pub end_s: f64,
}

/// In-memory recorder; a disabled one ignores every call, so the
/// untraced rounds pay one predictable branch per op.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Time the recorder itself spent re-executing solver calls.
    excluded_s: f64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            excluded_s: 0.0,
        }
    }

    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Marks `seconds` of the traced round as the recorder's own work
    /// (a direct re-execution), so the tracing overhead can leave it out.
    pub fn exclude(&mut self, seconds: f64) {
        self.excluded_s += seconds;
    }

    pub fn excluded_s(&self) -> f64 {
        self.excluded_s
    }

    /// Records a finished interval; returns its id (0 when disabled).
    pub fn record(
        &mut self,
        parent: Option<usize>,
        op: Option<usize>,
        layer: &'static str,
        name: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let start_s = start.duration_since(self.origin).as_secs_f64();
        let end_s = end.duration_since(self.origin).as_secs_f64();
        self.record_interval(parent, op, layer, name, start_s, end_s)
    }

    /// Records an interval known only by its length (a direct
    /// re-execution of a solver call, or the `queue_wait_s` / `exec_s` a
    /// `ServeResponse` reports), laid against the tail of its parent.
    pub fn record_child_tail(
        &mut self,
        parent: usize,
        layer: &'static str,
        name: &str,
        before_end_s: f64,
        duration_s: f64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let p = &self.spans[parent];
        let end_s = (p.end_s - before_end_s).max(p.start_s);
        let start_s = (end_s - duration_s).max(p.start_s);
        let op = p.op;
        self.record_interval(Some(parent), op, layer, name, start_s, end_s)
    }

    fn record_interval(
        &mut self,
        parent: Option<usize>,
        op: Option<usize>,
        layer: &'static str,
        name: &str,
        start_s: f64,
        end_s: f64,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name: name.to_string(),
            start_s,
            end_s,
        });
        id
    }

    /// Self time per layer: each span's duration minus what its child
    /// spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_s - s.start_s;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let own = (s.end_s - s.start_s - covered[s.id]).max(0.0);
            *out.entry(s.layer).or_insert(0.0) += own;
        }
        out
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "id": s.id,
                        "parent": s.parent,
                        "op": s.op,
                        "layer": s.layer,
                        "name": s.name,
                        "start": s.start_s,
                        "end": s.end_s,
                    })
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Tracer::off();
        let now = Instant::now();
        t.record(None, Some(0), "core", "ask", now, now);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        let a = Instant::now();
        let b = a + Duration::from_millis(10);
        let parent = t.record(None, Some(3), "core", "ask", a, b);
        t.record_child_tail(parent, "acopf", "solve_acopf", 0.0, 0.008);
        let by = t.self_time_by_layer();
        assert!((by["acopf"] - 0.008).abs() < 1e-9);
        assert!((by["core"] - 0.002).abs() < 1e-9);
        assert_eq!(t.spans()[1].parent, Some(parent));
        assert_eq!(t.spans()[1].op, Some(3));
        // A child longer than its parent is clipped, never negative.
        t.record_child_tail(parent, "acopf", "again", 0.0, 1.0);
        assert!(t.self_time_by_layer()["core"] >= 0.0);
    }
}
