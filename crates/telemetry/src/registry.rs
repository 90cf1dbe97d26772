//! The metrics registry and the scoped collector.
//!
//! A [`Registry`] is a cheap-to-clone handle to a shared store of
//! counters, fixed-bucket histograms, events, and a span tree. Nothing is
//! global: a registry becomes the *installed collector* for the current
//! thread via [`Registry::install`], and every instrumentation site
//! (`counter_add`, `histogram_record`, [`crate::span!`]) records into the
//! innermost installed collector — or does (almost) nothing when none is
//! installed, which keeps the uninstrumented hot-path cost to a
//! thread-local read.
//!
//! Fan-out across threads (the rayon N-1 sweep) is explicit: capture
//! [`current`]/[`current_span`] before the fan-out and re-install inside
//! each closure with [`Registry::install_scoped`], so worker-side metrics
//! land in the same registry and spans nest under the sweep span.

use crate::clock::VirtualClock;
use crate::flight::{FlightEvent, FlightRing};
use crate::quantile::QuantileSketch;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Severity of a telemetry event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventLevel {
    /// Routine diagnostic (routing decisions, cache outcomes).
    Info,
    /// Suspicious condition worth surfacing in reports.
    Warn,
}

/// One structured event (the telemetry replacement for ad-hoc
/// `println!` in library code).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Event {
    /// Wall seconds since the registry was created.
    pub at_s: f64,
    /// Virtual-clock seconds at emission (0 when no clock is attached).
    pub v_at_s: f64,
    /// Severity.
    pub level: EventLevel,
    /// Component that emitted the event ("coordinator", "quality", …).
    pub target: String,
    /// Message text.
    pub message: String,
}

/// Fixed-bucket histogram: `bounds` are the upper edges of the first
/// `bounds.len()` buckets; one overflow bucket catches the rest.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    /// Upper bucket edges, ascending. A sample `x` lands in the first
    /// bucket with `x <= bound`, or the overflow bucket.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

impl Histogram {
    /// Empty histogram with the given ascending upper bucket edges.
    pub fn new(bounds: &[f64]) -> Histogram {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| x <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another histogram into this one. The bucket layouts must
    /// match; on mismatch the other histogram's samples are folded in by
    /// bucket upper edge (an approximation), keeping count/sum/min/max
    /// exact either way.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        if self.bounds == other.bounds {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        } else {
            for (i, &c) in other.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let representative = other.bounds.get(i).copied().unwrap_or(other.max);
                let idx = self
                    .bounds
                    .iter()
                    .position(|&b| representative <= b)
                    .unwrap_or(self.bounds.len());
                self.counts[idx] += c;
            }
        }
    }
}

/// One node of the span tree. Durations are wall time; `v_*` timestamps
/// come from the attached [`VirtualClock`] (0 when none), so traces keep
/// the deterministic virtual timeline of the session.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpanNode {
    /// Index of this span in the trace.
    pub id: usize,
    /// Span name ("pf.newton.solve", "tool.run_contingency_analysis"…).
    pub name: String,
    /// Key/value attributes.
    pub attrs: BTreeMap<String, String>,
    /// Parent span id (None for roots).
    pub parent: Option<usize>,
    /// Wall seconds since the registry was created when the span opened.
    pub start_s: f64,
    /// Wall duration (None while still open).
    pub dur_s: Option<f64>,
    /// Virtual time at open.
    pub v_start_s: f64,
    /// Virtual time at close.
    pub v_end_s: f64,
}

/// Hard cap on buffered events (overflow is counted, not stored).
const MAX_EVENTS: usize = 4096;
/// Hard cap on recorded spans (overflow is counted, not stored).
const MAX_SPANS: usize = 65_536;

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    quantiles: Mutex<BTreeMap<String, QuantileSketch>>,
    flight: Mutex<FlightRing>,
    events: Mutex<Vec<Event>>,
    spans: Mutex<Vec<SpanNode>>,
    clock: Mutex<Option<VirtualClock>>,
}

/// Cheap-to-clone handle to a telemetry store.
#[derive(Clone)]
pub struct Registry {
    start: Instant,
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counters = self.inner.counters.lock().len();
        let spans = self.inner.spans.lock().len();
        write!(f, "Registry({counters} counters, {spans} spans)")
    }
}

struct Ctx {
    reg: Registry,
    parent: Option<usize>,
}

thread_local! {
    static STACK: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
}

/// Pops the collector installed by [`Registry::install`] when dropped.
pub struct InstallGuard {
    _private: (),
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Default bucket edges for duration-like histograms (seconds).
pub const TIME_BOUNDS: &[f64] = &[
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
];
/// Default bucket edges for iteration-count-like histograms.
pub const COUNT_BOUNDS: &[f64] = &[
    1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0, 50.0, 100.0, 200.0, 500.0,
];

/// Picks default bucket edges from the metric name: `*_s` metrics are
/// durations, everything else is a count-like quantity.
fn default_bounds(name: &str) -> &'static [f64] {
    if name.ends_with("_s") {
        TIME_BOUNDS
    } else {
        COUNT_BOUNDS
    }
}

impl Registry {
    /// Fresh empty registry.
    pub fn new() -> Registry {
        Registry {
            start: Instant::now(),
            inner: Arc::new(Inner::default()),
        }
    }

    /// Attaches the session's virtual clock; spans and events recorded
    /// from now on carry virtual timestamps from it.
    pub fn attach_clock(&self, clock: VirtualClock) {
        *self.inner.clock.lock() = Some(clock);
    }

    /// Current virtual time (0 without an attached clock).
    pub fn virtual_now(&self) -> f64 {
        self.inner.clock.lock().as_ref().map_or(0.0, |c| c.now())
    }

    /// Wall seconds since the registry was created.
    pub fn wall_elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Installs this registry as the innermost collector on the current
    /// thread until the guard drops.
    pub fn install(&self) -> InstallGuard {
        self.install_scoped(None)
    }

    /// Installs with an explicit ambient parent span — the fan-out hook:
    /// worker closures re-install the sweep thread's registry so their
    /// metrics join the same trace under `parent`.
    pub fn install_scoped(&self, parent: Option<usize>) -> InstallGuard {
        STACK.with(|s| {
            s.borrow_mut().push(Ctx {
                reg: self.clone(),
                parent,
            });
        });
        InstallGuard { _private: () }
    }

    /// Adds to a named counter. Only the first touch of a name
    /// allocates its key.
    pub fn add(&self, name: &str, delta: u64) {
        let mut counters = self.inner.counters.lock();
        match counters.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner.counters.lock().get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.counters.lock().clone()
    }

    /// Sum of every counter whose name starts with `prefix` (0 when none
    /// match). Counter families share a dotted prefix — e.g.
    /// `sum_prefix("recovery.")` totals all recovery-ladder rungs.
    pub fn sum_prefix(&self, prefix: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Snapshot of all histograms.
    pub fn histograms_snapshot(&self) -> BTreeMap<String, Histogram> {
        self.inner.histograms.lock().clone()
    }

    /// Records a sample into a named [`QuantileSketch`] (created at the
    /// default resolution on first record).
    pub fn record_quantile(&self, name: &str, x: f64) {
        self.inner
            .quantiles
            .lock()
            .entry(name.to_string())
            .or_default()
            .record(x);
    }

    /// Snapshot of all quantile sketches.
    pub fn quantiles_snapshot(&self) -> BTreeMap<String, QuantileSketch> {
        self.inner.quantiles.lock().clone()
    }

    /// Quantile estimate from a named sketch (`None` when the sketch is
    /// absent or empty).
    pub fn quantile_value(&self, name: &str, q: f64) -> Option<f64> {
        self.inner.quantiles.lock().get(name)?.quantile(q)
    }

    /// Records an entry into the flight-recorder ring, bumping
    /// `telemetry.flight.recorded` (and `telemetry.flight.evicted` when
    /// the ring wrapped). Entries are stamped with the *deterministic*
    /// virtual time (simulated latency only, excluding measured real
    /// compute — see [`VirtualClock::deterministic_now`]): dumps must be
    /// byte-reproducible across runs, and the real-compute timeline
    /// already lives in the span tree and latency sketches.
    pub fn flight_record(&self, kind: &str, detail: String) {
        let evicted = {
            let v_now = self
                .inner
                .clock
                .lock()
                .as_ref()
                .map_or(0.0, VirtualClock::deterministic_now);
            self.inner.flight.lock().push(v_now, kind, detail)
        };
        self.add("telemetry.flight.recorded", 1);
        if evicted {
            self.add("telemetry.flight.evicted", 1);
        }
    }

    /// Resizes the flight-recorder ring (evicting oldest entries when
    /// shrinking).
    pub fn set_flight_capacity(&self, capacity: usize) {
        self.inner.flight.lock().set_capacity(capacity);
    }

    /// Snapshot of the flight-recorder ring, oldest first.
    pub fn flight_snapshot(&self) -> Vec<FlightEvent> {
        self.inner.flight.lock().snapshot()
    }

    /// Appends another registry's flight entries into this ring with
    /// fresh sequence numbers. Call in a deterministic order (the serve
    /// layer merges session rings in slot-id order) so merged dumps are
    /// reproducible.
    pub fn merge_flight(&self, other: &Registry) {
        let theirs = other.flight_snapshot();
        self.inner.flight.lock().absorb(&theirs);
    }

    /// Pre-registers a histogram with explicit bucket edges (otherwise
    /// the first `record` picks defaults by name).
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        self.inner
            .histograms
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records a sample into a named histogram. Only the first sample
    /// of a name allocates its key.
    pub fn record(&self, name: &str, x: f64) {
        let mut histograms = self.inner.histograms.lock();
        match histograms.get_mut(name) {
            Some(histogram) => histogram.record(x),
            None => {
                let mut histogram = Histogram::new(default_bounds(name));
                histogram.record(x);
                histograms.insert(name.to_string(), histogram);
            }
        }
    }

    /// Emits a structured event.
    pub fn emit(&self, level: EventLevel, target: &str, message: String) {
        let mut events = self.inner.events.lock();
        if events.len() >= MAX_EVENTS {
            drop(events);
            self.add("telemetry.events_dropped", 1);
            return;
        }
        events.push(Event {
            at_s: self.wall_elapsed(),
            v_at_s: self.virtual_now(),
            level,
            target: target.to_string(),
            message,
        });
    }

    /// Snapshot of buffered events.
    pub fn events(&self) -> Vec<Event> {
        self.inner.events.lock().clone()
    }

    /// Snapshot of the span tree (flat, parent-linked).
    pub fn spans(&self) -> Vec<SpanNode> {
        self.inner.spans.lock().clone()
    }

    /// Opens a span; returns its id, or None when the trace is full.
    pub(crate) fn open_span(
        &self,
        name: String,
        attrs: BTreeMap<String, String>,
        parent: Option<usize>,
    ) -> Option<usize> {
        let mut spans = self.inner.spans.lock();
        if spans.len() >= MAX_SPANS {
            drop(spans);
            self.add("telemetry.spans_dropped", 1);
            return None;
        }
        let id = spans.len();
        let v_now = self.virtual_now();
        spans.push(SpanNode {
            id,
            name,
            attrs,
            parent,
            start_s: self.wall_elapsed(),
            dur_s: None,
            v_start_s: v_now,
            v_end_s: v_now,
        });
        Some(id)
    }

    /// Closes a span opened by [`Registry::open_span`].
    pub(crate) fn close_span(&self, id: usize, dur_s: f64) {
        let v_now = self.virtual_now();
        if let Some(node) = self.inner.spans.lock().get_mut(id) {
            node.dur_s = Some(dur_s);
            node.v_end_s = v_now;
        }
    }

    /// Merges another registry's counters, histograms, and quantile
    /// sketches into this one (events, spans, and the flight ring are
    /// not merged; flight rings merge explicitly via
    /// [`Registry::merge_flight`]).
    pub fn merge_metrics(&self, other: &Registry) {
        {
            let mut mine = self.inner.counters.lock();
            for (k, v) in other.inner.counters.lock().iter() {
                *mine.entry(k.clone()).or_insert(0) += v;
            }
        }
        {
            let mut mine = self.inner.histograms.lock();
            for (k, h) in other.inner.histograms.lock().iter() {
                mine.entry(k.clone())
                    .or_insert_with(|| Histogram::new(&h.bounds))
                    .merge(h);
            }
        }
        let mut mine = self.inner.quantiles.lock();
        for (k, s) in other.inner.quantiles.lock().iter() {
            mine.entry(k.clone())
                .or_insert_with(|| QuantileSketch::new(s.sub))
                .merge(s);
        }
    }

    /// Clears all recorded data (bucket registrations are kept).
    pub fn reset(&self) {
        self.inner.counters.lock().clear();
        for h in self.inner.histograms.lock().values_mut() {
            let bounds = h.bounds.clone();
            *h = Histogram::new(&bounds);
        }
        for s in self.inner.quantiles.lock().values_mut() {
            *s = QuantileSketch::new(s.sub);
        }
        self.inner.flight.lock().clear();
        self.inner.events.lock().clear();
        self.inner.spans.lock().clear();
    }
}

/// The innermost installed collector on this thread, if any.
pub fn current() -> Option<Registry> {
    STACK.with(|s| s.borrow().last().map(|c| c.reg.clone()))
}

/// The current ambient span id on this thread, if any.
pub fn current_span() -> Option<usize> {
    STACK.with(|s| s.borrow().last().and_then(|c| c.parent))
}

pub(crate) fn with_current<R>(f: impl FnOnce(&Registry, Option<usize>) -> R) -> Option<R> {
    STACK.with(|s| {
        let stack = s.borrow();
        let ctx = stack.last()?;
        Some(f(&ctx.reg, ctx.parent))
    })
}

pub(crate) fn set_current_parent(parent: Option<usize>) {
    STACK.with(|s| {
        if let Some(ctx) = s.borrow_mut().last_mut() {
            ctx.parent = parent;
        }
    });
}

/// Adds to a counter in the installed collector (no-op otherwise).
pub fn counter_add(name: &str, delta: u64) {
    with_current(|reg, _| reg.add(name, delta));
}

/// Records a histogram sample in the installed collector (no-op
/// otherwise).
pub fn histogram_record(name: &str, x: f64) {
    with_current(|reg, _| reg.record(name, x));
}

/// Records a quantile-sketch sample in the installed collector (no-op
/// otherwise).
pub fn quantile_record(name: &str, x: f64) {
    with_current(|reg, _| reg.record_quantile(name, x));
}

/// Records a flight-recorder entry in the installed collector (no-op
/// otherwise).
pub fn flight_event(kind: &str, detail: impl Into<String>) {
    let detail = detail.into();
    with_current(|reg, _| reg.flight_record(kind, detail));
}

/// Emits an info event through the installed collector (no-op
/// otherwise). Library code routes its would-be `println!` diagnostics
/// here; stdout stays clean.
pub fn event(target: &str, message: impl Into<String>) {
    let message = message.into();
    with_current(|reg, _| reg.emit(EventLevel::Info, target, message));
}

/// Emits a warning event through the installed collector.
pub fn warn_event(target: &str, message: impl Into<String>) {
    let message = message.into();
    with_current(|reg, _| reg.emit(EventLevel::Warn, target, message));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_registry() {
        let a = Registry::new();
        let b = Registry::new();
        {
            let _g = a.install();
            counter_add("x", 2);
            counter_add("x", 3);
        }
        {
            let _g = b.install();
            counter_add("x", 7);
        }
        assert_eq!(a.counter_value("x"), 5);
        assert_eq!(b.counter_value("x"), 7);
        // Nothing installed: recording is a no-op, not a panic.
        counter_add("x", 100);
        assert_eq!(a.counter_value("x"), 5);
    }

    #[test]
    fn sum_prefix_totals_a_counter_family() {
        let reg = Registry::new();
        reg.add("recovery.attempts", 2);
        reg.add("recovery.newton_flat", 1);
        reg.add("recovery.dc", 1);
        reg.add("recover", 50); // shorter name, not in the family
        reg.add("recoveryx", 50); // no dot separator, not in the family
        reg.add("serve.timeouts", 9);
        assert_eq!(reg.sum_prefix("recovery."), 4);
        assert_eq!(reg.sum_prefix("absent."), 0);
    }

    #[test]
    fn nested_installs_shadow() {
        let outer = Registry::new();
        let inner = Registry::new();
        let _g1 = outer.install();
        counter_add("n", 1);
        {
            let _g2 = inner.install();
            counter_add("n", 1);
        }
        counter_add("n", 1);
        assert_eq!(outer.counter_value("n"), 2);
        assert_eq!(inner.counter_value("n"), 1);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(&[1.0, 5.0, 10.0]);
        for x in [0.5, 1.0, 2.0, 7.0, 11.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.counts, vec![2, 1, 1, 2]);
        assert_eq!(h.count, 6);
        assert!((h.min - 0.5).abs() < 1e-12);
        assert!((h.max - 100.0).abs() < 1e-12);
        assert!((h.sum - 121.5).abs() < 1e-12);
        h.record(f64::NAN); // ignored
        assert_eq!(h.count, 6);
    }

    #[test]
    fn histogram_merge_same_bounds() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let mut b = Histogram::new(&[1.0, 2.0]);
        a.record(0.5);
        b.record(1.5);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.counts, vec![1, 1, 1]);
        assert_eq!(a.count, 3);
        assert!((a.max - 9.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_mismatched_bounds_preserves_totals() {
        let mut a = Histogram::new(&[10.0]);
        let mut b = Histogram::new(&[1.0, 2.0]);
        b.record(0.5);
        b.record(1.5);
        b.record(50.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert!((a.sum - 52.0).abs() < 1e-12);
        assert_eq!(a.counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn events_capped() {
        let r = Registry::new();
        let _g = r.install();
        for i in 0..(MAX_EVENTS + 10) {
            event("t", format!("e{i}"));
        }
        assert_eq!(r.events().len(), MAX_EVENTS);
        assert_eq!(r.counter_value("telemetry.events_dropped"), 10);
    }

    #[test]
    fn merge_metrics_combines_registries() {
        let a = Registry::new();
        let b = Registry::new();
        a.add("c", 1);
        b.add("c", 2);
        a.record("h", 1.5);
        b.record("h", 2.5);
        a.record_quantile("q_s", 0.1);
        b.record_quantile("q_s", 0.2);
        a.merge_metrics(&b);
        assert_eq!(a.counter_value("c"), 3);
        assert_eq!(a.snapshot().histograms["h"].count, 2);
        assert_eq!(a.snapshot().quantiles["q_s"].count, 2);
    }

    #[test]
    fn quantile_record_lands_in_installed_collector() {
        let r = Registry::new();
        {
            let _g = r.install();
            quantile_record("serve.latency.test.total_s", 0.050);
            quantile_record("serve.latency.test.total_s", 0.150);
        }
        // Nothing installed: no-op.
        quantile_record("serve.latency.test.total_s", 9.0);
        let p100 = r.quantile_value("serve.latency.test.total_s", 1.0).unwrap();
        assert!((p100 - 0.150).abs() <= 0.150 * 0.022);
        assert!(r.quantile_value("absent", 0.5).is_none());
    }

    #[test]
    fn flight_events_count_recordings_and_evictions() {
        let r = Registry::new();
        r.set_flight_capacity(2);
        let _g = r.install();
        flight_event("serve.enqueue", "session=0 seq=0");
        flight_event("serve.pickup", "session=0 seq=0");
        flight_event("cache.miss", "kind=pf");
        let snap = r.flight_snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, "serve.pickup");
        assert_eq!(r.counter_value("telemetry.flight.recorded"), 3);
        assert_eq!(r.counter_value("telemetry.flight.evicted"), 1);
    }

    #[test]
    fn merge_flight_appends_in_call_order() {
        let server = Registry::new();
        let s1 = Registry::new();
        let s2 = Registry::new();
        server.flight_record("serve.start", "workers=2".into());
        s1.flight_record("serve.pickup", "session=1".into());
        s2.flight_record("serve.pickup", "session=2".into());
        server.merge_flight(&s1);
        server.merge_flight(&s2);
        let snap = server.flight_snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[1].detail, "session=1");
        assert_eq!(snap[2].detail, "session=2");
        assert_eq!(
            snap.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
