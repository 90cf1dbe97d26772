//! # gm-telemetry
//!
//! Structured observability for the GridMind-RS stack: guard-style span
//! tracing, a counters/histograms metrics registry, structured events,
//! and a JSON trace exporter — with zero heavy dependencies (only the
//! vendored `serde`/`parking_lot` stand-ins).
//!
//! Design in one paragraph: nothing is global. A [`Registry`] is
//! installed as the *scoped collector* for the current thread
//! ([`Registry::install`]); instrumentation sites — [`counter_add`],
//! [`histogram_record`], [`event`], and the [`span!`] macro — record
//! into the innermost installed collector and are near-no-ops when none
//! is installed, so solver hot loops pay a thread-local read when
//! telemetry is off. Cross-thread fan-outs (the contingency sweeps)
//! re-install the parent registry with [`Registry::install_scoped`] so
//! worker metrics and spans join the same trace. The session's
//! [`VirtualClock`] lives here too, stamping spans and events with
//! virtual timestamps so traces replay the deterministic session
//! timeline. [`Registry::export`] emits the JSON consumed by the
//! `gm-trace` report binary and embedded in session saves.

pub mod clock;
pub mod export;
pub mod flight;
pub mod quantile;
pub mod registry;
pub mod slo;
pub mod span;

pub use clock::VirtualClock;
pub use export::{
    check_required_metrics, find_snapshot, is_serve_snapshot, render_report, TelemetrySnapshot,
    REQUIRED_SERVE_METRICS, REQUIRED_SOLVER_METRICS,
};
pub use flight::{FlightEvent, FlightRing, DEFAULT_FLIGHT_CAPACITY};
pub use quantile::QuantileSketch;
pub use registry::{
    counter_add, current, current_span, event, flight_event, histogram_record, quantile_record,
    warn_event, Event, EventLevel, Histogram, InstallGuard, Registry, SpanNode, COUNT_BOUNDS,
    TIME_BOUNDS,
};
pub use slo::{KindSlo, SloSpec, SloViolation, SLO_KEYS};
pub use span::SpanGuard;
