//! Deterministic workload driver: N sessions × M scripted queries.
//!
//! Every session submits the *same* script, so the soak invariants are
//! sharp: each of the N×M requests must be answered exactly once (no
//! losses, no duplicates), and for every script position the N answers
//! must be **byte-identical** across sessions — the solvers are
//! deterministic, narration carries no wall-clock text, and a cache hit
//! recalls exactly what a fresh solve would have produced. Busy
//! rejections are retried with a bounded, deterministic backoff (the
//! retry budget and wait accounting run on a virtual clock — see
//! `Backoff`) rather than dropped, so backpressure shows up as
//! `busy_retries` instead of lost work.
//!
//! ## Chaos mode
//!
//! With a [`FaultInjector`] in [`WorkloadConfig::faults`] the same
//! driver becomes the chaos soak: faults fire at the solver and serve
//! layers, and the invariants adjust to what a fault-tolerant server
//! must still guarantee. Nothing may be lost or duplicated, no retry
//! budget may be exhausted, and degraded answers must be *visible*:
//! recovery-ladder activity (`recovery.*` counters) must surface as
//! caveated answer text (or an honest `TimedOut` when a deadline storm
//! withheld the answer), and a caveat may never appear without ladder
//! activity behind it. Cross-session byte-identity is **not** asserted
//! under chaos — an injected timeout drops a scripted mutation for one
//! session, legitimately forking its later answers.

use crate::server::{Server, ServerConfig};
use crate::ServeStatus;
use gm_agents::{ModelProfile, ServeRequest, ServeResponse};
use gm_faults::FaultInjector;
use std::collections::{BTreeMap, HashSet};
use std::time::{Duration, Instant};

/// Workload sizing.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Worker threads.
    pub workers: usize,
    /// Concurrent sessions, each running the full script.
    pub sessions: usize,
    /// Admission bound (requests admitted but unanswered).
    pub queue_capacity: usize,
    /// Solver-cache LRU capacity.
    pub cache_capacity: usize,
    /// The per-session query script.
    pub script: Vec<String>,
    /// Fault injector for chaos soaks; `None` runs the clean soak with
    /// the strict byte-identity invariants.
    pub faults: Option<FaultInjector>,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            workers: 8,
            sessions: 32,
            queue_capacity: 64,
            cache_capacity: 64,
            script: default_script(),
            faults: None,
        }
    }
}

/// The standard 5-query script: solve, N-1 sweep, batched load study,
/// mutate + re-solve, recall. One query per latency-accounting kind
/// (see `gridmind_core::classify_query_kind`) except `other`.
pub fn default_script() -> Vec<String> {
    vec![
        "solve case14".into(),
        "run the n-1 contingency analysis".into(),
        "sweep the load from 95% to 105% in 5 steps".into(),
        "set the load at bus 9 to 45 MW".into(),
        "what is the network status".into(),
    ]
}

/// Bounded deterministic retry schedule for `Busy` rejections.
///
/// The schedule is virtual-clock based: each retry advances a virtual
/// wait by `2^min(attempt,5)` ms (1, 2, 4, …, 32, 32, …), and the retry
/// *budget* is a fixed attempt count — never a wall-clock deadline — so
/// two runs of the same workload make identical retry decisions no
/// matter how slow the machine is. The physical sleep per step is
/// capped low; it only yields the CPU to the workers, it does not
/// gate correctness.
struct Backoff {
    attempts: u32,
    virtual_ms: u64,
}

impl Backoff {
    const MAX_ATTEMPTS: u32 = 40;
    const REAL_SLEEP_CAP_MS: u64 = 8;

    fn new() -> Backoff {
        Backoff {
            attempts: 0,
            virtual_ms: 0,
        }
    }

    /// The next physical sleep, or `None` when the budget is exhausted.
    fn next(&mut self) -> Option<Duration> {
        if self.attempts >= Backoff::MAX_ATTEMPTS {
            return None;
        }
        let step_ms = 1u64 << self.attempts.min(5);
        self.attempts += 1;
        self.virtual_ms += step_ms;
        Some(Duration::from_millis(
            step_ms.min(Backoff::REAL_SLEEP_CAP_MS),
        ))
    }
}

/// What the soak run observed, with the gating verdicts precomputed.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Requests the script implies (`sessions × script.len()`).
    pub expected: usize,
    /// Responses received.
    pub received: usize,
    /// Distinct `(session, seq)` pairs among them.
    pub distinct: usize,
    /// Responses that were not `Done`.
    pub failed: usize,
    /// `Busy` rejections that were retried into admission.
    pub busy_retries: u64,
    /// Requests abandoned after the bounded retry budget ran dry.
    pub exhausted_retries: usize,
    /// Total virtual backoff wait accumulated across all retries (ms).
    pub backoff_virtual_ms: u64,
    /// `Done` answers carrying the degraded-result caveat.
    pub degraded: usize,
    /// Sum of all `recovery.*` counters (ladder activity).
    pub recovery_total: u64,
    /// `serve.timeouts` counter (pickup + in-flight deadline misses).
    pub timeouts: u64,
    /// Script positions whose answers differed across sessions.
    pub divergent_positions: Vec<u64>,
    /// Final solver-cache statistics.
    pub cache: gridmind_core::SolverCacheStats,
    /// Sessions observed by the server.
    pub sessions_served: usize,
    /// Whether a fault injector was active for this run.
    pub chaos: bool,
    /// Wall-clock duration of the run.
    pub wall_s: f64,
    /// Full server telemetry export (trace artifact).
    pub telemetry: serde_json::Value,
}

impl WorkloadReport {
    /// True when every soak invariant held.
    ///
    /// Clean runs: nothing lost, duplicated, or failed; no retry budget
    /// exhausted; byte-identical answers per script position; the
    /// shared cache actually hit; and zero recovery/caveat activity —
    /// with no faults injected the ladder must never engage.
    ///
    /// Chaos runs: nothing lost, duplicated, or abandoned, and the
    /// degraded-answer contract holds — caveats appear iff the recovery
    /// ladder ran (allowing for answers withheld by injected deadline
    /// storms), and never without it.
    pub fn passed(&self) -> bool {
        let lossless = self.received == self.expected
            && self.distinct == self.expected
            && self.exhausted_retries == 0;
        if self.chaos {
            // A caveat with no ladder activity behind it is a lie …
            let no_phantom_caveats = self.degraded == 0 || self.recovery_total > 0;
            // … and ladder activity must be visible: as a caveated
            // answer, unless every degraded answer was withheld by a
            // deadline storm (then `TimedOut` is the honest surface).
            let no_silent_downgrades =
                self.recovery_total == 0 || self.degraded > 0 || self.timeouts > 0;
            lossless && no_phantom_caveats && no_silent_downgrades
        } else {
            lossless
                && self.failed == 0
                && self.divergent_positions.is_empty()
                && self.cache.hits > 0
                && self.degraded == 0
                && self.recovery_total == 0
        }
    }

    /// Per-query-kind latency summary extracted from the trace's
    /// `serve.latency.<kind>.total_s` quantile sketches: kind →
    /// `{count, p50_s, p99_s, max_s}`. Empty when the trace carries no
    /// latency sketches (it always should).
    pub fn latency_summary(&self) -> serde_json::Value {
        let Some(snap) = gm_telemetry::find_snapshot(&self.telemetry) else {
            return serde_json::json!({});
        };
        let mut kinds = serde_json::Map::new();
        for (name, s) in &snap.quantiles {
            let Some(kind) = name
                .strip_prefix("serve.latency.")
                .and_then(|r| r.strip_suffix(".total_s"))
            else {
                continue;
            };
            kinds.insert(
                kind.to_string(),
                serde_json::json!({
                    "count": s.count,
                    "p50_s": s.quantile(0.5).unwrap_or(0.0),
                    "p99_s": s.quantile(0.99).unwrap_or(0.0),
                    "max_s": s.max,
                }),
            );
        }
        serde_json::Value::Object(kinds)
    }

    /// JSON summary (the `gm-serve` binary's stdout contract).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "expected": self.expected,
            "received": self.received,
            "distinct": self.distinct,
            "failed": self.failed,
            "busy_retries": self.busy_retries,
            "exhausted_retries": self.exhausted_retries,
            "backoff_virtual_ms": self.backoff_virtual_ms,
            "degraded": self.degraded,
            "recovery_total": self.recovery_total,
            "timeouts": self.timeouts,
            "divergent_positions": self.divergent_positions,
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "inserts": self.cache.inserts,
            },
            "sessions_served": self.sessions_served,
            "chaos": self.chaos,
            "wall_s": self.wall_s,
            "latency": self.latency_summary(),
            "passed": self.passed(),
        })
    }
}

/// Runs the N×M soak against a fresh server and checks the invariants.
pub fn run(config: &WorkloadConfig) -> WorkloadReport {
    let t0 = Instant::now();
    let chaos = config.faults.is_some();
    let (server, rx) = Server::start(ServerConfig {
        workers: config.workers,
        queue_capacity: config.queue_capacity,
        cache_capacity: config.cache_capacity,
        profile: ModelProfile::by_name("GPT-5").expect("built-in profile"),
        faults: config.faults.clone(),
    });

    let expected = config.sessions * config.script.len();
    let mut submitted = 0usize;
    let mut busy_retries: u64 = 0;
    let mut exhausted_retries = 0usize;
    let mut backoff_virtual_ms: u64 = 0;
    // Interleave submissions round-robin over sessions so the queue sees
    // genuine cross-session contention, not one session at a time.
    for (qi, query) in config.script.iter().enumerate() {
        for s in 0..config.sessions {
            let mut req = ServeRequest {
                session: format!("session-{s:03}"),
                seq: qi as u64,
                query: query.clone(),
                deadline_ms: None,
            };
            let mut backoff = Backoff::new();
            loop {
                match server.submit(req) {
                    Ok(()) => {
                        submitted += 1;
                        break;
                    }
                    Err(rejected) => {
                        let Some(wait) = backoff.next() else {
                            exhausted_retries += 1;
                            break;
                        };
                        busy_retries += 1;
                        std::thread::sleep(wait);
                        req = ServeRequest {
                            session: rejected.session,
                            seq: rejected.seq,
                            query: query.clone(),
                            deadline_ms: None,
                        };
                    }
                }
            }
            backoff_virtual_ms += backoff.virtual_ms;
        }
    }

    let mut responses: Vec<ServeResponse> = Vec::with_capacity(expected);
    while responses.len() < submitted {
        match rx.recv_timeout(Duration::from_secs(600)) {
            Ok(r) => responses.push(r),
            Err(_) => break, // lost responses surface as received < expected
        }
    }

    let cache = server.cache_stats();
    let sessions_served = server.session_count();
    let registry = server.shutdown();
    let recovery_total = registry.sum_prefix("recovery.");
    let timeouts = registry.counter_value("serve.timeouts");
    let telemetry = registry.export();

    // Cross-session determinism: per script position, one canonical text.
    let mut by_position: BTreeMap<u64, HashSet<&str>> = BTreeMap::new();
    for r in responses.iter().filter(|r| r.status == ServeStatus::Done) {
        by_position
            .entry(r.seq)
            .or_default()
            .insert(r.text.as_str());
    }
    let divergent_positions: Vec<u64> = by_position
        .iter()
        .filter(|(_, texts)| texts.len() > 1)
        .map(|(seq, _)| *seq)
        .collect();
    let distinct = responses
        .iter()
        .map(|r| (r.session.as_str(), r.seq))
        .collect::<HashSet<_>>()
        .len();
    let degraded = responses
        .iter()
        .filter(|r| r.status == ServeStatus::Done && r.text.contains(gridmind_core::CAVEAT_PREFIX))
        .count();

    WorkloadReport {
        expected,
        received: responses.len(),
        distinct,
        failed: responses
            .iter()
            .filter(|r| r.status != ServeStatus::Done)
            .count(),
        busy_retries,
        exhausted_retries,
        backoff_virtual_ms,
        degraded,
        recovery_total,
        timeouts,
        divergent_positions,
        cache,
        sessions_served,
        chaos,
        wall_s: t0.elapsed().as_secs_f64(),
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_faults::{FaultKind, FaultRule};

    #[test]
    fn small_workload_is_deterministic_and_lossless() {
        let report = run(&WorkloadConfig {
            workers: 4,
            sessions: 6,
            queue_capacity: 8, // force some Busy retries too
            cache_capacity: 64,
            script: default_script(),
            faults: None,
        });
        assert!(report.passed(), "workload failed: {}", report.to_json());
        assert_eq!(report.sessions_served, 6);
        // Every script query lands in its own latency bucket, once per
        // session.
        let latency = report.latency_summary();
        for kind in ["pf", "contingency", "batch", "mutate", "status"] {
            assert_eq!(
                latency[kind]["count"], 6u64,
                "latency summary for {kind}: {latency}"
            );
        }
        assert!(
            report.cache.hits >= 5,
            "5 of 6 identical first queries should hit; stats: {:?}",
            report.cache
        );
    }

    #[test]
    fn scripted_faults_surface_as_caveats_and_retries_not_losses() {
        // Script: the very first base power flow diverges (one session's
        // first answer must carry the recovery caveat), and one admission
        // hits a synthetic queue saturation (must be retried, not lost).
        let inj = FaultInjector::scripted(vec![
            FaultRule::new("pf.base", FaultKind::NewtonDiverge, 0, 1),
            FaultRule::new("serve.queue", FaultKind::QueueSaturate, 2, 1),
        ]);
        let report = run(&WorkloadConfig {
            workers: 2,
            sessions: 4,
            queue_capacity: 16,
            cache_capacity: 64,
            script: default_script(),
            faults: Some(inj),
        });
        assert!(report.chaos);
        assert!(
            report.passed(),
            "chaos workload failed: {}",
            report.to_json()
        );
        assert!(report.degraded >= 1, "caveat missing: {}", report.to_json());
        assert!(report.recovery_total >= 1);
        assert!(report.busy_retries >= 1, "saturation must be retried");
        assert_eq!(report.exhausted_retries, 0);
    }

    #[test]
    fn seeded_chaos_soak_holds_the_invariants() {
        let report = run(&WorkloadConfig {
            workers: 4,
            sessions: 6,
            queue_capacity: 24,
            cache_capacity: 64,
            script: default_script(),
            faults: Some(FaultInjector::chaos(7, 150)),
        });
        assert!(report.passed(), "chaos soak failed: {}", report.to_json());
        assert_eq!(report.received, report.expected, "no lost responses");
    }
}
