//! The five workloads. Each is a **closed loop**: the next op of a
//! client is issued only after the previous answer arrived, because the
//! users are engineers in a dialogue and study scripts calling the
//! crates — both wait for the reply. A round replays one seeded op list
//! from fresh sessions, so every round does the same work.

pub mod grid_scale;
pub mod opf_dialogue;
pub mod serve;
pub mod study_sweep;

use crate::rng::{fnv1a, fnv1a_extend};
use crate::sys;
use crate::trace::Tracer;
use gm_network::Network;
use gm_numeric::Complex;
use gm_powerflow::PfReport;
use gridmind_core::{CoordinatedResponse, GridMind, ModelProfile, CAVEAT_PREFIX};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in report order. Later issues cite them.
pub const WORKLOADS: [&str; 5] = [
    "opf_dialogue",
    "study_sweep",
    "grid_scale",
    "serve_shared",
    "serve_diverged",
];

/// `Smoke` shrinks every op list so all five workloads run in seconds
/// (self-tests); metrics from a smoke run mean nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// What one op produced.
#[derive(Clone, Debug)]
pub struct OpResult {
    /// Client-observed latency: call (or submit) to answer.
    pub latency_s: f64,
    /// Process CPU seconds over the same interval; single-client
    /// workloads only (served ops overlap, so theirs reads 0).
    pub cpu_s: f64,
    /// FNV-1a of the answer, compared against the reference round.
    pub digest: u64,
    /// Why the op counts as failed, if it does.
    pub failure: Option<String>,
}

/// Digest of an answer and, when it does not count, why.
pub type Answer = (u64, Option<String>);

impl OpResult {
    pub fn new(t: Timing, (digest, failure): Answer) -> OpResult {
        OpResult {
            latency_s: t.secs(),
            cpu_s: t.cpu_s,
            digest,
            failure,
        }
    }
}

/// One replay of the op list.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub ops: Vec<OpResult>,
    /// First op start to last answer.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Work counts read from the telemetry registries the program
    /// exposes; collected in traced rounds only.
    pub counts: BTreeMap<String, f64>,
    /// Per-op series a layer metric needs (serve: queue wait, exec,
    /// dispatch overhead); traced rounds only.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// What the round as a whole got wrong (serve: the cache regime the
    /// workload exists for did not hold, requests were refused).
    pub problems: Vec<String>,
}

/// A seeded op list plus whatever it needs to be replayed.
pub trait Workload {
    /// Op classes, ordered by expected latency.
    fn classes(&self) -> &'static [&'static str];
    /// Whether one client issues the ops one after another. Then p50 and
    /// p90 must each sit inside one class (queueing blurs classes in the
    /// serve workloads), and a round's wall is the sum of its parts.
    fn single_client(&self) -> bool;
    /// Class index of every op.
    fn op_classes(&self) -> Vec<usize>;
    /// What every op is, for the per-op table in the result record.
    fn op_labels(&self) -> Vec<String>;
    /// Digest of the generated inputs (determinism self-test).
    fn oplist_digest(&self) -> u64;
    /// Replays the op list once from fresh sessions / a fresh server.
    fn run_round(&mut self, tracer: &mut Tracer) -> Round;
    /// Replaces the seeded input behind a failed reference op with the
    /// next draw. Returns false when there is nothing to redraw.
    fn redraw(&mut self, failed_op: usize) -> bool;
    /// Seed-independent correctness anchors; returns what failed.
    fn anchors(&self) -> Vec<String>;
    /// Sizes recorded with the result (sessions, workers, …).
    fn info(&self) -> Value;
}

/// Builds a workload's inputs and engines from the seed. This is the
/// set-up the `setup_s` metric times.
pub fn build(name: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match name {
        "opf_dialogue" => Box::new(opf_dialogue::OpfDialogue::build(seed, size)),
        "study_sweep" => Box::new(study_sweep::StudySweep::build(seed, size)),
        "grid_scale" => Box::new(grid_scale::GridScale::build(seed, size)),
        "serve_shared" => Box::new(serve::Serve::build(serve::Mode::Shared, seed, size)),
        "serve_diverged" => Box::new(serve::Serve::build(serve::Mode::Diverged, seed, size)),
        _ => return None,
    })
}

/// The model profile every agent simulates. Its latency is charged to
/// the session's virtual clock and never slept.
pub fn profile() -> ModelProfile {
    ModelProfile::by_name("GPT-5").expect("built-in profile")
}

/// One utterance and what a correct turn looks like.
#[derive(Clone, Debug)]
pub struct Ask {
    pub class: usize,
    pub utterance: String,
    /// Tools the turn must invoke, in order. An utterance that routes
    /// elsewhere ("what happens if line 86 trips" runs the generator
    /// sweep) would silently mislabel its class.
    pub tools: &'static [&'static str],
    /// Text the answer must contain.
    pub text: &'static str,
}

impl Ask {
    pub fn digest(&self, h: u64) -> u64 {
        fnv1a_extend(h, self.utterance.as_bytes())
    }
}

/// Why an agent answer does not count, if it does not.
pub fn ask_failure(ask: &Ask, reply: &CoordinatedResponse) -> Option<String> {
    let calls: Vec<&str> = reply
        .responses
        .iter()
        .flat_map(|r| r.tool_calls.iter().map(|c| c.tool.as_str()))
        .collect();
    if let Some(err) = reply
        .responses
        .iter()
        .flat_map(|r| &r.tool_calls)
        .find(|c| !c.ok)
    {
        return Some(format!(
            "tool {} failed: {}",
            err.tool,
            err.error.as_deref().unwrap_or("?")
        ));
    }
    if reply.responses.iter().any(|r| !r.completed) {
        return Some("turn did not complete".into());
    }
    if calls != ask.tools {
        return Some(format!(
            "wrong tool: expected {:?}, ran {calls:?}",
            ask.tools
        ));
    }
    text_failure(ask.text, &reply.text)
}

/// The answer-text half of the check, shared with the serve workloads
/// (a `ServeResponse` carries text only).
pub fn text_failure(expected: &str, text: &str) -> Option<String> {
    if text.contains(CAVEAT_PREFIX) {
        return Some("unexpected degraded result".into());
    }
    if !text.contains(expected) {
        let head: String = text.chars().take(80).collect();
        return Some(format!("unexpected answer (wanted {expected:?}): {head}"));
    }
    None
}

/// Runs one utterance, timed from outside `GridMind::ask`; returns the
/// result and the interval.
pub fn timed_ask(gm: &mut GridMind, ask: &Ask) -> (OpResult, Timing) {
    let (reply, t) = timed(|| gm.ask(&ask.utterance));
    let answer = (fnv1a(reply.text.as_bytes()), ask_failure(ask, &reply));
    (OpResult::new(t, answer), t)
}

/// When a timed call ran and the process CPU seconds it used.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub start: Instant,
    pub end: Instant,
    pub cpu_s: f64,
}

impl Timing {
    pub fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// Times `f`, returning its value and the interval.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let cpu0 = sys::cpu_seconds();
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    let cpu_s = sys::cpu_seconds() - cpu0;
    (r, Timing { start, end, cpu_s })
}

/// Counters summed over the session registries of a traced round.
pub const SESSION_COUNTERS: [&str; 16] = [
    "sparse.lu.factorizations",
    "sparse.symbolic.build",
    "sparse.symbolic.reuse",
    "sparse.symbolic.fallback",
    "sparse.symbolic.direct",
    "batch.scenarios",
    "batch.warm_hits",
    "ca.cache.hits",
    "ca.cache.misses",
    "llm.tokens",
    "llm.turns",
    "tool.invocations",
    "recovery.attempts",
    "acopf.ipm.iterations",
    "pf.newton.iterations",
    "coordinator.requests",
];

/// Adds a registry's counters into `counts`.
pub fn add_counters(counts: &mut BTreeMap<String, f64>, reg: &gm_telemetry::Registry) {
    for name in SESSION_COUNTERS {
        *counts.entry(name.to_string()).or_insert(0.0) += reg.counter_value(name) as f64;
    }
}

/// Bus voltages of a solved case as complex numbers (a warm start).
pub fn voltages(rep: &PfReport) -> Vec<Complex> {
    rep.buses
        .iter()
        .map(|b| Complex::from_polar(b.vm_pu, b.va_deg.to_radians()))
        .collect()
}

/// Digest of a power-flow answer: every voltage, bit for bit.
pub fn pf_digest(rep: &PfReport) -> u64 {
    rep.buses.iter().fold(fnv1a(b"pf"), |h, b| {
        fnv1a_extend(
            fnv1a_extend(h, &b.vm_pu.to_bits().to_le_bytes()),
            &b.va_deg.to_bits().to_le_bytes(),
        )
    })
}

/// `(bus index, in-service MW)` of every bus with at least 2 MW of
/// load: where a seeded load edit may land.
pub fn loaded_buses(net: &Network) -> Vec<(usize, f64)> {
    let mut p = vec![0.0; net.n_bus()];
    for l in net.loads.iter().filter(|l| l.in_service) {
        p[l.bus] += l.p_mw;
    }
    p.into_iter()
        .enumerate()
        .filter(|&(_, p)| p >= 2.0)
        .collect()
}

/// Share of sparse factorizations that reused a symbolic analysis, and
/// how many factorizations that is over.
pub fn symbolic_reuse(counts: &BTreeMap<String, f64>) -> (f64, usize) {
    let c = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let reuse = c("sparse.symbolic.reuse");
    let all = reuse
        + c("sparse.symbolic.build")
        + c("sparse.symbolic.fallback")
        + c("sparse.symbolic.direct");
    (if all > 0.0 { reuse / all } else { 0.0 }, all as usize)
}
