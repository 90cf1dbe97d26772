//! The run shape shared by every workload.
//!
//! Untraced (`--trace 0`, the end-to-end metrics): set-up, timed
//! several times → the seed-independent anchors and one untimed
//! reference round that doubles as warm-up → timed rounds replaying the
//! same op list until `--seconds` have passed (at least three), a cheap
//! set-up timed once more after each.
//!
//! The machine has two speeds about 1.5× apart and switches between them
//! every few seconds, so every timing is a minimum over its repetitions:
//! an op's latency over the rounds, a set-up over the set-ups.
//!
//! Traced (`--trace 1`, the per-layer metrics): set-up → reference
//! round → the isolated probes → one round with the span recorder on
//! and one with it off, for the tracing overhead.

use crate::probes::{self, Sample, Samples};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{best_of_rounds, percentile, plateau, quartiles, sorted};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{build, symbolic_reuse, OpResult, Round, Size, Workload};
use serde_json::{json, Value};
use std::time::Instant;

/// Set-ups timed per run, at least; `setup_s` is the fastest.
const SETUPS: usize = 3;
/// Cheap set-ups are repeated up to this often, within this much time,
/// before the rounds.
const MAX_SETUPS: usize = 25;
const CHEAP_SETUP_BUDGET_S: f64 = 1.0;
/// A set-up below this is also timed once after every round: a burst of
/// a second can sit entirely in a slow stretch, the whole run does not.
const CHEAP_SETUP_S: f64 = 0.25;
/// Reference rounds allowed while redrawing failed seeded inputs.
const MAX_REDRAW_ROUNDS: usize = 6;
/// Margin of the plateau rule, in rank share.
const PLATEAU_MARGIN: f64 = 0.05;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

pub struct Report {
    pub config: Config,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything else worth keeping: spreads, the mix check, failures.
    pub diagnostics: Value,
    /// Spans of the traced round.
    pub spans: Option<Value>,
}

impl Report {
    fn metrics_json(&self, with_samples: bool) -> Value {
        let metrics: serde_json::Map<String, Value> = self
            .metrics
            .iter()
            .map(|m| {
                let mut entry = json!({"value": m.value, "unit": m.unit});
                if with_samples {
                    entry["samples"] = json!(m.samples);
                }
                (m.name.to_string(), entry)
            })
            .collect();
        Value::Object(metrics)
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics_json(false),
        })
        .to_string()
    }

    /// The full record written under `benchmark/results/`.
    pub fn to_json(&self) -> Value {
        json!({
            "workload": self.config.workload,
            "seed": self.config.seed,
            "seconds": self.config.seconds,
            "trace": self.config.trace,
            "smoke": self.config.size == Size::Smoke,
            "cores": sys::cores(),
            "workers": sys::serve_workers(),
            "correct": self.correct,
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "metrics": self.metrics_json(true),
            "diagnostics": self.diagnostics,
        })
    }
}

/// What a round got wrong, measured against the reference digests.
pub fn round_failures(round: &Round, reference: &[u64]) -> Vec<(usize, String)> {
    round
        .ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| match &op.failure {
            Some(why) => Some((i, why.clone())),
            None if reference.get(i) != Some(&op.digest) => Some((
                i,
                "answer digest differs from the reference round".to_string(),
            )),
            None => None,
        })
        .collect()
}

/// The untimed reference round: every op must succeed, seeded inputs
/// whose solve fails are redrawn, and its answers become the digests
/// every later round must reproduce. Returns the round, how many inputs
/// were redrawn, and what still failed.
fn reference_round(w: &mut dyn Workload) -> (Round, usize, Vec<String>) {
    let (mut redrawn, mut attempts) = (0, 0);
    loop {
        let round = w.run_round(&mut Tracer::off());
        let failed: Vec<(usize, &String)> = round
            .ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| op.failure.as_ref().map(|why| (i, why)))
            .collect();
        let redraw = !failed.is_empty()
            && attempts < MAX_REDRAW_ROUNDS
            && failed.iter().all(|(i, _)| w.redraw(*i));
        if !redraw {
            let mut why: Vec<String> = failed
                .into_iter()
                .map(|(i, why)| format!("op {i}: {why}"))
                .collect();
            why.extend(round.problems.iter().cloned());
            return (round, redrawn, why);
        }
        redrawn += failed.len();
        attempts += 1;
    }
}

/// Failed ops over some labelled rounds (the first few described), and
/// what the rounds as a whole got wrong.
fn judge_rounds<'a>(
    rounds: impl Iterator<Item = (String, &'a Round)>,
    digests: &[u64],
) -> (u64, Vec<String>, Vec<String>) {
    let (mut failed, mut notes, mut problems) = (0u64, Vec::new(), Vec::new());
    for (label, round) in rounds {
        for (i, why) in round_failures(round, digests) {
            failed += 1;
            if notes.len() < 10 {
                notes.push(format!("{label} op {i}: {why}"));
            }
        }
        problems.extend(round.problems.iter().map(|p| format!("{label}: {p}")));
    }
    (failed, notes, problems)
}

fn least(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Seconds of the best round of a single client, part by part. Its ops
/// run one after another, so a round is its ops plus what lies between
/// them (fresh sessions, untimed edits); each op takes its best over the
/// rounds, as its latency does, and so does the rest. A whole round
/// seldom fits into one fast stretch of the machine; an op does.
fn best_parts(rounds: &[Round], of_op: fn(&OpResult) -> f64, of_round: fn(&Round) -> f64) -> f64 {
    let per_op: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| r.ops.iter().map(of_op).collect())
        .collect();
    let between: Vec<f64> = rounds
        .iter()
        .zip(&per_op)
        .map(|(r, ops)| of_round(r) - ops.iter().sum::<f64>())
        .collect();
    best_of_rounds(&per_op).iter().sum::<f64>() + least(&between)
}

fn ms(sorted_s: &[f64], q: f64) -> f64 {
    percentile(sorted_s, q) * 1e3
}

pub fn run(config: Config) -> Result<Report, String> {
    if config.trace {
        run_traced(config)
    } else {
        run_untraced(config)
    }
}

fn unknown(name: &str) -> String {
    format!(
        "unknown workload {name:?} (expected one of {:?})",
        crate::workloads::WORKLOADS
    )
}

fn run_untraced(config: Config) -> Result<Report, String> {
    // Set-up, several times over: a later change is held to it, so that
    // work moved out of the timed rounds still shows. A cheap one is
    // repeated until a second is spent.
    let full = config.size == Size::Full;
    let max_setups = if full { MAX_SETUPS } else { SETUPS };
    let mut setup_s = Vec::with_capacity(max_setups);
    let mut workload = None;
    while setup_s.len() < SETUPS
        || (setup_s.iter().sum::<f64>() < CHEAP_SETUP_BUDGET_S && setup_s.len() < max_setups)
    {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(
            build(&config.workload, config.seed, config.size)
                .ok_or_else(|| unknown(&config.workload))?,
        );
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUPS > 0");

    let t_ref = Instant::now();
    let mut problems = w.anchors();
    let (reference, redrawn, unrecovered) = reference_round(w.as_mut());
    problems.extend(unrecovered);
    let reference_s = t_ref.elapsed().as_secs_f64();
    let digests: Vec<u64> = reference.ops.iter().map(|o| o.digest).collect();
    let n_ops = digests.len();

    let min_rounds = if full { 3 } else { 2 };
    let mut rounds: Vec<Round> = Vec::new();
    let t_timed = Instant::now();
    let cheap_setup = full && crate::stats::median(&setup_s) < CHEAP_SETUP_S;
    while rounds.len() < min_rounds || t_timed.elapsed().as_secs_f64() < config.seconds {
        rounds.push(w.run_round(&mut Tracer::off()));
        if cheap_setup {
            let t0 = Instant::now();
            drop(build(&config.workload, config.seed, config.size));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
    }
    let timed_s = t_timed.elapsed().as_secs_f64();

    let (failed, failure_notes, round_problems) = judge_rounds(
        rounds
            .iter()
            .enumerate()
            .map(|(r, round)| (format!("round {r}"), round)),
        &digests,
    );
    problems.extend(round_problems);
    let attempted = (rounds.len() * n_ops) as u64;

    let latencies: Vec<Vec<f64>> = rounds
        .iter()
        .map(|r| r.ops.iter().map(|o| o.latency_s).collect())
        .collect();
    let best = best_of_rounds(&latencies);
    let best_sorted = sorted(&best);
    let pooled = sorted(&latencies.concat());
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu_s).collect();
    let (best_wall, best_cpu) = if w.single_client() {
        (
            best_parts(&rounds, |o| o.latency_s, |r| r.wall_s),
            best_parts(&rounds, |o| o.cpu_s, |r| r.cpu_s),
        )
    } else {
        (least(&walls), least(&cpus))
    };

    let classes = w.op_classes();
    let labelled: Vec<(f64, usize)> = best.iter().copied().zip(classes.iter().copied()).collect();
    let class_name = |c: Option<usize>| c.map(|c| w.classes()[c]);
    let (p50_class, p90_class) = (
        plateau(&labelled, 0.5, PLATEAU_MARGIN),
        plateau(&labelled, 0.9, PLATEAU_MARGIN),
    );
    let mix_ok = !w.single_client() || (p50_class.class.is_some() && p90_class.class.is_some());
    // Per class: its share of the ops and where its best-of-R latencies
    // lie — what the plateau rule is judged on.
    let class_table: serde_json::Map<String, Value> = w
        .classes()
        .iter()
        .enumerate()
        .map(|(c, name)| {
            let of_class = sorted(
                &labelled
                    .iter()
                    .filter(|s| s.1 == c)
                    .map(|s| s.0)
                    .collect::<Vec<_>>(),
            );
            let entry = json!({
                "share": of_class.len() as f64 / n_ops.max(1) as f64,
                "ops": of_class.len(),
                "min_ms": ms(&of_class, 0.0),
                "p50_ms": ms(&of_class, 0.5),
                "max_ms": ms(&of_class, 1.0),
            });
            (name.to_string(), entry)
        })
        .collect();

    let values = [
        least(&setup_s),
        ms(&best_sorted, 0.5),
        ms(&best_sorted, 0.9),
        n_ops as f64 / best_wall,
        best_cpu * 1e3 / n_ops.max(1) as f64,
        sys::peak_rss_mb(),
    ];
    let samples = [setup_s.len(), n_ops, n_ops, rounds.len(), rounds.len(), 1];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .zip(samples)
        .map(|((m, value), samples)| Metric {
            name: m.name,
            unit: m.unit,
            value,
            samples,
        })
        .collect();

    let (wq1, wmed, wq3) = quartiles(&walls);
    let diagnostics = json!({
        "info": w.info(),
        "oplist_digest": format!("{:016x}", w.oplist_digest()),
        "ops_per_round": n_ops,
        "rounds": rounds.len(),
        "timed_s": timed_s,
        "reference_s": reference_s,
        "setup_all_s": setup_s,
        "redrawn_inputs": redrawn,
        "round_wall_s": {"q1": wq1, "median": wmed, "q3": wq3, "all": walls},
        "round_cpu_s": cpus,
        "pooled_ms": {"p50": ms(&pooled, 0.5), "p90": ms(&pooled, 0.9), "samples": pooled.len()},
        "mix": {
            "enforced": w.single_client(),
            "ok": mix_ok,
            "classes": Value::Object(class_table),
            "p50_class": class_name(p50_class.class),
            "p90_class": class_name(p90_class.class),
            "p50_window": p50_class.classes_in_window.iter().map(|&c| w.classes()[c]).collect::<Vec<_>>(),
            "p90_window": p90_class.classes_in_window.iter().map(|&c| w.classes()[c]).collect::<Vec<_>>(),
        },
        "ops": w
            .op_labels()
            .into_iter()
            .zip(&labelled)
            .map(|(label, &(s, c))| json!([label, w.classes()[c], s * 1e3]))
            .collect::<Vec<_>>(),
        "problems": problems,
        "failures": failure_notes,
    });
    Ok(Report {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        diagnostics,
        spans: None,
        config,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The layer metrics that are read off the traced round of the
/// workload itself rather than off a probe.
fn from_round(traced: &Round, plain_wall_s: f64, tracer: &Tracer, out: &mut Samples) {
    let n = traced.ops.len();
    let c = |k: &str| traced.counts.get(k).copied().unwrap_or(0.0);
    let mut put = |name: &'static str, value: f64, samples: usize| {
        out.insert(name, Sample { value, samples });
    };
    put(
        "sparse.factorizations_per_op",
        ratio(c("sparse.lu.factorizations"), n as f64),
        n,
    );
    let (reuse_ratio, paths) = symbolic_reuse(&traced.counts);
    put("sparse.symbolic_reuse_ratio", reuse_ratio, paths);
    put(
        "powerflow.batch_warm_hit_ratio",
        ratio(c("batch.warm_hits"), c("batch.scenarios")),
        c("batch.scenarios") as usize,
    );
    put(
        "powerflow.newton_iters_per_op",
        ratio(c("pf.newton.iterations"), n as f64),
        n,
    );
    put(
        "acopf.ipm_iters_per_op",
        ratio(c("acopf.ipm.iterations"), n as f64),
        n,
    );
    let lookups = c("ca.cache.hits") + c("ca.cache.misses");
    put(
        "contingency.session_cache_hit_ratio",
        ratio(c("ca.cache.hits"), lookups),
        lookups as usize,
    );
    let turns = c("coordinator.requests");
    put(
        "agents.tokens_per_turn",
        ratio(c("llm.tokens"), turns),
        turns as usize,
    );
    put(
        "agents.tool_calls_per_turn",
        ratio(c("tool.invocations"), turns),
        turns as usize,
    );
    let solver_lookups = c("cache.hits") + c("cache.misses");
    put(
        "core.cache.hit_ratio",
        ratio(c("cache.hits"), solver_lookups),
        solver_lookups as usize,
    );
    put("core.cache.evictions", c("cache.evictions"), 1);
    put("core.recovery.descents", c("recovery.attempts"), 1);

    let series = |k: &str| sorted(traced.series.get(k).map_or(&[][..], Vec::as_slice));
    let (wait, exec, dispatch) = (
        series("queue_wait_s"),
        series("exec_s"),
        series("dispatch_s"),
    );
    put("serve.queue_wait_p50_ms", ms(&wait, 0.5), wait.len());
    put("serve.queue_wait_p90_ms", ms(&wait, 0.9), wait.len());
    put("serve.exec_p50_ms", ms(&exec, 0.5), exec.len());
    put(
        "serve.dispatch_overhead_us",
        percentile(&dispatch, 0.5) * 1e6,
        dispatch.len(),
    );
    put(
        "serve.worker_busy_ratio",
        ratio(exec.iter().sum::<f64>(), c("serve.workers") * traced.wall_s),
        exec.len(),
    );
    put("serve.busy_rejections", c("serve.busy_rejections"), 1);
    put(
        "serve.rss_kb_per_session",
        ratio(c("serve.rss_kb_delta"), c("serve.sessions")),
        c("serve.sessions") as usize,
    );

    let own = tracer.self_time_by_layer();
    let total: f64 = own.values().sum();
    for (name, layer) in [
        ("powerflow.time_share", "powerflow"),
        ("acopf.time_share", "acopf"),
        ("contingency.time_share", "contingency"),
        ("core.time_share", "core"),
        ("serve.time_share", "serve"),
    ] {
        put(
            name,
            ratio(own.get(layer).copied().unwrap_or(0.0), total),
            tracer.spans().len(),
        );
    }
    // Direct re-executions are the recorder's own doing, not the
    // program's; they are taken out before the two rounds are compared.
    put(
        "telemetry.trace_overhead_ratio",
        ratio(traced.wall_s - tracer.excluded_s(), plain_wall_s),
        1,
    );
}

fn run_traced(config: Config) -> Result<Report, String> {
    let mut w = build(&config.workload, config.seed, config.size)
        .ok_or_else(|| unknown(&config.workload))?;
    let mut problems = w.anchors();
    let (reference, redrawn, unrecovered) = reference_round(w.as_mut());
    problems.extend(unrecovered);
    let digests: Vec<u64> = reference.ops.iter().map(|o| o.digest).collect();

    let t_probes = Instant::now();
    let mut values = probes::run(config.size);
    let probes_s = t_probes.elapsed().as_secs_f64();

    let mut tracer = Tracer::on();
    let traced = w.run_round(&mut tracer);
    let plain = w.run_round(&mut Tracer::off());
    // The reference round ran untraced too; the faster of the two stands
    // for the round without the recorder.
    from_round(
        &traced,
        plain.wall_s.min(reference.wall_s),
        &tracer,
        &mut values,
    );

    let (failed, failure_notes, round_problems) = judge_rounds(
        [("traced round", &traced), ("plain round", &plain)]
            .into_iter()
            .map(|(label, round)| (label.to_string(), round)),
        &digests,
    );
    problems.extend(round_problems);
    let missing: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.name)
        .filter(|n| !values.contains_key(n))
        .collect();
    if !missing.is_empty() {
        problems.push(format!("probes produced no value for {missing:?}"));
    }
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let s = values.get(m.name).copied().unwrap_or(Sample {
                value: 0.0,
                samples: 0,
            });
            Metric {
                name: m.name,
                unit: m.unit,
                value: s.value,
                samples: s.samples,
            }
        })
        .collect();
    let own: serde_json::Map<String, Value> = tracer
        .self_time_by_layer()
        .into_iter()
        .map(|(layer, s)| (layer.to_string(), json!(s)))
        .collect();
    let diagnostics = json!({
        "info": w.info(),
        "ops_per_round": digests.len(),
        "redrawn_inputs": redrawn,
        "probes_s": probes_s,
        "traced_round_wall_s": traced.wall_s,
        "plain_round_wall_s": plain.wall_s,
        "self_time_s": Value::Object(own),
        "counts": traced.counts,
        "problems": problems,
        "failures": failure_notes,
    });
    Ok(Report {
        correct: problems.is_empty() && failed == 0,
        attempted: 2 * digests.len() as u64,
        failed,
        metrics,
        diagnostics,
        spans: Some(tracer.to_json()),
        config,
    })
}
