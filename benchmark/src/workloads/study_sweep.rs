//! `study_sweep` — one planner working three networks (case57, case118,
//! case300): cascade N-1 sweeps after seeded load edits, repeats that
//! hit the session's `ContingencyCache`, specific and generator outages,
//! an N-2 preview and base power flows through the crates directly, and
//! `batch_study` sweeps and profiles. `powerflow`, `contingency` and the
//! `sparse` refactor/compensate paths dominate; no ACOPF runs at all, so
//! an ACOPF change must not move this workload.

use super::{
    add_counters, loaded_buses, pf_digest, profile, timed, timed_ask, voltages, Ask, OpResult,
    Round, Size, Workload,
};
use crate::rng::{fnv1a, fnv1a_extend, Rng};
use crate::sys;
use crate::trace::Tracer;
use gm_contingency::{
    evaluate_outage, n_minus_2_preview, run_gen_n1, run_n1, run_n1_cached, solve_base, CaOptions,
    ContingencyCache, Outage, SweepMode,
};
use gm_network::{cases, BranchKind, CaseId, Modification, Network};
use gm_powerflow::{run_batch, run_naive, PfOptions, ScenarioSet};
use gridmind_core::GridMind;
use serde_json::{json, Value};
use std::time::Instant;

const CLASSES: [&str; 4] = ["recall", "light", "mid", "heavy"];
const RECALL: usize = 0;
const LIGHT: usize = 1;
const MID: usize = 2;
const HEAVY: usize = 3;

const CASES: [CaseId; 3] = [CaseId::Ieee57, CaseId::Ieee118, CaseId::Ieee300];
/// AC-verified pairs the N-2 preview may spend.
const N2_MAX_VERIFY: usize = 16;
/// The load shape `batch_study` uses for "across the day" (its copy is
/// private; the direct re-execution only needs 24 like-sized factors).
const DAILY_FACTORS: [f64; 24] = [
    0.74, 0.71, 0.69, 0.68, 0.70, 0.75, 0.83, 0.91, 0.96, 0.99, 1.01, 1.02, 1.02, 1.01, 1.00, 0.99,
    1.00, 1.03, 1.06, 1.08, 1.05, 0.98, 0.89, 0.80,
];

#[derive(Clone, Debug)]
enum Kind {
    /// First sweep of a session names the case; later ones do not.
    N1 {
        case: Option<&'static str>,
        repeat: bool,
    },
    CaStatus,
    NetStatus,
    Specific {
        trafo: bool,
        index: usize,
    },
    GenN1,
    /// Direct `n_minus_2_preview` on the session's network.
    N2,
    /// Direct Newton solve on the session's network.
    BasePf,
    Sweep {
        from: u32,
        to: u32,
        steps: usize,
    },
    Daily,
    BusProfile {
        bus_id: u32,
        steps: usize,
    },
}

#[derive(Clone, Debug)]
struct Op {
    class: usize,
    kind: Kind,
}

struct Segment {
    session: usize,
    /// Untimed prep: makes the network distinct so the sweep that
    /// follows misses the session's `ContingencyCache`.
    edit: Option<Modification>,
    ops: Vec<Op>,
}

pub struct StudySweep {
    nets: Vec<Network>,
    segments: Vec<Segment>,
    redraw: Rng,
}

fn load_edit(rng: &mut Rng, net: &Network) -> Modification {
    let loaded = loaded_buses(net);
    let (bus, p) = loaded[rng.below(loaded.len())];
    Modification::SetBusLoad {
        bus_id: net.buses[bus].id,
        p_mw: p * rng.range(0.95, 1.05),
        q_mvar: None,
    }
}

/// The ops that ride along with the sweeps.
#[derive(Clone, Copy)]
enum Extra {
    Specific,
    Repeat,
    BasePf,
    Sweep24,
    Sweep96,
    /// case300 diverges far from nominal; its one sweep stays close.
    NarrowSweep24,
    Daily,
    BusProfile,
    GenN1,
    N2,
    CaStatus,
    NetStatus,
}

/// `(session, what, count in a full round, count in a smoke round)`.
const EXTRAS: [(usize, Extra, usize, usize); 24] = [
    (0, Extra::Specific, 6, 1),
    (1, Extra::Specific, 9, 1),
    (0, Extra::Repeat, 3, 1),
    (1, Extra::Repeat, 4, 1),
    (0, Extra::BasePf, 3, 1),
    (1, Extra::BasePf, 3, 1),
    (2, Extra::BasePf, 3, 0),
    (0, Extra::Sweep24, 5, 1),
    (1, Extra::Sweep24, 3, 1),
    (2, Extra::NarrowSweep24, 1, 0),
    (0, Extra::Sweep96, 4, 0),
    (1, Extra::Sweep96, 2, 0),
    (0, Extra::Daily, 3, 0),
    (1, Extra::Daily, 2, 0),
    (0, Extra::BusProfile, 3, 0),
    (1, Extra::BusProfile, 1, 0),
    (1, Extra::GenN1, 4, 1),
    (1, Extra::N2, 3, 1),
    (0, Extra::CaStatus, 3, 1),
    (1, Extra::CaStatus, 2, 0),
    (2, Extra::CaStatus, 2, 0),
    (0, Extra::NetStatus, 3, 0),
    (1, Extra::NetStatus, 3, 1),
    (2, Extra::NetStatus, 1, 0),
];

impl Extra {
    fn draw(self, rng: &mut Rng, net: &Network) -> Kind {
        let count = |kind| net.branches.iter().filter(|b| b.kind == kind).count();
        match self {
            Extra::Specific => {
                let trafos = count(BranchKind::Transformer);
                let trafo = trafos > 0 && rng.below(4) == 0;
                let n = if trafo {
                    trafos
                } else {
                    count(BranchKind::Line)
                };
                Kind::Specific {
                    trafo,
                    index: rng.below(n),
                }
            }
            Extra::Repeat => Kind::N1 {
                case: None,
                repeat: true,
            },
            Extra::BasePf => Kind::BasePf,
            Extra::Sweep24 | Extra::Sweep96 => Kind::Sweep {
                from: 88 + rng.below(7) as u32,
                to: 106 + rng.below(7) as u32,
                steps: if matches!(self, Extra::Sweep24) {
                    24
                } else {
                    96
                },
            },
            Extra::NarrowSweep24 => Kind::Sweep {
                from: 94 + rng.below(3) as u32,
                to: 103 + rng.below(3) as u32,
                steps: 24,
            },
            Extra::Daily => Kind::Daily,
            Extra::BusProfile => {
                let loaded = loaded_buses(net);
                Kind::BusProfile {
                    bus_id: net.buses[loaded[rng.below(loaded.len())].0].id,
                    steps: 24,
                }
            }
            Extra::GenN1 => Kind::GenN1,
            Extra::N2 => Kind::N2,
            Extra::CaStatus => Kind::CaStatus,
            Extra::NetStatus => Kind::NetStatus,
        }
    }
}

/// Class of an op kind on a case: the tiers are latency tiers, so the
/// same kind is heavier on a bigger network.
fn class_of(kind: &Kind, session: usize) -> usize {
    match (kind, session) {
        (Kind::CaStatus | Kind::NetStatus, _) => RECALL,
        (Kind::N1 { repeat: true, .. } | Kind::Specific { .. }, _) => LIGHT,
        // The sweep that opens a session also loads the case.
        (Kind::N1 { case: Some(_), .. }, 0) => MID,
        (Kind::N1 { case: Some(_), .. }, _) => HEAVY,
        (Kind::BasePf, 0 | 1) | (Kind::N1 { .. }, 0) => LIGHT,
        (Kind::BasePf, _) | (Kind::N1 { .. }, 1) => MID,
        (Kind::Sweep { .. } | Kind::Daily | Kind::BusProfile { .. }, 0) => MID,
        _ => HEAVY,
    }
}

impl StudySweep {
    pub fn build(seed: u64, size: Size) -> StudySweep {
        let mut rng = Rng::new(seed, "study_sweep");
        let nets: Vec<Network> = CASES.iter().map(|&id| cases::load(id)).collect();
        let full = size == Size::Full;
        // Edited segments per session (each opens with a fresh sweep).
        let edited = if full { [3usize, 24, 10] } else { [1, 2, 1] };
        let mut per_session: Vec<Vec<Segment>> = Vec::new();
        for (s, net) in nets.iter().enumerate() {
            let mut segs = vec![Segment {
                session: s,
                edit: None,
                ops: vec![Op {
                    class: 0,
                    kind: Kind::N1 {
                        case: Some(CASES[s].short_name()),
                        repeat: false,
                    },
                }],
            }];
            for _ in 0..edited[s] {
                segs.push(Segment {
                    session: s,
                    edit: Some(load_edit(&mut rng, net)),
                    ops: vec![Op {
                        class: 0,
                        kind: Kind::N1 {
                            case: None,
                            repeat: false,
                        },
                    }],
                });
            }
            per_session.push(segs);
        }
        // Extras, spread over the segments of their session.
        let mut extras: Vec<(usize, Kind)> = Vec::new();
        for &(session, extra, n_full, n_smoke) in &EXTRAS {
            for _ in 0..if full { n_full } else { n_smoke } {
                extras.push((session, extra.draw(&mut rng, &nets[session])));
            }
        }
        for (s, kind) in extras {
            let segs = &mut per_session[s];
            let at = rng.below(segs.len());
            segs[at].ops.push(Op { class: 0, kind });
        }
        // One client: interleave the sessions' segments in a seeded
        // order, each session's own order kept.
        let mut labels: Vec<usize> = per_session
            .iter()
            .enumerate()
            .flat_map(|(s, segs)| std::iter::repeat_n(s, segs.len()))
            .collect();
        rng.shuffle(&mut labels);
        let mut queues: Vec<std::collections::VecDeque<Segment>> =
            per_session.into_iter().map(Into::into).collect();
        let mut segments: Vec<Segment> = labels
            .into_iter()
            .map(|s| queues[s].pop_front().expect("one label per segment"))
            .collect();
        for seg in &mut segments {
            // The sweep first (repeats and status recall need it), the
            // rest in seeded order.
            rng.shuffle(&mut seg.ops[1..]);
            for op in &mut seg.ops {
                op.class = class_of(&op.kind, seg.session);
            }
        }
        StudySweep {
            nets,
            segments,
            redraw: Rng::new(seed, "study_sweep.redraw"),
        }
    }
}

fn ask_of(op: &Op) -> Option<Ask> {
    let (utterance, tools, text): (String, &'static [&'static str], &'static str) = match &op.kind {
        Kind::N1 { case, .. } => (
            match case {
                Some(c) => format!("run the n-1 contingency analysis on {c}"),
                None => "run the n-1 contingency analysis".into(),
            },
            &["solve_base_case", "run_n1_contingency_analysis"],
            "I ran a full N-1 contingency analysis",
        ),
        Kind::CaStatus => (
            "show the contingency status summary".into(),
            &["get_contingency_status"],
            "I ran a full N-1 contingency analysis",
        ),
        Kind::NetStatus => (
            "what is the network status".into(),
            &["get_network_status"],
            "Active case:",
        ),
        Kind::Specific { trafo, index } => (
            format!(
                "analyze the outage of {} {index}",
                if *trafo { "trafo" } else { "line" }
            ),
            &["analyze_specific_contingency"],
            "Outage of",
        ),
        Kind::GenN1 => (
            "simulate the loss of each generator unit".into(),
            &["run_generator_contingency_analysis"],
            "I simulated the outage of all",
        ),
        Kind::Sweep { from, to, steps } => (
            format!("sweep the load from {from}% to {to}% in {steps} steps"),
            &["batch_study"],
            "Batched study of",
        ),
        Kind::Daily => (
            "study the hourly load profile across the day".into(),
            &["batch_study"],
            "Batched study of",
        ),
        Kind::BusProfile { bus_id, steps } => (
            format!("sweep the load at bus {bus_id} from 80% to 120% in {steps} steps"),
            &["batch_study"],
            "Batched study of",
        ),
        Kind::N2 | Kind::BasePf => return None,
    };
    Some(Ask {
        class: op.class,
        utterance,
        tools,
        text,
    })
}

fn scenario_set(kind: &Kind, net: &Network) -> Option<ScenarioSet> {
    Some(match kind {
        Kind::Sweep { from, to, steps } => {
            ScenarioSet::load_sweep(f64::from(*from) / 100.0, f64::from(*to) / 100.0, *steps)
        }
        Kind::Daily => ScenarioSet::daily_profile(&DAILY_FACTORS),
        Kind::BusProfile { bus_id, steps } => {
            let bus = net.buses.iter().position(|b| b.id == *bus_id)?;
            let base: f64 = net
                .loads
                .iter()
                .filter(|l| l.in_service && l.bus == bus)
                .map(|l| l.p_mw)
                .sum();
            let levels: Vec<f64> = (0..*steps)
                .map(|i| base * (0.8 + 0.4 * i as f64 / (*steps - 1) as f64))
                .collect();
            ScenarioSet::bus_profile(*bus_id, &levels)
        }
        _ => return None,
    })
}

/// The solver call behind an agent op, run directly on the session's
/// network so the trace can split the turn into solver and residual.
fn replay(kind: &Kind, gm: &GridMind, net: &Network) -> Option<(&'static str, &'static str, f64)> {
    let opts = CaOptions::default();
    match kind {
        Kind::N1 { repeat, .. } => {
            // A repeat reads the session's cache, as the tool does; a
            // fresh sweep gets an empty one (the session's is full now).
            let scratch = ContingencyCache::new();
            let cache = if *repeat { &gm.session.cache } else { &scratch };
            let hash = gm.session.diff_hash();
            let (_, t) = timed(|| run_n1_cached(net, &opts, None, Some((cache, hash))));
            Some(("contingency", "run_n1", t.secs()))
        }
        Kind::Specific { trafo, index } => {
            let want = if *trafo {
                BranchKind::Transformer
            } else {
                BranchKind::Line
            };
            let branch = net
                .branches
                .iter()
                .enumerate()
                .filter(|(_, b)| b.kind == want)
                .nth(*index)?
                .0;
            let v0 = voltages(&solve_base(net, &opts).ok()?);
            let outage = Outage { branch, kind: want };
            let (_, t) = timed(|| evaluate_outage(net, &opts, &v0, outage, *index));
            Some(("contingency", "evaluate_outage", t.secs()))
        }
        Kind::GenN1 => {
            let (_, t) = timed(|| run_gen_n1(net, &opts, None));
            Some(("contingency", "run_gen_n1", t.secs()))
        }
        Kind::Sweep { .. } | Kind::Daily | Kind::BusProfile { .. } => {
            let set = scenario_set(kind, net)?;
            let (_, t) = timed(|| run_batch(net, &PfOptions::default(), &set));
            Some(("powerflow", "run_batch", t.secs()))
        }
        Kind::CaStatus | Kind::NetStatus | Kind::N2 | Kind::BasePf => None,
    }
}

impl Workload for StudySweep {
    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn single_client(&self) -> bool {
        true
    }

    fn op_classes(&self) -> Vec<usize> {
        self.segments
            .iter()
            .flat_map(|s| s.ops.iter().map(|o| o.class))
            .collect()
    }

    fn op_labels(&self) -> Vec<String> {
        self.segments
            .iter()
            .flat_map(|s| {
                s.ops
                    .iter()
                    .map(|o| format!("{}: {:?}", CASES[s.session].short_name(), o.kind))
            })
            .collect()
    }

    fn oplist_digest(&self) -> u64 {
        self.segments.iter().fold(fnv1a(b"study_sweep"), |h, seg| {
            let h = fnv1a_extend(h, format!("{}{:?}", seg.session, seg.edit).as_bytes());
            seg.ops.iter().fold(h, |h, op| {
                fnv1a_extend(h, format!("{:?}", op.kind).as_bytes())
            })
        })
    }

    fn run_round(&mut self, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let mut sessions: Vec<GridMind> = CASES.iter().map(|_| GridMind::new(profile())).collect();
        let (cpu0, wall0) = (sys::cpu_seconds(), Instant::now());
        for seg in &self.segments {
            let gm = &mut sessions[seg.session];
            if let Some(edit) = &seg.edit {
                // Cannot fail on a loaded case with an existing bus; a
                // failure would surface as the sweep answering stale.
                let _ = gm.session.apply(edit.clone());
            }
            for op in &seg.ops {
                let ix = round.ops.len();
                if let Some(ask) = ask_of(op) {
                    let (result, t) = timed_ask(gm, &ask);
                    round.ops.push(result);
                    if tracer.enabled() {
                        let span = tracer.record(
                            None,
                            Some(ix),
                            "core",
                            &format!("ask:{:?}", op.kind),
                            t.start,
                            t.end,
                        );
                        let replay_started = Instant::now();
                        if let Ok(net) = gm.session.current_network() {
                            if let Some((layer, name, dur)) = replay(&op.kind, gm, &net) {
                                tracer.record_child_tail(span, layer, name, 0.0, dur);
                            }
                        }
                        tracer.exclude(replay_started.elapsed().as_secs_f64());
                    }
                    continue;
                }
                // Direct crate calls: the study-script user.
                let Ok(net) = gm.session.current_network() else {
                    round.ops.push(OpResult {
                        latency_s: 0.0,
                        cpu_s: 0.0,
                        digest: 0,
                        failure: Some("no case loaded".into()),
                    });
                    continue;
                };
                let (answer, layer, name, t) = if matches!(op.kind, Kind::N2) {
                    let (r, t) = timed(|| {
                        n_minus_2_preview(&net, &CaOptions::default(), None, N2_MAX_VERIFY)
                    });
                    let answer = match &r {
                        Ok(p) => (
                            fnv1a(
                                format!(
                                    "{} {} {:?}",
                                    p.pairs_screened,
                                    p.screened_out,
                                    p.verified.iter().map(|x| x.label()).collect::<Vec<_>>()
                                )
                                .as_bytes(),
                            ),
                            (p.pairs_screened == 0)
                                .then(|| "N-2 preview screened nothing".to_string()),
                        ),
                        Err(e) => (0, Some(format!("N-2 preview failed: {e}"))),
                    };
                    (answer, "contingency", "n_minus_2_preview", t)
                } else {
                    let (r, t) = timed(|| gm_powerflow::solve(&net, &PfOptions::default()));
                    let answer = match &r {
                        Ok(rep) if rep.converged => (pf_digest(rep), None),
                        Ok(_) => (0, Some("base power flow did not converge".into())),
                        Err(e) => (0, Some(format!("base power flow failed: {e}"))),
                    };
                    (answer, "powerflow", "newton::solve", t)
                };
                round.ops.push(OpResult::new(t, answer));
                tracer.record(None, Some(ix), layer, name, t.start, t.end);
            }
        }
        round.wall_s = wall0.elapsed().as_secs_f64();
        round.cpu_s = sys::cpu_seconds() - cpu0;
        if tracer.enabled() {
            for gm in &sessions {
                add_counters(&mut round.counts, &gm.session.telemetry);
            }
        }
        round
    }

    fn redraw(&mut self, failed_op: usize) -> bool {
        let mut first = 0;
        for seg in &mut self.segments {
            if failed_op < first + seg.ops.len() {
                if seg.edit.is_none() {
                    return false;
                }
                seg.edit = Some(load_edit(&mut self.redraw, &self.nets[seg.session]));
                return true;
            }
            first += seg.ops.len();
        }
        false
    }

    fn anchors(&self) -> Vec<String> {
        let mut failed = Vec::new();
        // The cascade must rank like the brute AC sweep it replaces.
        let net = &self.nets[1];
        let cascade = run_n1(net, &CaOptions::default(), None);
        let brute = run_n1(
            net,
            &CaOptions {
                mode: SweepMode::Brute,
                ..Default::default()
            },
            None,
        );
        match (cascade, brute) {
            (Ok(c), Ok(b)) if c.top_labels(5) == b.top_labels(5) => {}
            (Ok(c), Ok(b)) => failed.push(format!(
                "case118 cascade top-5 {:?} differs from brute {:?}",
                c.top_labels(5),
                b.top_labels(5)
            )),
            _ => failed.push("case118 N-1 reference sweep failed".into()),
        }
        // The batch engine must answer exactly like the unshared replay.
        let set = ScenarioSet::load_sweep(0.9, 1.1, 24);
        let opts = PfOptions::default();
        match (
            run_batch(&self.nets[0], &opts, &set),
            run_naive(&self.nets[0], &opts, &set),
        ) {
            (Ok(b), Ok(n)) => {
                let same = b.outcomes.len() == n.outcomes.len()
                    && b.outcomes.iter().zip(&n.outcomes).all(|(x, y)| {
                        match (&x.report, &y.report) {
                            (Ok(x), Ok(y)) => pf_digest(x) == pf_digest(y),
                            _ => false,
                        }
                    });
                if !same {
                    failed.push("case57 run_batch differs from run_naive".into());
                }
            }
            _ => failed.push("case57 batch reference failed".into()),
        }
        failed
    }

    fn info(&self) -> Value {
        json!({
            "clients": 1,
            "sessions": CASES.len(),
            "cases": CASES.iter().map(|c| c.short_name()).collect::<Vec<_>>(),
            "segments": self.segments.len(),
        })
    }
}
