//! `grid_scale` — a study script calling the solver crates directly on
//! the interconnect-scale synthetic networks: Newton from flat and warm
//! starts, fast-decoupled and DC solves on seeded ±5% load
//! perturbations of synth1354 / synth2869 / synth9241, and an 8-scenario
//! `run_batch` on synth1354. `sparse` analyze/refactor/solve and the
//! Jacobian assembly in `powerflow` do the work; `agents`, `core` and
//! `serve` do nothing. Set-up carries `generate_scale`.

use super::{pf_digest, timed, voltages, Answer, OpResult, Round, Size, Workload};
use crate::rng::{fnv1a, fnv1a_extend, Rng};
use crate::sys;
use crate::trace::Tracer;
use gm_network::{generate_scale, Load, Network, ScaleId, YBus};
use gm_numeric::Complex;
use gm_powerflow::{
    run_batch, solve_dc, solve_fast_decoupled, solve_from, BatchError, BatchReport, DcReport,
    PfError, PfOptions, PfReport, ScenarioSet,
};
use serde_json::{json, Value};
use std::time::Instant;

const CLASSES: [&str; 4] = ["light", "newton1354", "newton2869", "newton9241"];
/// Each load moves by up to this fraction; zero-mean, so the total
/// barely changes and every solve stays in the converging regime.
const PERTURBATION: f64 = 0.05;
const BATCH_SCENARIOS: usize = 8;
/// Power-balance certificate tolerance (MW / MVAr per bus).
const BALANCE_TOL_MW: f64 = 1e-3;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Dc,
    Fdlf,
    NewtonFlat,
    NewtonWarm,
    Batch,
}

#[derive(Clone, Debug)]
struct Op {
    class: usize,
    net: usize,
    kind: Kind,
    /// Seeds this op's load perturbation.
    draw: u64,
}

pub struct GridScale {
    nets: Vec<Network>,
    /// The unperturbed loads, to restore after each op.
    base_loads: Vec<Vec<Load>>,
    /// Base-case voltages for the warm starts; filled by the first
    /// round (reference work, not set-up).
    warm: Vec<Option<Vec<Complex>>>,
    ops: Vec<Op>,
    redraw: Rng,
}

impl GridScale {
    pub fn build(seed: u64, size: Size) -> GridScale {
        let mut rng = Rng::new(seed, "grid_scale");
        let ids: &[ScaleId] = if size == Size::Full {
            &ScaleId::ALL
        } else {
            &[ScaleId::Synth1354]
        };
        // `generate_scale`, not `load_scale`: the latter memoises per
        // process, and set-up is timed several times in one.
        let nets: Vec<Network> = ids
            .iter()
            .map(|id| generate_scale(&id.spec()).expect("scale cases generate"))
            .collect();
        // (class, net, kind, count): light 40%, newton1354 42% holding
        // p50, newton2869 16% holding p90, newton9241 the 2% tail. DC
        // and fast-decoupled solves of synth9241 cost as much as a
        // Newton solve of synth1354 and would blur the classes; they
        // are probes instead.
        let plan: &[(usize, usize, Kind, usize)] = if size == Size::Full {
            &[
                (0, 0, Kind::Dc, 12),
                (0, 1, Kind::Dc, 10),
                (0, 0, Kind::Fdlf, 18),
                (1, 0, Kind::NewtonFlat, 24),
                (1, 0, Kind::NewtonWarm, 18),
                (2, 1, Kind::NewtonFlat, 7),
                (2, 1, Kind::NewtonWarm, 6),
                (2, 0, Kind::Batch, 3),
                (3, 2, Kind::NewtonFlat, 1),
                (3, 2, Kind::NewtonWarm, 1),
            ]
        } else {
            &[
                (0, 0, Kind::Dc, 2),
                (0, 0, Kind::Fdlf, 2),
                (1, 0, Kind::NewtonFlat, 2),
                (1, 0, Kind::NewtonWarm, 2),
                (2, 0, Kind::Batch, 1),
            ]
        };
        let mut ops: Vec<Op> = plan
            .iter()
            .flat_map(|&(class, net, kind, n)| (0..n).map(move |_| (class, net, kind)))
            .map(|(class, net, kind)| Op {
                class,
                net,
                kind,
                draw: rng.next_u64(),
            })
            .collect();
        rng.shuffle(&mut ops);
        GridScale {
            base_loads: nets.iter().map(|n| n.loads.clone()).collect(),
            warm: vec![None; nets.len()],
            nets,
            ops,
            redraw: Rng::new(seed, "grid_scale.redraw"),
        }
    }
}

/// Q-limit switching off, as in the N-1 base case and the repository's
/// own scaling bench: with it on, which generators hit a limit — and so
/// the iteration count — flips with the perturbation, and an op class
/// stops being one population.
fn solver_options() -> PfOptions {
    PfOptions {
        enforce_q_limits: false,
        ..Default::default()
    }
}

fn perturb(net: &mut Network, draw: u64) {
    let mut rng = Rng::new(draw, "perturb");
    for load in &mut net.loads {
        let f = 1.0 + rng.range(-PERTURBATION, PERTURBATION);
        load.p_mw *= f;
        load.q_mvar *= f;
    }
}

fn pf_answer(r: &Result<PfReport, PfError>) -> Answer {
    match r {
        Ok(rep) if rep.converged => (pf_digest(rep), None),
        Ok(_) => (0, Some("power flow did not converge".to_string())),
        Err(e) => (0, Some(format!("power flow failed: {e}"))),
    }
}

fn dc_answer(r: &Result<DcReport, PfError>) -> Answer {
    match r {
        Ok(rep) => (
            rep.theta_rad.iter().fold(fnv1a(b"dc"), |h, t| {
                fnv1a_extend(h, &t.to_bits().to_le_bytes())
            }),
            None,
        ),
        Err(e) => (0, Some(format!("DC power flow failed: {e}"))),
    }
}

fn batch_answer(r: &Result<BatchReport, BatchError>) -> Answer {
    let batch = match r {
        Ok(b) => b,
        Err(e) => return (0, Some(format!("batch failed: {e}"))),
    };
    let mut digest = fnv1a(b"batch");
    for outcome in &batch.outcomes {
        match &outcome.report {
            Ok(rep) => digest = fnv1a_extend(digest, &pf_digest(rep).to_le_bytes()),
            Err(e) => return (0, Some(format!("batch scenario failed: {e}"))),
        }
    }
    (digest, None)
}

/// Largest power-balance residual (MW or MVAr) of a solved case,
/// recomputed from the raw network data and the reported voltages —
/// nothing shared with the solver's own mismatch code: P at every
/// non-slack bus against scheduled generation minus load, Q at every
/// bus without a generator against its load.
pub fn balance_residual_mw(net: &Network, rep: &PfReport) -> f64 {
    let s = YBus::assemble(net).injections(&voltages(rep));
    let n = net.n_bus();
    let (mut p, mut q, mut has_gen) = (vec![0.0; n], vec![0.0; n], vec![false; n]);
    for l in net.loads.iter().filter(|l| l.in_service) {
        p[l.bus] -= l.p_mw;
        q[l.bus] -= l.q_mvar;
    }
    for g in net.gens.iter().filter(|g| g.in_service) {
        p[g.bus] += g.p_mw;
        has_gen[g.bus] = true;
    }
    let slack = net.slack();
    let mut worst = 0.0f64;
    for b in 0..n {
        if Some(b) != slack {
            worst = worst.max((s[b].re * net.base_mva - p[b]).abs());
        }
        if !has_gen[b] {
            worst = worst.max((s[b].im * net.base_mva - q[b]).abs());
        }
    }
    worst
}

impl Workload for GridScale {
    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn single_client(&self) -> bool {
        true
    }

    fn op_classes(&self) -> Vec<usize> {
        self.ops.iter().map(|o| o.class).collect()
    }

    fn op_labels(&self) -> Vec<String> {
        self.ops
            .iter()
            .map(|o| format!("{}: {:?}", self.nets[o.net].name, o.kind))
            .collect()
    }

    fn oplist_digest(&self) -> u64 {
        self.ops.iter().fold(fnv1a(b"grid_scale"), |h, o| {
            fnv1a_extend(h, format!("{} {:?} {}", o.net, o.kind, o.draw).as_bytes())
        })
    }

    fn run_round(&mut self, tracer: &mut Tracer) -> Round {
        let opts = solver_options();
        for (net, warm) in self.nets.iter().zip(&mut self.warm) {
            if warm.is_none() {
                *warm = gm_powerflow::solve(net, &opts).ok().map(|r| voltages(&r));
            }
        }
        // Direct calls record into whatever registry is installed; one
        // is, in traced rounds only, to read the work counts.
        let registry = gm_telemetry::Registry::new();
        let _collector = tracer.enabled().then(|| registry.install());
        let mut round = Round::default();
        let (cpu0, wall0) = (sys::cpu_seconds(), Instant::now());
        for (ix, op) in self.ops.iter().enumerate() {
            let net = &mut self.nets[op.net];
            perturb(net, op.draw);
            let net = &self.nets[op.net];
            let (answer, name, t) = match op.kind {
                Kind::Dc => {
                    let (r, t) = timed(|| solve_dc(net));
                    (dc_answer(&r), "solve_dc", t)
                }
                Kind::Fdlf => {
                    let (r, t) = timed(|| solve_fast_decoupled(net, &opts));
                    (pf_answer(&r), "solve_fast_decoupled", t)
                }
                Kind::NewtonFlat => {
                    let (r, t) = timed(|| solve_from(net, &opts, None));
                    (pf_answer(&r), "newton::solve", t)
                }
                Kind::NewtonWarm => {
                    let warm = self.warm[op.net].as_deref();
                    let (r, t) = timed(|| solve_from(net, &opts, warm));
                    (pf_answer(&r), "newton::solve_from", t)
                }
                Kind::Batch => {
                    let set = ScenarioSet::load_sweep(0.97, 1.03, BATCH_SCENARIOS);
                    let (r, t) = timed(|| run_batch(net, &opts, &set));
                    (batch_answer(&r), "run_batch", t)
                }
            };
            round.ops.push(OpResult::new(t, answer));
            tracer.record(None, Some(ix), "powerflow", name, t.start, t.end);
            self.nets[op.net].loads.clone_from(&self.base_loads[op.net]);
        }
        round.wall_s = wall0.elapsed().as_secs_f64();
        round.cpu_s = sys::cpu_seconds() - cpu0;
        if tracer.enabled() {
            super::add_counters(&mut round.counts, &registry);
        }
        round
    }

    fn redraw(&mut self, failed_op: usize) -> bool {
        match self.ops.get_mut(failed_op) {
            Some(op) => {
                op.draw = self.redraw.next_u64();
                true
            }
            None => false,
        }
    }

    fn anchors(&self) -> Vec<String> {
        let mut failed = Vec::new();
        for net in &self.nets {
            match gm_powerflow::solve(net, &solver_options()) {
                Ok(rep) => {
                    let residual = balance_residual_mw(net, &rep);
                    if residual.is_nan() || residual > BALANCE_TOL_MW {
                        failed.push(format!(
                            "{}: power-balance residual {residual:.3e} MW",
                            net.name
                        ));
                    }
                }
                Err(e) => failed.push(format!("{}: Newton failed: {e}", net.name)),
            }
        }
        failed
    }

    fn info(&self) -> Value {
        json!({
            "clients": 1,
            "cases": self.nets.iter().map(|n| n.name.clone()).collect::<Vec<_>>(),
            "perturbation": PERTURBATION,
        })
    }
}
