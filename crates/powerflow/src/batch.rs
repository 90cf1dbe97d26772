//! Batched multi-scenario power flow: one symbolic analysis, many
//! right-hand sides.
//!
//! The what-if workload from the paper's motivating study ("adjust load
//! levels, re-solve, inspect impacts") solves the *same* network under
//! many load/dispatch scenarios. Since the scenarios share a sparsity
//! pattern, the batch engine pays the fixed costs once — base
//! validation, `YBus` assembly, the DC seed factorization (one `B'`
//! factor, all scenario angle seeds in a single
//! [`SparseLu::solve_many_in_place`] panel solve), and the Jacobian
//! symbolic analysis on the thread's engine — then refactors per
//! scenario and warm-starts each solve from the nearest
//! already-solved neighbor's voltages.
//!
//! Two entry points share one per-scenario policy:
//!
//! * [`run_batch`] — the amortized engine.
//! * [`run_naive`] — the same plan order and the same seeds, replayed
//!   one scenario at a time through fresh per-scenario state (fresh
//!   engine, fresh `YBus`, fresh DC factorization). Every per-scenario
//!   answer is **bit-identical** to `run_batch` (pattern-reuse
//!   refactorization and the panel solve are bitwise-exact replays of
//!   their one-shot counterparts); property-tested in
//!   `tests/batch_props.rs`.
//!
//! Warm-start divergence is never a hard error here: a scenario whose
//! neighbor-seeded Newton diverges restarts from flat (counted in
//! `batch.flat_restarts`); only a scenario that fails *both* ways
//! surfaces an `Err` outcome for the caller's recovery ladder.

use crate::newton::{solve_prepared, NewtonScratch, QState};
use crate::types::{InitStrategy, PfError, PfOptions, PfReport};
use gm_faults::FaultKind;
use gm_network::{slack_pinned_bprime, Modification, Network, YBus};
use gm_numeric::Complex;
use gm_sparse::SparseLu;
use serde::{Deserialize, Serialize};

/// One load/dispatch edit inside a scenario. None of the variants touch
/// branch or shunt data, so every scenario in a set shares the base
/// network's admittance structure (and therefore its Jacobian sparsity
/// pattern) by construction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ScenarioDelta {
    /// Scale every in-service load by a factor (P and Q).
    ScaleAllLoads {
        /// Multiplier applied to both P and Q.
        factor: f64,
    },
    /// Set the total demand at a bus (external id); `q_mvar = None`
    /// keeps the existing power factor.
    SetBusLoad {
        /// External bus id.
        bus_id: u32,
        /// New total active demand (MW).
        p_mw: f64,
        /// New reactive demand; `None` scales Q with P.
        q_mvar: Option<f64>,
    },
    /// Set a generator's active dispatch (MW).
    SetGenDispatch {
        /// Generator index into `Network::gens`.
        index: usize,
        /// New active dispatch (MW).
        p_mw: f64,
    },
}

impl ScenarioDelta {
    /// Applies the edit to `net` in place. Load edits delegate to
    /// [`Modification`] so the semantics match the interactive mutation
    /// path exactly.
    fn apply(&self, net: &mut Network) -> Result<(), String> {
        match self {
            ScenarioDelta::ScaleAllLoads { factor } => {
                Modification::ScaleAllLoads { factor: *factor }
                    .apply(net)
                    .map_err(|e| e.to_string())
            }
            ScenarioDelta::SetBusLoad {
                bus_id,
                p_mw,
                q_mvar,
            } => Modification::SetBusLoad {
                bus_id: *bus_id,
                p_mw: *p_mw,
                q_mvar: *q_mvar,
            }
            .apply(net)
            .map_err(|e| e.to_string()),
            ScenarioDelta::SetGenDispatch { index, p_mw } => {
                if !p_mw.is_finite() {
                    return Err(format!("p_mw = {p_mw}"));
                }
                let Some(g) = net.gens.get_mut(*index) else {
                    return Err(format!("no generator with index {index}"));
                };
                g.p_mw = *p_mw;
                Ok(())
            }
        }
    }
}

/// One named scenario: a label plus the edits applied to the base case.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable label carried through to the narrated table.
    pub label: String,
    /// Edits applied to a clone of the base network, in order.
    pub deltas: Vec<ScenarioDelta>,
}

impl Scenario {
    /// Applies this scenario's edits to a clone of `net`.
    pub fn materialize(&self, net: &Network) -> Result<Network, BatchError> {
        let mut net_k = net.clone();
        for d in &self.deltas {
            d.apply(&mut net_k)
                .map_err(|reason| BatchError::BadScenario {
                    label: self.label.clone(),
                    reason,
                })?;
        }
        Ok(net_k)
    }
}

/// A typed set of scenarios sharing one base network.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSet {
    /// The scenarios, in the order outcomes are reported.
    pub scenarios: Vec<Scenario>,
}

impl ScenarioSet {
    /// Wraps explicit scenarios.
    pub fn new(scenarios: Vec<Scenario>) -> ScenarioSet {
        ScenarioSet { scenarios }
    }

    /// A system-wide load scaling sweep: `steps` evenly spaced factors
    /// from `from_factor` to `to_factor` inclusive (a single step pins
    /// at `from_factor`).
    pub fn load_sweep(from_factor: f64, to_factor: f64, steps: usize) -> ScenarioSet {
        let scenarios = (0..steps)
            .map(|i| {
                let t = if steps > 1 {
                    i as f64 / (steps - 1) as f64
                } else {
                    0.0
                };
                let factor = from_factor + (to_factor - from_factor) * t;
                Scenario {
                    label: format!("load {:.1}%", factor * 100.0),
                    deltas: vec![ScenarioDelta::ScaleAllLoads { factor }],
                }
            })
            .collect();
        ScenarioSet { scenarios }
    }

    /// An hourly profile of system-wide load factors ("how does this
    /// look across the day?").
    pub fn daily_profile(factors: &[f64]) -> ScenarioSet {
        let scenarios = factors
            .iter()
            .enumerate()
            .map(|(h, &factor)| Scenario {
                label: format!("hour {h:02}"),
                deltas: vec![ScenarioDelta::ScaleAllLoads { factor }],
            })
            .collect();
        ScenarioSet { scenarios }
    }

    /// A per-bus demand profile: one scenario per requested MW level at
    /// the given bus (external id), Q following the existing power
    /// factor.
    pub fn bus_profile(bus_id: u32, p_mw: &[f64]) -> ScenarioSet {
        let scenarios = p_mw
            .iter()
            .map(|&p| Scenario {
                label: format!("bus {bus_id} at {p:.1} MW"),
                deltas: vec![ScenarioDelta::SetBusLoad {
                    bus_id,
                    p_mw: p,
                    q_mvar: None,
                }],
            })
            .collect();
        ScenarioSet { scenarios }
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when the set holds no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Applies every scenario to a clone of `net`, returning the
    /// materialized per-scenario networks in scenario order.
    pub fn materialize(&self, net: &Network) -> Result<Vec<Network>, BatchError> {
        self.scenarios
            .iter()
            .map(|sc| sc.materialize(net))
            .collect()
    }

    /// Canonical length-prefixed encoding for cache fingerprinting.
    ///
    /// Every variable-length field is prefixed with its length and
    /// every delta with a tag byte, so distinct sets can never share an
    /// encoding by sliding bytes across field boundaries (the same
    /// shape as the `ScopfCacheKey` collision fix: `["ab","c"]` and
    /// `["a","bc"]` encode differently). Floats are encoded as their
    /// IEEE-754 bit patterns.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        fn u32le(out: &mut Vec<u8>, v: u32) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn f64le(out: &mut Vec<u8>, v: f64) {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let mut out = Vec::new();
        u32le(&mut out, self.scenarios.len() as u32);
        for sc in &self.scenarios {
            u32le(&mut out, sc.label.len() as u32);
            out.extend_from_slice(sc.label.as_bytes());
            u32le(&mut out, sc.deltas.len() as u32);
            for d in &sc.deltas {
                match d {
                    ScenarioDelta::ScaleAllLoads { factor } => {
                        out.push(0);
                        f64le(&mut out, *factor);
                    }
                    ScenarioDelta::SetBusLoad {
                        bus_id,
                        p_mw,
                        q_mvar,
                    } => {
                        out.push(1);
                        u32le(&mut out, *bus_id);
                        f64le(&mut out, *p_mw);
                        match q_mvar {
                            None => out.push(0),
                            Some(q) => {
                                out.push(1);
                                f64le(&mut out, *q);
                            }
                        }
                    }
                    ScenarioDelta::SetGenDispatch { index, p_mw } => {
                        out.push(2);
                        out.extend_from_slice(&(*index as u64).to_le_bytes());
                        f64le(&mut out, *p_mw);
                    }
                }
            }
        }
        out
    }
}

/// Why a batch could not run at all (per-scenario solver failures live
/// in [`ScenarioOutcome::report`] instead).
#[derive(Clone, Debug, PartialEq)]
pub enum BatchError {
    /// The scenario set was empty.
    Empty,
    /// The base network failed validation.
    InvalidBase {
        /// Validation problems, rendered.
        problems: Vec<String>,
    },
    /// A scenario's edits could not be applied to the base case.
    BadScenario {
        /// Label of the offending scenario.
        label: String,
        /// What went wrong.
        reason: String,
    },
    /// The shared DC seed factorization failed (islanded base network).
    DcSeed {
        /// The underlying solver error.
        error: PfError,
    },
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Empty => write!(f, "scenario set is empty"),
            BatchError::InvalidBase { problems } => {
                write!(f, "base network invalid: {}", problems.join("; "))
            }
            BatchError::BadScenario { label, reason } => {
                write!(f, "scenario '{label}': {reason}")
            }
            BatchError::DcSeed { error } => write!(f, "DC seed factorization failed: {error}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// One scenario's result inside a [`BatchReport`].
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The scenario's label.
    pub label: String,
    /// Net scheduled imbalance signature (total load − scheduled
    /// generation, MW) used by the warm-start neighbor policy.
    pub signature_mw: f64,
    /// The solve result; `Err` only when both the seeded solve and the
    /// flat restart failed.
    pub report: Result<PfReport, PfError>,
    /// The primary solve was seeded from a neighbor's voltages (as
    /// opposed to the DC angle seed used when no solved neighbor
    /// existed yet).
    pub warm_started: bool,
    /// The seeded solve diverged and the scenario was re-run from flat.
    pub flat_restarted: bool,
}

/// The batch result: per-scenario outcomes in the *original* scenario
/// order plus the engine's warm-start telemetry.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Base case name.
    pub case_name: String,
    /// Outcomes, index-aligned with [`ScenarioSet::scenarios`].
    pub outcomes: Vec<ScenarioOutcome>,
    /// Scenario count (`outcomes.len()`).
    pub scenarios: usize,
    /// Neighbor-seeded solves that converged without a restart.
    pub warm_hits: u64,
    /// Seeded solves that diverged and were re-run from flat.
    pub flat_restarts: u64,
}

/// Runs every scenario through the amortized batch engine. See the
/// module docs for the seeding policy; results are bit-identical to
/// [`run_naive`].
pub fn run_batch(
    net: &Network,
    opts: &PfOptions,
    set: &ScenarioSet,
) -> Result<BatchReport, BatchError> {
    let _span = gm_telemetry::span!("batch.run", case = net.name, scenarios = set.len());
    let plan = prepare(net, set)?;
    let nets = &plan.0;

    // Fixed costs, paid once for the whole batch.
    let ybus = YBus::assemble(net);
    let dc_seeds = dc_bprime(net, |lu| dc_seed_panel(lu, net, nets))?;
    let mut scratch = NewtonScratch::default();

    let report = run_plan(
        net,
        set,
        &plan,
        |k| Ok(dc_voltages(&dc_seeds[k])),
        |k, seed, q_seed| {
            let t0 = std::time::Instant::now();
            let solved = solve_scenario(&nets[k], opts, seed, q_seed, &ybus, &mut scratch);
            gm_telemetry::quantile_record("batch.scenario_s", t0.elapsed().as_secs_f64());
            solved
        },
    )?;

    gm_telemetry::counter_add("batch.scenarios", report.scenarios as u64);
    gm_telemetry::counter_add("batch.warm_hits", report.warm_hits);
    gm_telemetry::counter_add("batch.flat_restarts", report.flat_restarts);
    Ok(report)
}

/// The reference replay: the same plan order and the same seeds as
/// [`run_batch`], but every scenario pays its own fixed costs — fresh
/// validation, fresh `YBus`, fresh DC `B'` factorization, fresh engine
/// ([`gm_sparse::with_fresh_engine`]) and Jacobian scratch. Exists so
/// tests and benches can pin the batch engine bit-for-bit against an
/// unshared execution; emits no `batch.*` telemetry of its own.
pub fn run_naive(
    net: &Network,
    opts: &PfOptions,
    set: &ScenarioSet,
) -> Result<BatchReport, BatchError> {
    let plan = prepare(net, set)?;
    let nets = &plan.0;
    run_plan(
        net,
        set,
        &plan,
        |k| {
            // Per-scenario DC seed: fresh factorization, single RHS.
            gm_sparse::with_fresh_engine(|| {
                dc_bprime(net, |lu| {
                    let n = net.n_bus();
                    let mut b = vec![0.0f64; n];
                    dc_rhs(net, &nets[k], &mut b, 1, 0);
                    lu.solve_in_place(&mut b, &mut vec![0.0f64; n]);
                    dc_voltages(&b)
                })
            })
        },
        |k, seed, q_seed| {
            let ybus = YBus::assemble(&nets[k]);
            let mut scratch = NewtonScratch::default();
            gm_sparse::with_fresh_engine(|| {
                solve_scenario(&nets[k], opts, seed, q_seed, &ybus, &mut scratch)
            })
        },
    )
}

/// One scenario's solve: the result and whether it took a flat restart.
type Solved = (Result<(PfReport, QState), PfError>, bool);

/// The plan loop and bookkeeping both entry points share. Walks the
/// plan order; seeds each scenario from the nearest already-converged
/// neighbor's voltages and Q-switching state, or from `dc_seed` until
/// one exists; runs `solve`; files the outcome row under the scenario's
/// original index and tallies warm hits and flat restarts. What each
/// caller keeps to itself is the lifetime of its `YBus`, engine and
/// `B'` factor.
fn run_plan(
    net: &Network,
    set: &ScenarioSet,
    (nets, sigs, order): &BatchPlan,
    mut dc_seed: impl FnMut(usize) -> Result<Vec<Complex>, BatchError>,
    mut solve: impl FnMut(usize, &[Complex], Option<&QState>) -> Solved,
) -> Result<BatchReport, BatchError> {
    let nrhs = nets.len();
    let mut outcomes: Vec<Option<ScenarioOutcome>> = (0..nrhs).map(|_| None).collect();
    let mut solved: Vec<Option<(Vec<Complex>, QState)>> = vec![None; nrhs];
    let mut warm_hits = 0u64;
    let mut flat_restarts = 0u64;

    for &k in order {
        let neighbor = nearest_converged(k, sigs, &solved).and_then(|j| solved[j].as_ref());
        let warm = neighbor.is_some();
        let (result, flat_restarted) = match neighbor {
            Some((v, q)) => solve(k, v, Some(q)),
            None => solve(k, &dc_seed(k)?, None),
        };
        let report = result.map(|(rep, qstate)| {
            if warm && !flat_restarted {
                warm_hits += 1;
            }
            solved[k] = Some((rep.voltages(), qstate));
            rep
        });
        if flat_restarted {
            flat_restarts += 1;
        }
        outcomes[k] = Some(ScenarioOutcome {
            label: set.scenarios[k].label.clone(),
            signature_mw: sigs[k],
            report,
            warm_started: warm,
            flat_restarted,
        });
    }

    Ok(BatchReport {
        case_name: net.name.clone(),
        outcomes: outcomes.into_iter().flatten().collect(),
        scenarios: nrhs,
        warm_hits,
        flat_restarts,
    })
}

/// [`prepare`]'s output: materialized per-scenario networks, their
/// signatures, and the plan order.
type BatchPlan = (Vec<Network>, Vec<f64>, Vec<usize>);

/// Shared front half of both entry points: validate the base once,
/// materialize per-scenario networks, compute signatures, and fix the
/// plan order (ascending signature, original index breaking ties).
fn prepare(net: &Network, set: &ScenarioSet) -> Result<BatchPlan, BatchError> {
    if set.is_empty() {
        return Err(BatchError::Empty);
    }
    if let Err(problems) = net.validate() {
        return Err(BatchError::InvalidBase {
            problems: problems.iter().map(|p| p.to_string()).collect(),
        });
    }
    let nets = set.materialize(net)?;
    let sigs: Vec<f64> = nets.iter().map(signature_mw).collect();
    let mut order: Vec<usize> = (0..nets.len()).collect();
    order.sort_by(|&a, &b| sigs[a].total_cmp(&sigs[b]).then(a.cmp(&b)));
    Ok((nets, sigs, order))
}

/// The per-scenario solve policy shared by [`run_batch`] and
/// [`run_naive`]: consult the `batch.scenario` fault site, run the
/// seeded solve, and on divergence (or a singular Jacobian) restart
/// once from flat. Load/dispatch deltas on a validated base cannot
/// invalidate it, so scenarios skip re-validation by construction.
fn solve_scenario(
    net_k: &Network,
    opts: &PfOptions,
    seed: &[Complex],
    q_seed: Option<&QState>,
    ybus: &YBus,
    scratch: &mut NewtonScratch,
) -> Solved {
    let primary = match gm_faults::inject("batch.scenario") {
        Some(FaultKind::NewtonDiverge) | Some(FaultKind::LuSingular) => Err(PfError::Diverged {
            iterations: 0,
            mismatch_pu: f64::INFINITY,
        }),
        _ => solve_prepared(net_k, opts, Some(seed), q_seed, ybus, scratch),
    };
    match primary {
        Err(PfError::Diverged { .. }) | Err(PfError::SingularJacobian { .. }) => {
            let flat = PfOptions {
                init: InitStrategy::Flat,
                ..opts.clone()
            };
            (
                solve_prepared(net_k, &flat, None, None, ybus, scratch),
                true,
            )
        }
        other => (other, false),
    }
}

/// Net scheduled imbalance (total load − scheduled in-service
/// generation, MW): the 1-D signature behind the plan order and the
/// nearest-neighbor warm-start policy.
fn signature_mw(net: &Network) -> f64 {
    let gen: f64 = net
        .gens
        .iter()
        .filter(|g| g.in_service)
        .map(|g| g.p_mw)
        .sum();
    net.total_load_mw() - gen
}

/// Nearest already-converged scenario by |signature difference|, ties
/// broken toward the lower index.
fn nearest_converged<T>(k: usize, sigs: &[f64], solved: &[Option<T>]) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (j, v) in solved.iter().enumerate() {
        if v.is_none() {
            continue;
        }
        let d = (sigs[j] - sigs[k]).abs();
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, j));
        }
    }
    best.map(|(_, j)| j)
}

/// Runs `use_factor` on the DC `B'` factorization over
/// [`slack_pinned_bprime`] — the same matrix [`crate::dc::solve_dc`]
/// factors, on the thread's engine too. Load/dispatch deltas never touch
/// branch data, so one factorization from the base network serves every
/// scenario in the set.
fn dc_bprime<R>(net: &Network, use_factor: impl FnOnce(&SparseLu) -> R) -> Result<R, BatchError> {
    let Some(slack) = net.slack() else {
        return Err(BatchError::InvalidBase {
            problems: vec!["network has no slack bus".into()],
        });
    };
    let bprime = slack_pinned_bprime(net, slack).to_csr_structural();
    gm_sparse::with_thread_engine(|engine| engine.factorize(&bprime).map(use_factor)).map_err(
        |_| BatchError::DcSeed {
            error: PfError::SingularJacobian { iteration: 0 },
        },
    )
}

/// Writes scenario `net_k`'s p.u. active injections (slack pinned to
/// zero) into lane `s` of an `nrhs`-wide panel.
fn dc_rhs(base: &Network, net_k: &Network, panel: &mut [f64], nrhs: usize, s: usize) {
    // `prepare` validated the base, so a slack exists.
    let slack = base.slack().unwrap_or(0);
    let (p_mw, _) = net_k.scheduled_injections();
    for (i, p) in p_mw.iter().enumerate() {
        panel[i * nrhs + s] = if i == slack { 0.0 } else { p / net_k.base_mva };
    }
}

/// Solves every scenario's DC angle seed in one panel solve over the
/// shared `B'` factorization.
fn dc_seed_panel(lu: &SparseLu, base: &Network, nets: &[Network]) -> Vec<Vec<f64>> {
    let n = base.n_bus();
    let nrhs = nets.len();
    let mut panel = vec![0.0f64; n * nrhs];
    for (s, net_k) in nets.iter().enumerate() {
        dc_rhs(base, net_k, &mut panel, nrhs, s);
    }
    let mut scratch = vec![0.0f64; n * nrhs + nrhs];
    lu.solve_many_in_place(&mut panel, nrhs, &mut scratch);
    (0..nrhs)
        .map(|s| (0..n).map(|i| panel[i * nrhs + s]).collect())
        .collect()
}

/// Flat-magnitude voltages at the DC seed angles (PV/slack magnitudes
/// are pinned to their setpoints inside the solver regardless of the
/// seed).
fn dc_voltages(theta: &[f64]) -> Vec<Complex> {
    theta
        .iter()
        .map(|&th| Complex::from_polar(1.0, th))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_network::{cases, CaseId};
    use gm_telemetry::Registry;

    fn opts() -> PfOptions {
        PfOptions::default()
    }

    #[test]
    fn load_sweep_converges_with_warm_hits() {
        let reg = Registry::new();
        let _g = reg.install();
        let net = cases::load(CaseId::Ieee14);
        let set = ScenarioSet::load_sweep(0.8, 1.2, 9);
        let rep = run_batch(&net, &opts(), &set).unwrap();
        assert_eq!(rep.scenarios, 9);
        assert_eq!(rep.outcomes.len(), 9);
        for (out, sc) in rep.outcomes.iter().zip(&set.scenarios) {
            assert_eq!(out.label, sc.label);
            assert!(out.report.as_ref().unwrap().converged, "{}", out.label);
        }
        // Everything after the first plan-order scenario warm-starts.
        assert_eq!(rep.warm_hits, 8);
        assert_eq!(rep.flat_restarts, 0);
        assert_eq!(reg.counter_value("batch.scenarios"), 9);
        assert_eq!(reg.counter_value("batch.warm_hits"), 8);
        assert_eq!(reg.counter_value("batch.flat_restarts"), 0);
        // One DC panel solve (9 lanes) + Newton solves all routed
        // through the shared engine.
        assert_eq!(reg.counter_value("pf.newton.solves"), 9);
    }

    #[test]
    fn batch_matches_naive_bitwise_on_daily_profile() {
        // The daily profile, and the two operating-envelope sweeps the
        // batch engine is sized for. On case300 three scenarios fail to
        // converge: both engines must fail them with the same error.
        let factors: Vec<f64> = (0..12).map(|h| 0.85 + 0.03 * (h as f64)).collect();
        for (id, set) in [
            (CaseId::Ieee30, ScenarioSet::daily_profile(&factors)),
            (CaseId::Ieee118, ScenarioSet::load_sweep(0.90, 1.10, 96)),
            (CaseId::Ieee300, ScenarioSet::load_sweep(0.90, 1.10, 64)),
        ] {
            let net = cases::load(id);
            let fast = run_batch(&net, &opts(), &set).unwrap();
            let slow = run_naive(&net, &opts(), &set).unwrap();
            assert!(fast.warm_hits > 0, "{id:?}: warm starts never engaged");
            assert_eq!(fast.warm_hits, slow.warm_hits, "{id:?}");
            assert_eq!(fast.flat_restarts, slow.flat_restarts, "{id:?}");
            assert_eq!(fast.scenarios, slow.scenarios, "{id:?}");
            for (a, b) in fast.outcomes.iter().zip(&slow.outcomes) {
                assert_eq!(a.label, b.label, "{id:?}");
                assert_eq!(a.warm_started, b.warm_started, "{id:?} {}", a.label);
                let (ra, rb) = match (&a.report, &b.report) {
                    (Ok(ra), Ok(rb)) => (ra, rb),
                    (Err(ea), Err(eb)) => {
                        assert_eq!(ea, eb, "{id:?} {}", a.label);
                        continue;
                    }
                    _ => panic!("{id:?} {}: one engine failed, the other did not", a.label),
                };
                assert_eq!(ra.iterations, rb.iterations, "{id:?} {}", a.label);
                for (ba, bb) in ra.buses.iter().zip(&rb.buses) {
                    assert_eq!(ba.vm_pu.to_bits(), bb.vm_pu.to_bits());
                    assert_eq!(ba.va_deg.to_bits(), bb.va_deg.to_bits());
                }
                for (fa, fb) in ra.branches.iter().zip(&rb.branches) {
                    assert_eq!(fa.p_from_mw.to_bits(), fb.p_from_mw.to_bits());
                }
            }
        }
    }

    #[test]
    fn injected_divergence_flat_restarts_instead_of_erroring() {
        let reg = Registry::new();
        let _g = reg.install();
        let inj = gm_faults::FaultInjector::scripted(vec![gm_faults::FaultRule::new(
            "batch.scenario",
            FaultKind::NewtonDiverge,
            2,
            1,
        )]);
        let _f = inj.install();
        let net = cases::load(CaseId::Ieee14);
        let set = ScenarioSet::load_sweep(0.9, 1.1, 5);
        let rep = run_batch(&net, &opts(), &set).unwrap();
        assert_eq!(rep.flat_restarts, 1);
        let restarted: Vec<&ScenarioOutcome> =
            rep.outcomes.iter().filter(|o| o.flat_restarted).collect();
        assert_eq!(restarted.len(), 1);
        // The restarted scenario still converged — never a hard error.
        assert!(restarted[0].report.as_ref().unwrap().converged);
        assert_eq!(reg.counter_value("batch.flat_restarts"), 1);
    }

    #[test]
    fn bus_profile_and_dispatch_deltas_apply() {
        let net = cases::load(CaseId::Ieee14);
        let bus_id = net.buses[3].id;
        let mut set = ScenarioSet::bus_profile(bus_id, &[30.0, 60.0]);
        set.scenarios.push(Scenario {
            label: "redispatch".into(),
            deltas: vec![ScenarioDelta::SetGenDispatch {
                index: 1,
                p_mw: 35.0,
            }],
        });
        let rep = run_batch(&net, &opts(), &set).unwrap();
        assert_eq!(rep.scenarios, 3);
        assert!(rep.outcomes.iter().all(|o| o.report.is_ok()));
        // Signature tracks the edits: more load at the bus raises it.
        assert!(rep.outcomes[1].signature_mw > rep.outcomes[0].signature_mw);
    }

    #[test]
    fn empty_set_is_a_typed_error() {
        let net = cases::load(CaseId::Ieee14);
        let err = run_batch(&net, &opts(), &ScenarioSet::new(Vec::new())).unwrap_err();
        assert_eq!(err, BatchError::Empty);
    }

    #[test]
    fn bad_gen_index_is_a_typed_error() {
        let net = cases::load(CaseId::Ieee14);
        let set = ScenarioSet::new(vec![Scenario {
            label: "ghost unit".into(),
            deltas: vec![ScenarioDelta::SetGenDispatch {
                index: 999,
                p_mw: 10.0,
            }],
        }]);
        match run_batch(&net, &opts(), &set).unwrap_err() {
            BatchError::BadScenario { label, .. } => assert_eq!(label, "ghost unit"),
            other => panic!("expected BadScenario, got {other:?}"),
        }
    }

    #[test]
    fn canonical_bytes_separate_sliding_labels() {
        let a = ScenarioSet::new(vec![
            Scenario {
                label: "ab".into(),
                deltas: vec![],
            },
            Scenario {
                label: "c".into(),
                deltas: vec![],
            },
        ]);
        let b = ScenarioSet::new(vec![
            Scenario {
                label: "a".into(),
                deltas: vec![],
            },
            Scenario {
                label: "bc".into(),
                deltas: vec![],
            },
        ]);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }
}
