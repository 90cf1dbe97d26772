//! Isolated probes: one public function of one layer at a stated size,
//! timed from outside with `Instant`, best of a few repetitions. They
//! run in every traced run, so a layer has a number even on a workload
//! that never reaches it.

use crate::workloads::{add_counters, profile, symbolic_reuse, voltages, Size};
use gm_acopf::{solve_acopf, solve_dcopf, solve_scopf, AcopfOptions, IpmOptions, ScopfOptions};
use gm_contingency::{n_minus_2_preview, run_gen_n1, run_n1, CaOptions};
use gm_network::{cases, generate_scale, CaseId, Modification, Network, ScaleId, YBus};
use gm_numeric::{DMat, DenseLu};
use gm_powerflow::{
    run_batch, sensitivities, solve, solve_dc, solve_fast_decoupled, solve_from, CompensationBase,
    PfOptions, ScenarioSet,
};
use gm_serve::BoundedQueue;
use gm_sparse::{CompensatedLu, CsMat, Ordering, SymbolicLu, Triplets};
use gm_telemetry::Registry;
use gridmind_core::{GridMind, QueryKind, SolverCache, SolverCacheKey, SolverResult};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// A metric value and how many samples stand behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub samples: usize,
}

pub type Samples = BTreeMap<&'static str, Sample>;

/// Best-of-`reps` wall seconds of `f`.
fn best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Mean seconds per call over a tight loop, for calls too short to time
/// singly; best of three loops.
fn per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    best(3, || {
        for _ in 0..calls {
            f();
        }
    }) / calls as f64
}

struct Out(Samples);

impl Out {
    fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, Sample { value, samples });
    }
}

/// DC B-matrix with the slack row pinned: the power-grid Laplacian
/// pattern every solver in the stack factors, built from the public
/// network model.
fn b_matrix(net: &Network) -> CsMat<f64> {
    let n = net.n_bus();
    let slack = net.slack().unwrap_or(0);
    let mut t = Triplets::new(n, n);
    for br in net.branches.iter().filter(|b| b.in_service) {
        let b = 1.0 / br.x_pu;
        let (i, j) = (br.from_bus, br.to_bus);
        if i != slack {
            t.push(i, i, b);
        }
        if j != slack {
            t.push(j, j, b);
        }
        if i != slack && j != slack {
            t.push(i, j, -b);
            t.push(j, i, -b);
        }
    }
    t.push(slack, slack, 1.0);
    t.to_csr()
}

fn sparse(out: &mut Out, net: &Network, names: [&'static str; 6], compensate: bool) {
    let b = b_matrix(net);
    let n = b.rows();
    out.put(names[0], best(3, || Ordering::Amd.permutation(&b)) * 1e3, 3);
    let mut kept = None;
    let analyze = best(3, || {
        kept = SymbolicLu::analyze(&b, Ordering::Amd, 0.1).ok()
    });
    out.put(names[1], analyze * 1e3, 3);
    let Some((sym, mut numeric)) = kept else {
        return;
    };
    let mut scratch = Vec::new();
    out.put(
        names[2],
        best(5, || sym.refactor_into(&b, &mut numeric, &mut scratch)) * 1e6,
        5,
    );
    let rhs: Vec<f64> = (0..n)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 25.0)
        .collect();
    let (mut x, mut work) = (rhs.clone(), vec![0.0; n]);
    out.put(
        names[3],
        best(10, || {
            x.copy_from_slice(&rhs);
            numeric.solve_in_place(&mut x, &mut work);
        }) * 1e6,
        10,
    );
    const NRHS: usize = 64;
    let panel0: Vec<f64> = (0..n * NRHS)
        .map(|i| ((i * 31 % 97) as f64 - 48.0) / 24.0)
        .collect();
    let (mut panel, mut pwork) = (panel0.clone(), vec![0.0; n * NRHS + NRHS]);
    out.put(
        names[4],
        best(3, || {
            panel.copy_from_slice(&panel0);
            numeric.solve_many_in_place(&mut panel, NRHS, &mut pwork);
        }) * 1e6,
        3,
    );
    out.put(names[5], numeric.factor_nnz() as f64, 1);
    if compensate {
        // A rank-4 endpoint-block update, the shape an outage leaves.
        let at = [n / 5, n / 5 + 1, n / 2, n / 2 + 1];
        let block: Vec<f64> = (0..16)
            .map(|k| if k % 5 == 0 { 0.5 } else { -0.05 })
            .collect();
        let build = best(10, || {
            CompensatedLu::new(&numeric, &at, &at, &block).is_ok()
        });
        out.put("sparse.compensate_build_us.synth1354", build * 1e6, 10);
        if let Ok(comp) = CompensatedLu::new(&numeric, &at, &at, &block) {
            let solve_s = best(10, || {
                x.copy_from_slice(&rhs);
                comp.solve_in_place(&mut x, &mut work);
            });
            out.put("sparse.compensate_solve_us.synth1354", solve_s * 1e6, 10);
        }
    }
}

fn powerflow_scale(
    out: &mut Out,
    net: &Network,
    newton: &'static str,
    iters: &'static str,
    reps: usize,
) {
    let opts = PfOptions::default();
    let mut last = None;
    out.put(
        newton,
        best(reps, || last = solve(net, &opts).ok()) * 1e3,
        reps,
    );
    if let Some(rep) = last {
        out.put(iters, rep.iterations as f64, 1);
    }
}

fn acopf_case(
    out: &mut Out,
    id: CaseId,
    ms: &'static str,
    iters: &'static str,
    reps: usize,
) -> f64 {
    let net = cases::load(id);
    let mut last = None;
    let secs = best(reps, || {
        last = solve_acopf(&net, &AcopfOptions::default()).ok()
    });
    out.put(ms, secs * 1e3, reps);
    let n_iter = last.map_or(0, |s| s.iterations);
    out.put(iters, n_iter as f64, 1);
    secs / n_iter.max(1) as f64
}

/// Runs every probe. `Smoke` swaps the big cases for small ones so the
/// self-tests exercise the same code in seconds.
pub fn run(size: Size) -> Samples {
    let full = size == Size::Full;
    let mut out = Out(Samples::new());
    let (big, mid, small) = if full {
        (ScaleId::Synth9241, ScaleId::Synth2869, ScaleId::Synth1354)
    } else {
        (ScaleId::Synth1354, ScaleId::Synth1354, ScaleId::Synth1354)
    };
    let (c118, c300, c57) = if full {
        (CaseId::Ieee118, CaseId::Ieee300, CaseId::Ieee57)
    } else {
        (CaseId::Ieee30, CaseId::Ieee57, CaseId::Ieee30)
    };

    // network
    out.put(
        "network.load_case_ms.case118",
        best(3, || cases::load(c118)) * 1e3,
        3,
    );
    out.put(
        "network.load_case_ms.case300",
        best(3, || cases::load(c300)) * 1e3,
        3,
    );
    let (net118, net300) = (cases::load(c118), cases::load(c300));
    let mut net_big = None;
    let gen_s = best(1, || net_big = generate_scale(&big.spec()).ok());
    out.put("network.generate_scale_s.synth9241", gen_s, 1);
    let (Some(net_big), Ok(net_mid), Ok(net_small)) = (
        net_big,
        generate_scale(&mid.spec()),
        generate_scale(&small.spec()),
    ) else {
        return out.0;
    };
    out.put(
        "network.ybus_us.case118",
        best(20, || YBus::assemble(&net118)) * 1e6,
        20,
    );
    out.put(
        "network.ybus_us.synth9241",
        best(3, || YBus::assemble(&net_big)) * 1e6,
        3,
    );
    out.put(
        "network.content_hash_us.case118",
        best(10, || net118.content_hash()) * 1e6,
        10,
    );
    out.put(
        "network.content_hash_us.synth1354",
        best(3, || net_small.content_hash()) * 1e6,
        3,
    );
    let first_load_bus = net118.buses[net118.loads[0].bus].id;
    let edit = Modification::SetBusLoad {
        bus_id: first_load_bus,
        p_mw: 12.5,
        q_mvar: None,
    };
    let mut scratch_net = net118.clone();
    out.put(
        "network.apply_mod_us",
        best(50, || edit.apply(&mut scratch_net).is_ok()) * 1e6,
        50,
    );

    // sparse, numeric
    sparse(
        &mut out,
        &net_small,
        [
            "sparse.amd_ms.synth1354",
            "sparse.analyze_ms.synth1354",
            "sparse.refactor_us.synth1354",
            "sparse.solve_us.synth1354",
            "sparse.panel64_us.synth1354",
            "sparse.fill_nnz.synth1354",
        ],
        true,
    );
    sparse(
        &mut out,
        &net_big,
        [
            "sparse.amd_ms.synth9241",
            "sparse.analyze_ms.synth9241",
            "sparse.refactor_us.synth9241",
            "sparse.solve_us.synth9241",
            "sparse.panel64_us.synth9241",
            "sparse.fill_nnz.synth9241",
        ],
        false,
    );
    let dense = DMat::from_fn(64, 64, |i, j| {
        if i == j {
            8.0
        } else {
            1.0 / (1.0 + (i + 2 * j) as f64)
        }
    });
    out.put(
        "numeric.dense_lu_us.n64",
        best(20, || DenseLu::factor(&dense).is_ok()) * 1e6,
        20,
    );

    // powerflow
    let pf = PfOptions::default();
    out.put(
        "powerflow.newton_ms.case118",
        best(5, || solve(&net118, &pf).is_ok()) * 1e3,
        5,
    );
    out.put(
        "powerflow.newton_ms.case300",
        best(5, || solve(&net300, &pf).is_ok()) * 1e3,
        5,
    );
    powerflow_scale(
        &mut out,
        &net_small,
        "powerflow.newton_ms.synth1354",
        "powerflow.newton_iters.synth1354",
        3,
    );
    powerflow_scale(
        &mut out,
        &net_mid,
        "powerflow.newton_ms.synth2869",
        "powerflow.newton_iters.synth2869",
        3,
    );
    powerflow_scale(
        &mut out,
        &net_big,
        "powerflow.newton_ms.synth9241",
        "powerflow.newton_iters.synth9241",
        2,
    );
    if let Ok(base) = solve(&net_small, &pf) {
        let v0 = voltages(&base);
        let mut moved = net_small.clone();
        for (k, l) in moved.loads.iter_mut().enumerate() {
            let f = 1.0 + 0.04 * ((k % 7) as f64 - 3.0) / 3.0;
            l.p_mw *= f;
            l.q_mvar *= f;
        }
        let warm = best(3, || solve_from(&moved, &pf, Some(&v0)).is_ok());
        out.put("powerflow.newton_warm_ms.synth1354", warm * 1e3, 3);
    }
    out.put(
        "powerflow.fdlf_ms.synth9241",
        best(2, || solve_fast_decoupled(&net_big, &pf).is_ok()) * 1e3,
        2,
    );
    out.put(
        "powerflow.dc_ms.synth9241",
        best(3, || solve_dc(&net_big).is_ok()) * 1e3,
        3,
    );
    for (name, net, set, reps) in [
        (
            "powerflow.batch_us_per_scenario.case118",
            &net118,
            ScenarioSet::load_sweep(0.9, 1.1, 96),
            3,
        ),
        (
            "powerflow.batch_us_per_scenario.case300",
            &net300,
            ScenarioSet::load_sweep(0.95, 1.05, 24),
            2,
        ),
        (
            "powerflow.batch_us_per_scenario.synth1354",
            &net_small,
            ScenarioSet::load_sweep(0.97, 1.03, 8),
            2,
        ),
    ] {
        let secs = best(reps, || run_batch(net, &pf, &set).is_ok());
        out.put(name, secs * 1e6 / set.len() as f64, reps);
    }
    let ca = CaOptions::default();
    if let Ok(base) = solve(&net118, &ca.pf) {
        if let Ok(cb) = CompensationBase::new(&net118, &ca.pf, &base) {
            // The first outages that the compensated path accepts.
            let mut work = net118.clone();
            let (mut total, mut solved) = (0.0, 0usize);
            for bi in 0..net118.branches.len() {
                if solved == 20 {
                    break;
                }
                work.branches[bi].in_service = false;
                let t0 = Instant::now();
                let ok = cb.solve_outage(&work, &ca.pf, &[bi]).is_ok();
                let dt = t0.elapsed().as_secs_f64();
                work.branches[bi].in_service = true;
                if ok {
                    total += dt;
                    solved += 1;
                }
            }
            out.put(
                "powerflow.compensated_ms_per_outage.case118",
                total * 1e3 / solved.max(1) as f64,
                solved,
            );
        }
    }
    out.put(
        "powerflow.sensitivities_ms.case118",
        best(3, || sensitivities(&net118).is_ok()) * 1e3,
        3,
    );

    // acopf
    acopf_case(
        &mut out,
        CaseId::Ieee14,
        "acopf.solve_ms.case14",
        "acopf.ipm_iters.case14",
        5,
    );
    acopf_case(
        &mut out,
        CaseId::Ieee30,
        "acopf.solve_ms.case30",
        "acopf.ipm_iters.case30",
        5,
    );
    acopf_case(
        &mut out,
        c57,
        "acopf.solve_ms.case57",
        "acopf.ipm_iters.case57",
        3,
    );
    let per_iter = acopf_case(
        &mut out,
        c118,
        "acopf.solve_ms.case118",
        "acopf.ipm_iters.case118",
        2,
    );
    out.put("acopf.ms_per_iter.case118", per_iter * 1e3, 2);
    out.put(
        "acopf.solve_s.case300",
        best(1, || solve_acopf(&net300, &AcopfOptions::default()).is_ok()),
        1,
    );
    {
        // Counts come from a registry the benchmark installs itself.
        let reg = Registry::new();
        let guard = reg.install();
        let _ = black_box(solve_acopf(&net118, &AcopfOptions::default()));
        drop(guard);
        let mut counts = BTreeMap::new();
        add_counters(&mut counts, &reg);
        out.put(
            "acopf.kkt_symbolic_reuse_ratio.case118",
            symbolic_reuse(&counts).0,
            1,
        );
    }
    out.put(
        "acopf.dcopf_ms.case118",
        best(3, || solve_dcopf(&net118, &IpmOptions::default()).is_ok()) * 1e3,
        3,
    );
    let net30 = cases::load(CaseId::Ieee30);
    out.put(
        "acopf.scopf_ms.case30",
        best(3, || solve_scopf(&net30, &ScopfOptions::default()).is_ok()) * 1e3,
        3,
    );
    {
        let net57 = cases::load(c57);
        let reg = Registry::new();
        let guard = reg.install();
        let secs = best(1, || solve_scopf(&net57, &ScopfOptions::default()).is_ok());
        drop(guard);
        out.put("acopf.scopf_ms.case57", secs * 1e3, 1);
        out.put(
            "acopf.scopf_rounds.case57",
            reg.counter_value("acopf.scopf.rounds") as f64,
            1,
        );
    }

    // contingency
    let serial = CaOptions {
        parallel: false,
        ..Default::default()
    };
    let net57 = cases::load(c57);
    out.put(
        "contingency.n1_ms.case57",
        best(5, || run_n1(&net57, &ca, None).is_ok()) * 1e3,
        5,
    );
    for (net, n1, n1_serial, speedup, verified, reps) in [
        (
            &net118,
            "contingency.n1_ms.case118",
            "contingency.n1_serial_ms.case118",
            "contingency.parallel_speedup.case118",
            "contingency.ac_verified_ratio.case118",
            5,
        ),
        (
            &net300,
            "contingency.n1_ms.case300",
            "contingency.n1_serial_ms.case300",
            "contingency.parallel_speedup.case300",
            "contingency.ac_verified_ratio.case300",
            3,
        ),
    ] {
        let mut last = None;
        let par = best(reps, || last = run_n1(net, &ca, None).ok());
        let ser = best(reps, || run_n1(net, &serial, None).is_ok());
        out.put(n1, par * 1e3, reps);
        out.put(n1_serial, ser * 1e3, reps);
        out.put(speedup, ser / par, reps);
        if let Some(rep) = last {
            out.put(
                verified,
                rep.ac_verified as f64 / rep.n_contingencies.max(1) as f64,
                1,
            );
        }
    }
    out.put(
        "contingency.gen_n1_ms.case118",
        best(3, || run_gen_n1(&net118, &ca, None).is_ok()) * 1e3,
        3,
    );
    out.put(
        "contingency.n2_preview_ms.case118",
        best(3, || n_minus_2_preview(&net118, &ca, None, 16).is_ok()) * 1e3,
        3,
    );

    // agents, core
    const UTTERANCE: &str =
        "Increase the load at bus 59 to 290 MW, then run the n-1 contingency analysis";
    let nlu = per_call(2000, || {
        black_box(gm_agents::extract_entities(black_box(UTTERANCE)));
    });
    out.put("agents.nlu_us", nlu * 1e6, 2000);
    let route = per_call(2000, || {
        black_box(GridMind::route(black_box(UTTERANCE)));
    });
    out.put("core.route_us", route * 1e6, 2000);
    {
        let name = c118.short_name();
        let mut gm = GridMind::new(profile());
        let mut ask = |q: &str| {
            let t0 = Instant::now();
            black_box(gm.ask(q));
            t0.elapsed().as_secs_f64()
        };
        // Twice: a standalone session has no solver cache, so the second
        // solve does the same work, and a 0.6 s solve needs the minimum.
        let pf_ask = ask(&format!("solve {name}")).min(ask(&format!("solve {name}")));
        let status = (0..5)
            .map(|_| ask("what is the network status"))
            .fold(f64::INFINITY, f64::min);
        let sweep = ask("run the n-1 contingency analysis");
        let batch = ask("sweep the load from 90% to 110% in 96 steps");
        let load = net118.loads[0].p_mw * 1.03;
        let mutate = ask(&format!(
            "set the load at bus {first_load_bus} to {load:.2} MW"
        ));
        out.put("core.ask_ms.status", status * 1e3, 5);
        out.put("core.ask_ms.pf", pf_ask * 1e3, 2);
        out.put("core.ask_ms.mutate", mutate * 1e3, 1);
        out.put("core.ask_ms.contingency", sweep * 1e3, 1);
        out.put("core.ask_ms.batch", batch * 1e3, 1);
        // Residual = the turn minus the same solver work called directly.
        let direct_pf = best(2, || solve_acopf(&net118, &AcopfOptions::default()).is_ok());
        let direct_n1 = best(1, || {
            let base = solve(&net118, &ca.pf).ok();
            run_n1(&net118, &ca, base.as_ref()).is_ok()
        });
        let set = ScenarioSet::load_sweep(0.9, 1.1, 96);
        let direct_batch = best(1, || run_batch(&net118, &pf, &set).is_ok());
        out.put("core.turn_residual_ms.pf", (pf_ask - direct_pf) * 1e3, 2);
        out.put(
            "core.turn_residual_ms.contingency",
            (sweep - direct_n1) * 1e3,
            1,
        );
        out.put(
            "core.turn_residual_ms.batch",
            (batch - direct_batch) * 1e3,
            1,
        );
    }
    if let Ok(report) = solve(&net118, &pf) {
        let cache = SolverCache::new(64);
        let key = |k: u64| SolverCacheKey {
            net_hash: k,
            kind: QueryKind::BasePf,
            params: 7,
        };
        let mut next = 0u64;
        let put = per_call(200, || {
            next += 1;
            cache.put(key(next), SolverResult::Pf(report.clone()));
        });
        out.put("core.cache.put_us", put * 1e6, 200);
        let hit = per_call(200, || {
            black_box(cache.get(&key(next)));
        });
        out.put("core.cache.get_hit_us", hit * 1e6, 200);
    }

    // serve, telemetry, faults
    let queue: BoundedQueue<u64> = BoundedQueue::new(1024);
    let push_pop = per_call(100_000, || {
        let _ = queue.push(black_box(1));
        black_box(queue.pop());
    });
    out.put("serve.queue_push_pop_ns", push_pop * 1e9, 100_000);
    {
        let reg = Registry::new();
        let _guard = reg.install();
        let span = per_call(20_000, || drop(gm_telemetry::span!("probe")));
        out.put("telemetry.span_ns", span * 1e9, 20_000);
        let add = per_call(100_000, || gm_telemetry::counter_add("probe.counter", 1));
        out.put("telemetry.counter_add_ns", add * 1e9, 100_000);
    }
    let fire = per_call(1_000_000, || {
        black_box(gm_faults::inject(black_box("probe.site")));
    });
    out.put("faults.noop_fire_ns", fire * 1e9, 1_000_000);
    out.0
}
