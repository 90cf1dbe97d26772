//! `opf_dialogue` — the paper's headline tool. One engineer, a fresh
//! `GridMind` per dialogue: solve a case, ask seeded what-if edits (each
//! re-solves the ACOPF), check status, and on case30 close with a
//! security-constrained solve. `acopf` and its KKT use of `sparse` do
//! nearly all the work; `contingency` and `serve` do none.

use super::{add_counters, loaded_buses, profile, timed, timed_ask, Ask, Round, Size, Workload};
use crate::rng::Rng;
use crate::sys;
use crate::trace::Tracer;
use gm_acopf::{solve_acopf, solve_scopf, AcopfOptions, ScopfOptions};
use gm_network::{cases, CaseId, Network};
use gridmind_core::GridMind;
use serde_json::{json, Value};
use std::time::Instant;

const CLASSES: [&str; 6] = ["status", "opf14", "opf30", "scopf30", "opf57", "opf118"];
const STATUS: usize = 0;
const SCOPF30: usize = 3;

/// Per case: class of its OPF ops, dialogues per round, edits per
/// dialogue. The shares put p50 inside `opf30` and p90 inside `opf57`
/// with room on both sides (see the README's class table).
struct CasePlan {
    id: CaseId,
    class: usize,
    dialogues: usize,
    edits: usize,
    scopf: bool,
}

fn plans(size: Size) -> Vec<CasePlan> {
    let full = size == Size::Full;
    let n = |full_n, smoke_n| if full { full_n } else { smoke_n };
    vec![
        CasePlan {
            id: CaseId::Ieee14,
            class: 1,
            dialogues: n(5, 1),
            edits: n(3, 1),
            scopf: false,
        },
        CasePlan {
            id: CaseId::Ieee30,
            class: 2,
            dialogues: n(5, 1),
            edits: n(8, 2),
            scopf: true,
        },
        CasePlan {
            id: CaseId::Ieee57,
            class: 4,
            dialogues: n(3, 1),
            edits: n(5, 1),
            scopf: false,
        },
        CasePlan {
            id: CaseId::Ieee118,
            class: 5,
            dialogues: n(1, 0),
            edits: 0,
            scopf: false,
        },
    ]
}

struct Dialogue {
    plan: usize,
    asks: Vec<Ask>,
}

pub struct OpfDialogue {
    plans: Vec<CasePlan>,
    nets: Vec<Network>,
    sites: Vec<EditSites>,
    dialogues: Vec<Dialogue>,
    /// Draws for replacing an edit whose reference solve failed.
    redraw: Rng,
}

/// Where a seeded edit on a case may land; worked out once per case.
struct EditSites {
    /// `(bus index, MW)` of the loaded buses.
    loads: Vec<(usize, f64)>,
    /// Buses hosting exactly one in-service generator above 20 MW.
    single_gens: Vec<usize>,
}

impl EditSites {
    fn of(net: &Network) -> EditSites {
        let single_gens = (0..net.n_bus())
            .filter(|&b| {
                let mut at = net.gens.iter().filter(|g| g.in_service && g.bus == b);
                matches!((at.next(), at.next()), (Some(g), None) if g.p_max_mw > 20.0)
            })
            .collect();
        EditSites {
            loads: loaded_buses(net),
            single_gens,
        }
    }
}

fn edit(rng: &mut Rng, net: &Network, sites: &EditSites, class: usize) -> Ask {
    // One edit in four changes a generator's limits; the rest move a
    // load by up to ±8%, small enough that the solve stays feasible.
    if rng.below(4) == 0 && !sites.single_gens.is_empty() {
        let bus = sites.single_gens[rng.below(sites.single_gens.len())];
        let g = net
            .gens
            .iter()
            .find(|g| g.in_service && g.bus == bus)
            .expect("bus was filtered on hosting a generator");
        // The quarter keeps the lower bound from parsing as the bus id.
        let lo = g.p_min_mw + 0.25;
        let hi = g.p_max_mw * rng.range(0.88, 0.98);
        return Ask {
            class,
            utterance: format!(
                "limit the generator at bus {} to between {lo:.2} and {hi:.1} MW",
                net.buses[bus].id
            ),
            tools: &["modify_gen_limits"],
            text: "Re-solved after changing the limits of",
        };
    }
    let (bus, p) = sites.loads[rng.below(sites.loads.len())];
    Ask {
        class,
        utterance: format!(
            "set the load at bus {} to {:.2} MW",
            net.buses[bus].id,
            p * rng.range(0.92, 1.08)
        ),
        tools: &["modify_bus_load"],
        text: "Re-solved the ACOPF after setting the load at bus",
    }
}

fn dialogue(
    rng: &mut Rng,
    plan_ix: usize,
    plan: &CasePlan,
    net: &Network,
    sites: &EditSites,
) -> Dialogue {
    let mut asks = vec![Ask {
        class: plan.class,
        utterance: format!("solve {}", plan.id.short_name()),
        tools: &["solve_acopf_case"],
        text: "Solved ACOPF for",
    }];
    asks.extend((0..plan.edits).map(|_| edit(rng, net, sites, plan.class)));
    asks.push(Ask {
        class: STATUS,
        utterance: "what is the network status".into(),
        tools: &["get_network_status"],
        text: "Active case:",
    });
    if plan.scopf {
        asks.push(Ask {
            class: SCOPF30,
            utterance: "find a secure dispatch".into(),
            tools: &["solve_security_constrained"],
            text: "Solved the security-constrained OPF",
        });
    }
    Dialogue {
        plan: plan_ix,
        asks,
    }
}

impl OpfDialogue {
    pub fn build(seed: u64, size: Size) -> OpfDialogue {
        let mut rng = Rng::new(seed, "opf_dialogue");
        let plans = plans(size);
        let nets: Vec<Network> = plans.iter().map(|p| cases::load(p.id)).collect();
        let sites: Vec<EditSites> = nets.iter().map(EditSites::of).collect();
        let mut dialogues = Vec::new();
        for (ix, plan) in plans.iter().enumerate() {
            for _ in 0..plan.dialogues {
                dialogues.push(dialogue(&mut rng, ix, plan, &nets[ix], &sites[ix]));
            }
        }
        rng.shuffle(&mut dialogues);
        OpfDialogue {
            plans,
            nets,
            sites,
            dialogues,
            redraw: Rng::new(seed, "opf_dialogue.redraw"),
        }
    }
}

impl Workload for OpfDialogue {
    fn classes(&self) -> &'static [&'static str] {
        &CLASSES
    }

    fn single_client(&self) -> bool {
        true
    }

    fn op_classes(&self) -> Vec<usize> {
        self.dialogues
            .iter()
            .flat_map(|d| d.asks.iter().map(|a| a.class))
            .collect()
    }

    fn op_labels(&self) -> Vec<String> {
        self.dialogues
            .iter()
            .flat_map(|d| {
                d.asks
                    .iter()
                    .map(|a| format!("{}: {}", self.plans[d.plan].id.short_name(), a.utterance))
            })
            .collect()
    }

    fn oplist_digest(&self) -> u64 {
        self.dialogues
            .iter()
            .flat_map(|d| &d.asks)
            .fold(crate::rng::fnv1a(b"opf_dialogue"), |h, a| a.digest(h))
    }

    fn run_round(&mut self, tracer: &mut Tracer) -> Round {
        let mut round = Round::default();
        let (cpu0, wall0) = (sys::cpu_seconds(), Instant::now());
        for d in &self.dialogues {
            let mut gm = GridMind::new(profile());
            for ask in &d.asks {
                let op = round.ops.len();
                let (result, t) = timed_ask(&mut gm, ask);
                round.ops.push(result);
                if !tracer.enabled() {
                    continue;
                }
                let span = tracer.record(
                    None,
                    Some(op),
                    "core",
                    &format!("ask:{}", CLASSES[ask.class]),
                    t.start,
                    t.end,
                );
                // The solver's share of the turn: the same solve on the
                // session's network, called directly.
                let replay_started = Instant::now();
                if let Ok(net) = gm.session.current_network() {
                    let child = if ask.class == SCOPF30 {
                        let (_, t) = timed(|| solve_scopf(&net, &ScopfOptions::default()));
                        Some(("solve_scopf", t.secs()))
                    } else if ask.class != STATUS {
                        let (_, t) = timed(|| solve_acopf(&net, &AcopfOptions::default()));
                        Some(("solve_acopf", t.secs()))
                    } else {
                        None
                    };
                    if let Some((name, dur)) = child {
                        tracer.record_child_tail(span, "acopf", name, 0.0, dur);
                    }
                }
                tracer.exclude(replay_started.elapsed().as_secs_f64());
            }
            if tracer.enabled() {
                add_counters(&mut round.counts, &gm.session.telemetry);
            }
        }
        round.wall_s = wall0.elapsed().as_secs_f64();
        round.cpu_s = sys::cpu_seconds() - cpu0;
        round
    }

    fn redraw(&mut self, failed_op: usize) -> bool {
        let mut first = 0;
        for d in &mut self.dialogues {
            if failed_op < first + d.asks.len() {
                let (plan, net) = (&self.plans[d.plan], &self.nets[d.plan]);
                *d = dialogue(&mut self.redraw, d.plan, plan, net, &self.sites[d.plan]);
                return true;
            }
            first += d.asks.len();
        }
        false
    }

    fn anchors(&self) -> Vec<String> {
        // case14 is authentic data and MATPOWER publishes its optimum.
        const CASE14_OBJECTIVE: f64 = 8081.53;
        let net = cases::load(CaseId::Ieee14);
        match solve_acopf(&net, &AcopfOptions::default()) {
            Ok(sol)
                if ((sol.objective_cost - CASE14_OBJECTIVE) / CASE14_OBJECTIVE).abs() <= 1e-6 =>
            {
                Vec::new()
            }
            Ok(sol) => vec![format!(
                "case14 ACOPF objective {:.4} is not {CASE14_OBJECTIVE} to 1e-6",
                sol.objective_cost
            )],
            Err(e) => vec![format!("case14 ACOPF failed: {e}")],
        }
    }

    fn info(&self) -> Value {
        json!({
            "clients": 1,
            "dialogues": self.dialogues.len(),
            "cases": self.plans.iter().map(|p| p.id.short_name()).collect::<Vec<_>>(),
        })
    }
}
