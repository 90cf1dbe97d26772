//! One identity for a network state: `Network::content_hash` sees every
//! field of the model, the session's freshness stamps and per-outage
//! cache follow the network's content rather than its edit history, and
//! that cache holds one network's outcomes at a time.

use gm_contingency::{run_n1_cached, CaOptions};
use gm_network::{
    cases, Branch, BranchKind, Bus, BusKind, CaseId, Load, Modification, Network, Shunt,
};
use gridmind_core::{GridMind, ModelProfile, SessionContext};
use std::collections::BTreeSet;

type Mutator = (&'static str, fn(&mut Network));

/// One mutator per field of `Network`, `Bus`, `Load`, `Generator`,
/// `GenCost`, `Branch` and `Shunt`, then a push and a pop per list.
const MUTATORS: &[Mutator] = &[
    ("net.name", |n| n.name.push('x')),
    ("net.base_mva", |n| n.base_mva += 1.0),
    ("bus.id", |n| n.buses[3].id += 1000),
    ("bus.name", |n| n.buses[3].name.push('x')),
    ("bus.kind", |n| n.buses[3].kind = BusKind::Pv),
    ("bus.vm_pu", |n| n.buses[3].vm_pu += 0.01),
    ("bus.va_deg", |n| n.buses[3].va_deg += 0.01),
    ("bus.base_kv", |n| n.buses[3].base_kv += 1.0),
    ("bus.vmin_pu", |n| n.buses[3].vmin_pu -= 0.01),
    ("bus.vmax_pu", |n| n.buses[3].vmax_pu += 0.01),
    ("bus.area", |n| n.buses[3].area += 1),
    ("load.bus", |n| n.loads[2].bus += 1),
    ("load.p_mw", |n| n.loads[2].p_mw += 0.5),
    ("load.q_mvar", |n| n.loads[2].q_mvar += 0.5),
    ("load.in_service", |n| n.loads[2].in_service ^= true),
    ("gen.bus", |n| n.gens[1].bus += 1),
    ("gen.p_mw", |n| n.gens[1].p_mw += 0.5),
    ("gen.q_mvar", |n| n.gens[1].q_mvar += 0.5),
    ("gen.vm_setpoint_pu", |n| n.gens[1].vm_setpoint_pu += 0.01),
    ("gen.p_min_mw", |n| n.gens[1].p_min_mw -= 0.5),
    ("gen.p_max_mw", |n| n.gens[1].p_max_mw += 0.5),
    ("gen.q_min_mvar", |n| n.gens[1].q_min_mvar -= 0.5),
    ("gen.q_max_mvar", |n| n.gens[1].q_max_mvar += 0.5),
    ("gen.in_service", |n| n.gens[1].in_service ^= true),
    ("cost.c2", |n| n.gens[1].cost.c2 += 0.001),
    ("cost.c1", |n| n.gens[1].cost.c1 += 0.001),
    ("cost.c0", |n| n.gens[1].cost.c0 += 0.001),
    ("branch.from_bus", |n| n.branches[4].from_bus += 1),
    ("branch.to_bus", |n| n.branches[4].to_bus += 1),
    ("branch.r_pu", |n| n.branches[4].r_pu += 1e-4),
    ("branch.x_pu", |n| n.branches[4].x_pu += 1e-4),
    ("branch.b_pu", |n| n.branches[4].b_pu += 1e-4),
    ("branch.tap", |n| n.branches[4].tap += 0.01),
    ("branch.shift_deg", |n| n.branches[4].shift_deg += 0.1),
    ("branch.rating_mva", |n| n.branches[4].rating_mva += 1.0),
    ("branch.in_service", |n| n.branches[4].in_service ^= true),
    ("branch.kind", |n| {
        n.branches[4].kind = BranchKind::Transformer
    }),
    ("shunt.bus", |n| n.shunts[0].bus += 1),
    ("shunt.g_mw", |n| n.shunts[0].g_mw += 0.5),
    ("shunt.b_mvar", |n| n.shunts[0].b_mvar += 0.5),
    ("shunt.in_service", |n| n.shunts[0].in_service ^= true),
    ("buses.push", |n| n.buses.push(Bus::pq(99, 138.0))),
    ("loads.push", |n| {
        n.loads.push(Load {
            bus: 0,
            p_mw: 0.0,
            q_mvar: 0.0,
            in_service: false,
        })
    }),
    ("gens.push", |n| n.gens.push(n.gens[0].clone())),
    ("branches.push", |n| {
        n.branches.push(Branch::line(0, 1, 0.0, 0.0, 0.0, 0.0))
    }),
    ("shunts.push", |n| {
        n.shunts.push(Shunt {
            bus: 0,
            g_mw: 0.0,
            b_mvar: 0.0,
            in_service: false,
        })
    }),
    ("buses.pop", |n| n.buses.truncate(n.buses.len() - 1)),
    ("loads.pop", |n| n.loads.truncate(n.loads.len() - 1)),
    ("gens.pop", |n| n.gens.truncate(n.gens.len() - 1)),
    ("branches.pop", |n| {
        n.branches.truncate(n.branches.len() - 1)
    }),
    ("shunts.pop", |n| n.shunts.truncate(n.shunts.len() - 1)),
    // Bit patterns, not values.
    ("-0.0 for 0.0", |n| n.branches[4].shift_deg = -0.0),
    ("rating NaN", |n| n.branches[4].rating_mva = f64::NAN),
    ("rating +inf", |n| n.branches[4].rating_mva = f64::INFINITY),
    ("rating -inf", |n| {
        n.branches[4].rating_mva = f64::NEG_INFINITY
    }),
    ("two fields traded", |n| {
        let l = &mut n.loads[2];
        std::mem::swap(&mut l.p_mw, &mut l.q_mvar);
    }),
];

#[test]
fn every_field_list_length_and_bit_pattern_changes_the_hash() {
    let base = cases::load(CaseId::Ieee14);
    assert!(!base.shunts.is_empty() && base.branches[4].shift_deg.to_bits() == 0);
    let pristine = base.content_hash();
    let mut seen = BTreeSet::from([pristine]);
    for (what, mutate) in MUTATORS {
        let mut net = base.clone();
        mutate(&mut net);
        // Distinct from the base *and* from every other mutation.
        assert!(seen.insert(net.content_hash()), "{what} went unnoticed");
    }
    assert_eq!(base.content_hash(), pristine);
}

#[test]
fn a_serde_round_trip_preserves_the_hash() {
    for id in [CaseId::Ieee14, CaseId::Ieee118] {
        let mut net = cases::load(id);
        Modification::ScaleAllLoads { factor: 1.0 / 3.0 }
            .apply(&mut net)
            .unwrap();
        let text = serde_json::to_string(&net).unwrap();
        let back: Network = serde_json::from_str(&text).unwrap();
        assert_eq!(back.content_hash(), net.content_hash(), "{id:?}");
    }
}

/// A case30 session holding all three artifacts and a swept cache.
fn studied_session() -> Option<GridMind> {
    let mut gm = GridMind::new(ModelProfile::by_name("GPT-5")?);
    gm.ask("solve case30");
    gm.ask("run the n-1 contingency analysis");
    Some(gm)
}

fn fresh_artifacts(s: &SessionContext) -> [bool; 3] {
    [
        s.fresh_acopf().is_some(),
        s.fresh_base_pf().is_some(),
        s.fresh_contingency().is_some(),
    ]
}

#[test]
fn edits_that_change_nothing_stale_nothing_and_real_edits_stale_everything() {
    let no_ops = [
        vec![
            Modification::OutageBranch { index: 5 },
            Modification::RestoreBranch { index: 5 },
        ],
        vec![Modification::ScaleAllLoads { factor: 1.0 }],
    ];
    for edits in no_ops {
        let mut gm = studied_session().expect("built-in GPT-5 profile");
        let session = gm.session.clone();
        assert_eq!(fresh_artifacts(&session), [true; 3]);
        let (hash, (hits, misses)) = (session.net_hash(), session.cache.stats());
        assert!(misses > 0 && hits == 0);
        for m in &edits {
            session.apply(m.clone()).unwrap();
        }
        assert_eq!(session.diff_count(), edits.len(), "the log still records");
        assert_eq!(session.net_hash(), hash, "{edits:?}");
        assert_eq!(fresh_artifacts(&session), [true; 3], "{edits:?}");
        // A repeated sweep finds every AC-verified outage of the first.
        gm.ask("run the n-1 contingency analysis");
        assert_eq!(session.cache.stats(), (misses, misses), "{edits:?}");
    }

    let real_edits = [
        Modification::SetBusLoad {
            bus_id: 7,
            p_mw: 30.0,
            q_mvar: None,
        },
        Modification::ScaleAllLoads { factor: 1.01 },
        Modification::OutageBranch { index: 5 },
        Modification::OutageGen { index: 1 },
        Modification::SetGenLimits {
            index: 1,
            p_min_mw: 0.0,
            p_max_mw: 60.0,
        },
    ];
    for m in real_edits {
        let gm = studied_session().expect("built-in GPT-5 profile");
        gm.session.apply(m.clone()).unwrap();
        assert_eq!(fresh_artifacts(&gm.session), [false; 3], "{m:?}");
    }
}

#[test]
fn the_per_outage_cache_holds_one_network_at_a_time() {
    let session = SessionContext::new();
    let opts = CaOptions::default();
    // One sweep of the session's current network against its cache;
    // returns how many outcomes the sweep looked up (and so deposited).
    let sweep = || {
        let net = session.current_network().unwrap();
        let cache = Some((&session.cache, net.content_hash()));
        let rep = run_n1_cached(&net, &opts, None, cache).unwrap();
        rep.n_contingencies - rep.screened_out
    };
    session.load_case("case30").unwrap();
    for round in 0..10 {
        session
            .apply(Modification::SetBusLoad {
                bus_id: 7,
                p_mw: 20.0 + f64::from(round),
                q_mvar: None,
            })
            .unwrap();
        let verified = sweep();
        assert!(verified > 0);
        assert_eq!(session.cache.len(), verified, "round {round}");
    }
    // Switching cases invalidates nothing by itself; the first outcome
    // of the new case supersedes everything the old one left.
    session.load_case("case14").unwrap();
    assert!(!session.cache.is_empty());
    let verified = sweep();
    assert_eq!(session.cache.len(), verified);
    let (hits, _) = session.cache.stats();
    assert_eq!(hits, 0, "no state recurred, so nothing may hit");
}
