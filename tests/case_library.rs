//! The case library and the session's copy-on-write snapshots: the hash
//! a snapshot carries always equals a fresh `Network::content_hash`,
//! library entries are the parent generator's bytes, an edit in one
//! session is invisible to the library and to every other session, and
//! a served dialogue builds a case once and hashes an edit state once.

use gm_network::{library, CaseId, CaseKey, GridLint, Modification, Network, Severity, Snapshot};
use gm_serve::workload::{run, WorkloadConfig};
use gridmind_core::solver_cache::{memoized, SolverCacheKey};
use gridmind_core::{QueryKind, SessionContext, SolverCache};
use proptest::prelude::*;

/// Every library entry twice over: FNV-1a of its serde rendering — what
/// `content_hash` was until PR 18, unchanged since the per-call
/// generators of PR 15, so the library's bytes did not move — and the
/// field-walk `content_hash` that replaced it.
const ENTRY_HASHES: [(&str, u64, u64); 8] = [
    ("case14", 0x15cf2303d0194b83, 0x6aba5d22aa0be86b),
    ("case30", 0x9df26bf983e85520, 0xf17fe7fba00d08ad),
    ("case57", 0xdf3e8391bec494c7, 0x9f32e04c007744a4),
    ("case118", 0xd4e82da116f39966, 0x058e6d685dbaa81b),
    ("case300", 0x6da8e062881188e9, 0x74840549ccb9a5af),
    ("synth1354", 0xaa59f25e8fec0dce, 0x73af21e72a5b9e9f),
    ("synth2869", 0x7a82558a7d31fc8d, 0xa5e6bece1fb4f98e),
    ("synth9241", 0x8ea0c67a476e1221, 0x29549db145a7e631),
];

#[test]
fn every_entry_is_the_generators_bytes_valid_and_lint_clean() {
    for (key, (name, rendering, hash)) in CaseKey::all().zip(ENTRY_HASHES) {
        assert_eq!(key.short_name(), name);
        let entry = library::case(key);
        let mut h = gm_numeric::Fnv1a::new();
        h.bytes(&serde_json::to_vec(&*entry).unwrap());
        assert_eq!(h.finish(), rendering, "{name}: the entry's bytes moved");
        assert_eq!(entry.content_hash(), hash, "{name}: carried hash");
        assert_eq!(Network::content_hash(&entry), hash, "{name}: fresh hash");
        entry.validate().unwrap_or_else(|e| panic!("{name}: {e:?}"));
        let errors: Vec<_> = GridLint
            .audit(&entry)
            .into_iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{name}: {errors:?}");
        assert!(Snapshot::ptr_eq(&entry, &library::find(name).unwrap().0));
    }
}

/// One step of a random session history.
#[derive(Clone, Debug)]
enum Step {
    Edit(Modification),
    Load(&'static str),
}

fn step() -> impl Strategy<Value = Step> {
    // Bus ids, indices and factors run past what case14/case30 hold, so
    // a good share of the edits is rejected.
    (0usize..7, 1u32..40, 0usize..50, 0.5f64..1.5).prop_map(|(kind, bus_id, index, x)| match kind {
        0 => Step::Edit(Modification::SetBusLoad {
            bus_id,
            p_mw: 40.0 * x,
            q_mvar: None,
        }),
        1 => Step::Edit(Modification::ScaleAllLoads { factor: x }),
        2 => Step::Edit(Modification::OutageBranch { index }),
        3 => Step::Edit(Modification::RestoreBranch { index }),
        4 => Step::Edit(Modification::SetGenLimits {
            index,
            p_min_mw: 0.0,
            p_max_mw: 400.0 * x,
        }),
        5 => Step::Load(if index % 2 == 0 { "case14" } else { "ieee 14" }),
        _ => Step::Load("case30"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn carried_hash_equals_a_fresh_hash_after_any_history(
        steps in prop::collection::vec(step(), 1..12),
    ) {
        let session = SessionContext::new();
        session.load_case("case14").unwrap();
        for step in steps {
            match step {
                // Rejected edits are part of the history under test.
                Step::Edit(m) => {
                    let _ = session.apply(m);
                }
                Step::Load(name) => {
                    session.load_case(name).unwrap();
                }
            }
            let net = session.current_network().unwrap();
            prop_assert_eq!(net.content_hash(), Network::content_hash(&net));
        }
    }
}

#[test]
fn different_edit_orders_reach_the_same_cache_key() {
    let edits = [
        Modification::SetBusLoad {
            bus_id: 9,
            p_mw: 45.0,
            q_mvar: None,
        },
        Modification::SetGenLimits {
            index: 1,
            p_min_mw: 0.0,
            p_max_mw: 90.0,
        },
        Modification::OutageBranch { index: 3 },
    ];
    let reach = |order: [usize; 3]| {
        let session = SessionContext::new();
        session.load_case("case14").unwrap();
        for i in order {
            session.apply(edits[i].clone()).unwrap();
        }
        session.current_network().unwrap()
    };
    let (a, b) = (reach([0, 1, 2]), reach([2, 0, 1]));
    assert!(!Snapshot::ptr_eq(&a, &b));
    let opts = gm_contingency::CaOptions::default();
    let key = |net: &Snapshot| SolverCacheKey {
        net_hash: net.content_hash(),
        kind: QueryKind::BasePf,
        params: opts.fingerprint(),
    };
    assert_eq!(key(&a), key(&b));
    // And the memo path agrees: what one session solved, the other recalls.
    let cache = SolverCache::new(4);
    for net in [&a, &b] {
        memoized(Some(&cache), net, opts.fingerprint(), || {
            gm_contingency::solve_base(net, &opts)
        })
        .unwrap();
    }
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits, stats.inserts), (1, 1, 1));
}

#[test]
fn an_edit_is_invisible_to_the_library_and_to_other_sessions() {
    let (editor, bystander) = (SessionContext::new(), SessionContext::new());
    let (entry, _) = editor.load_case("case30").unwrap();
    bystander.load_case("case30").unwrap();
    let pristine = entry.content_hash();
    // Unedited sessions hold the library's allocation, not a copy of it.
    assert!(Snapshot::ptr_eq(&entry, &library::case(CaseId::Ieee30)));
    assert!(Snapshot::ptr_eq(
        &entry,
        &bystander.current_network().unwrap()
    ));

    editor
        .apply(Modification::ScaleAllLoads { factor: 1.1 })
        .unwrap();
    let edited = editor.current_network().unwrap();
    assert_ne!(edited.content_hash(), pristine);
    // The handle taken before the edit still reads the old network.
    assert_eq!(Network::content_hash(&entry), pristine);
    assert_eq!(library::case(CaseId::Ieee30).content_hash(), pristine);
    assert!(Snapshot::ptr_eq(
        &entry,
        &bystander.current_network().unwrap()
    ));

    // A rejected edit changes nothing, not even the snapshot's identity.
    assert!(editor
        .apply(Modification::OutageBranch { index: 9999 })
        .is_err());
    assert!(Snapshot::ptr_eq(
        &edited,
        &editor.current_network().unwrap()
    ));
}

#[test]
fn reloading_the_active_case_keeps_state_and_touches_nothing() {
    let session = SessionContext::new();
    session.load_case("case118").unwrap();
    session
        .apply(Modification::ScaleAllLoads { factor: 1.05 })
        .unwrap();
    let net = session.current_network().unwrap();
    let rep = gm_powerflow::solve(&net, &gm_powerflow::PfOptions::default()).unwrap();
    session.put_base_pf(rep, 1.0);

    let _g = session.telemetry.install();
    let (again, confidence) = session.load_case("IEEE 118-bus system").unwrap();
    assert!(confidence >= 0.95);
    assert!(Snapshot::ptr_eq(&again, &net), "same-case reload copied");
    assert_eq!(session.diff_count(), 1);
    assert!(session.fresh_base_pf().is_some(), "artifact dropped");
    // No library lookup, no generator, no hash.
    for counter in [
        "network.case_library.hits",
        "network.case_library.builds",
        "network.content_hash.calls",
    ] {
        assert_eq!(session.telemetry.counter_value(counter), 0, "{counter}");
    }
}

#[test]
fn a_served_dialogue_builds_once_and_hashes_once_per_edit_state() {
    let sessions = 3;
    let report = run(&WorkloadConfig {
        workers: 2,
        sessions,
        queue_capacity: 32,
        cache_capacity: 64,
        script: vec![
            "solve case118".into(),
            "what is the network status".into(),
            "run the n-1 contingency analysis".into(),
            "set the load at bus 12 to 50 MW".into(),
            "solve it again".into(),
            "sweep the load from 95% to 105% in 5 steps".into(),
            "what is the network status".into(),
        ],
        faults: None,
    });
    assert!(report.passed(), "{}", report.to_json());
    let snap = gm_telemetry::find_snapshot(&report.telemetry).expect("trace embeds a snapshot");
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(count("network.case_library.builds") <= 1);
    // The library entry arrives hashed; each session's one edit makes
    // one new state, hashed once however many lookups follow it.
    assert_eq!(count("network.content_hash.calls"), sessions as u64);
    assert!(count("serve.cache.hits") + count("serve.cache.misses") >= 4 * sessions as u64);
}
