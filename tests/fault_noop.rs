//! The fault harness must be invisible when it injects nothing.
//!
//! Two flavors of "nothing": no injector installed at all (the
//! production default — `gm_faults::inject` is a strict no-op), and a
//! disabled injector installed (the harness is consulted at every site
//! but never fires). In both cases every answer must be **byte
//! identical** to the other, the recovery ladder must never engage, and
//! no degraded-answer caveat may appear — a fault layer that perturbs
//! the fault-free path would poison every baseline it is supposed to
//! protect.

use gm_faults::{FaultInjector, FaultKind, FaultRule};
use gridmind_core::{GridMind, ModelProfile, CAVEAT_PREFIX};
use proptest::prelude::*;

/// The query vocabulary the sequences are drawn from: solves, sweeps,
/// mutations, recalls — every tool family the recovery ladder wraps.
fn query_pool() -> Vec<&'static str> {
    vec![
        "solve case14",
        "solve case30",
        "run the n-1 contingency analysis",
        "show me the critical contingencies",
        "set the load at bus 9 to 45 MW",
        "what is the network status",
        "give me a report of the contingency analysis",
    ]
}

fn run_session(
    profile: &ModelProfile,
    queries: &[&str],
    faults: Option<&FaultInjector>,
) -> Vec<String> {
    let _guard = faults.map(FaultInjector::install);
    let mut gm = GridMind::new(profile.clone());
    let replies = queries.iter().map(|q| gm.ask(q).text).collect();
    assert_eq!(
        gm.session.telemetry.sum_prefix("recovery."),
        0,
        "recovery ladder engaged without any injected fault"
    );
    replies
}

/// Runs `queries` fault-free and under `rules`, and asserts the faults
/// were absorbed below the recovery ladder: more than `min_injected`
/// fired, each became exactly one bump of `fallback_counter`, no
/// `recovery.*` counter moved, no caveat appeared, and every answer
/// reads the same as the fault-free one.
fn assert_absorbed_below_the_ladder(
    rules: Vec<FaultRule>,
    queries: &[&str],
    fallback_counter: &str,
    min_injected: u64,
) {
    let profile = ModelProfile::paper_models().remove(0);
    let baseline: Vec<String> = {
        let mut gm = GridMind::new(profile.clone());
        queries.iter().map(|q| gm.ask(q).text).collect()
    };

    let inj = FaultInjector::scripted(rules);
    let guard = inj.install();
    let mut gm = GridMind::new(profile);
    let answers: Vec<String> = queries.iter().map(|q| gm.ask(q).text).collect();
    drop(guard);

    assert!(
        inj.injected_total() > min_injected,
        "only {} faults fired — the attacked path is no longer exercised",
        inj.injected_total()
    );
    assert_eq!(
        gm.session.telemetry.counter_value(fallback_counter),
        inj.injected_total(),
        "every injected fault must become exactly one {fallback_counter}"
    );
    assert_eq!(
        gm.session.telemetry.sum_prefix("recovery."),
        0,
        "the internal fallback leaked into the solver recovery ladder"
    );
    assert!(
        answers.iter().all(|t| !t.contains(CAVEAT_PREFIX)),
        "caveat appeared for a fault the solver layer must absorb"
    );
    assert_eq!(answers, baseline, "the fallback changed an answer");
}

/// A `LuSingular` fault under pattern-reuse refactorization must be
/// absorbed *inside* the sparse layer: every attacked refactorization
/// falls back to a full symbolic re-analysis (counted as
/// `sparse.symbolic.fallback`) — a slower route to the same bits, not a
/// degraded method.
#[test]
fn refactor_fault_falls_back_without_descending_the_ladder() {
    assert_absorbed_below_the_ladder(
        vec![FaultRule::new(
            "sparse.refactor",
            FaultKind::LuSingular,
            0,
            u64::MAX,
        )],
        &["solve case14", "run the n-1 contingency analysis"],
        "sparse.symbolic.fallback",
        0,
    );
}

/// A `LuSingular` fault at the IPM's LDLᵀ site must be absorbed inside
/// the interior point loop: every attacked barrier iteration takes its
/// step from the one-shot pivoting LU instead (counted as
/// `acopf.kkt.lu_fallbacks`) — the solver this path replaced, not a
/// degraded method.
#[test]
fn kkt_ldl_fault_takes_the_lu_step_without_descending_the_ladder() {
    // Two isolated iterations of the first solve (case14 takes 28),
    // then every iteration of the second.
    assert_absorbed_below_the_ladder(
        vec![
            FaultRule::new("acopf.kkt.ldl", FaultKind::LuSingular, 2, 1),
            FaultRule::new("acopf.kkt.ldl", FaultKind::LuSingular, 5, 1),
            FaultRule::new("acopf.kkt.ldl", FaultKind::LuSingular, 28, u64::MAX),
        ],
        &["solve case14", "solve case30"],
        "acopf.kkt.lu_fallbacks",
        2,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn disabled_harness_is_byte_invisible(
        tail in prop::collection::vec(prop::sample::select(query_pool()), 0..5)
    ) {
        // Every sequence opens with a solve so at least one injection
        // site is guaranteed to be consulted.
        let mut picks = vec!["solve case14"];
        picks.extend(tail);
        let mut profiles = ModelProfile::paper_models();
        prop_assert!(!profiles.is_empty());
        let profile = profiles.remove(0);
        let baseline = run_session(&profile, &picks, None);
        let disabled = FaultInjector::disabled();
        let with_harness = run_session(&profile, &picks, Some(&disabled));
        prop_assert_eq!(&baseline, &with_harness, "disabled harness changed an answer");
        prop_assert_eq!(disabled.injected_total(), 0, "disabled injector fired");
        prop_assert!(
            baseline.iter().all(|t| !t.contains(CAVEAT_PREFIX)),
            "caveat appeared on the fault-free path"
        );
        // The harness was really in the loop: solver-layer sites were
        // consulted (and declined) rather than bypassed.
        prop_assert!(
            disabled.hits_at("pf.base") + disabled.hits_at("cache.get")
                + disabled.hits_at("acopf.ipm") > 0,
            "no injection site was ever consulted"
        );
    }
}
