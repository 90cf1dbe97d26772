//! Robustness tests: adversarial and degenerate inputs through the whole
//! conversational stack must never panic and must always produce a
//! grounded response (the paper's reliability claim depends on this).

use gm_acopf::{solve_acopf, solve_dcopf, AcopfError, AcopfOptions, IpmOptions};
use gm_agents::{classify, extract_entities, IntentRule, Schema};
use gm_contingency::{evaluate_outage, CaOptions, Outage};
use gm_faults::{FaultInjector, FaultKind, FaultRule};
use gm_network::{cases, CaseId};
use gm_numeric::Complex;
use gm_powerflow::{
    run_batch, solve, solve_dc, solve_fast_decoupled, solve_from, BatchError, PfError, PfOptions,
    ScenarioSet,
};
use gridmind_core::{GridMind, ModelProfile, CAVEAT_PREFIX};
use proptest::prelude::*;

/// Asks one outage study of a session that has case14 loaded but no base
/// case solved, with `fault` scripted at the base-case solve. Returns the
/// narration and the session's `recovery.attempts`.
fn outage_study(ask: &str, fault: Option<FaultRule>) -> (String, u64) {
    let inj = FaultInjector::scripted(fault.into_iter().collect());
    let _g = inj.install();
    let mut gm = GridMind::new(ModelProfile::paper_models().remove(0));
    assert!(gm.session.load_case("case14").is_ok());
    let text = gm.ask(ask).text;
    (
        text,
        gm.session.telemetry.counter_value("recovery.attempts"),
    )
}

/// A base case that needs a fallback rung reaches the user as a caveated
/// answer — never a tool error — and costs exactly one ladder descent,
/// whichever outage study asked for it.
fn assert_caveated(ask: &str, fault: FaultRule) {
    let (text, attempts) = outage_study(ask, Some(fault));
    assert!(text.contains(CAVEAT_PREFIX), "{ask}: {text}");
    assert_eq!(attempts, 1, "{ask}: {text}");
}

#[test]
fn specific_outage_caveats_a_diverging_base_case() {
    assert_caveated(
        "analyze the outage of line 0",
        FaultRule::new("pf.base", FaultKind::NewtonDiverge, 0, 1),
    );
}

#[test]
fn generator_sweep_caveats_a_diverging_base_case() {
    assert_caveated(
        "simulate the loss of each generator unit",
        FaultRule::new("pf.base", FaultKind::NewtonDiverge, 0, 1),
    );
}

#[test]
fn n1_sweep_caveats_a_singular_base_case() {
    // The plan solves the base case first; the second consult of the
    // site is the sweep's own.
    assert_caveated(
        "run the n-1 contingency analysis",
        FaultRule::new("pf.base", FaultKind::LuSingular, 1, 1),
    );
}

#[test]
fn fault_free_outage_studies_never_touch_the_ladder() {
    for ask in [
        "analyze the outage of line 0",
        "simulate the loss of each generator unit",
        "run the n-1 contingency analysis",
    ] {
        let (text, attempts) = outage_study(ask, None);
        assert!(!text.contains(CAVEAT_PREFIX), "{ask}: {text}");
        assert_eq!(attempts, 0, "{ask}");
    }
}

#[test]
fn degenerate_inputs_never_break_the_coordinator() {
    let mut gm = GridMind::new(ModelProfile::by_name("GPT-o4 Mini").unwrap());
    for input in [
        "",
        "   ",
        "?",
        "!!!",
        "solve",                              // intent without entities
        "solve case -1",                      // nonsense case
        "solve case99999",                    // unknown case
        "set the load at bus 99999 to 10 MW", // bus out of range (needs case)
        "ステーション を 解決",               // non-ASCII
        "solve case14 then then then",        // pathological sequencing
        "SOLVE CASE14",                       // shouting
        "solve\tcase14\n",                    // whitespace soup
    ] {
        let reply = gm.ask(input);
        assert!(!reply.text.is_empty(), "empty reply for {input:?}");
        // Every step ends with a narrated answer, even on failure paths.
        for r in &reply.responses {
            assert!(r.rounds >= 1);
        }
    }
}

#[test]
fn very_long_input_is_handled() {
    let mut gm = GridMind::new(ModelProfile::by_name("GPT-5 Nano").unwrap());
    let long = format!("please {} solve case14", "really ".repeat(5000));
    let reply = gm.ask(&long);
    assert!(reply.steps[0].completed, "{}", reply.text);
    assert!(reply.text.contains("Solved ACOPF"));
}

#[test]
fn contradictory_compound_request_executes_sequentially() {
    let mut gm = GridMind::new(ModelProfile::by_name("GPT-o3").unwrap());
    // Both segments are valid; the second overrides the first's case.
    let reply = gm.ask("solve case14 then solve case30");
    assert_eq!(reply.steps.len(), 2);
    assert!(reply.steps.iter().all(|s| s.completed));
    assert_eq!(gm.session.active_case().as_deref(), Some("case30"));
}

#[test]
fn bus_that_does_not_exist_fails_transparently() {
    let mut gm = GridMind::new(ModelProfile::by_name("GPT-o3").unwrap());
    gm.ask("solve case14");
    let reply = gm.ask("set the load at bus 999 to 10 MW");
    // The tool creates loads at *existing* buses only; bus 999 fails.
    assert!(
        reply.text.contains("failed") || reply.text.contains("does not exist"),
        "failure must be narrated transparently: {}",
        reply.text
    );
    // The diff log must not record the failed modification.
    assert_eq!(gm.session.diff_count(), 0);
}

#[test]
fn warm_start_from_another_network_is_a_typed_error() {
    // A caller holding the wrong case's voltages — or a start with a
    // non-finite entry — gets an error it can repair from, at the solver
    // entry and through the outage evaluator.
    let opts = PfOptions::default();
    let case14 = cases::load(CaseId::Ieee14);
    let v_case14 = solve(&case14, &opts).unwrap().voltages();
    let case30 = cases::load(CaseId::Ieee30);
    let with_entry = |bus: usize, value: f64| {
        let mut v0 = v_case14.clone();
        v0[bus] = Complex::new(value, 0.0);
        v0
    };
    let inputs = [
        (
            &case30,
            v_case14.clone(),
            "warm start has 14 entries for 30 buses",
        ),
        (
            &case14,
            with_entry(3, f64::NAN),
            "warm start entry 3 is not finite",
        ),
        (
            &case14,
            with_entry(13, f64::NAN),
            "warm start entry 13 is not finite",
        ),
        (
            &case14,
            with_entry(3, f64::INFINITY),
            "warm start entry 3 is not finite",
        ),
    ];
    for (net, v0, problem) in inputs {
        match solve_from(net, &opts, Some(&v0)) {
            Err(PfError::InvalidNetwork { problems }) => assert_eq!(problems, [problem]),
            other => panic!("{problem}: expected InvalidNetwork, got {other:?}"),
        }

        // `evaluate_outage` treats it like any failed warm start: one
        // retry from flat, and a converged AC answer.
        let reg = gm_telemetry::Registry::new();
        let _guard = reg.install();
        let outage = Outage {
            branch: 0,
            kind: net.branches[0].kind,
        };
        let outcome = evaluate_outage(net, &CaOptions::default(), &v0, outage, 0);
        assert!(
            outcome.converged && outcome.ac_solved,
            "{problem}: {outcome:?}"
        );
        assert_eq!(reg.counter_value("ca.warm_start_retries"), 1, "{problem}");
    }
}

#[test]
fn an_unusable_mva_base_is_a_typed_error_at_every_solver_entry() {
    // Behind a passing `validate()`, a negative base used to panic in
    // Newton's Q-limit clamp (min > max) and a zero base came back from
    // `solve_dc` as an `Ok` report full of NaN.
    let pf = PfOptions::default();
    let set = ScenarioSet::load_sweep(0.9, 1.1, 3);
    for value in [0.0, -100.0, f64::NAN, f64::INFINITY] {
        let mut net = cases::load(CaseId::Ieee14);
        net.base_mva = value;
        let pf_invalid = |r: Result<(), PfError>| matches!(r, Err(PfError::InvalidNetwork { .. }));
        let opf_invalid =
            |r: Result<(), AcopfError>| matches!(r, Err(AcopfError::InvalidNetwork { .. }));
        let typed = [
            ("solve", pf_invalid(solve(&net, &pf).map(drop))),
            (
                "solve_fast_decoupled",
                pf_invalid(solve_fast_decoupled(&net, &pf).map(drop)),
            ),
            ("solve_dc", pf_invalid(solve_dc(&net).map(drop))),
            (
                "run_batch",
                matches!(
                    run_batch(&net, &pf, &set),
                    Err(BatchError::InvalidBase { .. })
                ),
            ),
            (
                "solve_acopf",
                opf_invalid(solve_acopf(&net, &AcopfOptions::default()).map(drop)),
            ),
            (
                "solve_dcopf",
                opf_invalid(solve_dcopf(&net, &IpmOptions::default()).map(drop)),
            ),
        ];
        for (entry, typed) in typed {
            assert!(typed, "{entry} with base_mva = {value}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nlu_never_panics_on_arbitrary_text(input in ".{0,200}") {
        let _ = extract_entities(&input);
        let rules = [
            IntentRule::new("a", &["solve", "case"], &["acopf"], 0.1),
            IntentRule::new("b", &["contingency"], &["critical"], 0.0),
        ];
        let _ = classify(&input, &rules);
    }

    #[test]
    fn schema_validation_never_panics_on_arbitrary_json(
        n in prop::num::f64::ANY,
        s in ".{0,40}",
        flag in any::<bool>(),
    ) {
        let schema = Schema::object(vec![
            gm_agents::Field::required("x", Schema::number().within(&(0.0..=10.0)), ""),
            gm_agents::Field::optional("tag", Schema::string_enum(&["a", "b"]), ""),
        ]);
        for v in [
            serde_json::json!({"x": n, "tag": s}),
            serde_json::json!([n, s, flag]),
            serde_json::json!(null),
            serde_json::json!({"x": {"nested": s}}),
        ] {
            let _ = schema.validate(&v);
        }
    }

    #[test]
    fn coordinator_survives_fragment_soup(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "solve", "case14", "load", "bus", "7", "mw", "critical",
                "contingency", "status", "then", "increase", "50", "the",
                "analysis", "n-1", "line", "3",
            ]),
            1..10,
        )
    ) {
        // Random word salads built from domain vocabulary: the system must
        // respond to every one without panicking, and any solver work it
        // does must stay on the small case (nothing here names a big one).
        let mut gm = GridMind::new(ModelProfile::by_name("GPT-o4 Mini").unwrap());
        let input = parts.join(" ");
        let reply = gm.ask(&input);
        prop_assert!(!reply.text.is_empty());
        prop_assert!(reply.elapsed_s >= 0.0);
    }
}
