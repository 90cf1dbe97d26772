//! Answer-text pins for the agent layer.
//!
//! Every narrated sentence is assembled from a tool result, so a
//! refactor of the tool boundary (result shapes, error classification,
//! how the planners read a result) must not move a byte of any answer.
//! One scripted dialogue covers all 11 tools, both load-then-retry
//! recoveries, a degraded (caveated) answer and the transparent-failure
//! sentences; each digest is FNV-1a over `reply.text`, recorded at the
//! commit before the typed tool outputs went in (PR 21's parent). The
//! one row that PR edited on purpose says so beside its digest.

use gm_faults::{FaultInjector, FaultKind, FaultRule};
use gm_numeric::Fnv1a;
use gridmind_core::{GridMind, ModelProfile};

fn digest(text: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(text.as_bytes());
    h.finish()
}

/// Runs each dialogue in a fresh session and checks every answer.
fn check(profile: &ModelProfile, dialogues: &[&[(&str, u64)]]) {
    let mut report = String::new();
    let mut failed = false;
    for (d, dialogue) in dialogues.iter().enumerate() {
        let mut gm = GridMind::new(profile.clone());
        for (utterance, want) in dialogue.iter() {
            let reply = gm.ask(utterance);
            let got = digest(&reply.text);
            if got != *want {
                failed = true;
                report.push_str(&format!(
                    "dialogue {d} {utterance:?}: got {got:#018x}, want {want:#018x}\n{}\n\n",
                    reply.text
                ));
            }
        }
    }
    assert!(!failed, "answer text moved:\n{report}");
}

#[test]
fn scripted_dialogue_answers_are_byte_pinned() {
    check(
        &ModelProfile::by_name("GPT-5").unwrap(),
        &[
            // All 11 tools on one session, then three transparent failures.
            &[
                ("what is the current status", 0xc443_1278_fd14_5e9c),
                ("solve case30", 0xb3ac_20bd_0a9a_e8fd),
                ("set the load at bus 10 to 50 MW", 0x42c8_23d8_5690_e248),
                (
                    "limit the generator at bus 2 to between 10 and 60 MW",
                    0x6fb1_272e_d1ac_1567,
                ),
                ("show the current status", 0x9834_701d_39d9_197a),
                (
                    "solve the security-constrained dispatch",
                    0x8a91_28d5_2456_31b2,
                ),
                (
                    "sweep the load from 80% to 120% in 5 steps",
                    0x6a53_9a94_d3cd_7691,
                ),
                (
                    "sweep the load at bus 9 from 50% to 150% in 3 steps",
                    0xfcad_3bf4_0c52_67da,
                ),
                ("run an hourly study across the day", 0x4e1a_4dd7_0950_beb9),
                ("run the n-1 contingency analysis", 0x0325_c7a8_d86c_5feb),
                ("analyze the outage of line 3", 0xa323_ab3c_b713_24fd),
                ("analyze the outage of line 30", 0xbc37_156f_6647_7ddb),
                (
                    "what happens if we lose each generator unit",
                    0x0c06_44f8_6ef6_20c6,
                ),
                ("show the contingency status summary", 0x0325_c7a8_d86c_5feb),
                ("analyze the outage of line 999", 0x5bd7_d818_0643_70e6),
                ("set the load at bus 999 to 5 MW", 0xee49_fb96_78bc_915d),
                (
                    "limit the generator at bus 10 to between 10 and 60 MW",
                    0xad23_b083_d6d0_2a96,
                ),
                ("solve case9000", 0xe28b_fb69_492b_9a59),
            ],
            // ACOPF load-then-retry: the edit names its case, nothing is loaded.
            &[(
                "set the load at bus 10 of case14 to 50 MW",
                0x964b_00fe_ee7c_470b,
            )],
            // CA load-then-retry: same, on the contingency agent.
            &[(
                "analyze the outage of line 3 in case14",
                0xce7c_e752_4931_2c10,
            )],
            // No case anywhere: nothing to retry with.
            &[
                ("set the load at bus 10 to 50 MW", 0x6841_85c5_b6b9_f867),
                ("analyze the outage of line 3", 0x3874_4677_6677_c667),
                ("show the contingency status summary", 0x4a5c_5946_3f79_3c36),
            ],
            // An edit with no earlier ACOPF in the session. The one row PR 21
            // edited on purpose: the parent narrated "(previously 0.00 $/h,
            // a change of +9789.32 $/h)" here (0x0706_4f06_2ee6_35b9); with
            // no baseline the clause is gone.
            &[
                (
                    "run the n-1 contingency analysis on case14",
                    0xce7c_e752_4931_2c10,
                ),
                ("set the load at bus 10 to 50 MW", 0x9ad6_312d_674d_9003),
            ],
        ],
    );
}

#[test]
fn degraded_answers_are_byte_pinned() {
    // One interior-point stall, then one Newton divergence: both answers
    // come from a fallback rung and carry its caveat verbatim.
    let inj = FaultInjector::scripted(vec![
        FaultRule::new("acopf.ipm", FaultKind::IpmStall, 0, 1),
        FaultRule::new("pf.base", FaultKind::NewtonDiverge, 0, 1),
    ]);
    let _g = inj.install();
    check(
        &ModelProfile::by_name("GPT-5").unwrap(),
        &[&[
            ("solve case14", 0x375a_099d_9abf_b61e),
            ("run the n-1 contingency analysis", 0x1995_85d8_5b9b_2a29),
        ]],
    );
}

#[test]
fn an_edit_with_no_earlier_acopf_claims_no_baseline() {
    // The parent narrated "(previously 0.00 $/h, a change of +9789.32
    // $/h)" here: the tool reported `previous_cost` as 0.0 when the
    // session held no ACOPF solution to compare against.
    let mut gm = GridMind::new(ModelProfile::by_name("GPT-5").unwrap());
    gm.ask("run the n-1 contingency analysis on case14");
    let first = gm.ask("set the load at bus 10 to 50 MW");
    assert!(
        first
            .text
            .contains("New objective cost 9789.32 $/h. Losses"),
        "{}",
        first.text
    );
    assert!(!first.text.contains("previously"), "{}", first.text);
    // The next edit has that solve to compare against, and says so.
    let second = gm.ask("set the load at bus 10 to 40 MW");
    assert!(
        second
            .text
            .contains("(previously 9789.32 $/h, a change of -"),
        "{}",
        second.text
    );
}
