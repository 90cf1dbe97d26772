//! Answer-text pins for the agent layer.
//!
//! Every narrated sentence is assembled from a tool result, so a
//! refactor of the tool boundary (result shapes, error classification,
//! how the planners read a result) must not move a byte of any answer.
//! One scripted dialogue covers all 11 tools, four load-then-retry
//! recoveries, a degraded (caveated) answer and the transparent-failure
//! sentences; each digest is FNV-1a over `reply.text`, recorded at the
//! commit before the typed tool outputs went in. Rows edited on purpose
//! or added since say so beside their digests.

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
                // The four ACOPF rows below re-recorded on purpose for the
                // IPM's predictor–corrector. This one narrates "converged
                // in 7 interior-point iterations" where the parent said 10
                // (0xb3ac_20bd_0a9a_e8fd); the edit and SCOPF rows narrate
                // a quality score the iteration count enters, 8.4 where
                // the parent said 8.3 (0x42c8_23d8_5690_e248 and
                // 0x8a91_28d5_2456_31b2).
                ("solve case30", 0x1eea_5adc_982a_7777),
                ("set the load at bus 10 to 50 MW", 0xbf1f_65f2_a40c_7069),
                (
                    "limit the generator at bus 2 to between 10 and 60 MW",
                    // A cost change that rounds to nothing reads "+0.00"
                    // whatever the sign of the solver tolerance behind it:
                    // the parent narrated "a change of -0.00 $/h"
                    // (0x6fb1_272e_d1ac_1567), and the case14 row below
                    // would have flipped to it under the predictor–corrector.
                    0x4c55_68b1_5f23_40c5,
                ),
                ("show the current status", 0x9834_701d_39d9_197a),
                (
                    "solve the security-constrained dispatch",
                    0x3ace_1dc6_8b4d_ca7f,
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
                // This row and the status summary below re-recorded on
                // purpose when islanding load sums started from +0.0: the
                // parent narrated "stranding -0.0 MW of load" for lines 10
                // and 12 (0x0325_c7a8_d86c_5feb); no other byte moved.
                // Re-recorded again when the "worst bus" of a voltage
                // violation became the one farthest outside the band: lines
                // 11 and 0 now name bus 11 at 1.082 p.u. (a high-voltage
                // violation) where the lowest voltage was named before
                // (0xc817_e05d_b0b5_dd2f).
                ("run the n-1 contingency analysis", 0xbe22_ddd4_4244_76ee),
                ("analyze the outage of line 3", 0xa323_ab3c_b713_24fd),
                ("analyze the outage of line 30", 0xbc37_156f_6647_7ddb),
                (
                    "what happens if we lose each generator unit",
                    0x0c06_44f8_6ef6_20c6,
                ),
                ("show the contingency status summary", 0xbe22_ddd4_4244_76ee),
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
            // CA load-then-retry: same, on the contingency agent. Re-recorded
            // on purpose when the planner became one state machine: before,
            // the repair's base case was chained into a full N-1 sweep and
            // that report narrated (0xce7c_e752_4931_2c10, what the N-1 row
            // below pinned before its -0.0 fix); now the failed call is
            // retried.
            &[(
                "analyze the outage of line 3 in case14",
                0xc800_0221_6953_c120,
            )],
            // Generator-outage load-then-retry (added with the state
            // machine; a full N-1 report was narrated here before).
            &[(
                "what happens if we lose each generator unit in case14",
                0xfd67_0525_056e_02c2,
            )],
            // Limit-change load-then-retry (added with the state machine;
            // before, the repair's plain ACOPF solve was narrated and the
            // limit never applied).
            &[(
                "limit the generator at bus 2 of case14 to between 10 and 60 MW",
                0x6fb5_ecfe_e816_5534,
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
            // no baseline the clause is gone. The N-1 row re-recorded on
            // purpose when islanding load sums started from +0.0: the parent
            // narrated "stranding -0.0 MW of load" for line 10
            // (0xce7c_e752_4931_2c10). Re-recorded again for the worst
            // voltage violation: "worst bus 8 at 1.090 p.u." where the
            // in-band lowest voltage, "bus 3 at 1.010 p.u.", was named
            // (0x6f80_ff57_69d7_2157).
            &[
                (
                    "run the n-1 contingency analysis on case14",
                    0xe84b_9031_3db9_16c6,
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
            // Re-recorded on purpose for the IPM's predictor–corrector: the
            // DC-OPF fallback narrates 7 iterations and a quality score of
            // 9.9 where the parent said 10 and 9.8 (0x375a_099d_9abf_b61e).
            ("solve case14", 0xb568_4039_43a8_ca0d),
            // Re-recorded on purpose when islanding load sums started from
            // +0.0: the parent narrated "stranding -0.0 MW of load" for
            // line 10 (0x1995_85d8_5b9b_2a29). Re-recorded again for the
            // worst voltage violation, as in the case14 N-1 row above
            // (0x3848_26ad_232a_4ec4).
            ("run the n-1 contingency analysis", 0x9148_1b0a_71f4_9c3f),
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
