//! Metamorphic coverage of the agent layer.
//!
//! Two relations that must hold whatever the tool boundary looks like
//! inside:
//!
//! 1. **Paraphrase invariance.** Rewording, reordering or respelling the
//!    units of a request the NLU resolves changes neither the first tool
//!    call the planner makes (tool and arguments) nor a byte of the
//!    answer. The table's slot values (bus, MW, line, …) come from a
//!    seeded generator, the same for every paraphrase of an intent.
//! 2. **Every failure class ends well.** Each [`ErrorCode`] is reachable
//!    from an utterance, and the turn that meets it ends either in a
//!    repaired answer or in a failure sentence that quotes no solver
//!    quantity. Nothing panics on the way.
//!
//! Paraphrases the NLU does *not* resolve are listed in EXPERIMENTS.md
//! (PR 21) as the next NLU issue; they are not in the table.

use gm_agents::{
    AgentMemory, AnalysisStyle, ErrorCode, ModelTurn, Planner, ToolCall, TurnAction, VirtualClock,
};
use gm_numeric::Fnv1a;
use gridmind_core::planners::{AcopfPlanner, CaPlanner};
use gridmind_core::{build_acopf_agent, build_ca_agent, AgentKind, GridMind, ModelProfile};
use gridmind_core::{SessionContext, SharedSession};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

/// One intent: how the session is prepared, and ≥ 4 ways of asking.
struct Intent {
    name: &'static str,
    agent: AgentKind,
    /// Utterances run first, in a fresh session.
    setup: &'static [&'static str],
    /// The tool the first plan round must call.
    tool: &'static str,
    /// Templates; `{bus}`, `{mw}`, `{line}`, `{lo}`, `{hi}`, `{from}`,
    /// `{to}` and `{n}` are filled from the seeded slots.
    paraphrases: &'static [&'static str],
}

const INTENTS: &[Intent] = &[
    Intent {
        name: "solve_case",
        agent: AgentKind::Acopf,
        setup: &[],
        tool: "solve_acopf_case",
        paraphrases: &[
            "solve case14",
            "solve IEEE 14",
            "run the ACOPF on case14",
            "case 14: solve the optimal power flow",
            "please optimize the dispatch of the 14 bus system",
        ],
    },
    Intent {
        name: "modify_load",
        agent: AgentKind::Acopf,
        setup: &["solve case14"],
        tool: "modify_bus_load",
        paraphrases: &[
            "set the load at bus {bus} to {mw} MW",
            "increase the load for bus {bus} to {mw}MW",
            "change the demand at bus {bus} to {mw} mw",
            "to {mw} MW, set the bus {bus} load",
            "bus {bus}: adjust load to {mw} MW",
        ],
    },
    Intent {
        name: "modify_gen",
        agent: AgentKind::Acopf,
        setup: &["solve case14"],
        tool: "modify_gen_limits",
        paraphrases: &[
            "limit the generator at bus 2 to between {lo} and {hi} MW",
            "limit the generator at bus 2 to between {hi} and {lo} MW",
            "set the generator limits at bus 2 to {lo} MW and {hi} MW",
            "generator at bus 2: new output limits {lo}MW to {hi}MW",
        ],
    },
    Intent {
        name: "secure_dispatch",
        agent: AgentKind::Acopf,
        setup: &["solve case14"],
        tool: "solve_security_constrained",
        paraphrases: &[
            "solve the security-constrained dispatch",
            "find the secure dispatch",
            "compute a preventive secure dispatch",
            "compute a preventive n-1 secure dispatch",
            "dispatch securely: preventive security-constrained solve",
        ],
    },
    Intent {
        name: "status",
        agent: AgentKind::Acopf,
        setup: &["solve case14", "set the load at bus 9 to 40 MW"],
        tool: "get_network_status",
        paraphrases: &[
            "what is the current status",
            "show the current status",
            "status summary",
            "show me the status of the current state",
        ],
    },
    Intent {
        name: "batch_study",
        agent: AgentKind::Acopf,
        setup: &["solve case14"],
        tool: "batch_study",
        paraphrases: &[
            "sweep the load from {from}% to {to}% in {n} steps",
            "run a load sweep from {from}% to {to}% with {n} scenarios",
            "in {n} steps, sweep the load from {from} percent to {to} percent",
            "batch study: load from {from}% to {to}%, {n} steps",
        ],
    },
    Intent {
        name: "full_analysis",
        agent: AgentKind::Contingency,
        setup: &["solve case14"],
        tool: "solve_base_case",
        paraphrases: &[
            "run the n-1 contingency analysis",
            "what are the most critical contingencies",
            "perform an N-1 reliability assessment",
            "identify the critical outages with a contingency sweep",
            "contingency analysis, please",
        ],
    },
    Intent {
        name: "specific",
        agent: AgentKind::Contingency,
        setup: &["solve case14"],
        tool: "analyze_specific_contingency",
        paraphrases: &[
            "analyze the outage of line {line}",
            "trip line {line} and analyze the impact",
            "line {line}: analyze its outage",
            "analyze what the outage of line {line} does",
        ],
    },
    Intent {
        name: "gen_outages",
        agent: AgentKind::Contingency,
        setup: &["solve case14"],
        tool: "run_generator_contingency_analysis",
        paraphrases: &[
            "what happens if we lose each generator unit",
            "simulate the loss of every generator",
            "analyze generating unit outages",
            "trip each generator in turn",
        ],
    },
    Intent {
        name: "base_case",
        agent: AgentKind::Contingency,
        setup: &["solve case14"],
        tool: "solve_base_case",
        paraphrases: &[
            "solve the base case power flow before any contingency",
            "base case power flow for the contingency study",
            "contingency prep: solve the base power flow",
            "solve the base power flow, contingencies come later",
        ],
    },
    Intent {
        name: "ca_status",
        agent: AgentKind::Contingency,
        setup: &["solve case14", "run the n-1 contingency analysis"],
        tool: "get_contingency_status",
        paraphrases: &[
            "show the contingency status summary",
            "current contingency analysis status",
            "contingency study: show status",
            "show the status of the contingency study",
        ],
    },
];

/// Slot values for one intent, drawn from the seeded generator.
fn fill(template: &str, rng_seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    let mut pick = |lo: u32, hi: u32| rng.random_range(lo..hi);
    let bus = [9, 10, 13, 14][pick(0, 4) as usize];
    let mw = [20.0, 35.5, 50.0][pick(0, 3) as usize];
    let line = pick(2, 9);
    let (lo, hi) = (pick(5, 20), pick(40, 90));
    let (from, to) = (pick(70, 95), pick(105, 130));
    let n = pick(3, 7);
    template
        .replace("{bus}", &bus.to_string())
        .replace("{mw}", &mw.to_string())
        .replace("{line}", &line.to_string())
        .replace("{lo}", &lo.to_string())
        .replace("{hi}", &hi.to_string())
        .replace("{from}", &from.to_string())
        .replace("{to}", &to.to_string())
        .replace("{n}", &n.to_string())
}

/// The first-round plan of the agent `utterance` routes to, in a session
/// whose active case is case14.
fn first_plan(kind: AgentKind, utterance: &str) -> ModelTurn {
    let mut memory = AgentMemory::new("t", "p");
    memory.put_context("active_case", json!("case14"));
    let view = memory.view(utterance);
    match kind {
        AgentKind::Acopf => AcopfPlanner.plan(&view, AnalysisStyle::Composite),
        AgentKind::Contingency => CaPlanner.plan(&view, AnalysisStyle::Composite),
    }
}

fn digest(text: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(text.as_bytes());
    h.finish()
}

/// What asking `utterance` after `setup` in a fresh session does: the
/// first planned call and the answer's digest — or why it does not count.
fn outcome(
    profile: &ModelProfile,
    intent: &Intent,
    utterance: &str,
) -> Result<(ToolCall, u64), String> {
    if GridMind::route(utterance) != intent.agent {
        return Err("routed to the other agent".into());
    }
    let call = match first_plan(intent.agent, utterance).action {
        TurnAction::Calls(mut calls) => calls.remove(0),
        TurnAction::Respond(text) => return Err(format!("planned no call: {text}")),
    };
    if call.tool != intent.tool {
        return Err(format!("planned {} instead of {}", call.tool, intent.tool));
    }
    let mut gm = GridMind::new(profile.clone());
    for setup in intent.setup {
        gm.ask(setup);
    }
    let reply = gm.ask(utterance);
    let clean = reply.responses.iter().all(|r| r.completed)
        && reply
            .responses
            .iter()
            .flat_map(|r| &r.tool_calls)
            .all(|c| c.ok);
    if !clean {
        return Err(format!("did not end cleanly: {}", reply.text));
    }
    Ok((call, digest(&reply.text)))
}

#[test]
fn paraphrases_make_the_same_call_and_get_the_same_answer() {
    let profile = ModelProfile::by_name("GPT-5").unwrap();
    let mut broken: Vec<String> = Vec::new();
    for (i, intent) in INTENTS.iter().enumerate() {
        assert!(intent.paraphrases.len() >= 4, "{}", intent.name);
        let mut reference = None;
        for template in intent.paraphrases {
            let utterance = fill(template, 2100 + i as u64);
            match (outcome(&profile, intent, &utterance), &reference) {
                (Err(why), _) => broken.push(format!("{}: {utterance:?} {why}", intent.name)),
                (Ok(first), None) => reference = Some((utterance, first)),
                (Ok(got), Some((first, want))) => {
                    if got.0 != want.0 {
                        broken.push(format!(
                            "{}: {utterance:?} plans {:?}, {first:?} plans {:?}",
                            intent.name, got.0, want.0
                        ));
                    } else if got.1 != want.1 {
                        broken.push(format!(
                            "{}: {utterance:?} and {first:?} are answered differently",
                            intent.name
                        ));
                    }
                }
            }
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

/// How a turn that met a failure must end.
#[derive(Debug, PartialEq)]
enum Ending {
    /// The planner repaired it: the last tool call succeeded and the
    /// answer is a normal narration.
    Repaired,
    /// A failure sentence with no solver quantity in it.
    Failure,
}

/// Units a narrated solver quantity carries; a failure sentence has none.
const QUANTITY_MARKS: [&str; 6] = ["$/h", "p.u.", " MW", "MVA", "$/MWh", "%"];

#[test]
fn every_error_code_is_reachable_and_ends_well() {
    // (code, agent, session setup, utterance, ending)
    let loaded = || {
        let s = SessionContext::new();
        s.load_case("case14").unwrap();
        s
    };
    // A session whose network has lost its reference bus — what a saved
    // blob edited outside the program can restore to.
    let session_without_slack = || {
        let mut blob = loaded().save();
        for key in ["base", "current"] {
            for bus in blob[key]["buses"].as_array_mut().unwrap() {
                if bus["kind"] == json!("Slack") {
                    bus["kind"] = json!("Pq");
                }
            }
        }
        SessionContext::restore(&blob).unwrap()
    };
    let cases: Vec<(ErrorCode, AgentKind, SharedSession, &str, Ending)> = vec![
        (
            ErrorCode::NoActiveCase,
            AgentKind::Acopf,
            SessionContext::new(),
            "set the load at bus 10 to 50 MW",
            Ending::Failure,
        ),
        (
            ErrorCode::NoActiveCase,
            AgentKind::Acopf,
            SessionContext::new(),
            "set the load at bus 10 of case14 to 50 MW",
            Ending::Repaired,
        ),
        (
            ErrorCode::NoActiveCase,
            AgentKind::Contingency,
            SessionContext::new(),
            "analyze the outage of line 3 in case14",
            Ending::Repaired,
        ),
        (
            ErrorCode::UnknownCase,
            AgentKind::Acopf,
            SessionContext::new(),
            "solve case9000",
            Ending::Failure,
        ),
        (
            ErrorCode::UnknownBus,
            AgentKind::Acopf,
            loaded(),
            "set the load at bus 999 to 5 MW",
            Ending::Failure,
        ),
        (
            ErrorCode::UnknownBus,
            AgentKind::Acopf,
            loaded(),
            "sweep the load at bus 999 from 50% to 150% in 3 steps",
            Ending::Failure,
        ),
        (
            ErrorCode::UnknownElement,
            AgentKind::Contingency,
            loaded(),
            "analyze the outage of line 999",
            Ending::Failure,
        ),
        (
            ErrorCode::UnknownElement,
            AgentKind::Acopf,
            loaded(),
            "limit the generator at bus 10 to between 10 and 60 MW",
            Ending::Failure,
        ),
        (
            ErrorCode::BadArgument,
            AgentKind::Acopf,
            loaded(),
            "set the load at bus 10 to 500000 MW",
            Ending::Failure,
        ),
        // Every quantity equals the bus number and is taken for it: the
        // parent indexed an empty list here and panicked.
        (
            ErrorCode::BadArgument,
            AgentKind::Acopf,
            loaded(),
            "limit the generator at bus 2 between 2 and 2",
            Ending::Failure,
        ),
        (
            ErrorCode::NotConverged,
            AgentKind::Acopf,
            loaded(),
            "set the load at bus 10 to 90000 MW",
            Ending::Failure,
        ),
        (
            ErrorCode::InvalidNetwork,
            AgentKind::Acopf,
            session_without_slack(),
            "solve case14",
            Ending::Failure,
        ),
        (
            ErrorCode::InvalidNetwork,
            AgentKind::Contingency,
            session_without_slack(),
            "run the n-1 contingency analysis",
            Ending::Failure,
        ),
    ];

    let mut reached: Vec<ErrorCode> = Vec::new();
    for (code, kind, session, utterance, ending) in cases {
        assert_eq!(GridMind::route(utterance), kind, "{utterance:?}");
        let profile = ModelProfile::by_name("GPT-5").unwrap();
        let clock = VirtualClock::new();
        let mut agent = match kind {
            AgentKind::Acopf => build_acopf_agent(profile, session, clock),
            AgentKind::Contingency => build_ca_agent(profile, session, clock),
        };
        let reply = agent.handle(utterance);
        assert!(reply.completed, "{utterance:?}: {}", reply.text);

        // The class the failed call was logged under. A call the input
        // schema rejected never ran, so it has no record: its class is
        // the one the schema rejection maps to.
        let logged: Vec<ErrorCode> = agent
            .tools
            .provenance()
            .iter()
            .filter_map(|r| r.code)
            .collect();
        let failed_calls = reply.tool_calls.iter().filter(|c| !c.ok).count();
        assert_eq!(failed_calls, 1, "{utterance:?}: {:?}", reply.tool_calls);
        if logged.is_empty() {
            assert_eq!(
                code,
                ErrorCode::BadArgument,
                "{utterance:?} logged no class"
            );
            let err = reply.tool_calls[0].error.as_deref().unwrap_or_default();
            assert!(err.starts_with("invalid arguments"), "{utterance:?}: {err}");
        } else {
            assert_eq!(logged, [code], "{utterance:?}: {}", reply.text);
        }
        reached.push(code);

        let last_ok = reply.tool_calls.last().is_some_and(|c| c.ok);
        match ending {
            Ending::Repaired => {
                assert!(last_ok, "{utterance:?} was not repaired: {}", reply.text);
                assert!(!reply.text.contains("call failed"), "{}", reply.text);
            }
            Ending::Failure => {
                assert!(!last_ok, "{utterance:?}: {}", reply.text);
                assert!(reply.text.contains("call failed"), "{}", reply.text);
                for mark in QUANTITY_MARKS {
                    assert!(
                        !reply.text.contains(mark),
                        "{utterance:?}: failure sentence quotes a quantity ({mark}): {}",
                        reply.text
                    );
                }
            }
        }
    }
    for code in ErrorCode::ALL {
        assert!(reached.contains(code), "no utterance reaches {code:?}");
    }
}
