//! Constructors for the two domain agents (§3.2), wired to a shared
//! session and a chosen model profile.

use crate::planners::{AcopfPlanner, CaPlanner};
use crate::session::SharedSession;
use crate::tools_acopf;
use crate::tools_batch;
use crate::tools_ca;
use crate::validators::{ConvergenceValidator, OperatingLimitValidator, PowerBalanceValidator};
use gm_agents::{Agent, LanguageModel, ModelProfile, SimulatedLlm, ToolRegistry, VirtualClock};
use std::sync::Arc;

/// The ACOPF agent's system prompt (paper Fig. 4).
pub const ACOPF_SYSTEM_PROMPT: &str = "\
You are an expert ACOPF (AC Optimal Power Flow) agent for power system analysis.

Your capabilities include:
1. Solving ACOPF problems for standard IEEE test cases (14, 30, 57, 118, 300 bus systems)
2. Modifying system parameters (loads, generation limits, etc.) and re-solving
3. Validating solutions by checking power flows, voltage limits, and line loadings
4. Assessing solution quality and providing recommendations
5. Engaging in conversational interactions about power system optimization

You have access to the following tools:
- solve_acopf_case: Load and solve an IEEE test case
- modify_bus_load: Modify load at a specific bus and re-solve
- modify_gen_limits: Change a unit's active power limits and re-solve
- solve_security_constrained: Solve the preventive security-constrained OPF
- batch_study: Solve many what-if scenarios (load sweep, daily profile, bus ramp) in one batched run
- get_network_status: Get current network and solution status

Never fabricate solver outputs; always call tools for numerical data.
Always provide clear explanations of results, including objective values and any constraint violations.";

/// The contingency analysis agent's system prompt (paper Fig. 5).
pub const CA_SYSTEM_PROMPT: &str = "\
You are an expert Contingency Analysis agent for power system reliability assessment.

Your capabilities include:
1. Solving base case power flow problems for standard IEEE test cases
2. Running comprehensive N-1 contingency analysis
3. Analyzing specific contingencies (line outages, transformer outages)
4. Identifying critical contingencies and system vulnerabilities
5. Assessing voltage violations and equipment overloads
6. Providing recommendations for system reinforcement

You have access to the following tools:
- solve_base_case: Load and solve base case before contingency analysis
- run_n1_contingency_analysis: Run comprehensive N-1 analysis
- analyze_specific_contingency: Analyze a specific element outage
- run_generator_contingency_analysis: Simulate unit (T-1) outages
- get_contingency_status: Get current analysis status and results

When users ask to analyze contingencies, first ensure a base case is solved.
Never fabricate solver outputs; always call tools for numerical data.";

/// Builds the ACOPF agent on a shared session.
pub fn build_acopf_agent(
    profile: ModelProfile,
    session: SharedSession,
    clock: VirtualClock,
) -> Agent {
    let llm = Arc::new(SimulatedLlm::new(profile, AcopfPlanner));
    acopf_agent(llm, session, clock)
}

/// The ACOPF agent's tools and validators around a model backend.
pub(crate) fn acopf_agent(
    llm: Arc<dyn LanguageModel>,
    session: SharedSession,
    clock: VirtualClock,
) -> Agent {
    let mut tools = ToolRegistry::new(clock.clone());
    tools.register(tools_acopf::solve_acopf_case_tool(
        session.clone(),
        clock.clone(),
    ));
    tools.register(tools_acopf::modify_bus_load_tool(
        session.clone(),
        clock.clone(),
    ));
    tools.register(tools_acopf::modify_gen_limits_tool(
        session.clone(),
        clock.clone(),
    ));
    tools.register(tools_acopf::solve_security_constrained_tool(
        session.clone(),
        clock.clone(),
    ));
    tools.register(tools_batch::batch_study_tool(
        session.clone(),
        clock.clone(),
    ));
    tools.register(tools_acopf::get_network_status_tool(session, clock.clone()));
    let mut agent = Agent::new("ACOPF Agent", ACOPF_SYSTEM_PROMPT, llm, tools, clock);
    agent.add_validator(ConvergenceValidator);
    agent.add_validator(PowerBalanceValidator);
    agent.add_validator(OperatingLimitValidator);
    agent
}

/// Builds the contingency analysis agent on a shared session.
pub fn build_ca_agent(profile: ModelProfile, session: SharedSession, clock: VirtualClock) -> Agent {
    let llm = Arc::new(SimulatedLlm::new(profile, CaPlanner));
    ca_agent(llm, session, clock)
}

/// The contingency analysis agent's tools and validators around a model
/// backend.
pub(crate) fn ca_agent(
    llm: Arc<dyn LanguageModel>,
    session: SharedSession,
    clock: VirtualClock,
) -> Agent {
    let mut tools = ToolRegistry::new(clock.clone());
    tools.register(tools_ca::solve_base_case_tool(
        session.clone(),
        clock.clone(),
    ));
    tools.register(tools_ca::run_n1_tool(session.clone(), clock.clone()));
    tools.register(tools_ca::analyze_specific_tool(
        session.clone(),
        clock.clone(),
    ));
    tools.register(tools_ca::run_gen_n1_tool(session.clone(), clock.clone()));
    tools.register(tools_ca::get_contingency_status_tool(
        session,
        clock.clone(),
    ));
    let mut agent = Agent::new(
        "Contingency Analysis Agent",
        CA_SYSTEM_PROMPT,
        llm,
        tools,
        clock,
    );
    agent.add_validator(ConvergenceValidator);
    agent.add_validator(OperatingLimitValidator);
    agent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionContext;

    #[test]
    fn acopf_agent_end_to_end_solve() {
        let session = SessionContext::new();
        let clock = VirtualClock::new();
        let mut agent = build_acopf_agent(
            ModelProfile::by_name("GPT-o3").unwrap(),
            session.clone(),
            clock,
        );
        let resp = agent.handle("solve 14");
        assert!(resp.completed, "{}", resp.text);
        assert!(resp.text.contains("Solved ACOPF"));
        assert!(
            resp.text.contains("8081") || resp.text.contains("808"),
            "{}",
            resp.text
        );
        assert!(session.fresh_acopf().is_some());
        assert!(resp.elapsed_s > 1.0, "LLM latency must be charged");
    }

    #[test]
    fn acopf_agent_what_if_flow() {
        let session = SessionContext::new();
        let clock = VirtualClock::new();
        let mut agent = build_acopf_agent(
            ModelProfile::by_name("GPT-o4 Mini").unwrap(),
            session.clone(),
            clock,
        );
        agent.handle("solve case14");
        let resp = agent.handle("Increase the load for bus 10 to 50MW");
        assert!(resp.completed);
        assert!(resp.text.contains("bus 10"), "{}", resp.text);
        assert!(resp.text.contains("change of"), "{}", resp.text);
        assert_eq!(session.diff_count(), 1);
    }

    #[test]
    fn ca_agent_full_analysis() {
        let session = SessionContext::new();
        let clock = VirtualClock::new();
        let mut agent = build_ca_agent(
            ModelProfile::by_name("GPT-o3").unwrap(),
            session.clone(),
            clock,
        );
        let resp = agent.handle("run the n-1 contingency analysis for case14");
        assert!(resp.completed, "{}", resp.text);
        assert!(
            resp.text.contains("N-1 contingency analysis"),
            "{}",
            resp.text
        );
        assert!(
            resp.text.contains("Most critical elements"),
            "{}",
            resp.text
        );
        assert!(session.fresh_contingency().is_some());
        // Two tool calls: base case + sweep.
        assert_eq!(resp.tool_calls.len(), 2);
    }

    #[test]
    fn acopf_agent_gen_limit_change() {
        let session = SessionContext::new();
        let clock = VirtualClock::new();
        let mut agent = build_acopf_agent(
            ModelProfile::by_name("GPT-o3").unwrap(),
            session.clone(),
            clock,
        );
        agent.handle("solve case14");
        let cost0 = session.fresh_acopf().unwrap().objective_cost;
        // Derating the cheap slack unit must raise the optimal cost.
        let resp = agent.handle("limit the generator capacity at bus 1 to between 0 and 120 MW");
        assert!(resp.completed, "{}", resp.text);
        assert!(resp.text.contains("bus 1"), "{}", resp.text);
        let cost1 = session.fresh_acopf().unwrap().objective_cost;
        assert!(
            cost1 > cost0,
            "derating cheap capacity must cost: {cost1} !> {cost0}"
        );
        assert_eq!(session.diff_count(), 1);
    }

    #[test]
    fn acopf_agent_security_constrained_request() {
        let session = SessionContext::new();
        let clock = VirtualClock::new();
        let mut agent = build_acopf_agent(
            ModelProfile::by_name("GPT-o3").unwrap(),
            session.clone(),
            clock,
        );
        let resp = agent.handle("give me a security-constrained dispatch for case30");
        assert!(resp.completed, "{}", resp.text);
        assert!(resp.text.contains("security premium"), "{}", resp.text);
        assert!(session.fresh_acopf().is_some());
    }

    #[test]
    fn modify_before_solve_takes_recovery_path() {
        let session = SessionContext::new();
        let clock = VirtualClock::new();
        let mut agent =
            build_acopf_agent(ModelProfile::by_name("GPT-5 Nano").unwrap(), session, clock);
        // Mention the case inline so recovery can identify it.
        let resp = agent.handle("on case30, increase the load at bus 5 to 120 MW");
        assert!(resp.completed, "{}", resp.text);
        // First call fails (no case), recovery solves the case, then the
        // modification succeeds.
        assert!(resp.tool_calls.iter().any(|c| !c.ok));
        assert!(resp.tool_calls.iter().filter(|c| c.ok).count() >= 2);
        assert!(resp.text.contains("bus 5"), "{}", resp.text);
    }

    #[test]
    fn acopf_agent_batch_study_flow() {
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        let session = SessionContext::new();
        let clock = VirtualClock::new();
        let mut agent = build_acopf_agent(
            ModelProfile::by_name("GPT-o3").unwrap(),
            session.clone(),
            clock,
        );
        let resp = agent.handle("on case14, sweep the load from 90% to 110% in 5 steps");
        assert!(resp.completed, "{}", resp.text);
        assert!(resp.text.contains("Batched study"), "{}", resp.text);
        assert!(resp.text.contains("5 scenarios"), "{}", resp.text);
        assert!(
            resp.text.contains("Cheapest operating point"),
            "{}",
            resp.text
        );
        // Light load is the cheap end of the sweep.
        assert!(resp.text.contains("load 90.0%"), "{}", resp.text);
        assert_eq!(reg.counter_value("batch.scenarios"), 5);
        assert!(reg.counter_value("batch.warm_hits") >= 3);
    }

    #[test]
    fn injected_batch_divergence_is_absorbed_by_flat_restart() {
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        let inj = gm_faults::FaultInjector::scripted(vec![gm_faults::FaultRule::new(
            "batch.scenario",
            gm_faults::FaultKind::NewtonDiverge,
            1,
            1,
        )]);
        let _g = inj.install();
        let session = SessionContext::new();
        let clock = VirtualClock::new();
        let mut agent = build_acopf_agent(ModelProfile::by_name("GPT-o3").unwrap(), session, clock);
        let resp = agent.handle("on case14, sweep the load from 95% to 105% in 5 steps");
        // The injected divergence is absorbed inside the batch engine:
        // the scenario restarts from flat, converges, and the study
        // narrates normally — never a hard error.
        assert!(resp.completed, "{}", resp.text);
        assert!(resp.text.contains("Batched study"), "{}", resp.text);
        assert!(resp.text.contains("1 flat restart(s)"), "{}", resp.text);
        assert!(!resp.text.contains("unsolved"), "{}", resp.text);
        assert_eq!(reg.counter_value("batch.flat_restarts"), 1);
        assert_eq!(reg.counter_value("recovery.attempts"), 0);
    }

    #[test]
    fn batch_study_caveats_unsolvable_scenarios_instead_of_failing() {
        let reg = gm_telemetry::Registry::new();
        let _t = reg.install();
        let session = SessionContext::new();
        let clock = VirtualClock::new();
        let mut agent = build_acopf_agent(ModelProfile::by_name("GPT-o3").unwrap(), session, clock);
        // 400% of nominal load is far beyond case14's loadability: those
        // scenarios fail Newton, fail the in-engine flat restart, and
        // descend the recovery ladder — each producing a caveated
        // approximate row, not an error.
        let resp = agent.handle("on case14, sweep the load from 100% to 400% in 4 steps");
        assert!(resp.completed, "{}", resp.text);
        assert!(resp.text.contains("Batched study"), "{}", resp.text);
        assert!(
            resp.text.contains(crate::recovery::CAVEAT_PREFIX),
            "degraded rows must surface a caveat: {}",
            resp.text
        );
        assert!(reg.counter_value("recovery.attempts") >= 1);
        assert!(reg.counter_value("batch.flat_restarts") >= 1);
    }
}
