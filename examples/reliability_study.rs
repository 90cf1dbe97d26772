//! Cross-domain reliability study (the paper's Figs. 8–9): solve the
//! ACOPF, run the full N-1 contingency analysis with shared context, and
//! drill into the most critical element.
//!
//! ```text
//! cargo run --release --example reliability_study
//! ```

use gridmind_core::{GridMind, ModelProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = ModelProfile::by_name("Claude 4 Sonnet").ok_or("unknown model profile")?;
    let mut gm = GridMind::new(profile);

    // The compound request of Fig. 9: one utterance, two agents, one
    // shared session.
    let request =
        "Solve IEEE 118 case, then run contingency analysis and identify critical elements for reinforcement";
    println!("You: {request}\n");
    let reply = gm.ask(request);
    println!("{}\n", reply.text);

    // Drill into the top-ranked element through the CA agent.
    let top = gm
        .session
        .fresh_contingency()
        .ok_or("no analysis cached in the shared session")?
        .ranking
        .first()
        .map(|r| r.label.clone())
        .ok_or("empty ranking")?;
    let follow_up = format!("analyze the outage of {top} specifically");
    println!("You: {follow_up}\n");
    let reply = gm.ask(&follow_up);
    println!("{}\n", reply.text);

    // Show the cross-agent workflow the coordinator executed.
    println!("=== Workflow steps ===");
    for m in gm.metrics() {
        println!(
            "  {:<28} {:>6.1}s  {:>6} tokens  {} tool call(s)",
            m.agent,
            m.elapsed_s,
            m.tokens.total(),
            m.tool_calls
        );
    }
    println!(
        "\nContingency cache: {} entries (hits/misses {:?})",
        gm.session.cache.len(),
        gm.session.cache.stats()
    );
    Ok(())
}
