//! Economic vs security-constrained operation (paper Appendix B.4).
//!
//! Solves case118 twice — the plain economic ACOPF and the preventive
//! SCOPF with LODF-screened post-contingency limits — then runs the full
//! AC N-1 sweep against both dispatches and tabulates what the security
//! premium buys.
//!
//! ```text
//! cargo run --release --example scopf_comparison
//! ```

use gm_acopf::{solve_acopf, solve_scopf, AcopfOptions, AcopfSolution, ScopfOptions};
use gm_contingency::{run_n1, CaOptions};
use gm_network::{cases, CaseId, Network};

fn apply_dispatch(net: &Network, sol: &AcopfSolution) -> Network {
    let mut out = net.clone();
    for (gi, g) in out.gens.iter_mut().enumerate() {
        g.p_mw = sol.gen_dispatch_mw[gi];
        g.vm_setpoint_pu = sol.bus_vm_pu[g.bus];
    }
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = cases::load(CaseId::Ieee118);
    println!(
        "=== Economic vs security-constrained operation, {} ===\n",
        net.name
    );

    let economic = solve_acopf(&net, &AcopfOptions::default())?;
    let scopf = solve_scopf(&net, &ScopfOptions::default())?;

    println!(
        "Screened security constraints: {}",
        scopf.n_security_constraints
    );
    println!();
    println!(
        "{:<28} {:>14} {:>14}",
        "", "economic", "security-constrained"
    );
    println!(
        "{:<28} {:>14.2} {:>14.2}",
        "dispatch cost ($/h)", economic.objective_cost, scopf.solution.objective_cost
    );
    println!(
        "{:<28} {:>14.2} {:>14.2}",
        "losses (MW)", economic.losses_mw, scopf.solution.losses_mw
    );
    println!(
        "{:<28} {:>14.1} {:>14.1}",
        "max base loading (%)",
        economic.max_thermal_loading_pct,
        scopf.solution.max_thermal_loading_pct
    );

    let opts = CaOptions::default();
    let eco_rep = run_n1(&apply_dispatch(&net, &economic), &opts, None)?;
    let sec_rep = run_n1(&apply_dispatch(&net, &scopf.solution), &opts, None)?;
    // Both dispatches ride binding base-case limits (the ACOPF binds at
    // exactly 100 %), so the interesting metric is the *severity profile*
    // of post-contingency overloads, not the saturating >100 % count.
    let profile = |rep: &gm_contingency::ContingencyReport, t: f64| {
        rep.outcomes
            .iter()
            .filter(|o| o.max_loading_pct > t)
            .count()
    };
    for t in [105.0, 110.0, 120.0, 140.0] {
        println!(
            "{:<28} {:>14} {:>14}",
            format!("N-1 outages > {t:.0}% loading"),
            profile(&eco_rep, t),
            profile(&sec_rep, t)
        );
    }
    println!(
        "{:<28} {:>14.1} {:>14.1}",
        "worst N-1 loading (%)", eco_rep.max_overload_pct.0, sec_rep.max_overload_pct.0
    );
    println!();
    println!(
        "Security premium: {:+.2} $/h ({:.3}% of the economic cost) buys {} fewer \
         severe (>120%) overload outages and cuts the worst case from {:.0}% to {:.0}%.",
        scopf.security_premium,
        100.0 * scopf.security_premium / economic.objective_cost,
        profile(&eco_rep, 120.0).saturating_sub(profile(&sec_rep, 120.0)),
        eco_rep.max_overload_pct.0,
        sec_rep.max_overload_pct.0,
    );
    Ok(())
}
