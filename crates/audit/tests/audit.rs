//! Integration tests for gm-audit: the source-lint self-test (the
//! shipped tree must be clean and the allowlist exact) and the
//! model-lint rules exercised through the re-exported `GridLint`.

use std::path::PathBuf;

use gm_audit::source::ALLOWLIST_PATH;
use gm_audit::{lint_sources, GridLint, Severity};
use gm_network::{cases, Branch, Bus, BusKind, CaseId, GenCost, Generator, Load, Network};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

// ---------------------------------------------------------------- lint-src

#[test]
fn shipped_tree_is_lint_clean() {
    let rep = lint_sources(&repo_root()).expect("scan succeeds");
    assert!(
        rep.findings.is_empty(),
        "source-lint violations:\n{}",
        rep.findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        rep.allowlist_errors.is_empty(),
        "allowlist errors: {:?}",
        rep.allowlist_errors
    );
    assert!(rep.files_scanned > 20, "scanned {}", rep.files_scanned);
}

#[test]
fn allowlist_matches_grandfathered_sites_exactly() {
    // Every allowlist grant must be consumed by exactly that many real
    // sites: the sum of grandfathered counts equals the sum of the
    // grants in the file, entry by entry.
    let root = repo_root();
    let rep = lint_sources(&root).expect("scan succeeds");
    let text = std::fs::read_to_string(root.join(ALLOWLIST_PATH)).expect("allowlist readable");
    let mut granted = std::collections::BTreeMap::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        // `<path> <rule> <count>`, or legacy `<path> <count>` = no-panic.
        let (path, rule, count) = match parts.as_slice() {
            [path, rule, count] => (*path, *rule, *count),
            [path, count] => (*path, "no-panic", *count),
            other => panic!("malformed allowlist line: {other:?}"),
        };
        let count: usize = count.parse().expect("numeric count");
        granted.insert((path.to_string(), rule.to_string()), count);
    }
    assert_eq!(
        rep.grandfathered, granted,
        "grandfathered sites and allowlist grants must match exactly"
    );
}

// -------------------------------------------------------------- lock-graph

#[test]
fn guard_spanning_a_batch_study_is_flagged() {
    // Regression: the engine-entry list once named the per-kind cache
    // wrappers but not `run_batch`, `run_gen_n1`, `solve_fast_decoupled`
    // (nor, now, the single memo entry), so a guard held across a whole
    // batch study went unreported.
    for entry in [
        "run_batch",
        "run_gen_n1",
        "solve_fast_decoupled",
        "memoized",
    ] {
        let src = format!(
            "pub struct Study {{ results: Mutex<Vec<Report>> }}
            fn sweep(study: &Study, net: &Network) {{
                let mut results = study.results.lock();
                results.push({entry}(net, &opts, &set));
            }}
            fn sweep_checked_out(study: &Study, net: &Network) {{
                let report = {entry}(net, &opts, &set);
                study.results.lock().push(report);
            }}"
        );
        let rep = gm_audit::locks::analyze_lock_sources(&[("fixture.rs".into(), src)]);
        assert_eq!(rep.findings.len(), 1, "{entry}: {:?}", rep.findings);
        let finding = &rep.findings[0];
        assert_eq!(finding.rule, "lock-across-entry");
        assert!(finding.excerpt.contains("Study.results"), "{finding:?}");
        assert!(finding.excerpt.contains(entry), "{finding:?}");
        assert!(finding.excerpt.contains("`sweep`"), "{finding:?}");
    }
}

#[test]
fn every_paper_case_passes_lint_case() {
    for id in [
        CaseId::Ieee14,
        CaseId::Ieee30,
        CaseId::Ieee57,
        CaseId::Ieee118,
        CaseId::Ieee300,
    ] {
        let net = cases::load(id);
        let errors: Vec<_> = GridLint::default()
            .audit(&net)
            .into_iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{id:?}: {errors:?}");
    }
}

// --------------------------------------------------------------- lint-case

fn two_bus() -> Network {
    let mut net = Network::new("audit-two-bus");
    let mut slack = Bus::pq(1, 138.0);
    slack.kind = BusKind::Slack;
    net.buses.push(slack);
    net.buses.push(Bus::pq(2, 138.0));
    net.branches
        .push(Branch::line(0, 1, 0.01, 0.1, 0.02, 100.0));
    net.loads.push(Load {
        bus: 1,
        p_mw: 50.0,
        q_mvar: 10.0,
        in_service: true,
    });
    net.gens.push(Generator {
        bus: 0,
        p_mw: 50.0,
        q_mvar: 0.0,
        vm_setpoint_pu: 1.0,
        p_min_mw: 0.0,
        p_max_mw: 200.0,
        q_min_mvar: -100.0,
        q_max_mvar: 100.0,
        in_service: true,
        cost: GenCost {
            c2: 0.01,
            c1: 20.0,
            c0: 0.0,
        },
    });
    net
}

fn codes(net: &Network) -> Vec<String> {
    GridLint::default()
        .audit(net)
        .into_iter()
        .map(|f| f.code)
        .collect()
}

#[test]
fn islanded_bus_detected() {
    let mut net = two_bus();
    net.branches[0].in_service = false;
    assert!(codes(&net).contains(&"GM-ISLAND".to_string()));
}

#[test]
fn dual_slack_detected() {
    let mut net = two_bus();
    net.buses[1].kind = BusKind::Slack;
    assert!(codes(&net).contains(&"GM-SLACK-MULTI".to_string()));
}

#[test]
fn inverted_gen_limits_detected() {
    let mut net = two_bus();
    net.gens[0].p_min_mw = 300.0; // > p_max = 200
    assert!(codes(&net).contains(&"GM-GEN-LIMITS".to_string()));
}

#[test]
fn inverted_voltage_limits_detected() {
    let mut net = two_bus();
    net.buses[1].vmin_pu = 1.2; // > vmax
    assert!(codes(&net).contains(&"GM-VOLT-LIMITS".to_string()));
}

#[test]
fn zero_impedance_branch_detected() {
    let mut net = two_bus();
    net.branches[0].x_pu = 0.0;
    assert!(codes(&net).contains(&"GM-DEGENERATE-X".to_string()));
}

#[test]
fn findings_are_structured_and_errors_sort_first() {
    let mut net = two_bus();
    net.branches[0].x_pu = 0.0; // error
    net.buses[1].vm_pu = 1.5; // warning (outside limits at start)
    let findings = GridLint::default().audit(&net);
    assert!(findings.len() >= 2);
    assert_eq!(findings[0].severity, Severity::Error);
    let f = &findings[0];
    assert!(!f.code.is_empty() && !f.entity.is_empty() && !f.message.is_empty());
    // Severity never increases down the list.
    for w in findings.windows(2) {
        assert!(w[0].severity >= w[1].severity);
    }
}
