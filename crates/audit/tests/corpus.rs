//! Golden corpus for the gm-audit v2 engine.
//!
//! Each `tests/corpus/<name>.rs` fixture is scanned with every pattern
//! rule enabled and the findings are compared line-for-line against
//! `tests/corpus/<name>.expected` (lines of `<line> <rule>`, sorted).
//! The lock fixtures run the lock-discipline analysis instead and pin
//! its findings, order edges, and cycle verdicts.
//!
//! The fixtures encode the engine's contract: real sites fire, code in
//! strings/comments never fires, exemptions (test items, exact-zero
//! float compares, tolerance compares) hold. When a rule legitimately
//! changes, regenerate the snapshot by hand and justify the diff in the
//! commit.

use std::fs;
use std::path::{Path, PathBuf};

use gm_audit::locks::analyze_lock_sources;
use gm_audit::rules::RuleSet;
use gm_audit::source::scan_file_ruleset;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn all_rules() -> RuleSet {
    RuleSet {
        swallowed: true,
        float_eq: true,
    }
}

fn scan_fixture(name: &str) -> String {
    let path = corpus_dir().join(format!("{name}.rs"));
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut hits = scan_file_ruleset(&text, &all_rules());
    hits.sort();
    let mut out = String::new();
    for (line, rule, _excerpt) in hits {
        out.push_str(&format!("{line} {rule}\n"));
    }
    out
}

fn assert_snapshot(name: &str) {
    let actual = scan_fixture(name);
    let path = corpus_dir().join(format!("{name}.expected"));
    let expected =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "corpus snapshot mismatch for {name}.rs\n--- actual ---\n{actual}"
    );
}

#[test]
fn swallowed_snapshot() {
    assert_snapshot("swallowed");
}

#[test]
fn float_eq_snapshot() {
    assert_snapshot("float_eq");
}

#[test]
fn lexer_torture_is_silent() {
    // The torture fixture must produce zero findings AND zero parse
    // errors — scan_file_ruleset reports lex errors as parse-error hits,
    // so an empty snapshot covers both.
    assert_eq!(scan_fixture("lexer_torture"), "", "lexer torture fired");
}

fn lock_fixture(name: &str) -> gm_audit::locks::LockReport {
    let path = corpus_dir().join(format!("{name}.rs"));
    let text =
        fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    analyze_lock_sources(&[(format!("{name}.rs"), text)])
}

#[test]
fn lock_cycle_fixture_is_caught() {
    let rep = lock_fixture("locks_cycle");
    assert!(!rep.is_clean());
    // The AB/BA shape: exactly one cycle over the two ledger locks.
    assert_eq!(rep.cycles.len(), 1, "{:?}", rep.cycles);
    let cycle = &rep.cycles[0];
    assert!(cycle.contains(&"Dispatch.plan".to_string()), "{cycle:?}");
    assert!(cycle.contains(&"Ledger.entries".to_string()), "{cycle:?}");
    // The original serve_one shape: engine mutex held across ask.
    assert_eq!(rep.findings.len(), 1, "{:?}", rep.findings);
    assert_eq!(rep.findings[0].rule, "lock-across-entry");
    assert!(rep.findings[0].excerpt.contains("Slot.engine"));
    assert!(rep.findings[0].excerpt.contains("serve_one_original"));
}

#[test]
fn lock_clean_fixture_passes() {
    let rep = lock_fixture("locks_clean");
    assert!(
        rep.is_clean(),
        "findings={:?} cycles={:?}",
        rep.findings,
        rep.cycles
    );
    // The consistent order still shows up as (one direction of) edges.
    assert!(rep
        .edges
        .iter()
        .all(|e| e.held == "Dispatch.plan" && e.acquired == "Ledger.entries"));
    assert!(!rep.edges.is_empty());
}

#[test]
fn real_tree_lock_graph_is_clean() {
    // The shipped serve/core tree must stay deadlock-ordered with no
    // guard spanning an engine entry — the same gate CI enforces.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let rep = gm_audit::locks::lint_locks(&root).expect("scan serve+core");
    assert!(
        rep.is_clean(),
        "findings={:?} cycles={:?}",
        rep.findings,
        rep.cycles
    );
    // Sanity: the known locks are present (a broken scanner reporting
    // zero locks would be vacuously "clean").
    let ids: Vec<&str> = rep.locks.iter().map(|l| l.id.as_str()).collect();
    for expected in [
        "BoundedQueue.inner",
        "SessionRegistry.slots",
        "SessionSlot.engine",
        "SessionContext.inner",
        "SolverCache.inner",
    ] {
        assert!(ids.contains(&expected), "missing lock {expected}: {ids:?}");
    }
}
