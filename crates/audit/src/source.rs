//! Source lints over the workspace tree, driven by the token-tree
//! engine ([`crate::lex`] → [`crate::tree`] → [`crate::rules`]).
//!
//! The scanner used to be a line-based state machine with documented
//! approximations (string literals confusable with code, `#[cfg(test)]`
//! regions tracked by brace counting, `//` inside a string treated as a
//! comment). All of those are gone: the lexer classifies every byte as
//! code, literal contents, or trivia before any rule looks at it, so a
//! `let _ = f();` spelled inside a string or doc comment *cannot* fire,
//! and test exemptions bind to parsed `#[cfg(test)]` attributes.
//!
//! [`lint_sources`] runs `swallowed-error` over [`SWALLOW_CRATES`] and
//! `float-eq` over [`FLOAT_CRATES`]; every hit is a finding. A file the
//! lexer cannot model (unterminated literal, unbalanced delimiters)
//! produces a `parse-error` finding rather than being silently
//! under-linted.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{scan_source, RuleSet};

/// Crates whose non-test code must not swallow `Result`s
/// (`let _ = call()`, statement-final `.ok()`, `Err(_) => {}`): the
/// solver crates plus the serving layer and the coordinator, where a
/// dropped error means a silently lost response or a poisoned cache
/// entry nobody hears about.
pub const SWALLOW_CRATES: &[&str] = &[
    "numeric",
    "sparse",
    "powerflow",
    "acopf",
    "contingency",
    "faults",
    "core",
    "serve",
];

/// Crates whose non-test code must not compare float expressions with
/// `==`/`!=` (except the exact-zero sparsity idiom).
pub const FLOAT_CRATES: &[&str] = &["numeric", "sparse", "powerflow", "acopf", "contingency"];

/// One source-lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFinding {
    /// Path relative to the repo root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`swallowed-error`, `float-eq`, `parse-error`,
    /// `telemetry-xref`, `lock-across-entry`).
    pub rule: &'static str,
    /// The offending line (trimmed) or a description.
    pub excerpt: String,
}

impl std::fmt::Display for SourceFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// Outcome of a full `lint-src` run.
#[derive(Debug, Default)]
pub struct SourceLintReport {
    /// Every rule hit.
    pub findings: Vec<SourceFinding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl SourceLintReport {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs an arbitrary [`RuleSet`] over one file's text. Lexer/parser
/// errors surface as `parse-error` hits so a file the engine cannot
/// model fails loudly instead of passing unscanned.
pub fn scan_file_ruleset(text: &str, rules: &RuleSet) -> Vec<(usize, &'static str, String)> {
    let lines: Vec<&str> = text.lines().collect();
    let excerpt_at = |line: usize| -> String {
        lines
            .get(line.saturating_sub(1))
            .map_or_else(String::new, |l| l.trim().to_string())
    };
    let (hits, errors) = scan_source(text, rules);
    let mut out: Vec<(usize, &'static str, String)> = hits
        .into_iter()
        .map(|(line, rule)| (line, rule, excerpt_at(line)))
        .collect();
    for e in errors {
        out.push((e.line, "parse-error", e.message));
    }
    out.sort_by_key(|(line, rule, _)| (*line, *rule));
    out
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    Ok(())
}

/// The [`RuleSet`] a file in `crates/<krate>/src` is scanned under.
pub fn crate_ruleset(krate: &str) -> RuleSet {
    RuleSet {
        swallowed: SWALLOW_CRATES.contains(&krate),
        float_eq: FLOAT_CRATES.contains(&krate),
    }
}

/// Runs every source lint over the workspace at `repo_root`.
pub fn lint_sources(repo_root: &Path) -> io::Result<SourceLintReport> {
    let mut rep = SourceLintReport::default();
    let crates: BTreeSet<&str> = SWALLOW_CRATES.iter().chain(FLOAT_CRATES).copied().collect();
    for krate in crates {
        let src = repo_root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rs_files(&src, &mut files)?;
        for path in files {
            rep.files_scanned += 1;
            let rel = path
                .strip_prefix(repo_root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&path)?;
            for (line, rule, excerpt) in scan_file_ruleset(&text, &crate_ruleset(krate)) {
                rep.findings.push(SourceFinding {
                    file: rel.clone(),
                    line,
                    rule,
                    excerpt,
                });
            }
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> Vec<(usize, &'static str, String)> {
        scan_file_ruleset(
            text,
            &RuleSet {
                swallowed: true,
                float_eq: true,
            },
        )
    }

    #[test]
    fn test_modules_are_skipped() {
        let text = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { let _ = x(); }\n}\nfn h() { let _ = y(); }\n";
        let hits = scan(text);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 6);
    }

    #[test]
    fn comments_do_not_count() {
        let text = "// let _ = x(); in a comment\n/// doc: `a == 1.5`\nfn f() {}\n";
        assert!(scan(text).is_empty());
    }

    #[test]
    fn string_literals_do_not_count() {
        // The regression class the line scanner could not express: the
        // pattern bytes live inside string-literal contents.
        let text =
            "fn f() -> String {\n    format!(\"never write let _ = x(); or a == 1.5 here\")\n}\n";
        assert!(scan(text).is_empty());
    }

    #[test]
    fn code_after_string_with_slashes_still_scanned() {
        // The line scanner treated `//` inside a string as a comment
        // start and dropped the rest of the line — hiding this `.ok();`.
        let text = "fn f() {\n    g(\"https://example.com\").ok();\n}\n";
        let hits = scan(text);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, 2);
    }

    #[test]
    fn cfg_test_attr_with_following_attrs_skipped() {
        let text =
            "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn g() { let _ = x(); }\n}\n";
        assert!(scan(text).is_empty());
    }

    #[test]
    fn library_mode_does_not_skip_test_attr_fns() {
        // #[test] outside #[cfg(test)] cannot occur in library code the
        // crate loop scans; only `#[cfg(test)]` exempts, so a stray
        // `#[test]`-looking line never hides a site.
        let text = "#[test]\nfn f() {\n    let _ = x();\n}\n";
        assert_eq!(scan(text).len(), 1);
    }

    #[test]
    fn parse_errors_surface_as_hits() {
        let text = "fn f() { let s = \"unterminated; }\n";
        let hits = scan(text);
        assert!(hits.iter().any(|(_, rule, _)| *rule == "parse-error"));
    }

    #[test]
    fn crate_rulesets_cover_the_declared_scopes() {
        let serve = crate_ruleset("serve");
        assert!(serve.swallowed && !serve.float_eq);
        let sparse = crate_ruleset("sparse");
        assert!(sparse.float_eq && sparse.swallowed);
        let agents = crate_ruleset("agents");
        assert!(!agents.swallowed && !agents.float_eq);
    }
}
