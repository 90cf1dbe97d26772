//! Token-tree lint rules.
//!
//! Every rule here matches *token adjacency*, never raw text, so a
//! `let _ = f();` spelled inside a string literal, doc comment, or
//! nested block comment can never produce a finding — the lexer
//! already classified those bytes as literal contents or trivia. An
//! item carrying `#[cfg(test)]` (at any nesting depth, including inside
//! macro invocation bodies like `proptest!`) is skipped wholesale.
//!
//! Rules:
//!
//! | rule | pattern |
//! |------|---------|
//! | `swallowed-error` | `let _ = <call>;`, statement-final `.ok();`, `Err(_) => {}` match arms |
//! | `float-eq` | `==`/`!=` with float evidence on either side (exact-zero comparisons exempt: they are the sparsity idiom and IEEE-exact) |
//!
//! Panic sites and printing in library code are clippy's job
//! (`unwrap_used`, `expect_used`, `panic`, `unreachable`,
//! `print_stdout`, `print_stderr`, denied at the crate roots).

use std::collections::BTreeSet;

use crate::lex::{LexError, TokKind};
use crate::tree::{parse, scan_items, TokenTree};

/// Which rules to run over one file.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleSet {
    /// `swallowed-error`.
    pub swallowed: bool,
    /// `float-eq`.
    pub float_eq: bool,
}

/// One rule match: `(line, rule)`; the driver attaches the excerpt.
pub type Hit = (usize, &'static str);

/// Lexes, parses, and scans `src` under `rules`. Returns rule hits
/// (sorted by line) and any lexer/parser errors (unterminated literals,
/// unbalanced delimiters — reported by the driver as findings so a file
/// the engine cannot model is never silently under-linted).
pub fn scan_source(src: &str, rules: &RuleSet) -> (Vec<Hit>, Vec<LexError>) {
    let (trees, errors) = parse(src);
    let mut hits = Vec::new();
    scan_stream(&trees, rules, &BTreeSet::new(), &mut hits);
    hits.sort_unstable_by_key(|(line, rule)| (*line, *rule));
    (hits, errors)
}

/// Scans one token stream: recognizes item structure to apply
/// attribute exemptions, pattern-matches the stream's token adjacency,
/// and recurses into every non-exempt group.
///
/// `floats` carries identifiers known to be `f64`/`f32` from enclosing
/// declarations (`theta: f64` in a fn header, `let x: f64 = ..`), so
/// bare-ident expressions like `a == b` still carry float evidence
/// without a type checker.
fn scan_stream(
    trees: &[TokenTree],
    rules: &RuleSet,
    floats: &BTreeSet<String>,
    hits: &mut Vec<Hit>,
) {
    // Indices covered by a `#[cfg(test)]` item.
    let mut skip = vec![false; trees.len()];
    for item in scan_items(trees) {
        if item.is_cfg_test() {
            for s in skip
                .iter_mut()
                .take(item.span.1.min(trees.len()))
                .skip(item.span.0)
            {
                *s = true;
            }
        }
    }
    // Extend the float-ident context with annotations visible at this
    // level — including inside immediate paren groups, so `fn` headers
    // (params in a sibling group of the body) contribute.
    let mut extended: Option<BTreeSet<String>> = None;
    let mut add = |name: &str| {
        extended
            .get_or_insert_with(|| floats.clone())
            .insert(name.to_string());
    };
    collect_float_annotations(trees, &mut add);
    for t in trees {
        if let TokenTree::Group(g) = t {
            if g.delim == '(' {
                collect_float_annotations(&g.trees, &mut add);
            }
        }
    }
    let floats = extended.as_ref().unwrap_or(floats);

    match_patterns(trees, &skip, rules, floats, hits);
    for (i, t) in trees.iter().enumerate() {
        if skip[i] {
            continue;
        }
        if let TokenTree::Group(g) = t {
            scan_stream(&g.trees, rules, floats, hits);
        }
    }
}

/// Finds `name : [& | mut | lifetime]* (f64|f32)` annotations at one
/// stream level and reports each `name`.
fn collect_float_annotations(trees: &[TokenTree], add: &mut impl FnMut(&str)) {
    for i in 0..trees.len() {
        let Some(name) = trees[i].leaf().filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        let Some(colon) = trees.get(i + 1) else {
            continue;
        };
        // `:` but not `::`.
        if !colon.is_punct(':')
            || trees.get(i + 2).is_some_and(|t| t.is_punct(':'))
            || i > 0 && trees[i - 1].is_punct(':')
        {
            continue;
        }
        let mut j = i + 2;
        while trees.get(j).is_some_and(|t| {
            t.is_punct('&')
                || t.is_ident("mut")
                || t.leaf().is_some_and(|tok| tok.kind == TokKind::Lifetime)
        }) {
            j += 1;
        }
        let is_float = trees
            .get(j)
            .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"));
        // The type must END there (next is a separator/terminator), so
        // `v: Vec<f64>` never marks `v` as a float.
        let terminated = match trees.get(j + 1) {
            None => true,
            Some(t) => t.is_punct(',') || t.is_punct(';') || t.is_punct('=') || t.is_punct(')'),
        };
        if is_float && terminated {
            add(&name.text);
        }
    }
}

/// True when this node sequence element is a call-shaped group
/// adjacency at `i`: `ident (…)`, `.ident (…)`, or `ident ! (…)`.
fn contains_call(trees: &[TokenTree]) -> bool {
    for i in 0..trees.len() {
        if let TokenTree::Group(g) = &trees[i] {
            if g.delim == '(' && i > 0 {
                match &trees[i - 1] {
                    TokenTree::Leaf(t) if t.kind == TokKind::Ident => return true,
                    TokenTree::Leaf(t) if t.is_punct('!') => return true,
                    TokenTree::Leaf(t) if t.is_punct('?') => return true,
                    _ => {}
                }
            }
            if contains_call(&g.trees) {
                return true;
            }
        }
    }
    false
}

/// True when any node (recursively) is float evidence: a nonzero float
/// literal, an `f64`/`f32` identifier (types, casts, `f64::NAN` paths),
/// a float-producing method name, or an identifier declared `f64`/`f32`
/// in an enclosing scope (`floats`).
fn contains_float_evidence(trees: &[TokenTree], floats: &BTreeSet<String>) -> bool {
    const FLOAT_METHODS: &[&str] = &["sqrt", "floor", "ceil", "round", "powi", "powf"];
    for (i, t) in trees.iter().enumerate() {
        match t {
            TokenTree::Leaf(tok) => match tok.kind {
                TokKind::FloatLit if !is_zero_float(&tok.text) => return true,
                TokKind::Ident if tok.text == "f64" || tok.text == "f32" => return true,
                TokKind::Ident
                    if FLOAT_METHODS.contains(&tok.text.as_str())
                        && i > 0
                        && trees[i - 1].is_punct('.') =>
                {
                    return true;
                }
                // A bare ident with a float declaration in scope counts
                // only when NOT a method/field access on some other
                // value (`cfg.theta` says nothing about `theta: f64`),
                // and not when `.to_bits()` launders it to an integer.
                TokKind::Ident
                    if floats.contains(&tok.text)
                        && !(i > 0 && trees[i - 1].is_punct('.'))
                        && !(trees.get(i + 1).is_some_and(|t| t.is_punct('.'))
                            && trees.get(i + 2).is_some_and(|t| t.is_ident("to_bits"))) =>
                {
                    return true;
                }
                _ => {}
            },
            TokenTree::Group(g) => {
                if contains_float_evidence(&g.trees, floats) {
                    return true;
                }
            }
        }
    }
    false
}

/// True for a float literal spelling zero (`0.0`, `0.`, `0e0`,
/// `0.000_0f64`).
fn is_zero_float(text: &str) -> bool {
    let mantissa: String = text
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '_')
        .filter(|c| c.is_ascii_digit())
        .collect();
    !mantissa.is_empty() && mantissa.chars().all(|c| c == '0')
}

/// True when node `i` starts an expression-boundary token that delimits
/// operand scans (`;`, `,`, `=` alone, `&&`, `||`, `{`-group at
/// statement level is a group node and treated as opaque).
fn is_operand_boundary(trees: &[TokenTree], i: usize) -> bool {
    let Some(tok) = trees[i].leaf() else {
        // Brace groups (blocks, struct literals) end an operand; paren
        // and bracket groups are part of expressions.
        return trees[i].group().is_some_and(|g| g.delim == '{');
    };
    if tok.is_punct(';') || tok.is_punct(',') {
        return true;
    }
    // Lone `=` (assignment/let); `==`, `!=`, `<=`, `>=` are handled by
    // the caller looking at pairs.
    if tok.is_punct('=') {
        let prev_cmp = i > 0
            && trees[i - 1]
                .leaf()
                .is_some_and(|t| "!<>=".chars().any(|c| t.is_punct(c)));
        let next_eq = trees.get(i + 1).is_some_and(|t| t.is_punct('='));
        return !prev_cmp && !next_eq;
    }
    // `&&` / `||`.
    if tok.is_punct('&') || tok.is_punct('|') {
        return trees.get(i + 1).is_some_and(|t| {
            t.leaf()
                .is_some_and(|n| n.text == tok.text && n.kind == TokKind::Punct)
        });
    }
    false
}

/// The operand run to the left of the comparison operator starting at
/// `op` (exclusive), stopped at the nearest boundary.
fn left_operand(trees: &[TokenTree], op: usize) -> &[TokenTree] {
    let mut start = op;
    while start > 0 && !is_operand_boundary(trees, start - 1) {
        start -= 1;
    }
    &trees[start..op]
}

/// The operand run to the right of the comparison operator ending at
/// `after` (inclusive start), stopped at the nearest boundary.
fn right_operand(trees: &[TokenTree], after: usize) -> &[TokenTree] {
    let mut end = after;
    while end < trees.len() && !is_operand_boundary(trees, end) {
        end += 1;
    }
    &trees[after..end]
}

/// True when an operand run is exactly a zero float literal (with an
/// optional sign): comparisons against exact zero are the sparse-kernel
/// idiom (explicit-zero skipping is IEEE-exact) and stay exempt.
fn operand_is_zero_literal(run: &[TokenTree]) -> bool {
    let nodes: Vec<&TokenTree> = run
        .iter()
        .filter(|t| {
            !t.leaf()
                .is_some_and(|tok| tok.is_punct('-') || tok.is_punct('+'))
        })
        .collect();
    nodes.len() == 1
        && nodes[0]
            .leaf()
            .is_some_and(|t| t.kind == TokKind::FloatLit && is_zero_float(&t.text))
}

/// Pattern-matches one stream level. `skip[i]` masks indices inside
/// exempt items. Matches never recurse (group recursion is the
/// caller's job), except where a pattern's semantics need to look
/// inside one group (call detection, float evidence).
fn match_patterns(
    trees: &[TokenTree],
    skip: &[bool],
    rules: &RuleSet,
    floats: &BTreeSet<String>,
    hits: &mut Vec<Hit>,
) {
    let mut i = 0usize;
    while i < trees.len() {
        if skip[i] {
            i += 1;
            continue;
        }
        let line = trees[i].line();

        // --- statement-final `.ok();` ---------------------------------
        // The value (and the error) is dropped on the floor.
        if rules.swallowed && trees[i].is_punct('.') {
            if let (Some(name), Some(TokenTree::Group(args))) = (trees.get(i + 1), trees.get(i + 2))
            {
                if name.is_ident("ok")
                    && args.delim == '('
                    && args.trees.is_empty()
                    && trees.get(i + 3).is_some_and(|t| t.is_punct(';'))
                {
                    hits.push((name.line(), "swallowed-error"));
                }
            }
        }

        // --- `let _ = <call>;` ----------------------------------------
        if rules.swallowed
            && trees[i].is_ident("let")
            && trees.get(i + 1).is_some_and(|t| t.is_ident("_"))
        {
            if let Some(eq) = trees.get(i + 2) {
                if eq.is_punct('=') {
                    let mut j = i + 3;
                    let start = j;
                    while j < trees.len() && !trees[j].is_punct(';') {
                        j += 1;
                    }
                    if contains_call(&trees[start..j]) {
                        hits.push((line, "swallowed-error"));
                    }
                }
            }
        }

        // --- `Err(_) => {}` silent match arm --------------------------
        if rules.swallowed && trees[i].is_ident("Err") {
            if let Some(TokenTree::Group(pat)) = trees.get(i + 1) {
                let silent_pat = pat.delim == '('
                    && pat.trees.len() == 1
                    && pat.trees[0]
                        .leaf()
                        .is_some_and(|t| t.kind == TokKind::Ident && t.text.starts_with('_'));
                let arrow = trees.get(i + 2).is_some_and(|t| t.is_punct('='))
                    && trees.get(i + 3).is_some_and(|t| t.is_punct('>'));
                if silent_pat && arrow {
                    let empty_body = match trees.get(i + 4) {
                        Some(TokenTree::Group(b)) => b.trees.is_empty(),
                        _ => false,
                    };
                    if empty_body {
                        hits.push((line, "swallowed-error"));
                    }
                }
            }
        }

        // --- float `==` / `!=` ----------------------------------------
        if rules.float_eq {
            let is_eq_eq = trees[i].is_punct('=')
                && trees.get(i + 1).is_some_and(|t| t.is_punct('='))
                && !(i > 0
                    && trees[i - 1]
                        .leaf()
                        .is_some_and(|t| "!<>=".chars().any(|c| t.is_punct(c))));
            let is_not_eq =
                trees[i].is_punct('!') && trees.get(i + 1).is_some_and(|t| t.is_punct('='));
            if is_eq_eq || is_not_eq {
                let lhs = left_operand(trees, i);
                let rhs = right_operand(trees, i + 2);
                let zero_compare = operand_is_zero_literal(lhs) || operand_is_zero_literal(rhs);
                if !zero_compare
                    && (contains_float_evidence(lhs, floats)
                        || contains_float_evidence(rhs, floats))
                {
                    hits.push((line, "float-eq"));
                }
                i += 2;
                continue;
            }
        }

        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_rules() -> RuleSet {
        RuleSet {
            swallowed: true,
            float_eq: true,
        }
    }

    fn hits(src: &str, rules: RuleSet) -> Vec<(usize, &'static str)> {
        let (h, errs) = scan_source(src, &rules);
        assert!(errs.is_empty(), "{errs:?}");
        h
    }

    #[test]
    fn rule_shapes_in_string_literal_never_fire() {
        let src = r#"fn f() { let s = "let _ = g(); x.ok(); Err(_) => {} a == 1.5"; use_it(s); }"#;
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn rule_shapes_in_doc_comment_never_fire() {
        let src = "/// Never `let _ = g();` nor `a == 1.5`\nfn f() {}";
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn rule_shapes_in_raw_string_never_fire() {
        let src = r###"fn f() { let s = r#"x.ok(); "quoted" let _ = g();"#; use_it(s); }"###;
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn declared_float_let_binding_eq_fires() {
        let src = "fn f() {\n    let a: f64 = g();\n    if a == b() { h(); }\n}";
        assert_eq!(hits(src, all_rules()), [(3, "float-eq")]);
    }

    #[test]
    fn declared_float_params_eq_fires() {
        let src = "fn f(a: f64, b: f64) -> bool {\n    a == b\n}";
        assert_eq!(hits(src, all_rules()), [(2, "float-eq")]);
    }

    #[test]
    fn vec_of_floats_does_not_mark_binding() {
        // `v: Vec<f64>` must not register `v` as a float ident.
        let src = "fn f(v: Vec<f64>, n: usize) {\n    if v == w() { g(); }\n    let _x = v;\n}";
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn field_access_does_not_borrow_float_declaration() {
        // `cfg.theta` is some other value even if a local `theta: f64`
        // exists.
        let src =
            "fn f(theta: f64, cfg: &Cfg) -> bool {\n    use_it(theta);\n    cfg.theta == n\n}";
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn to_bits_laundering_is_exempt() {
        // Bit-pattern identity compares (cache keys) are NaN-safe and
        // intentional.
        let src = "fn f(tol: f64, prev: f64) -> bool {\n    tol.to_bits() == prev.to_bits()\n}";
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn declared_float_reaches_nested_blocks() {
        let src = "fn f(x: f64) {\n    if cond() {\n        if x == y() { g(); }\n    }\n}";
        assert_eq!(hits(src, all_rules()), [(3, "float-eq")]);
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { let _ = h(); }\n}\nfn k() { let _ = h(); }";
        assert_eq!(hits(src, all_rules()), [(6, "swallowed-error")]);
    }

    #[test]
    fn swallowed_let_underscore_call() {
        let src = "fn f() { let _ = fallible(); let _ = x; let _ = (a, b); }";
        let h = hits(src, all_rules());
        assert_eq!(h, [(1, "swallowed-error")]);
    }

    #[test]
    fn swallowed_statement_final_ok() {
        let src = "fn f() { send(x).ok(); }";
        assert_eq!(hits(src, all_rules()), [(1, "swallowed-error")]);
    }

    #[test]
    fn ok_feeding_a_consumer_is_fine() {
        let src = "fn f() -> Option<u32> { parse(x).ok() }";
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn silent_err_arm_flagged() {
        let src = "fn f() { match r { Ok(v) => use_it(v), Err(_) => {} } }";
        assert_eq!(hits(src, all_rules()), [(1, "swallowed-error")]);
    }

    #[test]
    fn handled_err_arm_is_fine() {
        let src = "fn f() { match r { Ok(v) => use_it(v), Err(e) => log(e) } }";
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn float_eq_flagged_zero_compare_exempt() {
        let src = "fn f(x: f64) {\n    if x == 1.0 { g(); }\n    if x != 0.0 { h(); }\n}";
        assert_eq!(hits(src, all_rules()), [(2, "float-eq")]);
    }

    #[test]
    fn float_eq_via_f64_path_flagged() {
        let src = "fn f(x: f64) { if x == f64::INFINITY { g(); } }";
        assert_eq!(hits(src, all_rules()), [(1, "float-eq")]);
    }

    #[test]
    fn float_evidence_is_expression_scoped_not_line_scoped() {
        // The regex scanner used whole-line float evidence: an unrelated
        // float on the same line produced a false positive. Expression
        // scoping fixes that class.
        let src = "fn f(n: u32, s: f64) { g(n == 3, s * 2.0); }";
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn int_eq_is_fine() {
        let src = "fn f(a: usize, b: usize) { if a == b || a != 3 { g(); } }";
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn lifetime_heavy_generics_lex_cleanly() {
        let src = "impl<'a, T: 'a> Iterator for Iter<'a, T> { fn next(&mut self) -> Option<&'a T> { self.inner.next() } }";
        assert!(hits(src, all_rules()).is_empty());
    }

    #[test]
    fn lex_errors_are_surfaced() {
        let (_, errs) = scan_source("fn f() { let s = \"unterminated; }", &all_rules());
        assert!(!errs.is_empty());
    }
}
