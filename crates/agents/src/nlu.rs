//! Natural-language understanding: tokenizing, entity extraction, and a
//! configurable keyword intent classifier.
//!
//! This is the deterministic core of the simulated language model: it does
//! the job the paper delegates to the LLM's intent/entity extraction
//! (§3.1: "case id, buses, MW changes, outage scope"). Domain crates
//! define their intents as keyword rules; the classifier scores each rule
//! against the utterance and returns the best match with a confidence.

use serde::{Deserialize, Serialize};

/// A lowercased word token with its original position.
#[derive(Clone, Debug, PartialEq)]
pub struct Token {
    /// Lowercased text.
    pub text: String,
    /// Index in the token stream.
    pub index: usize,
}

/// Splits an utterance into lowercase alphanumeric tokens.
pub fn tokenize(utterance: &str) -> Vec<Token> {
    utterance
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '.' && c != '-')
        .filter(|s| !s.is_empty())
        .enumerate()
        .map(|(index, s)| Token {
            text: s.to_ascii_lowercase(),
            index,
        })
        .collect()
}

/// Entities extracted from an utterance.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Entities {
    /// Case reference (e.g. "case118", "ieee 30", "118").
    pub case: Option<String>,
    /// Bus numbers mentioned ("bus 10", "buses 37 and 40").
    pub buses: Vec<u32>,
    /// Power quantities in MW.
    pub mw: Vec<f64>,
    /// Power quantities in MVAr.
    pub mvar: Vec<f64>,
    /// Element references like ("line", 171) or ("trafo", 0).
    pub elements: Vec<(String, usize)>,
    /// Counts like "top 5".
    pub top_k: Option<usize>,
    /// Bare numbers not claimed by any unit.
    pub numbers: Vec<f64>,
    /// Scale factors like "by 10%" or "1.2x".
    pub percent: Vec<f64>,
    /// Scenario counts like "in 8 steps" or "12 scenarios".
    pub steps: Option<usize>,
}

/// Extracts entities from an utterance.
pub fn extract_entities(utterance: &str) -> Entities {
    let tokens = tokenize(utterance);
    let mut e = Entities::default();
    let mut claimed = vec![false; tokens.len()];

    // "%"-suffixed quantities like "80%" survive only in the raw
    // utterance — the tokenizer treats '%' as a separator and drops it.
    // Collect them here; the bare-number pass below reroutes matching
    // values into `percent` instead of `numbers`.
    let mut percent_raw: Vec<f64> = utterance
        .split_whitespace()
        .filter_map(|w| {
            w.trim_end_matches([',', ';', '.', ')'])
                .strip_suffix('%')
                .and_then(|s| s.parse::<f64>().ok())
        })
        .collect();

    // Strict numeric parse: unit-suffixed tokens like "50mw" are handled
    // by the dedicated quantity pass below, not here.
    let parse_num = |s: &str| -> Option<f64> { s.parse::<f64>().ok() };

    for (i, tok) in tokens.iter().enumerate() {
        let next = tokens.get(i + 1);
        match tok.text.as_str() {
            "case" | "ieee" => {
                if let Some(n) = next.and_then(|t| parse_num(&t.text)) {
                    e.case = Some(format!("case{}", n as u64));
                    claimed[i + 1] = true;
                } else if tok.text.starts_with("case") {
                }
            }
            "bus" | "buses" => {
                // Collect following integers joined by "and"/commas.
                let mut j = i + 1;
                while let Some(t) = tokens.get(j) {
                    if let Some(n) = parse_num(&t.text) {
                        e.buses.push(n as u32);
                        claimed[j] = true;
                        j += 1;
                    } else if t.text == "and" {
                        j += 1;
                    } else {
                        break;
                    }
                }
            }
            "line" | "lines" => {
                if let Some(n) = next.and_then(|t| parse_num(&t.text)) {
                    e.elements.push(("line".into(), n as usize));
                    claimed[i + 1] = true;
                }
            }
            "trafo" | "transformer" | "transformers" => {
                if let Some(n) = next.and_then(|t| parse_num(&t.text)) {
                    e.elements.push(("trafo".into(), n as usize));
                    claimed[i + 1] = true;
                }
            }
            "top" => {
                if let Some(n) = next.and_then(|t| parse_num(&t.text)) {
                    e.top_k = Some(n as usize);
                    claimed[i + 1] = true;
                }
            }
            "steps" | "scenarios" | "intervals" => {
                // The count precedes the word: "in 8 steps".
                if let Some(p) = i.checked_sub(1) {
                    if let Some(n) = parse_num(&tokens[p].text).filter(|n| *n >= 1.0) {
                        e.steps = Some(n as usize);
                        claimed[p] = true;
                    }
                }
            }
            _ => {}
        }
        // "top-5" style compound token.
        if let Some(rest) = tok.text.strip_prefix("top-") {
            if let Ok(n) = rest.parse::<usize>() {
                e.top_k = Some(n);
            }
        }
        // caseNNN compound token.
        if let Some(rest) = tok.text.strip_prefix("case") {
            if !rest.is_empty() && rest.chars().all(|c| c.is_ascii_digit()) {
                e.case = Some(tok.text.clone());
            }
        }
    }

    // Unit-suffixed quantities: "50mw", "50 mw", "12.5 mvar", "10%".
    for (i, tok) in tokens.iter().enumerate() {
        let t = &tok.text;
        if let Some(v) = t.strip_suffix("mw").and_then(|s| s.parse::<f64>().ok()) {
            e.mw.push(v);
            claimed[i] = true;
        } else if let Some(v) = t.strip_suffix("mvar").and_then(|s| s.parse::<f64>().ok()) {
            e.mvar.push(v);
            claimed[i] = true;
        } else if t == "mw" {
            if let Some(v) = i
                .checked_sub(1)
                .and_then(|p| tokens[p].text.parse::<f64>().ok())
            {
                e.mw.push(v);
                claimed[i - 1] = true;
            }
        } else if t == "mvar" {
            if let Some(v) = i
                .checked_sub(1)
                .and_then(|p| tokens[p].text.parse::<f64>().ok())
            {
                e.mvar.push(v);
                claimed[i - 1] = true;
            }
        }
    }
    for (i, tok) in tokens.iter().enumerate() {
        if claimed[i] {
            continue;
        }
        if let Some(v) = tok
            .text
            .strip_suffix('%')
            .and_then(|s| s.parse::<f64>().ok())
        {
            e.percent.push(v);
        } else if let Ok(v) = tok.text.parse::<f64>() {
            if let Some(pos) = percent_raw.iter().position(|&p| p == v) {
                percent_raw.remove(pos);
                e.percent.push(v);
            } else {
                e.numbers.push(v);
            }
        }
    }
    // Percent written as "... 10 percent".
    for (i, tok) in tokens.iter().enumerate() {
        if tok.text == "percent" {
            if let Some(v) = i
                .checked_sub(1)
                .and_then(|p| tokens[p].text.parse::<f64>().ok())
            {
                e.percent.push(v);
                e.numbers.retain(|&x| x != v);
            }
        }
    }
    // Fallback case reference: a bare known case size.
    if e.case.is_none() {
        for n in &e.numbers {
            if [14.0, 30.0, 57.0, 118.0, 300.0].contains(n) {
                e.case = Some(format!("case{}", *n as u64));
                break;
            }
        }
    }
    e
}

/// A keyword intent rule. Its words are `'static`, so a rule table is a
/// `static` built once, not per classification.
#[derive(Clone, Copy, Debug)]
pub struct IntentRule {
    /// Intent name.
    pub name: &'static str,
    /// Keywords: any match contributes score; more matches = higher.
    pub keywords: &'static [&'static str],
    /// Strong keywords that double-weight.
    pub strong: &'static [&'static str],
    /// Base score offset (to bias common intents).
    pub bias: f64,
}

impl IntentRule {
    /// Builds a rule.
    pub const fn new(
        name: &'static str,
        keywords: &'static [&'static str],
        strong: &'static [&'static str],
        bias: f64,
    ) -> IntentRule {
        IntentRule {
            name,
            keywords,
            strong,
            bias,
        }
    }

    fn score(&self, tokens: &[Token]) -> f64 {
        let mut s = self.bias;
        for t in tokens {
            if self.strong.iter().any(|k| t.text.contains(k)) {
                s += 2.0;
            } else if self.keywords.iter().any(|k| t.text.contains(k)) {
                s += 1.0;
            }
        }
        s
    }
}

/// Result of intent classification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IntentMatch {
    /// Winning intent name.
    pub intent: String,
    /// Confidence in `(0, 1]` (softmax-ish over rule scores).
    pub confidence: f64,
}

/// Classifies an utterance against a rule set. Returns `None` when no rule
/// scores above zero.
pub fn classify(utterance: &str, rules: &[IntentRule]) -> Option<IntentMatch> {
    gm_telemetry::counter_add("nlu.classifications", 1);
    let tokens = tokenize(utterance);
    let scores: Vec<f64> = rules.iter().map(|r| r.score(&tokens)).collect();
    let matched = (|| {
        let (best_idx, &best) = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        if best <= 0.0 {
            return None;
        }
        let total: f64 = scores.iter().map(|s| s.max(0.0)).sum();
        Some(IntentMatch {
            intent: rules[best_idx].name.to_string(),
            confidence: (best / total.max(best)).clamp(0.0, 1.0),
        })
    })();
    match &matched {
        Some(m) => gm_telemetry::counter_add(&format!("nlu.intent.{}", m.intent), 1),
        None => gm_telemetry::counter_add("nlu.intent.none", 1),
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_lowercases_and_splits() {
        let toks = tokenize("Solve IEEE 118, then re-solve!");
        let words: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, vec!["solve", "ieee", "118", "then", "re-solve"]);
    }

    #[test]
    fn case_extraction_variants() {
        assert_eq!(
            extract_entities("solve case118").case.as_deref(),
            Some("case118")
        );
        assert_eq!(
            extract_entities("solve IEEE 30").case.as_deref(),
            Some("case30")
        );
        assert_eq!(
            extract_entities("solve 118").case.as_deref(),
            Some("case118")
        );
        assert_eq!(extract_entities("what now").case, None);
    }

    #[test]
    fn bus_and_mw_extraction() {
        let e = extract_entities("Increase the load for bus 10 to 50MW");
        assert_eq!(e.buses, vec![10]);
        assert_eq!(e.mw, vec![50.0]);
    }

    #[test]
    fn bus_pair_extraction() {
        let e = extract_entities("removing the line between buses 37 and 40");
        assert_eq!(e.buses, vec![37, 40]);
    }

    #[test]
    fn element_references() {
        let e = extract_entities("analyze line 171 and trafo 0");
        assert_eq!(
            e.elements,
            vec![("line".to_string(), 171), ("trafo".to_string(), 0)]
        );
    }

    #[test]
    fn top_k_extraction() {
        assert_eq!(extract_entities("top 5 critical lines").top_k, Some(5));
        assert_eq!(extract_entities("the top-3 outages").top_k, Some(3));
    }

    #[test]
    fn spaced_mw_and_percent() {
        let e = extract_entities("set it to 42 MW and raise loads by 10 percent");
        assert_eq!(e.mw, vec![42.0]);
        assert_eq!(e.percent, vec![10.0]);
    }

    #[test]
    fn steps_extraction() {
        let e = extract_entities("sweep the load from 80% to 120% in 8 steps");
        assert_eq!(e.percent, vec![80.0, 120.0]);
        assert_eq!(e.steps, Some(8));
        // The step count never leaks into the bare-number pool (it
        // would otherwise be misread as a case or bus reference).
        assert!(e.numbers.is_empty());
        assert_eq!(
            extract_entities("study 12 scenarios across the day").steps,
            Some(12)
        );
        assert_eq!(extract_entities("sweep the load").steps, None);
    }

    #[test]
    fn classify_picks_best_rule() {
        let rules = vec![
            IntentRule::new(
                "solve_case",
                &["solve", "run", "load"],
                &["acopf", "opf"],
                0.0,
            ),
            IntentRule::new(
                "contingency",
                &["contingency", "n-1", "outage", "reliability"],
                &["critical"],
                0.0,
            ),
        ];
        let m = classify("run the n-1 contingency analysis", &rules).unwrap();
        assert_eq!(m.intent, "contingency");
        assert!(m.confidence > 0.5);
        let m = classify("solve the acopf please", &rules).unwrap();
        assert_eq!(m.intent, "solve_case");
    }

    #[test]
    fn classify_none_when_nothing_matches() {
        let rules = vec![IntentRule::new("x", &["xyzzy"], &[], 0.0)];
        assert_eq!(classify("hello world", &rules), None);
    }

    #[test]
    fn strong_keywords_dominate() {
        let rules = vec![
            IntentRule::new("a", &["analysis", "grid", "power"], &[], 0.0),
            IntentRule::new("b", &[], &["contingency"], 0.0),
        ];
        let m = classify("power grid contingency analysis", &rules).unwrap();
        // 2.0 strong beats 3 × 1.0? No: a scores 3, b scores 2 — a wins.
        assert_eq!(m.intent, "a");
        let m = classify("grid contingency", &rules).unwrap();
        assert_eq!(m.intent, "b");
    }
}
