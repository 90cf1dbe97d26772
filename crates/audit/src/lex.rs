//! A hand-written, zero-dependency Rust lexer.
//!
//! The build environment is offline, so `syn`/`proc-macro2` are not
//! available; this module implements the subset of Rust's lexical
//! grammar the lint engine needs to be *exact* about what is code and
//! what is not:
//!
//! - line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`), all discarded as trivia (no token is emitted);
//! - string literals: plain (`"…"` with escapes), raw (`r"…"`,
//!   `r##"…"##`), byte (`b"…"`), raw byte (`br#"…"#`), and C strings
//!   (`c"…"`);
//! - char and byte-char literals (`'a'`, `'\n'`, `'\u{1F600}'`,
//!   `b'x'`) disambiguated from **lifetimes** (`'a`, `'static`);
//! - numeric literals with radix prefixes, underscores, exponents and
//!   type suffixes, classified int vs float (`0x1f`, `1_000`, `1.5e-3`,
//!   `2f64`) — `0..n` lexes as int, dot-dot, int, and `x.0` never
//!   produces a float;
//! - identifiers (including raw `r#type`) and keywords;
//! - single-character punctuation (multi-char operators such as `=>`,
//!   `::`, `==` stay as adjacent [`TokKind::Punct`] tokens, which is
//!   what a token-tree matcher wants).
//!
//! Every token carries its 1-based source line, so findings produced
//! from any depth of the token tree still point at real code lines.

/// Lexical class of one token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `foo`, `r#type`).
    Ident,
    /// Lifetime (`'a`, `'static`) — the quote is part of the token text.
    Lifetime,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    CharLit,
    /// String literal of any flavor (plain, raw, byte, raw-byte, C).
    /// `text` holds the *unquoted* contents (escapes left as written).
    StrLit,
    /// Integer literal (any radix, suffix included in `text`).
    IntLit,
    /// Float literal (decimal point and/or exponent and/or f32/f64
    /// suffix).
    FloatLit,
    /// One punctuation character (`.`, `=`, `!`, `#`, `&`, …).
    Punct,
    /// Opening delimiter: `(`, `[`, `{`.
    Open,
    /// Closing delimiter: `)`, `]`, `}`.
    Close,
}

/// One lexed token.
#[derive(Clone, Debug)]
pub struct Token {
    /// Lexical class.
    pub kind: TokKind,
    /// Token text. For [`TokKind::StrLit`] this is the literal's
    /// *contents* (no quotes, no raw hashes, escapes unprocessed); for
    /// every other kind it is the exact source slice.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: usize,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True for a punctuation token with exactly this character.
    pub fn is_punct(&self, c: char) -> bool {
        (self.kind == TokKind::Punct || self.kind == TokKind::Open || self.kind == TokKind::Close)
            && self.text.len() == c.len_utf8()
            && self.text.starts_with(c)
    }
}

/// A problem encountered while lexing (unterminated literal or
/// comment). The lexer recovers by consuming to end of input, so one
/// error never cascades; the driver reports it as a finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line of the offending construct's start.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// Lexes `src` into a flat token stream, discarding comments and
/// whitespace. Returns the tokens plus any (recoverable) lex errors.
pub fn lex(src: &str) -> (Vec<Token>, Vec<LexError>) {
    Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        tokens: Vec::new(),
        errors: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    tokens: Vec<Token>,
    errors: Vec<LexError>,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.src.get(self.pos + ahead).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek(0);
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        b
    }

    fn push(&mut self, kind: TokKind, text: String, line: usize) {
        self.tokens.push(Token { kind, text, line });
    }

    fn error(&mut self, line: usize, message: &str) {
        self.errors.push(LexError {
            line,
            message: message.to_string(),
        });
    }

    fn run(mut self) -> (Vec<Token>, Vec<LexError>) {
        while self.pos < self.src.len() {
            let b = self.peek(0);
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    self.bump();
                }
                b'/' if self.peek(1) == b'/' => self.line_comment(),
                b'/' if self.peek(1) == b'*' => self.block_comment(),
                b'r' | b'b' | b'c' if self.maybe_prefixed_literal() => {}
                b'"' => self.string(false),
                b'\'' => self.quote(),
                b'0'..=b'9' => self.number(),
                _ if is_ident_start(b) => self.ident(),
                b'(' | b'[' | b'{' => {
                    let line = self.line;
                    self.bump();
                    self.push(TokKind::Open, (b as char).to_string(), line);
                }
                b')' | b']' | b'}' => {
                    let line = self.line;
                    self.bump();
                    self.push(TokKind::Close, (b as char).to_string(), line);
                }
                _ => {
                    let line = self.line;
                    self.bump();
                    self.push(TokKind::Punct, (b as char).to_string(), line);
                }
            }
        }
        (self.tokens, self.errors)
    }

    fn line_comment(&mut self) {
        while self.pos < self.src.len() && self.peek(0) != b'\n' {
            self.bump();
        }
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        while self.pos < self.src.len() {
            if self.peek(0) == b'/' && self.peek(1) == b'*' {
                self.bump();
                self.bump();
                depth += 1;
            } else if self.peek(0) == b'*' && self.peek(1) == b'/' {
                self.bump();
                self.bump();
                depth -= 1;
                if depth == 0 {
                    return;
                }
            } else {
                self.bump();
            }
        }
        self.error(start_line, "unterminated block comment");
    }

    /// Handles `r"…"`, `r#"…"#`, `r#ident`, `b"…"`, `b'…'`, `br"…"`,
    /// `br#"…"#`, `c"…"`, `cr#"…"#`. Returns `true` when a prefixed
    /// literal (or raw identifier) was consumed; `false` means the
    /// leading letter is an ordinary identifier start.
    fn maybe_prefixed_literal(&mut self) -> bool {
        let b0 = self.peek(0);
        let b1 = self.peek(1);
        let b2 = self.peek(2);
        match (b0, b1) {
            // Raw identifier r#name (but r#"…" is a raw string).
            (b'r', b'#') if is_ident_start(b2) => {
                let line = self.line;
                self.bump();
                self.bump();
                let mut text = String::from("r#");
                while is_ident_cont(self.peek(0)) {
                    text.push(self.bump() as char);
                }
                self.push(TokKind::Ident, text, line);
                true
            }
            (b'r', b'"') | (b'r', b'#') => {
                self.bump();
                self.raw_string();
                true
            }
            (b'b', b'\'') => {
                self.bump();
                self.quote_char_only();
                true
            }
            (b'b', b'"') | (b'c', b'"') => {
                self.bump();
                self.string(false);
                true
            }
            (b'b', b'r') | (b'c', b'r') if b2 == b'"' || b2 == b'#' => {
                self.bump();
                self.bump();
                self.raw_string();
                true
            }
            _ => false,
        }
    }

    /// Consumes a raw string starting at `#…"` or `"` (prefix letters
    /// already consumed).
    fn raw_string(&mut self) {
        let start_line = self.line;
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != b'"' {
            self.error(start_line, "malformed raw string");
            return;
        }
        self.bump(); // opening quote
        let mut text = String::new();
        loop {
            if self.pos >= self.src.len() {
                self.error(start_line, "unterminated raw string");
                break;
            }
            if self.peek(0) == b'"' {
                // Candidate closer: need `hashes` hash marks after it.
                let mut ok = true;
                for k in 0..hashes {
                    if self.peek(1 + k) != b'#' {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.bump();
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
            }
            text.push(self.bump() as char);
        }
        self.push(TokKind::StrLit, text, start_line);
    }

    /// Consumes a plain (escaped) string starting at the opening quote.
    fn string(&mut self, _raw: bool) {
        let start_line = self.line;
        self.bump(); // opening quote
        let mut text = String::new();
        loop {
            if self.pos >= self.src.len() {
                self.error(start_line, "unterminated string literal");
                break;
            }
            match self.peek(0) {
                b'"' => {
                    self.bump();
                    break;
                }
                b'\\' => {
                    text.push(self.bump() as char);
                    if self.pos < self.src.len() {
                        text.push(self.bump() as char);
                    }
                }
                _ => text.push(self.bump() as char),
            }
        }
        self.push(TokKind::StrLit, text, start_line);
    }

    /// A `'`: lifetime or char literal. Rust's rule: `'` followed by an
    /// identifier not closed by another `'` is a lifetime; everything
    /// else is a char literal.
    fn quote(&mut self) {
        let b1 = self.peek(1);
        if is_ident_start(b1) && b1 != b'\\' {
            // Scan the identifier run and look for a closing quote.
            let mut k = 2;
            while is_ident_cont(self.peek(k)) {
                k += 1;
            }
            if self.peek(k) != b'\'' {
                // Lifetime.
                let line = self.line;
                let mut text = String::from("'");
                self.bump();
                while is_ident_cont(self.peek(0)) {
                    text.push(self.bump() as char);
                }
                self.push(TokKind::Lifetime, text, line);
                return;
            }
        }
        self.quote_char_only();
    }

    /// Consumes a char literal starting at `'` (a `b` prefix, if any,
    /// was already consumed).
    fn quote_char_only(&mut self) {
        let start_line = self.line;
        self.bump(); // opening quote
        let mut text = String::new();
        loop {
            if self.pos >= self.src.len() {
                self.error(start_line, "unterminated char literal");
                break;
            }
            match self.peek(0) {
                b'\'' => {
                    self.bump();
                    break;
                }
                b'\\' => {
                    text.push(self.bump() as char);
                    if self.pos < self.src.len() {
                        text.push(self.bump() as char);
                    }
                }
                _ => text.push(self.bump() as char),
            }
        }
        self.push(TokKind::CharLit, text, start_line);
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut is_float = false;

        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            // Radix literal: digits + underscores + hex letters, then an
            // optional suffix; never a float.
            text.push(self.bump() as char);
            text.push(self.bump() as char);
            while self.peek(0).is_ascii_alphanumeric() || self.peek(0) == b'_' {
                text.push(self.bump() as char);
            }
            self.push(TokKind::IntLit, text, line);
            return;
        }

        // A number right after a `.` is a tuple index (`x.0`, `x.0.1`):
        // integral, and never owns a fractional part of its own.
        let tuple_index = self
            .tokens
            .last()
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == ".");

        while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
            text.push(self.bump() as char);
        }
        // Fractional part: a '.' followed by a digit, or a lone trailing
        // '.' not followed by '.', ident (method call / field access).
        if self.peek(0) == b'.' && !tuple_index {
            let after = self.peek(1);
            if after.is_ascii_digit() {
                is_float = true;
                text.push(self.bump() as char);
                while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                    text.push(self.bump() as char);
                }
            } else if after != b'.' && !is_ident_start(after) {
                // `1.` — trailing-dot float.
                is_float = true;
                text.push(self.bump() as char);
            }
        }
        // Exponent.
        if matches!(self.peek(0), b'e' | b'E') {
            let s1 = self.peek(1);
            let s2 = self.peek(2);
            if s1.is_ascii_digit() || ((s1 == b'+' || s1 == b'-') && s2.is_ascii_digit()) {
                is_float = true;
                text.push(self.bump() as char);
                if matches!(self.peek(0), b'+' | b'-') {
                    text.push(self.bump() as char);
                }
                while self.peek(0).is_ascii_digit() || self.peek(0) == b'_' {
                    text.push(self.bump() as char);
                }
            }
        }
        // Type suffix (`u32`, `f64`, `usize`, …).
        if is_ident_start(self.peek(0)) {
            let mut suffix = String::new();
            while is_ident_cont(self.peek(0)) {
                suffix.push(self.bump() as char);
            }
            if suffix.starts_with('f') {
                is_float = true;
            }
            text.push_str(&suffix);
        }
        self.push(
            if is_float {
                TokKind::FloatLit
            } else {
                TokKind::IntLit
            },
            text,
            line,
        );
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while is_ident_cont(self.peek(0)) {
            text.push(self.bump() as char);
        }
        self.push(TokKind::Ident, text, line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        let (toks, errs) = lex(src);
        assert!(errs.is_empty(), "{errs:?}");
        toks.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_hide_code() {
        let toks = kinds(r#"let s = "x.unwrap()";"#);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::StrLit).count(),
            1
        );
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::StrLit && t == "x.unwrap()"));
        // No Ident token named `unwrap` outside the literal.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"a "quoted" panic!("x")"#;"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::StrLit && t.contains("panic!")));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "panic"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* x /* y */ z.unwrap() */ b");
        let idents: Vec<_> = toks.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(idents, ["a", "b"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::CharLit).count(),
            2
        );
    }

    #[test]
    fn static_lifetime_and_quoted_keyword() {
        let toks = kinds("&'static str");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "'static"));
    }

    #[test]
    fn numbers_classified() {
        let toks = kinds("1 1.5 0x1f 1e3 1_000 2f64 0.5e-2 7usize");
        let t: Vec<_> = toks.iter().map(|(k, s)| (*k, s.as_str())).collect();
        assert_eq!(
            t,
            [
                (TokKind::IntLit, "1"),
                (TokKind::FloatLit, "1.5"),
                (TokKind::IntLit, "0x1f"),
                (TokKind::FloatLit, "1e3"),
                (TokKind::IntLit, "1_000"),
                (TokKind::FloatLit, "2f64"),
                (TokKind::FloatLit, "0.5e-2"),
                (TokKind::IntLit, "7usize"),
            ]
        );
    }

    #[test]
    fn range_is_not_a_float() {
        let toks = kinds("for i in 0..n {}");
        assert!(toks.iter().any(|(k, t)| *k == TokKind::IntLit && t == "0"));
        assert!(!toks.iter().any(|(k, _)| *k == TokKind::FloatLit));
    }

    #[test]
    fn tuple_index_is_not_a_float() {
        let toks = kinds("x.0.1");
        let floats = toks.iter().filter(|(k, _)| *k == TokKind::FloatLit).count();
        assert_eq!(floats, 0, "{toks:?}");
    }

    #[test]
    fn trailing_dot_float() {
        let toks = kinds("let x = 1.;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::FloatLit && t == "1."));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = kinds(r##"let a = b"bytes"; let b = br#"raw "b""#; let c = b'x';"##);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::StrLit).count(),
            2
        );
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::CharLit).count(),
            1
        );
    }

    #[test]
    fn raw_identifier() {
        let toks = kinds("let r#type = 1;");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "r#type"));
    }

    #[test]
    fn doc_comments_are_trivia() {
        let toks = kinds("/// doc with panic!(\"x\")\n//! inner .unwrap()\nfn f() {}");
        assert!(!toks.iter().any(|(_, t)| t == "panic" || t == "unwrap"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Ident && t == "fn"));
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\ny\nz\";\nlet b = 1;";
        let (toks, _) = lex(src);
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(b.line, 4);
    }

    #[test]
    fn escaped_quote_in_char() {
        let toks = kinds(r"let q = '\''; let s = 'a';");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::CharLit).count(),
            2
        );
    }

    #[test]
    fn unterminated_string_is_reported() {
        let (_, errs) = lex("let s = \"oops");
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("unterminated"));
    }
}
