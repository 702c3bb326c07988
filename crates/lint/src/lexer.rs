//! A lightweight Rust lexer — just enough structure for invariant rules.
//!
//! The rules in this crate match on *token sequences* (`Instant :: now`,
//! `Ordering :: Relaxed`, an identifier followed by `[`), never on raw
//! text, so a `HashMap` mentioned inside a string literal or a comment
//! can never fire a rule. The lexer therefore has to get exactly three
//! things right:
//!
//! 1. **Comments** are stripped from the token stream but preserved with
//!    line spans — waivers, region markers, and atomics justifications
//!    all live in comments.
//! 2. **String/char literals** (including raw strings and byte strings)
//!    become opaque single tokens, so their contents are invisible to
//!    rules.
//! 3. **Lifetimes vs char literals** are disambiguated (`'a>` is a
//!    lifetime, `'a'` is a char), because a confused lexer would lose
//!    sync and mis-attribute everything after it.
//!
//! Everything else — keywords vs identifiers, numeric suffixes, operator
//! glue beyond `::` and `=>` — is deliberately untyped: rules that need
//! more shape reconstruct it from the token stream.

/// Classification of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers).
    Ident,
    /// Numeric literal (integer or the integral prefix of a float).
    Num,
    /// String literal of any flavor; contents are opaque.
    Str,
    /// Char or byte literal; contents are opaque.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Punctuation; `::` and `=>` are fused, everything else is one char.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token's text (empty for string/char literals — opaque).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Whether this token is an identifier with exactly this text.
    #[must_use]
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// Whether this token is punctuation with exactly this text.
    #[must_use]
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// One comment with its line span (block comments may span lines).
#[derive(Debug, Clone)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: u32,
    /// 1-based line the comment ends on (== `line` for line comments).
    pub end_line: u32,
    /// Comment text including the `//` or `/* */` markers.
    pub text: String,
}

/// The lexer's output: code tokens and comments, separately.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order, comments stripped.
    pub toks: Vec<Tok>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes Rust source. Never fails: unexpected bytes become single-char
/// punctuation, and an unterminated literal simply ends at EOF — a lint
/// pass must degrade gracefully on code rustc itself would reject.
#[must_use]
pub fn lex(src: &str) -> Lexed {
    Lexer { chars: src.chars().collect(), i: 0, line: 1, out: Lexed::default() }.run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        if c == '\n' {
            self.line += 1;
        }
        self.i += 1;
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.toks.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(line),
                '\'' => self.quote(line),
                'r' | 'b' if self.raw_or_byte_literal(line) => {}
                _ if is_ident_start(c) => self.ident(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ => self.punct(line),
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push(Comment { line, end_line: line, text });
    }

    fn block_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.bump();
                self.bump();
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.out.comments.push(Comment { line, end_line: self.line, text });
    }

    /// Consumes a `"…"` string body (opening quote at the cursor).
    fn string_literal(&mut self, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump(); // whatever is escaped, including `"` and `\`
                }
                '"' => break,
                _ => {}
            }
        }
        self.push(TokKind::Str, String::new(), line);
    }

    /// `'` starts either a lifetime (`'a`) or a char literal (`'a'`).
    fn quote(&mut self, line: u32) {
        let next = self.peek(1);
        let after = self.peek(2);
        let lifetime =
            next.is_some_and(is_ident_start) && after != Some('\'') && next != Some('\\');
        if lifetime {
            self.bump(); // '
            let mut text = String::from("'");
            while let Some(c) = self.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                text.push(c);
                self.bump();
            }
            self.push(TokKind::Lifetime, text, line);
        } else {
            self.bump(); // opening '
            if self.peek(0) == Some('\\') {
                self.bump();
                self.bump(); // escaped char
            } else {
                self.bump(); // the char itself
            }
            if self.peek(0) == Some('\'') {
                self.bump(); // closing '
            }
            self.push(TokKind::Char, String::new(), line);
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`, and raw
    /// identifiers (`r#match`). Returns false when the `r`/`b` is just the
    /// start of an ordinary identifier, leaving the cursor untouched.
    fn raw_or_byte_literal(&mut self, line: u32) -> bool {
        let c = self.peek(0).unwrap_or(' ');
        let (skip, rest) = match (c, self.peek(1)) {
            ('b', Some('r')) => (2, self.peek(2)),
            ('b', Some('\'')) => {
                self.bump();
                self.quote(line);
                return true;
            }
            ('b', Some('"')) => {
                self.bump();
                self.string_literal(line);
                return true;
            }
            ('r', r) => (1, r),
            _ => return false,
        };
        match rest {
            Some('"') => {
                for _ in 0..skip {
                    self.bump();
                }
                self.raw_string(0, line);
                true
            }
            Some('#') => {
                // Count the hashes; a quote after them is a raw string,
                // an identifier char is a raw identifier (r#type).
                let mut hashes = 0;
                while self.peek(skip + hashes) == Some('#') {
                    hashes += 1;
                }
                if self.peek(skip + hashes) == Some('"') {
                    for _ in 0..skip + hashes {
                        self.bump();
                    }
                    self.raw_string(hashes, line);
                    true
                } else if skip == 1 && hashes == 1 {
                    self.bump(); // r
                    self.bump(); // #
                    self.ident(line);
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Consumes a raw string body (opening quote at the cursor) closed by
    /// `"` followed by `hashes` `#`s.
    fn raw_string(&mut self, hashes: usize, line: u32) {
        self.bump(); // opening quote
        while let Some(c) = self.bump() {
            if c == '"' && (0..hashes).all(|k| self.peek(k) == Some('#')) {
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokKind::Str, String::new(), line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::Ident, text, line);
    }

    /// Numeric literal: digits plus alphanumeric continuation (hex,
    /// suffixes, exponents). `1.5` lexes as `1` `.` `5` — fine, rules only
    /// ever match whole integer literals.
    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::Num, text, line);
    }

    fn punct(&mut self, line: u32) {
        let c = self.bump().unwrap_or(' ');
        let fused = match (c, self.peek(0)) {
            (':', Some(':')) => Some("::"),
            ('=', Some('>')) => Some("=>"),
            _ => None,
        };
        if let Some(two) = fused {
            self.bump();
            self.push(TokKind::Punct, two.to_string(), line);
        } else {
            self.push(TokKind::Punct, c.to_string(), line);
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_hide_tokens() {
        let src = r##"
            // HashMap in a comment
            /* Instant::now() in a block /* nested */ still a comment */
            let s = "HashMap::new() Instant::now()";
            let r = r#"SystemTime::now()"#;
            let c = 'H';
            use std::collections::BTreeMap;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
        assert!(!ids.contains(&"SystemTime".to_string()));
        assert!(ids.contains(&"BTreeMap".to_string()));
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].text.contains("HashMap"));
        assert!(lexed.comments[1].text.contains("nested"));
    }

    #[test]
    fn lifetimes_do_not_eat_the_stream() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; let e = '\\n'; x }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed.toks.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 3);
        assert_eq!(lexed.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        // The trailing `x` survived — the lexer stayed in sync.
        assert!(lexed.toks.iter().rev().any(|t| t.is_ident("x")));
    }

    #[test]
    fn fused_puncts_and_lines() {
        let src = "a::b\nc => 3";
        let lexed = lex(src);
        assert!(lexed.toks.iter().any(|t| t.is_punct("::") && t.line == 1));
        assert!(lexed.toks.iter().any(|t| t.is_punct("=>") && t.line == 2));
        assert!(lexed.toks.iter().any(|t| t.kind == TokKind::Num && t.text == "3" && t.line == 2));
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let ids = idents("let r#type = 1; br#\"HashMap\"#;");
        assert!(ids.contains(&"type".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
    }

    #[test]
    fn unterminated_literals_do_not_hang() {
        let lexed = lex("let s = \"unterminated");
        assert!(lexed.toks.iter().any(|t| t.kind == TokKind::Str));
    }
}
