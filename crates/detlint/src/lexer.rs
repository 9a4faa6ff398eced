//! A hand-rolled, std-only token-level lexer for Rust source.
//!
//! The scanner does not need a full parse — every DL check works on token
//! sequences plus a little brace-depth bookkeeping — so this lexer does the
//! minimum a *sound* token stream requires: comments are stripped (but
//! `detlint::allow` comments are captured for the suppression pass), string
//! and char literals become opaque [`TokenKind::Str`]/[`TokenKind::Char`]
//! tokens whose contents are never mistaken for code, lifetimes are told
//! apart from char literals, and raw strings honor their `#` fences.
//! Everything else becomes an identifier, a numeric literal (float and
//! integer kept distinct — DL003/DL009 care), or a one-character
//! punctuation token.

/// One lexed token with the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token payload.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: u32,
}

/// What a token is.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `iter`, ...).
    Ident(String),
    /// String literal (regular, raw, or byte); payload is the unescaped-ish
    /// raw content between the quotes, kept for DL008's schema matching.
    Str(String),
    /// Char or byte-char literal; contents are irrelevant to every check.
    Char,
    /// Lifetime (`'a`, `'static`). Distinct from [`TokenKind::Char`].
    Lifetime,
    /// Integer literal (`8`, `0xCB`, `1_000u64`).
    Int,
    /// Float literal (`0.0`, `1e6`, `2.5f64`).
    Float,
    /// Single punctuation character (`{`, `}`, `:`, `+`, `=`, ...).
    Punct(char),
}

impl TokenKind {
    /// The identifier text, if this is an identifier.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the identifier `name`.
    #[must_use]
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// Whether this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        matches!(self, TokenKind::Punct(p) if *p == c)
    }
}

/// A captured comment (the only ones the scanner keeps are potential
/// suppressions and fixture expectation markers).
#[derive(Debug, Clone, PartialEq)]
pub struct Comment {
    /// Full comment text without the `//` / `/*` fences, trimmed.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
}

/// The lexer's output: the code token stream plus captured comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments containing `detlint::` markers, in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `source` into tokens and detlint-relevant comments.
///
/// The lexer never fails: malformed source (an unterminated string, a lone
/// backslash) degrades to "rest of file is one literal", which at worst
/// hides findings in code that does not compile anyway.
#[must_use]
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                let mut end = start;
                while end < bytes.len() && bytes[end] != b'\n' {
                    end += 1;
                }
                let text = source[start..end].trim();
                if text.contains("detlint::") {
                    out.comments.push(Comment {
                        text: text.to_owned(),
                        line,
                    });
                }
                i = end;
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let start = i + 2;
                let mut depth = 1u32;
                let mut end = start;
                while end < bytes.len() && depth > 0 {
                    if bytes[end] == b'\n' {
                        line += 1;
                        end += 1;
                    } else if bytes[end] == b'/' && bytes.get(end + 1) == Some(&b'*') {
                        depth += 1;
                        end += 2;
                    } else if bytes[end] == b'*' && bytes.get(end + 1) == Some(&b'/') {
                        depth -= 1;
                        end += 2;
                    } else {
                        end += 1;
                    }
                }
                let text = source[start..end.min(bytes.len()).saturating_sub(2).max(start)].trim();
                if text.contains("detlint::") {
                    out.comments.push(Comment {
                        text: text.to_owned(),
                        line: start_line,
                    });
                }
                i = end;
            }
            '"' => {
                let (content, next, newlines) = read_string(source, i + 1);
                out.tokens.push(Token {
                    kind: TokenKind::Str(content),
                    line,
                });
                line += newlines;
                i = next;
            }
            'r' | 'b' if starts_raw_or_byte_string(bytes, i) => {
                let (kind, next, newlines) = read_prefixed_string(source, i);
                out.tokens.push(Token { kind, line });
                line += newlines;
                i = next;
            }
            '\'' => {
                // Lifetime (`'a`, `'static`) vs char literal (`'x'`,
                // `'\n'`): a lifetime is `'` + ident with no closing quote
                // right after one scalar.
                if is_lifetime(bytes, i) {
                    let mut end = i + 1;
                    while end < bytes.len() && is_ident_continue(bytes[end]) {
                        end += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        line,
                    });
                    i = end;
                } else {
                    let mut end = i + 1;
                    if end < bytes.len() && bytes[end] == b'\\' {
                        end += 2; // skip the escape lead-in
                        while end < bytes.len() && bytes[end] != b'\'' {
                            end += 1;
                        }
                    } else {
                        // One (possibly multi-byte) scalar then the quote.
                        end += source[end..].chars().next().map_or(0, char::len_utf8);
                    }
                    while end < bytes.len() && bytes[end] != b'\'' {
                        end += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Char,
                        line,
                    });
                    i = (end + 1).min(bytes.len());
                }
            }
            c if c.is_ascii_digit() => {
                let (kind, next) = read_number(bytes, i);
                out.tokens.push(Token { kind, line });
                i = next;
            }
            c if is_ident_start(c as u8) => {
                let mut end = i + 1;
                while end < bytes.len() && is_ident_continue(bytes[end]) {
                    end += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident(source[i..end].to_owned()),
                    line,
                });
                i = end;
            }
            c => {
                if c.is_ascii() {
                    out.tokens.push(Token {
                        kind: TokenKind::Punct(c),
                        line,
                    });
                }
                i += source[i..].chars().next().map_or(1, char::len_utf8);
            }
        }
    }
    out
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_lifetime(bytes: &[u8], i: usize) -> bool {
    // `'ident` not followed by a closing quote after exactly one scalar.
    if bytes.get(i + 1).copied().is_none_or(|b| !is_ident_start(b)) {
        return false;
    }
    // `'a'` is a char; `'ab` or `'a ` is a lifetime.
    bytes.get(i + 2) != Some(&b'\'')
}

fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    match bytes[i] {
        b'r' => matches!(bytes.get(i + 1), Some(b'"' | b'#')),
        b'b' => match bytes.get(i + 1) {
            Some(b'"' | b'\'') => true,
            Some(b'r') => matches!(bytes.get(i + 2), Some(b'"' | b'#')),
            _ => false,
        },
        _ => false,
    }
}

/// Reads a regular `"..."` body starting just after the opening quote.
/// Returns (content, index past the closing quote, newline count).
fn read_string(source: &str, start: usize) -> (String, usize, u32) {
    let bytes = source.as_bytes();
    let mut i = start;
    let mut newlines = 0u32;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return (source[start..i].to_owned(), i + 1, newlines),
            b'\n' => {
                newlines += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    (source[start..].to_owned(), bytes.len(), newlines)
}

/// Reads `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, or `b'x'` starting at
/// the prefix. Returns (token kind, index past the literal, newline count).
fn read_prefixed_string(source: &str, start: usize) -> (TokenKind, usize, u32) {
    let bytes = source.as_bytes();
    let mut i = start;
    let byte = bytes[i] == b'b';
    if byte {
        i += 1;
    }
    if byte && bytes.get(i) == Some(&b'\'') {
        // Byte-char literal b'x'.
        let mut end = i + 1;
        if bytes.get(end) == Some(&b'\\') {
            end += 2;
        } else {
            end += 1;
        }
        while end < bytes.len() && bytes[end] != b'\'' {
            end += 1;
        }
        return (TokenKind::Char, (end + 1).min(bytes.len()), 0);
    }
    let raw = bytes.get(i) == Some(&b'r');
    if raw {
        i += 1;
    }
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    debug_assert_eq!(bytes.get(i), Some(&b'"'));
    i += 1; // past the opening quote
    let content_start = i;
    let fence: String = std::iter::once('"')
        .chain("#".repeat(hashes).chars())
        .collect();
    let mut newlines = 0u32;
    if raw {
        while i < bytes.len() {
            if bytes[i] == b'\n' {
                newlines += 1;
                i += 1;
            } else if bytes[i..].starts_with(fence.as_bytes()) {
                // Byte-wise fence match: `i` may sit mid-scalar inside
                // non-ASCII raw-string content, where a str slice would panic.
                return (
                    TokenKind::Str(String::from_utf8_lossy(&bytes[content_start..i]).into_owned()),
                    i + fence.len(),
                    newlines,
                );
            } else {
                i += 1;
            }
        }
        (
            TokenKind::Str(source[content_start..].to_owned()),
            bytes.len(),
            newlines,
        )
    } else {
        let (content, next, newlines) = read_string(source, content_start);
        (TokenKind::Str(content), next, newlines)
    }
}

fn read_number(bytes: &[u8], start: usize) -> (TokenKind, usize) {
    let mut i = start;
    let mut float = false;
    if bytes[i] == b'0' && matches!(bytes.get(i + 1), Some(b'x' | b'o' | b'b')) {
        i += 2;
        while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
            i += 1;
        }
        return (TokenKind::Int, i);
    }
    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
        i += 1;
    }
    // Fractional part: a dot followed by a digit (so `0..n` ranges and
    // `1.max(x)` method calls stay integers).
    if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        float = true;
        i += 1;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'_') {
            i += 1;
        }
    }
    // Exponent.
    if matches!(bytes.get(i), Some(b'e' | b'E'))
        && bytes
            .get(i + 1)
            .is_some_and(|b| b.is_ascii_digit() || *b == b'+' || *b == b'-')
    {
        float = true;
        i += 1;
        if matches!(bytes.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    // Type suffix (`1.0f64`, `8u64`).
    if bytes.get(i).copied().is_some_and(is_ident_start) {
        let suffix_start = i;
        while i < bytes.len() && is_ident_continue(bytes[i]) {
            i += 1;
        }
        if bytes[suffix_start..i].starts_with(b"f32") || bytes[suffix_start..i].starts_with(b"f64")
        {
            float = true;
        }
    }
    (
        if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        },
        i,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).tokens.into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_punct_and_lines() {
        let lexed = lex("fn main() {\n    let x = y;\n}\n");
        assert!(lexed.tokens[0].kind.is_ident("fn"));
        assert_eq!(lexed.tokens[0].line, 1);
        let let_tok = lexed
            .tokens
            .iter()
            .find(|t| t.kind.is_ident("let"))
            .unwrap();
        assert_eq!(let_tok.line, 2);
        let close = lexed.tokens.last().unwrap();
        assert!(close.kind.is_punct('}'));
        assert_eq!(close.line, 3);
    }

    #[test]
    fn comments_are_stripped_but_detlint_markers_kept() {
        let lexed = lex("// plain comment with HashMap\n\
             // detlint::allow(DL001): benign set\n\
             /* block with detlint::allow(DL002): reason */\n\
             let x = 1;\n");
        assert!(!lexed.tokens.iter().any(|t| t.kind.is_ident("HashMap")));
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 2);
        assert!(lexed.comments[0].text.contains("DL001"));
        assert_eq!(lexed.comments[1].line, 3);
    }

    #[test]
    fn strings_are_opaque_with_content_kept() {
        let toks = kinds(r#"let s = "HashMap iter sdnav-x/v1";"#);
        assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
        assert!(toks
            .iter()
            .any(|t| matches!(t, TokenKind::Str(s) if s.contains("sdnav-x/v1"))));
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r##"let a = r#"raw "inner" HashMap"#; let b = b"bytes";"##);
        assert!(!toks.iter().any(|t| t.is_ident("HashMap")));
        assert_eq!(
            toks.iter()
                .filter(|t| matches!(t, TokenKind::Str(_)))
                .count(),
            2
        );
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter()
                .filter(|t| matches!(t, TokenKind::Lifetime))
                .count(),
            2
        );
        assert_eq!(
            toks.iter().filter(|t| matches!(t, TokenKind::Char)).count(),
            2
        );
    }

    #[test]
    fn numbers_classify_float_vs_int() {
        let toks = kinds("let a = 0.0; let b = 8; let c = 1e6; let d = 1_000u64; let e = 2.5f32;");
        assert_eq!(
            toks.iter()
                .filter(|t| matches!(t, TokenKind::Float))
                .count(),
            3
        );
        assert_eq!(
            toks.iter().filter(|t| matches!(t, TokenKind::Int)).count(),
            2
        );
    }

    #[test]
    fn range_dots_are_not_floats() {
        let toks = kinds("for i in 0..10 { let x = 1.max(2); }");
        assert!(!toks.iter().any(|t| matches!(t, TokenKind::Float)));
    }

    #[test]
    fn multiline_string_advances_lines() {
        let lexed = lex("let s = \"a\nb\nc\";\nlet t = 1;");
        let t = lexed.tokens.iter().find(|t| t.kind.is_ident("t")).unwrap();
        assert_eq!(t.line, 4);
    }

    #[test]
    fn hex_literals_stay_int() {
        let toks = kinds("const K: u64 = 0xCBF2_9CE4;");
        assert!(toks.iter().any(|t| matches!(t, TokenKind::Int)));
        assert!(!toks.iter().any(|t| matches!(t, TokenKind::Float)));
    }

    #[test]
    fn unterminated_string_consumes_rest() {
        let lexed = lex("let s = \"never closed\nfn hidden() {}");
        assert!(!lexed.tokens.iter().any(|t| t.kind.is_ident("hidden")));
    }
}
