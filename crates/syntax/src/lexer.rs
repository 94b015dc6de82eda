//! A hand-written lexer for the RSC input language.

use crate::span::Span;
use crate::token::{Tok, Token};

/// A lexing error with position information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable message.
    pub message: String,
    /// Where the error occurred.
    pub span: Span,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lex error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes `src`, skipping whitespace and `//` / `/* */` comments.
pub fn lex(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    macro_rules! span {
        ($lo:expr) => {
            Span {
                lo: $lo as u32,
                hi: i as u32,
                line,
            }
        };
    }

    while i < n {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                while i < n && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                let lo = i;
                i += 2;
                loop {
                    if i + 1 >= n {
                        return Err(LexError {
                            message: "unterminated block comment".into(),
                            span: span!(lo),
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            b'0'..=b'9' => {
                let lo = i;
                if c == b'0' && i + 1 < n && (bytes[i + 1] == b'x' || bytes[i + 1] == b'X') {
                    i += 2;
                    let start = i;
                    while i < n && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                    if start == i {
                        return Err(LexError {
                            message: "empty hex literal".into(),
                            span: span!(lo),
                        });
                    }
                    let text = &src[start..i];
                    let v = u32::from_str_radix(text, 16).map_err(|_| LexError {
                        message: format!("hex literal out of range: 0x{text}"),
                        span: span!(lo),
                    })?;
                    out.push(Token {
                        tok: Tok::Hex(v),
                        span: span!(lo),
                    });
                } else {
                    while i < n && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &src[lo..i];
                    let v: i64 = text.parse().map_err(|_| LexError {
                        message: format!("integer literal out of range: {text}"),
                        span: span!(lo),
                    })?;
                    out.push(Token {
                        tok: Tok::Int(v),
                        span: span!(lo),
                    });
                }
            }
            b'"' | b'\'' => {
                let quote = c;
                let lo = i;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= n {
                        return Err(LexError {
                            message: "unterminated string".into(),
                            span: span!(lo),
                        });
                    }
                    let b = bytes[i];
                    if b == quote {
                        i += 1;
                        break;
                    }
                    if b == b'\\' && i + 1 < n {
                        // The escaped character may be multi-byte: decode
                        // it whole and step past its full UTF-8 width.
                        let esc = src[i + 1..]
                            .chars()
                            .next()
                            .expect("i + 1 < n and byte i is ASCII, so a char starts at i + 1");
                        s.push(match esc {
                            'n' => '\n',
                            't' => '\t',
                            other => other,
                        });
                        i += 1 + esc.len_utf8();
                        continue;
                    }
                    if b == b'\n' {
                        return Err(LexError {
                            message: "newline in string literal".into(),
                            span: span!(lo),
                        });
                    }
                    s.push(src[i..].chars().next().unwrap());
                    i += src[i..].chars().next().unwrap().len_utf8();
                }
                out.push(Token {
                    tok: Tok::Str(s),
                    span: span!(lo),
                });
            }
            b'A'..=b'Z' | b'a'..=b'z' | b'_' | b'$' => {
                let lo = i;
                while i < n
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    i += 1;
                }
                let text = &src[lo..i];
                let tok = match text {
                    "function" => Tok::Function,
                    "var" => Tok::Var,
                    "let" => Tok::Let,
                    "return" => Tok::Return,
                    "if" => Tok::If,
                    "else" => Tok::Else,
                    "while" => Tok::While,
                    "for" => Tok::For,
                    "new" => Tok::New,
                    "class" => Tok::Class,
                    "extends" => Tok::Extends,
                    "interface" => Tok::Interface,
                    "enum" => Tok::Enum,
                    "type" => Tok::Type,
                    "sig" => Tok::Sig,
                    "declare" => Tok::Declare,
                    "qualif" => Tok::Qualif,
                    "invariant" => Tok::Invariant,
                    "constructor" => Tok::Constructor,
                    "immutable" => Tok::Immutable,
                    "mutable" => Tok::Mutable,
                    "this" => Tok::This,
                    "true" => Tok::True,
                    "false" => Tok::False,
                    "null" => Tok::Null,
                    "undefined" => Tok::Undefined,
                    "typeof" => Tok::Typeof,
                    "instanceof" => Tok::Instanceof,
                    "break" => Tok::Break,
                    "import" => Tok::Import,
                    "export" => Tok::Export,
                    _ => Tok::Ident(text.to_string()),
                };
                out.push(Token {
                    tok,
                    span: span!(lo),
                });
            }
            _ => {
                let lo = i;
                // `get`, not indexing: the lookahead may end inside a
                // multi-byte character.
                let two = src.get(i..i + 2).unwrap_or("");
                let three = src.get(i..i + 3).unwrap_or("");
                let (tok, len) = match (c, two, three) {
                    (_, _, "===") => (Tok::EqEqEq, 3),
                    (_, _, "!==") => (Tok::NotEqEq, 3),
                    (_, _, "<=>") => (Tok::Iff, 3),
                    (_, "==", _) => (Tok::EqEq, 2),
                    (_, "!=", _) => (Tok::NotEq, 2),
                    (_, "<=", _) => (Tok::Le, 2),
                    (_, ">=", _) => (Tok::Ge, 2),
                    (_, "=>", _) => (Tok::FatArrow, 2),
                    (_, "&&", _) => (Tok::AndAnd, 2),
                    (_, "||", _) => (Tok::OrOr, 2),
                    (_, "++", _) => (Tok::PlusPlus, 2),
                    (_, "--", _) => (Tok::MinusMinus, 2),
                    (_, "+=", _) => (Tok::PlusEq, 2),
                    (_, "-=", _) => (Tok::MinusEq, 2),
                    (b'(', _, _) => (Tok::LParen, 1),
                    (b')', _, _) => (Tok::RParen, 1),
                    (b'{', _, _) => (Tok::LBrace, 1),
                    (b'}', _, _) => (Tok::RBrace, 1),
                    (b'[', _, _) => (Tok::LBracket, 1),
                    (b']', _, _) => (Tok::RBracket, 1),
                    (b'<', _, _) => (Tok::Lt, 1),
                    (b'>', _, _) => (Tok::Gt, 1),
                    (b',', _, _) => (Tok::Comma, 1),
                    (b';', _, _) => (Tok::Semi, 1),
                    (b':', _, _) => (Tok::Colon, 1),
                    (b'.', _, _) => (Tok::Dot, 1),
                    (b'?', _, _) => (Tok::Question, 1),
                    (b'=', _, _) => (Tok::Assign, 1),
                    (b'+', _, _) => (Tok::Plus, 1),
                    (b'-', _, _) => (Tok::Minus, 1),
                    (b'*', _, _) => (Tok::Star, 1),
                    (b'/', _, _) => (Tok::Slash, 1),
                    (b'%', _, _) => (Tok::Percent, 1),
                    (b'!', _, _) => (Tok::Bang, 1),
                    (b'&', _, _) => (Tok::Amp, 1),
                    (b'|', _, _) => (Tok::Pipe, 1),
                    (b'@', _, _) => (Tok::At, 1),
                    _ => {
                        let ch = src[lo..]
                            .chars()
                            .next()
                            .expect("lo < n, and every token starts on a char boundary");
                        return Err(LexError {
                            message: format!("unexpected character {ch:?}"),
                            span: Span {
                                lo: lo as u32,
                                hi: (lo + ch.len_utf8()) as u32,
                                line,
                            },
                        });
                    }
                };
                i += len;
                out.push(Token {
                    tok,
                    span: span!(lo),
                });
            }
        }
    }
    out.push(Token {
        tok: Tok::Eof,
        span: Span {
            lo: n as u32,
            hi: n as u32,
            line,
        },
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("function foo"),
            vec![Tok::Function, Tok::Ident("foo".into()), Tok::Eof]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Tok::Int(42), Tok::Eof]);
        assert_eq!(toks("0x3C00"), vec![Tok::Hex(0x3c00), Tok::Eof]);
    }

    #[test]
    fn strings() {
        assert_eq!(
            toks("\"number\" 'str'"),
            vec![Tok::Str("number".into()), Tok::Str("str".into()), Tok::Eof]
        );
    }

    #[test]
    fn operators_longest_match() {
        assert_eq!(
            toks("=== == = => <= < !== !="),
            vec![
                Tok::EqEqEq,
                Tok::EqEq,
                Tok::Assign,
                Tok::FatArrow,
                Tok::Le,
                Tok::Lt,
                Tok::NotEqEq,
                Tok::NotEq,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("a // line\n /* block\n still */ b"),
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn line_numbers() {
        let ts = lex("a\nb\n  c").unwrap();
        assert_eq!(ts[0].span.line, 1);
        assert_eq!(ts[1].span.line, 2);
        assert_eq!(ts[2].span.line, 3);
    }

    #[test]
    fn dollar_identifiers() {
        assert_eq!(
            toks("$reduce"),
            vec![Tok::Ident("$reduce".into()), Tok::Eof]
        );
    }

    #[test]
    fn error_on_bad_char() {
        assert!(lex("a # b").is_err());
    }

    /// A multi-byte character where an operator belongs is an error
    /// naming the whole character and spanning its full width.
    #[test]
    fn non_ascii_operator_is_an_error_not_a_panic() {
        let src = "return x \u{2014} 1;";
        let e = lex(src).unwrap_err();
        assert_eq!(e.message, "unexpected character '\u{2014}'");
        assert_eq!(&src[e.span.lo as usize..e.span.hi as usize], "\u{2014}");
    }

    /// An escaped multi-byte character is decoded whole.
    #[test]
    fn escaped_multi_byte_character() {
        assert_eq!(
            toks("return \"a\\\u{e9}b\";"),
            vec![
                Tok::Return,
                Tok::Str("a\u{e9}b".into()),
                Tok::Semi,
                Tok::Eof
            ]
        );
        assert_eq!(
            toks("'\\\u{1f600}'"),
            vec![Tok::Str("\u{1f600}".into()), Tok::Eof]
        );
    }

    /// Pieces that stress byte-offset slicing: ASCII operators, quotes,
    /// backslashes, newlines, and 2-, 3- and 4-byte characters.
    const PIECES: &[&str] = &[
        "a",
        "1",
        " ",
        "\n",
        "\"",
        "'",
        "\\",
        "=",
        "==",
        "!",
        "<",
        ">",
        "-",
        "/",
        "*",
        "&",
        "|",
        "\u{e9}",
        "\u{2014}",
        "\u{20ac}",
        "\u{1d538}",
        "\u{1f600}",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        #[test]
        fn lex_never_panics(ix in proptest::collection::vec(0..PIECES.len(), 0..24)) {
            let src: String = ix.iter().map(|&i| PIECES[i]).collect();
            match lex(&src) {
                Ok(toks) => proptest::prop_assert!(!toks.is_empty()),
                Err(e) => proptest::prop_assert!(
                    src.get(e.span.lo as usize..e.span.hi as usize).is_some(),
                    "error span splits a character: {e:?} in {src:?}"
                ),
            }
        }
    }
}
