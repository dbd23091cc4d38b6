//! Lexer for the qudit text IR: source text to spanned [`Token`]s that
//! borrow their text from the source.
//!
//! The alphabet is deliberately small — identifiers, unsigned numeric
//! literals, punctuation (`( ) [ ] , ; @ -`) and `//` line comments.  Any
//! other character is a typed [`ParseError`], never a panic: the lexer is
//! the first line of the parser-never-unwinds contract the fuzz-smoke CI
//! job enforces.
//!
//! Columns count bytes from the start of the line.  They equal character
//! columns wherever a token starts: a non-ASCII character outside a comment
//! is the lexical error itself, and a comment runs to the end of its line.
//! Only the end of input can follow a comment on its line, so its column
//! alone counts characters.

use std::fmt;

use super::{ParseError, ParseErrorKind, Span};

/// The kind of a lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TokenKind<'a> {
    /// An identifier or keyword (`qudit`, `ctrl`, gate names, …).
    Ident(&'a str),
    /// An unsigned numeric literal, kept raw (`3`, `0.5`, `1e-3`); signs
    /// are separate [`TokenKind::Minus`] tokens.
    Number(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `@`
    At,
    /// `-`
    Minus,
    /// End of input (returned again on every later call).
    Eof,
}

impl fmt::Display for TokenKind<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(name) => write!(f, "'{name}'"),
            TokenKind::Number(raw) => write!(f, "number '{raw}'"),
            TokenKind::LParen => write!(f, "'('"),
            TokenKind::RParen => write!(f, "')'"),
            TokenKind::LBracket => write!(f, "'['"),
            TokenKind::RBracket => write!(f, "']'"),
            TokenKind::Comma => write!(f, "','"),
            TokenKind::Semicolon => write!(f, "';'"),
            TokenKind::At => write!(f, "'@'"),
            TokenKind::Minus => write!(f, "'-'"),
            TokenKind::Eof => write!(f, "end of input"),
        }
    }
}

/// A token together with the [`Span`] of its first character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Token<'a> {
    /// The token itself.
    pub(super) kind: TokenKind<'a>,
    /// 1-based position of the token's first character.
    pub(super) span: Span,
}

/// A cursor that lexes one token per call.
pub(super) struct Lexer<'a> {
    source: &'a str,
    /// Byte offset of the next unread character.
    at: usize,
    line: u32,
    /// Byte offset of the current line's first character.
    line_start: usize,
}

/// A 1-based line or column, saturating as the character walk did.
fn one_based(count: usize) -> u32 {
    u32::try_from(count).map_or(u32::MAX, |n| n.saturating_add(1))
}

impl<'a> Lexer<'a> {
    pub(super) fn new(source: &'a str) -> Self {
        Lexer {
            source,
            at: 0,
            line: 1,
            line_start: 0,
        }
    }

    fn span(&self) -> Span {
        Span::new(self.line, one_based(self.at - self.line_start))
    }

    /// The next token.
    ///
    /// # Errors
    ///
    /// Returns [`ParseErrorKind::UnexpectedChar`] at a character outside
    /// the dialect alphabet and [`ParseErrorKind::InvalidNumber`] at a
    /// literal that does not scan as a number.  The cursor stays on the
    /// offending token, so every later call returns the same error.
    pub(super) fn next_token(&mut self) -> Result<Token<'a>, ParseError> {
        let bytes = self.source.as_bytes();
        loop {
            let Some(&byte) = bytes.get(self.at) else {
                let column = one_based(self.source[self.line_start..].chars().count());
                return Ok(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(self.line, column),
                });
            };
            let span = self.span();
            let start = self.at;
            let kind = match byte {
                b'\n' => {
                    self.at += 1;
                    self.line = self.line.saturating_add(1);
                    self.line_start = self.at;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    self.at += 1;
                    continue;
                }
                b'/' if bytes.get(self.at + 1) == Some(&b'/') => {
                    self.at = bytes[self.at..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |offset| self.at + offset);
                    continue;
                }
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    self.at = bytes[start..]
                        .iter()
                        .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
                        .map_or(bytes.len(), |len| start + len);
                    TokenKind::Ident(&self.source[start..self.at])
                }
                b if b.is_ascii_digit() => {
                    let raw = self.number();
                    if raw.parse::<f64>().is_err() {
                        self.at = start;
                        return Err(ParseError::new(
                            ParseErrorKind::InvalidNumber(raw.to_string()),
                            span,
                        ));
                    }
                    TokenKind::Number(raw)
                }
                _ => {
                    let kind = match byte {
                        b'(' => TokenKind::LParen,
                        b')' => TokenKind::RParen,
                        b'[' => TokenKind::LBracket,
                        b']' => TokenKind::RBracket,
                        b',' => TokenKind::Comma,
                        b';' => TokenKind::Semicolon,
                        b'@' => TokenKind::At,
                        b'-' => TokenKind::Minus,
                        _ => {
                            let c = self.source[start..].chars().next().unwrap_or_default();
                            return Err(ParseError::new(ParseErrorKind::UnexpectedChar(c), span));
                        }
                    };
                    self.at += 1;
                    kind
                }
            };
            return Ok(Token { kind, span });
        }
    }

    /// Scans a numeric literal: digits with at most one `.` before an
    /// optional exponent `e`/`E`, whose sign may follow it directly.
    fn number(&mut self) -> &'a str {
        let bytes = self.source.as_bytes();
        let start = self.at;
        let (mut seen_dot, mut seen_exp) = (false, false);
        while let Some(&next) = bytes.get(self.at) {
            let take = next.is_ascii_digit()
                || (next == b'.' && !seen_dot && !seen_exp)
                || ((next == b'e' || next == b'E') && !seen_exp)
                || ((next == b'+' || next == b'-') && matches!(bytes[self.at - 1], b'e' | b'E'));
            if !take {
                break;
            }
            seen_dot |= next == b'.';
            seen_exp |= next == b'e' || next == b'E';
            self.at += 1;
        }
        &self.source[start..self.at]
    }

    /// Lexes the rest of the source.
    ///
    /// # Errors
    ///
    /// Returns the first lexical error in the rest of the source.
    pub(super) fn finish(&mut self) -> Result<(), ParseError> {
        while self.next_token()?.kind != TokenKind::Eof {}
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every token of `source`, the final `Eof` included.
    fn tokenize(source: &str) -> Result<Vec<Token<'_>>, ParseError> {
        let mut lexer = Lexer::new(source);
        let mut tokens = Vec::new();
        loop {
            let token = lexer.next_token()?;
            tokens.push(token);
            if token.kind == TokenKind::Eof {
                return Ok(tokens);
            }
        }
    }

    fn kinds(source: &str) -> Vec<TokenKind<'_>> {
        tokenize(source)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn punctuation_and_idents() {
        assert_eq!(
            kinds("ctrl(0) @ swap q[1];"),
            vec![
                TokenKind::Ident("ctrl"),
                TokenKind::LParen,
                TokenKind::Number("0"),
                TokenKind::RParen,
                TokenKind::At,
                TokenKind::Ident("swap"),
                TokenKind::Ident("q"),
                TokenKind::LBracket,
                TokenKind::Number("1"),
                TokenKind::RBracket,
                TokenKind::Semicolon,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn numbers_cover_floats_and_exponents() {
        assert_eq!(
            kinds("3.0 0.5 1e-3 2E+6 7"),
            vec![
                TokenKind::Number("3.0"),
                TokenKind::Number("0.5"),
                TokenKind::Number("1e-3"),
                TokenKind::Number("2E+6"),
                TokenKind::Number("7"),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped_and_spans_track_lines() {
        let tokens = tokenize("// header\n  swap").unwrap();
        assert_eq!(tokens[0].kind, TokenKind::Ident("swap"));
        assert_eq!(tokens[0].span, Span::new(2, 3));
        // The end of input counts characters, not bytes, after a comment.
        let tokens = tokenize("q // é…\nq // π").unwrap();
        assert_eq!(tokens[2].span, Span::new(2, 7));
    }

    #[test]
    fn unexpected_characters_are_typed_errors() {
        let error = tokenize("swap $ q").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::UnexpectedChar('$'));
        assert_eq!(error.span, Span::new(1, 6));
        let second_dot = tokenize("1.2.3").unwrap_err();
        assert_eq!(second_dot.kind, ParseErrorKind::UnexpectedChar('.'));
        let lone_slash = tokenize("/").unwrap_err();
        assert_eq!(lone_slash.kind, ParseErrorKind::UnexpectedChar('/'));
        let wide = tokenize("q[0] é").unwrap_err();
        assert_eq!(wide.kind, ParseErrorKind::UnexpectedChar('é'));
        assert_eq!(wide.span, Span::new(1, 6));
    }

    #[test]
    fn malformed_numbers_are_rejected_not_panicked_on() {
        let error = tokenize("1e").unwrap_err();
        assert_eq!(error.kind, ParseErrorKind::InvalidNumber("1e".into()));
        let error = tokenize("3e+;").unwrap_err();
        assert!(matches!(error.kind, ParseErrorKind::InvalidNumber(_)));
        // The cursor stays on the bad literal: a later call reports it again.
        let mut lexer = Lexer::new("1e 2");
        assert_eq!(lexer.next_token(), Err(error_at("1e")));
        assert_eq!(lexer.finish(), Err(error_at("1e")));
    }

    fn error_at(raw: &str) -> ParseError {
        ParseError::new(ParseErrorKind::InvalidNumber(raw.into()), Span::new(1, 1))
    }
}
