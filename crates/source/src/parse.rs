//! A surface-syntax parser for CC.
//!
//! The concrete syntax is the one produced by [`crate::pretty`]:
//!
//! ```text
//! term  ::= \(x : term). term            (functions)
//!         | Pi (x : term). term          (dependent function types)
//!         | Sigma (x : term). term       (dependent pair types)
//!         | let x = term : term in term  (dependent let)
//!         | if term then term else term
//!         | app -> term                  (non-dependent function type)
//!         | app
//! app   ::= proj proj …                  (left-associative application)
//! proj  ::= fst proj | snd proj | atom
//! atom  ::= x | * | BOX | Bool | true | false
//!         | < term , term > as atom      (dependent pairs)
//!         | ( term )
//! ```
//!
//! Identifiers may contain `$`, so pretty-printed generated names re-parse.
//! Pretty-printing a term and parsing the output yields an α-equivalent
//! term; this round-trip property is exercised in the tests.
//!
//! Every parsed node is recorded in the [`crate::spans`] side-table, so the
//! type checkers can attach source locations to their diagnostics without
//! the hash-consed AST carrying spans.
//!
//! Two entry points are provided. [`parse_term`] is fail-fast and returns
//! the first [`ParseError`]. [`parse_term_tolerant`] keeps going: at each
//! recovery point it records the error, skips ahead to a synchronizing
//! token (`in`, `then`, `else`, `)`, …), patches the missing subterm with
//! the `<error>` hole ([`crate::tolerant::error_term`]) and continues, so a
//! single pass reports every parse error and still yields a term the
//! Collect type checker can walk. `<error>` cannot lex as an identifier,
//! so holes never collide with user-written names.
//!
//! Spans are byte offsets into the input, as [`Span`] documents.

use crate::ast::Term;
use crate::builder::*;
use crate::spans;
use cccc_util::diag::Diagnostic;
use cccc_util::span::Span;
use cccc_util::symbol::Symbol;
use std::fmt;

/// A parse error with a message and the span where it occurred.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Where in the input the problem was detected.
    pub span: Span,
}

impl ParseError {
    fn new(message: impl Into<String>, span: Span) -> ParseError {
        ParseError { message: message.into(), span }
    }

    /// Converts to a structured [`Diagnostic`] with the parse-error code.
    pub fn to_diagnostic(&self) -> Diagnostic {
        Diagnostic::error(self.message.clone()).with_code("E0100").with_span(self.span)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.span, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Result type for the parser.
pub type Result<T> = std::result::Result<T, ParseError>;

/// Tokens of the surface syntax.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Token {
    Ident(String),
    Lambda,
    Pi,
    Sigma,
    Let,
    In,
    As,
    Fst,
    Snd,
    If,
    Then,
    Else,
    True,
    False,
    BoolKw,
    Star,
    BoxKw,
    LParen,
    RParen,
    LAngle,
    RAngle,
    Dot,
    Colon,
    Comma,
    Equals,
    Arrow,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Lambda => write!(f, "`\\`"),
            Token::Pi => write!(f, "`Pi`"),
            Token::Sigma => write!(f, "`Sigma`"),
            Token::Let => write!(f, "`let`"),
            Token::In => write!(f, "`in`"),
            Token::As => write!(f, "`as`"),
            Token::Fst => write!(f, "`fst`"),
            Token::Snd => write!(f, "`snd`"),
            Token::If => write!(f, "`if`"),
            Token::Then => write!(f, "`then`"),
            Token::Else => write!(f, "`else`"),
            Token::True => write!(f, "`true`"),
            Token::False => write!(f, "`false`"),
            Token::BoolKw => write!(f, "`Bool`"),
            Token::Star => write!(f, "`*`"),
            Token::BoxKw => write!(f, "`BOX`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::LAngle => write!(f, "`<`"),
            Token::RAngle => write!(f, "`>`"),
            Token::Dot => write!(f, "`.`"),
            Token::Colon => write!(f, "`:`"),
            Token::Comma => write!(f, "`,`"),
            Token::Equals => write!(f, "`=`"),
            Token::Arrow => write!(f, "`->`"),
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '$' || c == '\''
}

/// Tokenizes `input` into byte-offset spans. In tolerant mode, unknown
/// characters are skipped and recorded in `errors`; in strict mode the
/// first one aborts the scan.
fn tokenize_inner(
    input: &str,
    tolerant: bool,
    errors: &mut Vec<ParseError>,
) -> Result<Vec<(Token, Span)>> {
    let mut tokens = Vec::new();
    let mut chars = input.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        let token = match c {
            c if c.is_whitespace() => continue,
            '(' => Token::LParen,
            ')' => Token::RParen,
            '<' => Token::LAngle,
            '>' => Token::RAngle,
            '.' => Token::Dot,
            ':' => Token::Colon,
            ',' => Token::Comma,
            '=' => Token::Equals,
            '*' => Token::Star,
            '\\' => Token::Lambda,
            '-' if chars.next_if(|&(_, next)| next == '>').is_some() => Token::Arrow,
            c if is_ident_start(c) => {
                while chars.next_if(|&(_, next)| is_ident_continue(next)).is_some() {}
                let end = chars.peek().map_or(input.len(), |&(end, _)| end);
                match &input[start..end] {
                    "Pi" | "forall" => Token::Pi,
                    "Sigma" | "exists" => Token::Sigma,
                    "lambda" | "fun" => Token::Lambda,
                    "let" => Token::Let,
                    "in" => Token::In,
                    "as" => Token::As,
                    "fst" => Token::Fst,
                    "snd" => Token::Snd,
                    "if" => Token::If,
                    "then" => Token::Then,
                    "else" => Token::Else,
                    "true" => Token::True,
                    "false" => Token::False,
                    "Bool" => Token::BoolKw,
                    "BOX" => Token::BoxKw,
                    word => Token::Ident(word.to_owned()),
                }
            }
            other => {
                let span = Span::new(start as u32, (start + other.len_utf8()) as u32);
                let error = ParseError::new(format!("unexpected character `{other}`"), span);
                if !tolerant {
                    return Err(error);
                }
                errors.push(error);
                continue;
            }
        };
        let end = chars.peek().map_or(input.len(), |&(end, _)| end);
        tokens.push((token, Span::new(start as u32, end as u32)));
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<(Token, Span)>,
    position: usize,
    input_len: u32,
    tolerant: bool,
    errors: Vec<ParseError>,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.position).map(|(t, _)| t)
    }

    fn current_span(&self) -> Span {
        self.tokens
            .get(self.position)
            .map(|(_, s)| *s)
            .unwrap_or(Span::new(self.input_len, self.input_len))
    }

    /// The span of the most recently consumed token (used to close the span
    /// of a composite node once its last constituent has been parsed).
    fn prev_span(&self) -> Span {
        if self.position == 0 {
            return self.current_span();
        }
        self.tokens
            .get(self.position - 1)
            .map(|(_, s)| *s)
            .unwrap_or(Span::new(self.input_len, self.input_len))
    }

    fn advance(&mut self) -> Option<Token> {
        let token = self.tokens.get(self.position).map(|(t, _)| t.clone());
        if token.is_some() {
            self.position += 1;
        }
        token
    }

    /// Consumes `expected` or fails *without consuming* the offending token,
    /// so tolerant recovery can synchronize on it.
    fn expect(&mut self, expected: Token) -> Result<()> {
        let span = self.current_span();
        match self.peek() {
            Some(found) if *found == expected => {
                self.advance();
                Ok(())
            }
            Some(found) => {
                Err(ParseError::new(format!("expected {expected}, found {found}"), span))
            }
            None => Err(ParseError::new(format!("expected {expected}, found end of input"), span)),
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        let span = self.current_span();
        match self.peek() {
            Some(Token::Ident(name)) => {
                let name = name.clone();
                self.advance();
                Ok(name)
            }
            Some(found) => {
                Err(ParseError::new(format!("expected identifier, found {found}"), span))
            }
            None => Err(ParseError::new("expected identifier, found end of input", span)),
        }
    }

    /// Records `span(start..last consumed token)` for `term` in the
    /// side-table and passes the term through.
    fn record(&self, term: Term, start: Span) -> Term {
        spans::record(&term, start.join(self.prev_span()));
        term
    }

    /// The `<error>` hole patched in where a subterm failed to parse.
    fn hole(&self, at: Span) -> Term {
        let hole = crate::tolerant::error_term();
        spans::record(&hole, at);
        hole
    }

    /// Skips tokens until one of `stops` (or end of input) is at the front.
    fn sync_to(&mut self, stops: &[Token]) {
        while let Some(token) = self.peek() {
            if stops.contains(token) {
                return;
            }
            self.advance();
        }
    }

    /// Parses a term; in tolerant mode a failure records the error, skips to
    /// a synchronizing token, and yields an `<error>` hole instead.
    fn term_or_recover(&mut self, sync: &[Token]) -> Result<Term> {
        match self.term() {
            Ok(term) => Ok(term),
            Err(error) if self.tolerant => {
                let at = error.span;
                self.errors.push(error);
                self.sync_to(sync);
                Ok(self.hole(at))
            }
            Err(error) => Err(error),
        }
    }

    /// Expects `expected`; in tolerant mode a mismatch records the error,
    /// skips to `expected` or one of `sync`, and consumes `expected` if that
    /// is what the skip stopped on.
    fn expect_or_recover(&mut self, expected: Token, sync: &[Token]) -> Result<()> {
        match self.expect(expected.clone()) {
            Ok(()) => Ok(()),
            Err(error) if self.tolerant => {
                self.errors.push(error);
                let mut stops = sync.to_vec();
                stops.push(expected.clone());
                self.sync_to(&stops);
                if self.peek() == Some(&expected) {
                    self.advance();
                }
                Ok(())
            }
            Err(error) => Err(error),
        }
    }

    /// Expects `expected`; in tolerant mode a mismatch records the error and
    /// continues without consuming anything (for punctuation like `(` or `.`
    /// whose absence does not call for skipping ahead).
    fn expect_soft(&mut self, expected: Token) -> Result<()> {
        match self.expect(expected) {
            Ok(()) => Ok(()),
            Err(error) if self.tolerant => {
                self.errors.push(error);
                Ok(())
            }
            Err(error) => Err(error),
        }
    }

    /// Expects an identifier; in tolerant mode a mismatch records the error
    /// and substitutes the `<error>` name without consuming anything.
    fn ident_or_recover(&mut self) -> Result<String> {
        match self.expect_ident() {
            Ok(name) => Ok(name),
            Err(error) if self.tolerant => {
                self.errors.push(error);
                Ok(crate::tolerant::ERROR_NAME.to_string())
            }
            Err(error) => Err(error),
        }
    }

    /// Parses a `(x : term)` binder group followed by `.` and a body.
    fn binder_body(&mut self) -> Result<(Symbol, Term, Term)> {
        self.expect_soft(Token::LParen)?;
        let name = self.ident_or_recover()?;
        self.expect_soft(Token::Colon)?;
        let annotation = self.term_or_recover(&[Token::RParen, Token::Dot])?;
        self.expect_or_recover(Token::RParen, &[Token::Dot])?;
        self.expect_soft(Token::Dot)?;
        let body = self.term()?;
        Ok((Symbol::intern(&name), annotation, body))
    }

    fn term(&mut self) -> Result<Term> {
        let start = self.current_span();
        match self.peek() {
            Some(Token::Lambda) => {
                self.advance();
                let (name, annotation, body) = self.binder_body()?;
                Ok(self.record(lam_sym(name, annotation, body), start))
            }
            Some(Token::Pi) => {
                self.advance();
                let (name, annotation, body) = self.binder_body()?;
                Ok(self.record(pi_sym(name, annotation, body), start))
            }
            Some(Token::Sigma) => {
                self.advance();
                let (name, annotation, body) = self.binder_body()?;
                Ok(self.record(sigma_sym(name, annotation, body), start))
            }
            Some(Token::Let) => {
                self.advance();
                let name = self.ident_or_recover()?;
                self.expect_or_recover(Token::Equals, &[Token::Colon, Token::In])?;
                let bound = self.term_or_recover(&[Token::Colon, Token::In])?;
                self.expect_or_recover(Token::Colon, &[Token::In])?;
                let annotation = self.term_or_recover(&[Token::In])?;
                self.expect_or_recover(Token::In, &[])?;
                let body = self.term()?;
                Ok(self.record(let_sym(Symbol::intern(&name), annotation, bound, body), start))
            }
            Some(Token::If) => {
                self.advance();
                let scrutinee = self.term_or_recover(&[Token::Then, Token::Else])?;
                self.expect_or_recover(Token::Then, &[Token::Else])?;
                let then_branch = self.term_or_recover(&[Token::Else])?;
                self.expect_or_recover(Token::Else, &[])?;
                let else_branch = self.term()?;
                Ok(self.record(ite(scrutinee, then_branch, else_branch), start))
            }
            _ => {
                let left = self.application()?;
                if matches!(self.peek(), Some(Token::Arrow)) {
                    self.advance();
                    let right = self.term()?;
                    Ok(self.record(arrow(left, right), start))
                } else {
                    Ok(left)
                }
            }
        }
    }

    fn application(&mut self) -> Result<Term> {
        let start = self.current_span();
        let mut result = self.projection()?;
        while self.starts_atom() {
            let argument = self.projection()?;
            result = self.record(app(result, argument), start);
        }
        Ok(result)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                Token::Ident(_)
                    | Token::Star
                    | Token::BoxKw
                    | Token::BoolKw
                    | Token::True
                    | Token::False
                    | Token::LParen
                    | Token::LAngle
                    | Token::Fst
                    | Token::Snd
            )
        )
    }

    fn projection(&mut self) -> Result<Term> {
        let start = self.current_span();
        match self.peek() {
            Some(Token::Fst) => {
                self.advance();
                let inner = self.projection()?;
                Ok(self.record(fst(inner), start))
            }
            Some(Token::Snd) => {
                self.advance();
                let inner = self.projection()?;
                Ok(self.record(snd(inner), start))
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<Term> {
        let span = self.current_span();
        match self.peek().cloned() {
            Some(Token::Ident(name)) => {
                self.advance();
                Ok(self.record(var(&name), span))
            }
            Some(Token::Star) => {
                self.advance();
                Ok(self.record(star(), span))
            }
            Some(Token::BoxKw) => {
                self.advance();
                Ok(self.record(boxu(), span))
            }
            Some(Token::BoolKw) => {
                self.advance();
                Ok(self.record(bool_ty(), span))
            }
            Some(Token::True) => {
                self.advance();
                Ok(self.record(tt(), span))
            }
            Some(Token::False) => {
                self.advance();
                Ok(self.record(ff(), span))
            }
            Some(Token::LParen) => {
                self.advance();
                let inner = self.term_or_recover(&[Token::RParen])?;
                self.expect_or_recover(Token::RParen, &[])?;
                Ok(inner)
            }
            Some(Token::LAngle) => {
                self.advance();
                let first = self.term_or_recover(&[Token::Comma, Token::RAngle])?;
                self.expect_or_recover(Token::Comma, &[Token::RAngle])?;
                let second = self.term_or_recover(&[Token::RAngle])?;
                self.expect_or_recover(Token::RAngle, &[Token::As])?;
                self.expect_soft(Token::As)?;
                let annotation = self.atom()?;
                Ok(self.record(pair(first, second, annotation), span))
            }
            Some(found) => Err(ParseError::new(format!("expected a term, found {found}"), span)),
            None => Err(ParseError::new("expected a term, found end of input", span)),
        }
    }
}

/// Parses a complete CC term from `input`, failing at the first error.
///
/// Spans for every parsed node are recorded in [`crate::spans`] (replacing
/// those of the previously parsed program).
///
/// # Errors
///
/// Returns a [`ParseError`] when the input does not conform to the grammar
/// or contains trailing tokens.
pub fn parse_term(input: &str) -> Result<Term> {
    spans::reset();
    let mut scan_errors = Vec::new();
    let tokens = tokenize_inner(input, false, &mut scan_errors)?;
    let mut parser = Parser {
        tokens,
        position: 0,
        input_len: input.len() as u32,
        tolerant: false,
        errors: Vec::new(),
    };
    let term = parser.term()?;
    if parser.position != parser.tokens.len() {
        return Err(ParseError::new("unexpected trailing input", parser.current_span()));
    }
    Ok(term)
}

/// Parses `input` with error recovery, returning a term (with `<error>`
/// holes where subterms were unparseable) and *every* parse error found.
///
/// An empty error list means the parse was clean and the term is identical
/// to what [`parse_term`] returns. Spans for every parsed node are recorded
/// in [`crate::spans`].
pub fn parse_term_tolerant(input: &str) -> (Term, Vec<ParseError>) {
    spans::reset();
    let mut errors = Vec::new();
    let tokens = tokenize_inner(input, true, &mut errors)
        .expect("tolerant tokenizer records errors instead of failing");
    let mut parser =
        Parser { tokens, position: 0, input_len: input.len() as u32, tolerant: true, errors };
    let term = match parser.term() {
        Ok(term) => term,
        Err(error) => {
            let at = error.span;
            parser.errors.push(error);
            parser.sync_to(&[]);
            parser.hole(at)
        }
    };
    if parser.position != parser.tokens.len() {
        parser.errors.push(ParseError::new("unexpected trailing input", parser.current_span()));
    }
    (term, parser.errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretty::term_to_string;
    use crate::subst::alpha_eq;

    fn round_trips(term: &Term) {
        let printed = term_to_string(term);
        let reparsed =
            parse_term(&printed).unwrap_or_else(|e| panic!("failed to re-parse `{printed}`: {e}"));
        assert!(
            alpha_eq(term, &reparsed),
            "round trip changed term:\n  original: {term}\n  reparsed: {reparsed}"
        );
    }

    #[test]
    fn parses_atoms() {
        assert!(alpha_eq(&parse_term("x").unwrap(), &var("x")));
        assert!(alpha_eq(&parse_term("*").unwrap(), &star()));
        assert!(alpha_eq(&parse_term("Bool").unwrap(), &bool_ty()));
        assert!(alpha_eq(&parse_term("true").unwrap(), &tt()));
        assert!(alpha_eq(&parse_term("false").unwrap(), &ff()));
    }

    #[test]
    fn parses_lambda_all_spellings() {
        let expected = lam("x", bool_ty(), var("x"));
        assert!(alpha_eq(&parse_term("\\(x : Bool). x").unwrap(), &expected));
        assert!(alpha_eq(&parse_term("lambda (x : Bool). x").unwrap(), &expected));
        assert!(alpha_eq(&parse_term("fun (x : Bool). x").unwrap(), &expected));
    }

    #[test]
    fn parses_pi_and_arrow_sugar() {
        let dependent = parse_term("Pi (A : *). A").unwrap();
        assert!(alpha_eq(&dependent, &pi("A", star(), var("A"))));
        let sugar = parse_term("Bool -> Bool").unwrap();
        match sugar {
            Term::Pi { domain, codomain, .. } => {
                assert!(alpha_eq(&domain, &bool_ty()));
                assert!(alpha_eq(&codomain, &bool_ty()));
            }
            other => panic!("expected Pi, got {other}"),
        }
    }

    #[test]
    fn arrow_is_right_associative() {
        let t = parse_term("Bool -> Bool -> Bool").unwrap();
        match t {
            Term::Pi { codomain, .. } => assert!(matches!(&*codomain, Term::Pi { .. })),
            _ => panic!("expected Pi"),
        }
    }

    #[test]
    fn application_is_left_associative() {
        let t = parse_term("f a b").unwrap();
        assert!(alpha_eq(&t, &app(app(var("f"), var("a")), var("b"))));
    }

    #[test]
    fn parses_let_if_pair_projections() {
        let t = parse_term("let x = true : Bool in if x then false else true").unwrap();
        assert!(alpha_eq(&t, &let_("x", bool_ty(), tt(), ite(var("x"), ff(), tt()))));
        let p = parse_term("<true, false> as (Sigma (x : Bool). Bool)").unwrap();
        assert!(alpha_eq(&p, &pair(tt(), ff(), sigma("x", bool_ty(), bool_ty()))));
        assert!(alpha_eq(&parse_term("fst p").unwrap(), &fst(var("p"))));
        assert!(alpha_eq(&parse_term("snd (fst p)").unwrap(), &snd(fst(var("p")))));
    }

    #[test]
    fn parses_polymorphic_identity() {
        let t = parse_term("\\(A : *). \\(x : A). x").unwrap();
        assert!(alpha_eq(&t, &crate::prelude::poly_id()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_term("").is_err());
        assert!(parse_term("(x").is_err());
        assert!(parse_term("x )").is_err());
        assert!(parse_term("let x = in y").is_err());
        assert!(parse_term("#!?").is_err());
        assert!(parse_term("if true then false").is_err());
    }

    #[test]
    fn error_messages_mention_position() {
        let err = parse_term("(x").unwrap_err();
        assert!(err.to_string().contains("parse error"));
    }

    #[test]
    fn corpus_round_trips_through_pretty_printer() {
        for entry in crate::prelude::corpus() {
            round_trips(&entry.term);
        }
    }

    #[test]
    fn generated_names_round_trip() {
        // `arrow` introduces a generated binder whose printed form contains `$`.
        round_trips(&arrow(bool_ty(), bool_ty()));
    }

    #[test]
    fn deeply_nested_terms_round_trip() {
        let mut t = var("x");
        for _ in 0..30 {
            t = app(lam("x", bool_ty(), t.clone()), tt());
        }
        round_trips(&t);
    }

    #[test]
    fn parser_records_spans_for_subterms() {
        let input = "\\(x : Bool). f x";
        let term = parse_term(input).unwrap();
        assert_eq!(spans::span_of(&term), Some(Span::new(0, input.len() as u32)));
        assert_eq!(spans::span_of(&bool_ty()), Some(Span::new(6, 10)));
        assert_eq!(spans::span_of(&var("f")), Some(Span::new(13, 14)));
    }

    #[test]
    fn tolerant_matches_strict_on_clean_input() {
        for input in ["\\(A : *). \\(x : A). x", "let x = true : Bool in x", "fst p"] {
            let strict = parse_term(input).unwrap();
            let (tolerant, errors) = parse_term_tolerant(input);
            assert!(errors.is_empty(), "{input}: {errors:?}");
            assert!(alpha_eq(&strict, &tolerant));
        }
    }

    #[test]
    fn tolerant_recovers_with_holes_and_reports_every_error() {
        // Two independent mistakes: a missing bound term and a bad character.
        let (term, errors) = parse_term_tolerant("let x = : Bool in f # x");
        assert!(errors.len() >= 2, "{errors:?}");
        assert!(
            crate::tolerant::is_poisoned(&term),
            "recovered term should contain an <error> hole: {term}"
        );
    }

    #[test]
    fn tolerant_recovers_inside_if_and_parens() {
        let (_, errors) = parse_term_tolerant("if then false else (true");
        assert!(errors.len() >= 2, "{errors:?}");
        let (term, errors) = parse_term_tolerant("(f x");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(alpha_eq(&term, &app(var("f"), var("x"))));
    }

    #[test]
    fn tolerant_empty_input_yields_hole() {
        let (term, errors) = parse_term_tolerant("");
        assert_eq!(errors.len(), 1);
        assert!(crate::tolerant::is_poisoned(&term));
    }

    #[test]
    fn parse_error_converts_to_coded_diagnostic() {
        let err = parse_term("(x").unwrap_err();
        let diag = err.to_diagnostic();
        assert_eq!(diag.code.as_deref(), Some("E0100"));
        assert!(diag.span.is_some());
    }
}
