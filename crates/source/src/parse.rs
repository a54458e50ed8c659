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
//! The parser interns each node it builds exactly once:
//!
//! - the lexer yields `Copy` tokens whose identifiers borrow the input;
//! - each distinct identifier becomes a [`Symbol`] once per parse, through
//!   a map local to that parse, so the global symbol interner is locked
//!   once per name rather than once per occurrence (the `_` binder of
//!   `A -> B` included, which is then freshened);
//! - nodes are built as [`RcTerm`] handles directly, and each node's span
//!   is recorded on its handle in the [`crate::spans`] side-table, so the
//!   type checkers can attach source locations to their diagnostics
//!   without the hash-consed AST carrying spans.
//!
//! Two entry points share one implementation. [`parse_term`] is
//! fail-fast (Stop) and returns the first [`ParseError`].
//! [`parse_term_tolerant`] keeps going (Collect): at each recovery point it
//! records the error, skips ahead to a synchronizing token (`in`, `then`,
//! `else`, `)`, …), patches the missing subterm with the `<error>` hole
//! ([`crate::tolerant::error_term`]) and continues, so a single pass
//! reports every parse error and still yields a term the Collect type
//! checker can walk. `<error>` cannot lex as an identifier, so holes never
//! collide with user-written names.
//!
//! Nesting is bounded, so input from outside the program cannot overflow
//! the stack: `term`, `projection` and a pair's `as` annotation (where the
//! grammar recurses) each open one level, and past 256 open levels the
//! parse fails with an E0100 [`ParseError`] under Stop, or records it and
//! patches in a hole under Collect.
//!
//! Spans are byte offsets into the input, as [`Span`] documents.

use crate::ast::{RcTerm, Term, Universe};
use crate::spans;
use cccc_util::diag::Diagnostic;
use cccc_util::span::Span;
use cccc_util::symbol::Symbol;
use std::collections::BTreeMap;
use std::fmt;

/// Most nesting levels a parse opens (see the module docs). The tests
/// reach 61 levels, the examples 6 and the benchmark texts 22. A level
/// takes at most about 5.9 KB of stack unoptimized (a parenthesis, rustc
/// 1.95 on x86-64; 0.85 KB optimized), so 256 levels fit the 2 MiB stack of
/// a spawned thread with a quarter to spare.
const MAX_NESTING: usize = 256;

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

/// Tokens of the surface syntax; identifiers borrow the input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Token<'a> {
    Ident(&'a str),
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

impl fmt::Display for Token<'_> {
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

struct Parser<'a> {
    tokens: Vec<(Token<'a>, Span)>,
    position: usize,
    input_len: u32,
    tolerant: bool,
    errors: Vec<ParseError>,
    /// Each distinct identifier's symbol, interned once per parse. Ordered
    /// rather than hashed: the keys are input text, which could be crafted
    /// to collide under a fixed hash such as Fx, and on the benchmark's
    /// texts it is faster than the default keyed hasher.
    names: BTreeMap<&'a str, Symbol>,
    /// Nesting levels currently open (see [`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    /// Reports `error`: Collect records it and lets the caller recover,
    /// Stop returns it.
    fn fail(&mut self, error: ParseError) -> Result<()> {
        if !self.tolerant {
            return Err(error);
        }
        self.errors.push(error);
        Ok(())
    }

    /// Lexes `input` into byte-spanned tokens. An unknown character is
    /// reported through [`Parser::fail`] and, under Collect, skipped.
    fn lex(&mut self, input: &'a str) -> Result<()> {
        // Pretty-printed text has about 0.44 tokens per byte.
        self.tokens.reserve(input.len() / 2);
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
                        word => Token::Ident(word),
                    }
                }
                other => {
                    let span = Span::new(start as u32, (start + other.len_utf8()) as u32);
                    self.fail(ParseError::new(format!("unexpected character `{other}`"), span))?;
                    continue;
                }
            };
            let end = chars.peek().map_or(input.len(), |&(end, _)| end);
            self.tokens.push((token, Span::new(start as u32, end as u32)));
        }
        Ok(())
    }

    fn peek(&self) -> Option<Token<'a>> {
        self.tokens.get(self.position).map(|&(token, _)| token)
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

    /// Consumes the token [`Parser::peek`] just returned.
    fn advance(&mut self) {
        self.position += 1;
    }

    /// The error for finding the front token (or the end of input) where
    /// `expected` was due.
    fn unexpected(&self, expected: impl fmt::Display) -> ParseError {
        let message = match self.peek() {
            Some(found) => format!("expected {expected}, found {found}"),
            None => format!("expected {expected}, found end of input"),
        };
        ParseError::new(message, self.current_span())
    }

    /// Consumes `expected` or fails *without consuming* the offending token,
    /// so tolerant recovery can synchronize on it.
    fn expect(&mut self, expected: Token<'a>) -> Result<()> {
        if self.peek() != Some(expected) {
            return Err(self.unexpected(expected));
        }
        self.advance();
        Ok(())
    }

    /// The symbol for `name`, interned once per parse.
    fn symbol(&mut self, name: &'a str) -> Symbol {
        *self.names.entry(name).or_insert_with(|| Symbol::intern(name))
    }

    /// Interns `term` and records `span(start..last consumed token)` on the
    /// handle in the side-table.
    fn record(&self, term: Term, start: Span) -> RcTerm {
        let node = term.rc();
        spans::record(&node, start.join(self.prev_span()));
        node
    }

    /// The `<error>` hole patched in where a subterm failed to parse.
    fn hole(&self, at: Span) -> RcTerm {
        let hole = crate::tolerant::error_term().rc();
        spans::record(&hole, at);
        hole
    }

    /// Skips tokens until one of `stops` (or end of input) is at the front.
    fn sync_to(&mut self, stops: &[Token<'a>]) {
        while let Some(token) = self.peek() {
            if stops.contains(&token) {
                return;
            }
            self.advance();
        }
    }

    /// Runs `parse` one nesting level deeper, failing instead once
    /// [`MAX_NESTING`] levels are open.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<RcTerm>) -> Result<RcTerm> {
        if self.depth == MAX_NESTING {
            let message = format!("nesting deeper than {MAX_NESTING} levels");
            return Err(ParseError::new(message, self.current_span()));
        }
        self.depth += 1;
        let term = parse(self);
        self.depth -= 1;
        term
    }

    /// Parses a term; in tolerant mode a failure records the error, skips to
    /// a synchronizing token, and yields an `<error>` hole instead.
    fn term_or_recover(&mut self, sync: &[Token<'a>]) -> Result<RcTerm> {
        self.term().or_else(|error| {
            let at = error.span;
            self.fail(error)?;
            self.sync_to(sync);
            Ok(self.hole(at))
        })
    }

    /// Expects `expected`; in tolerant mode a mismatch records the error,
    /// skips to `expected` or one of `sync`, and consumes `expected` if that
    /// is what the skip stopped on.
    fn expect_or_recover(&mut self, expected: Token<'a>, sync: &[Token<'a>]) -> Result<()> {
        if let Err(error) = self.expect(expected) {
            self.fail(error)?;
            let mut stops = sync.to_vec();
            stops.push(expected);
            self.sync_to(&stops);
            if self.peek() == Some(expected) {
                self.advance();
            }
        }
        Ok(())
    }

    /// Expects `expected`; in tolerant mode a mismatch records the error and
    /// continues without consuming anything (for punctuation like `(` or `.`
    /// whose absence does not call for skipping ahead).
    fn expect_soft(&mut self, expected: Token<'a>) -> Result<()> {
        self.expect(expected).or_else(|error| self.fail(error))
    }

    /// Expects an identifier; in tolerant mode a mismatch records the error
    /// and substitutes the `<error>` name without consuming anything.
    fn ident_or_recover(&mut self) -> Result<&'a str> {
        if let Some(Token::Ident(name)) = self.peek() {
            self.advance();
            return Ok(name);
        }
        self.fail(self.unexpected("identifier"))?;
        Ok(crate::tolerant::ERROR_NAME)
    }

    /// Parses a `(x : term)` binder group followed by `.` and a body.
    fn binder_body(&mut self) -> Result<(Symbol, RcTerm, RcTerm)> {
        self.expect_soft(Token::LParen)?;
        let name = self.ident_or_recover()?;
        self.expect_soft(Token::Colon)?;
        let annotation = self.term_or_recover(&[Token::RParen, Token::Dot])?;
        self.expect_or_recover(Token::RParen, &[Token::Dot])?;
        self.expect_soft(Token::Dot)?;
        let body = self.term()?;
        Ok((self.symbol(name), annotation, body))
    }

    /// Parses a term one nesting level deeper.
    fn term(&mut self) -> Result<RcTerm> {
        self.nested(Self::unnested_term)
    }

    fn unnested_term(&mut self) -> Result<RcTerm> {
        let start = self.current_span();
        let term = match self.peek() {
            Some(Token::Lambda) => {
                self.advance();
                let (binder, domain, body) = self.binder_body()?;
                Term::Lam { binder, domain, body }
            }
            Some(Token::Pi) => {
                self.advance();
                let (binder, domain, codomain) = self.binder_body()?;
                Term::Pi { binder, domain, codomain }
            }
            Some(Token::Sigma) => {
                self.advance();
                let (binder, first, second) = self.binder_body()?;
                Term::Sigma { binder, first, second }
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
                Term::Let { binder: self.symbol(name), annotation, bound, body }
            }
            Some(Token::If) => {
                self.advance();
                let scrutinee = self.term_or_recover(&[Token::Then, Token::Else])?;
                self.expect_or_recover(Token::Then, &[Token::Else])?;
                let then_branch = self.term_or_recover(&[Token::Else])?;
                self.expect_or_recover(Token::Else, &[])?;
                let else_branch = self.term()?;
                Term::If { scrutinee, then_branch, else_branch }
            }
            _ => {
                let domain = self.application()?;
                if self.peek() != Some(Token::Arrow) {
                    return Ok(domain);
                }
                self.advance();
                let codomain = self.term()?;
                Term::Pi { binder: self.symbol("_").freshen(), domain, codomain }
            }
        };
        Ok(self.record(term, start))
    }

    fn application(&mut self) -> Result<RcTerm> {
        let start = self.current_span();
        let mut func = self.projection()?;
        while self.starts_atom() {
            let arg = self.projection()?;
            func = self.record(Term::App { func, arg }, start);
        }
        Ok(func)
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

    fn projection(&mut self) -> Result<RcTerm> {
        let start = self.current_span();
        let project = match self.peek() {
            Some(Token::Fst) => Term::Fst,
            Some(Token::Snd) => Term::Snd,
            _ => return self.atom(),
        };
        self.advance();
        let inner = self.nested(Self::projection)?;
        Ok(self.record(project(inner), start))
    }

    fn atom(&mut self) -> Result<RcTerm> {
        let start = self.current_span();
        let term = match self.peek() {
            Some(Token::Ident(name)) => Term::Var(self.symbol(name)),
            Some(Token::Star) => Term::Sort(Universe::Star),
            Some(Token::BoxKw) => Term::Sort(Universe::Box),
            Some(Token::BoolKw) => Term::BoolTy,
            Some(Token::True) => Term::BoolLit(true),
            Some(Token::False) => Term::BoolLit(false),
            Some(Token::LParen) => {
                self.advance();
                let inner = self.term_or_recover(&[Token::RParen])?;
                self.expect_or_recover(Token::RParen, &[])?;
                return Ok(inner);
            }
            Some(Token::LAngle) => {
                self.advance();
                let first = self.term_or_recover(&[Token::Comma, Token::RAngle])?;
                self.expect_or_recover(Token::Comma, &[Token::RAngle])?;
                let second = self.term_or_recover(&[Token::RAngle])?;
                self.expect_or_recover(Token::RAngle, &[Token::As])?;
                self.expect_soft(Token::As)?;
                let annotation = self.nested(Self::atom)?;
                return Ok(self.record(Term::Pair { first, second, annotation }, start));
            }
            _ => return Err(self.unexpected("a term")),
        };
        self.advance();
        Ok(self.record(term, start))
    }
}

/// The parse behind both entry points: resets the span table, lexes,
/// parses, and checks for trailing input. Stop (`tolerant == false`)
/// returns the first error; Collect returns every error beside a term
/// with holes, and never fails.
fn parse(input: &str, tolerant: bool) -> Result<(RcTerm, Vec<ParseError>)> {
    spans::reset();
    let mut parser = Parser {
        tokens: Vec::new(),
        position: 0,
        input_len: input.len() as u32,
        tolerant,
        errors: Vec::new(),
        names: BTreeMap::new(),
        depth: 0,
    };
    parser.lex(input)?;
    let term = parser.term_or_recover(&[])?;
    if parser.position != parser.tokens.len() {
        parser.fail(ParseError::new("unexpected trailing input", parser.current_span()))?;
    }
    Ok((term, parser.errors))
}

/// Parses a complete CC term from `input`, failing at the first error.
///
/// Spans for every parsed node are recorded in [`crate::spans`] (replacing
/// those of the previously parsed program).
///
/// # Errors
///
/// Returns a [`ParseError`] when the input does not conform to the grammar,
/// contains trailing tokens, or nests deeper than the parser's bound.
pub fn parse_term(input: &str) -> Result<Term> {
    parse(input, false).map(|(term, _)| term.get().clone())
}

/// Parses `input` with error recovery, returning a term (with `<error>`
/// holes where subterms were unparseable) and *every* parse error found.
///
/// An empty error list means the parse was clean and the term is identical
/// to what [`parse_term`] returns. Spans for every parsed node are recorded
/// in [`crate::spans`].
pub fn parse_term_tolerant(input: &str) -> (Term, Vec<ParseError>) {
    let (term, errors) = parse(input, true).expect("Collect records errors instead of failing");
    (term.get().clone(), errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
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
    fn each_parsed_node_is_interned_once() {
        use crate::prelude::{church_is_even, church_mul, church_numeral};
        // A let-bound Church computation, shaped like the benchmark's units.
        let work =
            app(church_is_even(), apps(church_mul(), [church_numeral(4), church_numeral(4)]));
        let church =
            let_("w", bool_ty(), work, let_("c", bool_ty(), ite(var("w"), ff(), tt()), var("c")));
        let printed = crate::prelude::corpus().into_iter().map(|entry| term_to_string(&entry.term));
        for text in printed.chain([term_to_string(&church)]) {
            let before = crate::ast::intern_stats();
            let term = parse_term(&text).unwrap();
            let calls = crate::ast::intern_stats().since(&before);
            assert_eq!(calls.hits + calls.misses, term.size() as u64, "{text}");
        }
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_a_stack_overflow() {
        const DEPTH: usize = 100_000;
        let shapes = [
            format!("{}x{}", "(".repeat(DEPTH), ")".repeat(DEPTH)),
            format!("{}x", "let x = x : x in ".repeat(DEPTH)),
            format!("{}x", "x -> ".repeat(DEPTH)),
            format!("{}x", "fst ".repeat(DEPTH)),
            format!("{}x", "<x, x> as ".repeat(DEPTH)),
        ];
        // 2 MiB is what a spawned thread or a test thread gets by default.
        let parse_on_small_stack = std::thread::Builder::new().stack_size(2 << 20);
        parse_on_small_stack
            .spawn(move || {
                let too_deep = |error: &ParseError| {
                    error.message.contains("nesting deeper than")
                        && error.to_diagnostic().code.as_deref() == Some("E0100")
                };
                for text in &shapes {
                    let shape = &text[..12];
                    let error = parse_term(text).expect_err(shape);
                    assert!(too_deep(&error), "{shape}: {error}");
                    let (term, errors) = parse_term_tolerant(text);
                    assert!(errors.iter().any(too_deep), "{shape}: {errors:?}");
                    assert!(crate::tolerant::is_poisoned(&term), "{shape}: no hole");
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn parse_error_converts_to_coded_diagnostic() {
        let err = parse_term("(x").unwrap_err();
        let diag = err.to_diagnostic();
        assert_eq!(diag.code.as_deref(), Some("E0100"));
        assert!(diag.span.is_some());
    }
}
