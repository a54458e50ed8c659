//! Pinned multi-error fixtures: exact error codes, byte spans, related
//! spans, and notes for representative broken programs in both CC and
//! CC-CC. These are intentionally brittle — a change to recovery order,
//! span bookkeeping, or message wording must show up here as a diff the
//! reviewer can read, not as silent drift.

use cccc::source::{self, builder as s, tolerant::is_poisoned};
use cccc::target::{self, builder as t};
use cccc::util::diag::diagnostics_to_json;
use cccc::util::span::Span;
use cccc::{CompileError, Compiler, CompilerOptions, Diagnostic};

fn codes(diagnostics: &[Diagnostic]) -> Vec<&str> {
    diagnostics.iter().filter_map(|d| d.code.as_deref()).collect()
}

fn keep_going() -> Compiler {
    Compiler::with_options(CompilerOptions { keep_going: true, ..CompilerOptions::default() })
}

/// The interface and diagnostics a keep-going compile of `text` recovered.
fn recovered(text: &str) -> (source::Term, Vec<Diagnostic>) {
    match keep_going().compile_text(text) {
        Err(CompileError::Recovered { interface, diagnostics }) => (interface, diagnostics),
        other => panic!("expected a recovered front end for {text:?}, got {other:?}"),
    }
}

/// One fixture, three independent CC errors: an application of a
/// non-function, an unbound variable, and a checked mismatch whose
/// expected type has a parser-recorded origin.
#[test]
fn cc_fixture_pins_three_errors_with_spans() {
    let text = "if (true false) then missing else (\\(x : Bool). x) *";
    let (interface, diagnostics) = recovered(text);
    assert!(is_poisoned(&interface), "recovery left the sentinel in the interface");
    assert_eq!(codes(&diagnostics), vec!["E0003", "E0001", "E0008"]);

    let [not_a_function, unbound, mismatch] = &diagnostics[..] else {
        panic!("expected exactly three diagnostics, got {diagnostics:?}")
    };

    // `true false`: the span points at the applied `true`.
    assert_eq!(not_a_function.message, "`true` is applied but has non-function type `Bool`");
    assert_eq!(not_a_function.span, Some(Span::new(4, 8)));

    // `missing`: the span covers the whole identifier.
    assert_eq!(unbound.message, "unbound variable `missing`");
    assert_eq!(unbound.span, Some(Span::new(21, 28)));

    // `(\(x : Bool). x) *`: primary span on the offending argument, with
    // the expected type's origin attached as a related span.
    assert_eq!(mismatch.span, Some(Span::new(51, 52)));
    assert_eq!(&text[51..52], "*");
    assert_eq!(
        mismatch.related,
        vec![(Span::new(41, 45), "expected type came from this annotation".to_owned())]
    );
    assert_eq!(&text[41..45], "Bool");
    assert_eq!(mismatch.notes, vec!["expected `Bool`", "found    `BOX`"]);
}

/// The machine-readable rendering of the same fixture is pinned too —
/// downstream tools parse this shape.
#[test]
fn cc_fixture_json_is_stable() {
    let text = "if (true false) then missing else (\\(x : Bool). x) *";
    let (_, diagnostics) = recovered(text);
    let json = diagnostics_to_json(&diagnostics);
    assert!(json.starts_with('[') && json.ends_with(']'));
    for needle in [
        r#""code":"E0003""#,
        r#""code":"E0001""#,
        r#""code":"E0008""#,
        r#""span":{"start":4,"end":8}"#,
        r#""span":{"start":21,"end":28}"#,
        r#"{"start":41,"end":45,"label":"expected type came from this annotation"}"#,
        r#""notes":["expected `Bool`","found    `BOX`"]"#,
    ] {
        assert!(json.contains(needle), "{needle} missing from {json}");
    }
}

/// A mismatch between two well-formed types: the related span singles out
/// the lambda's domain annotation as the origin of the expectation.
#[test]
fn cc_mismatch_points_at_the_annotation_it_came_from() {
    let text = "(\\(x : Bool). x) (\\(y : Bool). y)";
    let (interface, diagnostics) = recovered(text);
    assert_eq!(codes(&diagnostics), vec!["E0008"]);
    let mismatch = &diagnostics[0];
    // The primary span covers the whole offending argument …
    assert_eq!(mismatch.span, Some(Span::new(18, 32)));
    assert_eq!(&text[18..32], "\\(y : Bool). y");
    // … and the related span the annotation that set the expectation.
    assert_eq!(
        mismatch.related,
        vec![(Span::new(7, 11), "expected type came from this annotation".to_owned())]
    );
    assert_eq!(&text[7..11], "Bool");
    assert_eq!(mismatch.notes, vec!["expected `Bool`", "found    `Pi (y : Bool). Bool`"]);
    // Both sides of the mismatch are sentinel-free, so the interface is
    // not poisoned — only wrong.
    assert!(!is_poisoned(&interface));
}

/// Parser recovery: an unclosed parenthesis inside an unfinished `if`
/// yields one `E0100` per missed expectation, all anchored at the point
/// of failure, and still hands the type checker a term.
#[test]
fn cc_parse_recovery_pins_every_expectation() {
    let text = "if true then (x";
    let (interface, diagnostics) = recovered(text);
    assert_eq!(codes(&diagnostics), vec!["E0100", "E0100", "E0100"]);
    let messages: Vec<&str> = diagnostics.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(
        messages,
        vec![
            "expected `)`, found end of input",
            "expected `else`, found end of input",
            "expected a term, found end of input",
        ]
    );
    let end = text.len() as u32;
    for diagnostic in &diagnostics {
        assert_eq!(diagnostic.span, Some(Span::new(end, end)), "anchored at end of input");
    }
    assert!(is_poisoned(&interface));
}

/// The CC-CC tolerant checker pins its own code table: a non-closure
/// application (`E1003`), open code violating the `[Code]` rule's empty
/// environment (`E1010` + `E1001` for the stray variable itself), and a
/// unit/Bool mismatch (`E1008`) — all from one term, in one pass.
#[test]
fn cc_cc_fixture_pins_four_errors() {
    let open_code = t::code("n", t::unit_ty(), "x", t::bool_ty(), t::var("stray"));
    let term = t::ite(t::app(t::tt(), t::ff()), open_code, t::ite(t::unit_val(), t::tt(), t::ff()));
    let (_, diagnostics) = target::typecheck::infer_collecting(&target::Env::new(), &term);
    assert!(diagnostics.iter().any(Diagnostic::is_error));
    assert_eq!(codes(&diagnostics), vec!["E1003", "E1010", "E1001", "E1008"]);

    let [not_a_closure, open, unbound, mismatch] = &diagnostics[..] else {
        panic!("expected exactly four diagnostics, got {diagnostics:?}")
    };
    assert_eq!(not_a_closure.message, "`true` is applied but has non-closure type `Bool`");
    assert!(
        open.message.contains("rule [Code] requires closed code")
            && open.message.contains("`stray`"),
        "{}",
        open.message
    );
    assert_eq!(unbound.message, "unbound variable `stray`");
    assert_eq!(mismatch.message, "type mismatch: `<>` has type `1` but `Bool` was expected");
    assert_eq!(mismatch.notes, vec!["expected `Bool`", "found    `1`"]);
}

/// Keep-going and strict agree on what counts as broken: a fixture the
/// strict front end rejects is never clean under recovery, and a clean
/// program produces an identical interface along both paths.
#[test]
fn strict_and_tolerant_agree_on_the_fixtures() {
    let compiler = Compiler::new();
    for text in [
        "if (true false) then missing else (\\(x : Bool). x) *",
        "(\\(x : Bool). x) (\\(y : Bool). y)",
        "if true then (x",
    ] {
        assert!(compiler.compile_text(text).is_err(), "{text}");
        recovered(text);
    }
    let clean = "(\\(A : *). \\(x : A). x) Bool true";
    let strict = compiler.compile_text(clean).unwrap();
    let tolerant = keep_going().compile_text(clean).expect("a clean program compiles");
    assert!(source::subst::alpha_eq(&tolerant.source_type, &strict.source_type));
    assert!(target::subst::alpha_eq(&tolerant.target, &strict.target));
    // And the error sentinel really is the recovery value: checking it
    // against any type succeeds without further diagnostics.
    let spliced = s::ite(source::tolerant::error_term(), s::tt(), s::ff());
    let Err(CompileError::Recovered { diagnostics, .. }) =
        keep_going().compile(&source::Env::new(), &spliced)
    else {
        panic!("a poisoned term never reaches the backend");
    };
    assert_eq!(
        diagnostics.iter().filter(|d| d.is_error()).count(),
        0,
        "the sentinel unifies instead of cascading"
    );
}

/// Spans are byte offsets: a multi-byte identifier before an error shifts
/// the span by its bytes, and line:col counts characters.
#[test]
fn non_ascii_identifiers_get_byte_spans() {
    let text = "\\(α : Bool). β";
    let (_, diagnostics) = recovered(text);
    assert_eq!(codes(&diagnostics), vec!["E0001"]);
    let unbound = &diagnostics[0];
    assert_eq!(unbound.message, "unbound variable `β`");
    assert_eq!(unbound.span, Some(Span::new(14, 16)));
    assert_eq!(unbound.span.unwrap().slice(text), Some("β"));
    assert_eq!(unbound.render(text), "error[E0001]: unbound variable `β` (at 1:14)\n  --> β");
    // A character that cannot start a token spans all of its bytes.
    let text = "λ → true";
    let strict = Compiler::new().compile_text(text).unwrap_err();
    let CompileError::Parse(error) = &strict else {
        panic!("expected a parse error, got {strict}")
    };
    assert_eq!(error.span, Span::new(3, 6));
    assert_eq!(error.span.slice(text), Some("→"));
}
