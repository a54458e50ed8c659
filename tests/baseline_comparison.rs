//! §3.1, executable: the existential-type baseline handles the simply typed
//! fragment but fails on every dependently typed program, while the paper's
//! abstract closure conversion (CC → CC-CC) handles all of them. The two
//! translations also agree on the observations of simply typed programs.

use cccc::compiler::verify::check_type_preservation;
use cccc::exist::baseline;
use cccc::exist::lang as exist_lang;
use cccc::source::{builder as s, prelude, Env, Term};
use cccc::Compiler;

/// Simply typed programs both translations must handle.
fn simply_typed_programs() -> Vec<(&'static str, Term, bool)> {
    let twice_mono = s::lam(
        "f",
        s::arrow(s::bool_ty(), s::bool_ty()),
        s::lam("x", s::bool_ty(), s::app(s::var("f"), s::app(s::var("f"), s::var("x")))),
    );
    vec![
        ("not_true", s::app(prelude::not_fn(), s::tt()), false),
        ("and_tt_ff", s::app(s::app(prelude::and_fn(), s::tt()), s::ff()), false),
        ("xor_tt_ff", s::app(s::app(prelude::xor_fn(), s::tt()), s::ff()), true),
        ("twice_not_true", s::app(s::app(twice_mono, prelude::not_fn()), s::tt()), true),
        (
            "pair_project",
            s::fst(s::pair(s::ff(), s::tt(), s::product(s::bool_ty(), s::bool_ty()))),
            false,
        ),
    ]
}

/// Dependently typed programs only the abstract translation handles.
fn dependent_programs() -> Vec<(&'static str, Term)> {
    vec![
        ("poly_id", prelude::poly_id()),
        ("poly_compose", prelude::poly_compose()),
        ("church_three", prelude::church_numeral(3)),
        ("refined_true_witness", prelude::refined_true_witness()),
        ("dependent_pair", s::pair(s::bool_ty(), s::tt(), s::sigma("A", s::star(), s::var("A")))),
        ("id_applied", s::app(s::app(prelude::poly_id(), s::bool_ty()), s::tt())),
    ]
}

#[test]
fn both_translations_handle_the_simply_typed_fragment() {
    let compiler = Compiler::new();
    for (name, program, expected) in simply_typed_programs() {
        // Baseline: translate, type check in the existential language, run.
        let (translated, ty) = baseline::translate_program(&program)
            .unwrap_or_else(|e| panic!("baseline failed on simply typed `{name}`: {e}"));
        let inferred = exist_lang::infer(&Vec::new(), &translated).unwrap();
        assert!(inferred.alpha_eq(&ty), "`{name}`: baseline output type mismatch");
        let baseline_value = exist_lang::evaluate(&translated);
        assert!(
            matches!(baseline_value, exist_lang::Expr::Bool(b) if b == expected),
            "`{name}`: baseline evaluated to {baseline_value}"
        );

        // Abstract closure conversion: compile and run.
        let (source_value, target_value) = compiler.compile_and_run(&program).unwrap();
        assert_eq!(source_value, expected, "`{name}`");
        assert_eq!(target_value, expected, "`{name}`");
    }
}

#[test]
fn only_the_abstract_translation_handles_dependent_types() {
    for (name, program) in dependent_programs() {
        // The baseline gives up with a NotSimplyTyped diagnostic …
        let error = baseline::translate_program(&program)
            .err()
            .unwrap_or_else(|| panic!("baseline unexpectedly handled dependent `{name}`"));
        assert!(
            matches!(error, baseline::BaselineError::NotSimplyTyped { .. }),
            "`{name}`: unexpected baseline error {error}"
        );
        // … while the abstract closure conversion type-preservingly compiles it.
        check_type_preservation(&Env::new(), &program)
            .unwrap_or_else(|e| panic!("abstract translation failed on `{name}`: {e}"));
    }
}

#[test]
fn baseline_failures_pinpoint_the_dependent_feature() {
    let err = baseline::translate_program(&prelude::poly_id()).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("simply typed fragment"));
    let err = baseline::translate_program(&prelude::refined_true_witness()).unwrap_err();
    assert!(err.to_string().contains("simply typed fragment"));
}

#[test]
fn code_size_comparison_between_the_two_encodings() {
    // On the shared (simply typed) fragment, both encodings blow up the
    // program; record that both factors are finite and >= 1, as the
    // README's §3.1 baseline comparison states.
    let compiler = Compiler::new();
    for (name, program, _) in simply_typed_programs() {
        let (baseline_term, _) = baseline::translate_program(&program).unwrap();
        let abstract_compilation = compiler.compile_closed(&program).unwrap();
        let source_size = program.size();
        assert!(baseline_term.size() > 0, "`{name}`");
        assert!(abstract_compilation.target_size() >= source_size, "`{name}`");
        // Programs that actually contain functions grow under both encodings.
        if program.lambda_count() > 0 {
            assert!(baseline_term.size() > program.lambda_count(), "`{name}`");
            assert!(
                abstract_compilation.expansion_factor() > 1.0,
                "`{name}` did not grow under abstract closure conversion"
            );
        }
    }
}
