//! The paper's §3 walk-through, reproduced end to end.
//!
//! Run with:
//!
//! ```text
//! cargo run --example polymorphic_identity
//! ```
//!
//! The polymorphic identity function `λ A : ⋆. λ x : A. x` is the paper's
//! central example of why typed closure conversion for dependent types is
//! hard: the inner function's *type* mentions the type variable `A` captured
//! in its environment. This example shows:
//!
//! 1. the translation producing the two nested closures of §3,
//! 2. the inner code's argument annotation projecting `A` from the
//!    environment (`x : let ⟨A⟩ = n in A`), while its body `x`, which
//!    reads no captured variable, projects nothing,
//! 3. the `[Clo]` rule synchronising the closure type with the code type by
//!    substituting the environment, and
//! 4. the η-principle for closures identifying environment-captured and
//!    inlined variants.

use cccc::compiler::translate::translate;
use cccc::compiler::verify::check_type_preservation;
use cccc::source::{self, builder as s};
use cccc::target::{self, builder as t};

fn main() {
    let source_env = source::Env::new();
    let target_env = target::Env::new();

    // λ A : ⋆. λ x : A. x : Π A : ⋆. Π x : A. A
    let poly_id = source::prelude::poly_id();
    let poly_id_ty = source::typecheck::infer(&source_env, &poly_id).unwrap();
    println!("source term : {poly_id}");
    println!("source type : {poly_id_ty}");

    // Closure convert it.
    let converted = translate(&source_env, &poly_id).unwrap();
    println!("\nclosure-converted term:");
    println!("{}", target::pretty::term_to_string_width(&converted, 100));

    // The translation produced two closures over two pieces of *closed* code.
    assert_eq!(converted.closure_count(), 2);
    assert_eq!(converted.code_count(), 2);
    let mut open_code = 0;
    converted.visit(&mut |node| {
        if matches!(node, target::Term::Code { .. }) && !target::subst::is_closed(node) {
            open_code += 1;
        }
    });
    assert_eq!(open_code, 0, "rule [Code] guarantees every piece of code is closed");
    println!("\nboth pieces of code are closed — rule [Code] is satisfiable by the output.");

    // Type preservation, Theorem 5.6: the output checks at the translated type.
    let evidence = check_type_preservation(&source_env, &poly_id).unwrap();
    println!("\ntarget type  : {}", evidence.target_type);
    println!("expected A+  : {}", evidence.expected_target_type);
    println!("type preservation (Theorem 5.6) verified for the polymorphic identity.");

    // Apply the compiled closure at Bool, as in §3, and inspect the [Clo]
    // typing: the environment is substituted into the code type.
    let applied = t::app(converted.clone(), t::bool_ty());
    let applied_ty = target::typecheck::infer(&target_env, &applied).unwrap();
    println!("\n(id+ Bool) : {applied_ty}");
    assert!(target::equiv::definitionally_equal(
        &target_env,
        &applied_ty,
        &t::pi("x", t::bool_ty(), t::bool_ty())
    ));

    // Run it.
    let result = target::reduce::normalize_default(&target_env, &t::app(applied, t::tt()));
    println!("(id+ Bool true) ⊲* {result}");

    // Finally, the closure-η principle: the inner closure with `Bool`
    // captured in its environment is definitionally equal to code with Bool
    // inlined — the equivalence the paper needs for compositionality.
    let captured = t::closure(
        t::code("n", t::sigma("A", t::star(), t::unit_ty()), "x", t::fst(t::var("n")), t::var("x")),
        t::pair(t::bool_ty(), t::unit_val(), t::sigma("A", t::star(), t::unit_ty())),
    );
    let inlined =
        t::closure(t::code("n", t::unit_ty(), "x", t::bool_ty(), t::var("x")), t::unit_val());
    assert!(target::equiv::definitionally_equal(&target_env, &captured, &inlined));
    println!("\nclosure-η: environment-captured and inlined closures are definitionally equal.");

    // For comparison, show what the naive (untyped) reading of the example
    // would lose: the source and translated types line up structurally.
    println!("\nsource Π type      : {}", poly_id_ty);
    println!("translated Π type  : {}", translate(&source_env, &poly_id_ty).unwrap());
    println!("\n§3 walk-through complete.");

    // Keep the example honest if someone edits it: the whole-program result
    // still matches the source evaluation.
    let source_result = source::reduce::normalize_default(
        &source_env,
        &s::app(s::app(poly_id, s::bool_ty()), s::tt()),
    );
    println!("source evaluation for comparison: {source_result}");
}
