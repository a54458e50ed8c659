//! The typed closure-conversion translation from CC to CC-CC (Figure 9).
//!
//! The translation is defined on typing derivations; operationally this
//! means the translator is *type-directed*: every case is a homomorphic map
//! except `[CC-Lam]`, which must
//!
//! 1. infer the Π type of the λ-abstraction (rule `[CC-Lam]`'s premises),
//!    which reads the derivation the type checker already built: the
//!    checker memoizes `[Lam]` per thread (see [`cccc_source::typecheck`]),
//!    so after the unit's type check each of these calls is a table hit
//!    that re-derives no λ body (re-deriving them made the work grow
//!    quadratically with λ-nesting depth),
//! 2. compute the dependency-ordered free variables of the function *and*
//!    its type with the metafunction `FV` (Figure 10),
//! 3. build the environment telescope `Σ (xi : Ai⁺ …)` and the environment
//!    tuple `⟨xi …⟩`,
//! 4. produce closed code that re-binds the free variables by projecting
//!    from its environment parameter — both in the body *and* in the
//!    argument's type annotation (this is the dependently typed twist);
//!    each of the two re-binds only the variables it reads and those their
//!    types read ([`tuple::project_bindings`]), which by ζ is
//!    definitionally equal to Figure 9's prelude of every captured
//!    variable, and
//! 5. pair the code with the environment into a closure.
//!
//! Type preservation (Theorem 5.6) is validated mechanically by
//! [`crate::verify`] and the integration test suite.
//!
//! Every constructed target term goes through the CC-CC smart constructors
//! and is therefore interned on creation, and the `FV` metafunction
//! (step 2) reads cached free-variable metadata instead of traversing.
//! Every code block binds its environment parameter with one shared
//! generated symbol, so the translation is a function of its input down to
//! the node: the same λ under the same captured telescope becomes the same
//! interned code block, projection chain and environment type wherever it
//! occurs — twice in one term, or in two units compiled on one thread. The
//! re-check of the output then answers every repeated code block from the
//! `[Code]` memo and every repeated conversion by node identity or from
//! the conversion memo.
//!
//! A closed λ is translated in the empty environment, where the checker
//! checks it. Neither its derivation nor its translation can consult Γ,
//! and each λ beneath it then sees the environment the checker saw, so
//! its `[Lam]` memo key is the one the type check used. Translated under
//! the real Γ instead, an open λ nested in a closed one would be asked
//! about under a Γ the checker never saw whenever the closed λ's entry was
//! made in another context (another unit, or elsewhere in this one).
//!
//! One name for every environment parameter cannot capture. Code is
//! closed, so an inner block never mentions the parameter of the block it
//! is nested in, and capture-avoiding substitution renames a shadowing
//! binder whenever a substituted term does mention it. The name must stay
//! *generated*: with a plain `n`, the code of a source `λ n : A. e` would
//! bind its argument under the same name as its environment parameter,
//! and the projections would read the argument. No source term can
//! contain the generated name.

use crate::fv::{dependent_free_vars, FvError};
use cccc_source as src;
use cccc_target as tgt;
use cccc_target::tuple;
use cccc_util::symbol::Symbol;
use std::fmt;
use std::sync::OnceLock;

/// Errors produced by the closure-conversion translation.
#[derive(Clone, Debug)]
pub enum TranslateError {
    /// The free-variable analysis failed (an unbound variable).
    FreeVariables(FvError),
    /// The source term is ill-typed; the translation is only defined on
    /// well-typed terms (it is defined on typing derivations).
    SourceType(src::TypeError),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::FreeVariables(e) => write!(f, "free-variable analysis failed: {e}"),
            TranslateError::SourceType(e) => write!(f, "source term is ill-typed: {e}"),
        }
    }
}

impl std::error::Error for TranslateError {}

impl From<FvError> for TranslateError {
    fn from(e: FvError) -> TranslateError {
        TranslateError::FreeVariables(e)
    }
}

impl From<src::TypeError> for TranslateError {
    fn from(e: src::TypeError) -> TranslateError {
        TranslateError::SourceType(e)
    }
}

/// Result type for the translation.
pub type Result<T> = std::result::Result<T, TranslateError>;

/// Closure-converts the well-typed source term `term` under `env`
/// (the judgment `Γ ⊢ e : A ⇝ e` of Figure 9).
///
/// # Errors
///
/// Returns a [`TranslateError`] if `term` is ill-typed under `env` or
/// mentions variables not bound in `env`.
pub fn translate(env: &src::Env, term: &src::Term) -> Result<tgt::Term> {
    Ok(match term {
        // [CC-Var]
        src::Term::Var(x) => tgt::Term::Var(*x),
        // [CC-*] (and the universe □, which only occurs as a classifier)
        src::Term::Sort(u) => tgt::Term::Sort(*u),
        // Ground types.
        src::Term::BoolTy => tgt::Term::BoolTy,
        src::Term::BoolLit(b) => tgt::Term::BoolLit(*b),
        src::Term::If { scrutinee, then_branch, else_branch } => tgt::Term::If {
            scrutinee: translate(env, scrutinee)?.rc(),
            then_branch: translate(env, then_branch)?.rc(),
            else_branch: translate(env, else_branch)?.rc(),
        },
        // [CC-Prod-*] / [CC-Prod-□]: Π types translate to closure types.
        src::Term::Pi { binder, domain, codomain } => {
            let inner = env.with_assumption(*binder, (**domain).clone());
            tgt::Term::Pi {
                binder: *binder,
                domain: translate(env, domain)?.rc(),
                codomain: translate(&inner, codomain)?.rc(),
            }
        }
        // [CC-Sig-*] / [CC-Sig-□]
        src::Term::Sigma { binder, first, second } => {
            let inner = env.with_assumption(*binder, (**first).clone());
            tgt::Term::Sigma {
                binder: *binder,
                first: translate(env, first)?.rc(),
                second: translate(&inner, second)?.rc(),
            }
        }
        // [CC-Lam]: the interesting case.
        src::Term::Lam { binder, domain, body } => {
            translate_lambda(env, term, *binder, domain, body)?
        }
        // [CC-App]: application is still the elimination form for closures.
        src::Term::App { func, arg } => {
            tgt::Term::App { func: translate(env, func)?.rc(), arg: translate(env, arg)?.rc() }
        }
        // [CC-Let]
        src::Term::Let { binder, annotation, bound, body } => {
            let inner = env.with_definition(*binder, (**bound).clone(), (**annotation).clone());
            tgt::Term::Let {
                binder: *binder,
                annotation: translate(env, annotation)?.rc(),
                bound: translate(env, bound)?.rc(),
                body: translate(&inner, body)?.rc(),
            }
        }
        // [CC-Pair]
        src::Term::Pair { first, second, annotation } => tgt::Term::Pair {
            first: translate(env, first)?.rc(),
            second: translate(env, second)?.rc(),
            annotation: translate(env, annotation)?.rc(),
        },
        // [CC-Fst] / [CC-Snd]
        src::Term::Fst(e) => tgt::Term::Fst(translate(env, e)?.rc()),
        src::Term::Snd(e) => tgt::Term::Snd(translate(env, e)?.rc()),
    })
}

/// The environment parameter `n` of every code block the translation
/// builds: one symbol generated once per process (see the module docs for
/// why sharing it is capture-safe).
fn env_binder() -> Symbol {
    static ENV_BINDER: OnceLock<Symbol> = OnceLock::new();
    *ENV_BINDER.get_or_init(|| Symbol::fresh("n"))
}

/// The `[CC-Lam]` case: translates `λ binder : domain. body` into a closure.
///
/// The code binds [`env_binder`], not a name of its own, so two
/// translations of the same λ under the same telescope are the same node.
fn translate_lambda(
    env: &src::Env,
    lambda: &src::Term,
    binder: Symbol,
    domain: &src::Term,
    body: &src::Term,
) -> Result<tgt::Term> {
    // A closed λ is translated in the empty environment, where the checker
    // checks it (see the module docs): the λs beneath it then see the
    // environments the checker saw.
    let empty = src::Env::new();
    let env = if src::subst::is_closed(lambda) { &empty } else { env };

    // The Π type of the function (needed because FV is computed for both the
    // function and its type — the codomain may mention free variables the
    // body does not). Type-checking the unit made an entry for this λ in
    // the checker's `[Lam]` memo, so this answers from it; without one (a
    // caller that did not type-check first, or a keep-going build, whose
    // checker bypasses the memo) it derives the type and fills the memo
    // for every λ beneath this one.
    let function_ty = src::typecheck::infer(env, lambda)?;

    // xi : Ai … = FV(λ x : A. e, Π x : A. B, Γ)
    let free = dependent_free_vars(env, &[lambda, &function_ty])?;

    // Translate the types of the free variables; the telescope binds earlier
    // variables for later types, so translating under Γ is enough.
    let mut entries: Vec<(Symbol, tgt::Term)> = Vec::with_capacity(free.len());
    for (x, a) in &free {
        entries.push((*x, translate(env, a)?));
    }

    // Σ (xi : Ai⁺ …), terminated by the unit type.
    let environment_ty = tuple::telescope_type(&entries);
    // ⟨xi …⟩ — the dynamically constructed environment.
    let environment = tuple::variables_tuple(&entries);

    // The environment parameter of the code, shared by every block.
    let env_param = env_binder();
    let env_var = tgt::Term::Var(env_param);

    // x : let ⟨xi …⟩ = n in A⁺   — the argument annotation re-binds the free
    // variables so the (possibly dependent) domain remains well-scoped. Only
    // those A⁺ reads are re-bound, with those their types read: most
    // annotations read none (a ground or closed type) and get no `let`.
    let domain_translated = translate(env, domain)?;
    let argument_annotation = tuple::project_bindings(&env_var, &entries, domain_translated);

    // let ⟨xi …⟩ = n in e⁺   — again only the variables e⁺ reads, so a free
    // variable captured for the function's type alone is not re-bound here.
    let inner_env = env.with_assumption(binder, domain.clone());
    let body_translated = translate(&inner_env, body)?;
    let code_body = tuple::project_bindings(&env_var, &entries, body_translated);

    let code = tgt::Term::Code {
        env_binder: env_param,
        env_ty: environment_ty.rc(),
        arg_binder: binder,
        arg_ty: argument_annotation.rc(),
        body: code_body.rc(),
    };

    Ok(tgt::Term::Closure { code: code.rc(), env: environment.rc() })
}

/// Translates a whole environment `⊢ Γ ⇝ Γ` (the second judgment of
/// Figure 9): each entry's type (and definition) is translated under the
/// prefix that precedes it.
///
/// # Errors
///
/// Returns a [`TranslateError`] if any entry is ill-typed.
pub fn translate_env(env: &src::Env) -> Result<tgt::Env> {
    let mut source_prefix = src::Env::new();
    let mut translated = tgt::Env::new();
    for decl in env.iter() {
        match decl {
            src::Decl::Assumption { name, ty } => {
                let ty_translated = translate(&source_prefix, ty)?;
                translated.push_assumption(*name, ty_translated);
                source_prefix.push_assumption(*name, (**ty).clone());
            }
            src::Decl::Definition { name, ty, term } => {
                let ty_translated = translate(&source_prefix, ty)?;
                let term_translated = translate(&source_prefix, term)?;
                translated.push_definition(*name, term_translated, ty_translated);
                source_prefix.push_definition(*name, (**term).clone(), (**ty).clone());
            }
        }
    }
    Ok(translated)
}

/// Translates a closed, well-typed source program and returns the pair of
/// the translated term and the translation of its source type.
///
/// # Errors
///
/// Returns a [`TranslateError`] if the program is ill-typed.
pub fn translate_program(term: &src::Term) -> Result<(tgt::Term, tgt::Term)> {
    let env = src::Env::new();
    let ty = src::typecheck::infer(&env, term)?;
    Ok((translate(&env, term)?, translate(&env, &ty)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link;
    use crate::pipeline::Compiler;
    use cccc_source::builder as s;
    use cccc_source::prelude;
    use cccc_target::builder as t;
    use cccc_target::equiv::definitionally_equal as target_eq;
    use cccc_target::reduce::normalize_default as target_normalize;
    use cccc_target::subst::{alpha_eq as target_alpha_eq, is_closed};

    fn empty_src() -> src::Env {
        src::Env::new()
    }

    fn empty_tgt() -> tgt::Env {
        tgt::Env::new()
    }

    #[test]
    fn variables_sorts_and_ground_terms_are_homomorphic() {
        let env = empty_src();
        assert!(target_alpha_eq(&translate(&env, &s::star()).unwrap(), &t::star()));
        assert!(target_alpha_eq(&translate(&env, &s::bool_ty()).unwrap(), &t::bool_ty()));
        assert!(target_alpha_eq(&translate(&env, &s::tt()).unwrap(), &t::tt()));
        assert!(target_alpha_eq(&translate(&env, &s::var("x")).unwrap(), &t::var("x")));
    }

    #[test]
    fn both_universes_translate_to_themselves() {
        for u in [src::Universe::Star, src::Universe::Box] {
            let translated = translate(&empty_src(), &src::Term::Sort(u)).unwrap();
            assert!(matches!(translated, tgt::Term::Sort(v) if v == u), "{translated}");
        }
    }

    #[test]
    fn the_error_sentinel_survives_translation() {
        // CC-CC reads the sentinel CC writes: a closure capturing it is
        // poisoned on the target side.
        let env = empty_src().with_assumption(src::tolerant::error_symbol(), s::bool_ty());
        let poisoned = s::lam("x", s::bool_ty(), src::tolerant::error_term());
        let translated = translate(&env, &poisoned).unwrap();
        assert!(matches!(translated, tgt::Term::Closure { .. }), "{translated}");
        assert!(tgt::tolerant::is_poisoned(&translated));
    }

    #[test]
    fn pi_types_translate_to_closure_types_structurally() {
        let env = empty_src();
        let translated = translate(&env, &prelude::poly_id_ty()).unwrap();
        let expected = t::pi("A", t::star(), t::pi("x", t::var("A"), t::var("A")));
        assert!(target_alpha_eq(&translated, &expected));
    }

    #[test]
    fn closed_lambda_gets_an_empty_environment() {
        // λ x : Bool. x  ⇝  ⟪λ (n : 1, x : let ⟨⟩ = n in Bool). …, ⟨⟩⟫
        let translated = translate(&empty_src(), &s::lam("x", s::bool_ty(), s::var("x"))).unwrap();
        match &translated {
            tgt::Term::Closure { code, env } => {
                assert!(target_alpha_eq(env, &t::unit_val()));
                assert!(is_closed(code), "code must be closed");
                match &**code {
                    tgt::Term::Code { env_ty, .. } => {
                        assert!(target_alpha_eq(env_ty, &t::unit_ty()))
                    }
                    other => panic!("expected code, got {other}"),
                }
            }
            other => panic!("expected closure, got {other}"),
        }
    }

    #[test]
    fn free_variables_are_captured_in_the_environment() {
        // Under Γ = y : Bool, the translation of λ x : Bool. y captures y.
        let env = empty_src().with_assumption(Symbol::intern("y"), s::bool_ty());
        let translated = translate(&env, &s::lam("x", s::bool_ty(), s::var("y"))).unwrap();
        match &translated {
            tgt::Term::Closure { code, env: closure_env } => {
                assert!(is_closed(code), "code must be closed even with captured variables");
                // The environment tuple mentions y.
                assert!(cccc_target::subst::occurs_free(Symbol::intern("y"), closure_env));
            }
            other => panic!("expected closure, got {other}"),
        }
    }

    #[test]
    fn polymorphic_identity_translates_to_the_papers_nested_closures() {
        let translated = translate(&empty_src(), &prelude::poly_id()).unwrap();
        // Two closures, two pieces of code, and every piece of code closed.
        assert_eq!(translated.closure_count(), 2);
        assert_eq!(translated.code_count(), 2);
        let mut all_code_closed = true;
        translated.visit(&mut |node| {
            if matches!(node, tgt::Term::Code { .. }) && !is_closed(node) {
                all_code_closed = false;
            }
        });
        assert!(all_code_closed);
        // And it type checks at the translated type.
        let ty = tgt::typecheck::infer(&empty_tgt(), &translated).unwrap();
        let expected = translate(&empty_src(), &prelude::poly_id_ty()).unwrap();
        assert!(target_eq(&empty_tgt(), &ty, &expected), "got {ty}, expected {expected}");
    }

    /// The code block of `closure`.
    fn code_of(closure: &tgt::Term) -> &tgt::Term {
        match closure {
            tgt::Term::Closure { code, .. } => code,
            other => panic!("expected a closure, got {other}"),
        }
    }

    #[test]
    fn a_prelude_binds_only_the_captured_variables_its_term_reads() {
        // λ A : ⋆. λ x : A. x  ⇝  the inner code
        // λ (n : Σ A : ⋆. 1, x : let A = fst n : ⋆ in A). x:
        // the annotation reads `A`, the body only the argument.
        let translated = translate(&empty_src(), &prelude::poly_id()).unwrap();
        let tgt::Term::Code { body: outer_body, .. } = code_of(&translated) else {
            panic!("expected code in {translated}");
        };
        let tgt::Term::Code { env_binder, arg_ty, body, .. } = code_of(outer_body) else {
            panic!("expected code in {outer_body}");
        };
        let projected_a = t::let_("A", t::star(), t::fst(t::var_sym(*env_binder)), t::var("A"));
        assert!(target_alpha_eq(arg_ty, &projected_a), "{arg_ty}");
        assert!(target_alpha_eq(body, &t::var("x")), "{body}");
    }

    #[test]
    fn a_kept_projection_brings_the_projections_its_type_reads() {
        // Under Γ = A : ⋆, a : A, the code of λ x : Bool. a re-binds `a`
        // and, because `a : A`, `A` before it; `Bool` reads neither.
        let env = empty_src()
            .with_assumption(Symbol::intern("A"), s::star())
            .with_assumption(Symbol::intern("a"), s::var("A"));
        let translated = translate(&env, &s::lam("x", s::bool_ty(), s::var("a"))).unwrap();
        let tgt::Term::Code { env_binder, arg_ty, body, .. } = code_of(&translated) else {
            panic!("expected code in {translated}");
        };
        assert!(target_alpha_eq(arg_ty, &t::bool_ty()), "{arg_ty}");
        let n = || t::var_sym(*env_binder);
        let projected_a = t::let_(
            "A",
            t::star(),
            t::fst(n()),
            t::let_("a", t::var("A"), t::fst(t::snd(n())), t::var("a")),
        );
        assert!(target_alpha_eq(body, &projected_a), "{body}");
    }

    /// The prelude `let`s of every code block in `term`, each with whether
    /// its variable is read: the `let`s at the head of the argument
    /// annotation and of the body bound to `fst (sndⁱ n)`, where `n` is the
    /// block's environment parameter.
    fn prelude_liveness(term: &tgt::Term) -> Vec<bool> {
        let projects = |n: Symbol, bound: &tgt::Term| {
            let tgt::Term::Fst(first) = bound else { return false };
            let mut tuple: &tgt::Term = first;
            while let tgt::Term::Snd(rest) = tuple {
                tuple = rest;
            }
            matches!(tuple, tgt::Term::Var(x) if *x == n)
        };
        let mut live = Vec::new();
        term.visit(&mut |node| {
            let tgt::Term::Code { env_binder, arg_ty, body, .. } = node else { return };
            for mut wrapped in [arg_ty, body] {
                while let tgt::Term::Let { binder, bound, body, .. } = &**wrapped {
                    if !projects(*env_binder, bound) {
                        break;
                    }
                    live.push(cccc_target::subst::occurs_free(*binder, body));
                    wrapped = body;
                }
            }
        });
        live
    }

    #[test]
    fn every_prelude_let_is_live() {
        let mut programs: Vec<src::Term> =
            prelude::corpus().into_iter().map(|entry| entry.term).collect();
        let mut generator = src::generate::TermGenerator::new(0x9E1D);
        programs.extend((0..200).map(|_| generator.gen_program().0));
        let mut lets = 0;
        for program in &programs {
            let liveness = prelude_liveness(&translate(&empty_src(), program).unwrap());
            assert!(liveness.iter().all(|&live| live), "a dead prelude `let` in `{program}`");
            lets += liveness.len();
        }
        assert!(lets > 0, "the programs must capture something");
    }

    #[test]
    fn applications_still_run_after_translation() {
        // (λ A : ⋆. λ x : A. x) Bool true ⇝ … ⊲* true
        let program = s::app(s::app(prelude::poly_id(), s::bool_ty()), s::tt());
        let translated = translate(&empty_src(), &program).unwrap();
        let value = target_normalize(&empty_tgt(), &translated);
        assert!(target_alpha_eq(&value, &t::tt()));
    }

    #[test]
    fn lets_pairs_and_projections_are_homomorphic() {
        let program = s::let_(
            "p",
            s::sigma("x", s::bool_ty(), s::bool_ty()),
            s::pair(s::tt(), s::ff(), s::sigma("x", s::bool_ty(), s::bool_ty())),
            s::fst(s::var("p")),
        );
        let translated = translate(&empty_src(), &program).unwrap();
        assert!(matches!(translated, tgt::Term::Let { .. }));
        let value = target_normalize(&empty_tgt(), &translated);
        assert!(target_alpha_eq(&value, &t::tt()));
    }

    #[test]
    fn ill_typed_source_terms_are_rejected() {
        // The translation is type-directed at λ-abstractions, so an
        // ill-typed function body is detected there.
        let bad = s::lam("x", s::bool_ty(), s::app(s::tt(), s::ff()));
        assert!(matches!(translate(&empty_src(), &bad), Err(TranslateError::SourceType(_))));
        let unbound = s::lam("x", s::bool_ty(), s::var("ghost"));
        assert!(translate(&empty_src(), &unbound).is_err());
    }

    #[test]
    fn environment_translation_preserves_structure() {
        let env = empty_src()
            .with_assumption(Symbol::intern("A"), s::star())
            .with_assumption(Symbol::intern("x"), s::var("A"))
            .with_definition(Symbol::intern("b"), s::tt(), s::bool_ty());
        let translated = translate_env(&env).unwrap();
        assert_eq!(translated.len(), 3);
        assert!(tgt::typecheck::check_env(&translated).is_ok());
    }

    #[test]
    fn translate_program_returns_term_and_type() {
        let (term, ty) = translate_program(&prelude::poly_id()).unwrap();
        assert!(tgt::typecheck::check(&empty_tgt(), &term, &ty).is_ok());
    }

    #[test]
    fn translation_is_deterministic() {
        // Every code block binds the one shared environment parameter, so
        // translating a term twice yields the same nodes, not α-copies.
        let add = prelude::church_add();
        let a = translate(&empty_src(), &add).unwrap();
        let b = translate(&empty_src(), &add).unwrap();
        assert!(a == b, "two translations of one term must be the same nodes");

        // The same holds inside one term: both arguments of `mul 4 4` are
        // one numeral, so they become one closure node.
        let four = prelude::church_numeral(4);
        let square = s::app(s::app(prelude::church_mul(), four.clone()), four);
        let tgt::Term::App { func, arg: second } = translate(&empty_src(), &square).unwrap() else {
            panic!("an application translates to an application");
        };
        let tgt::Term::App { arg: first, .. } = &*func else {
            panic!("an application translates to an application");
        };
        assert!(matches!(&*second, tgt::Term::Closure { .. }));
        assert!(first.same(&second), "the two numeral closures must be one node");
    }

    #[test]
    fn a_source_binder_named_n_does_not_capture_the_environment_parameter() {
        // The middle λ binds `n` and captures `y`; the inner λ captures
        // both, so its environment carries a variable named `n` too.
        let function = s::lam(
            "y",
            s::bool_ty(),
            s::lam(
                "n",
                s::bool_ty(),
                s::lam("z", s::bool_ty(), s::ite(s::var("n"), s::var("y"), s::var("z"))),
            ),
        );
        let program = s::apps(function, [s::tt(), s::ff(), s::ff()]);
        let (term, ty) = translate_program(&program).unwrap();

        let inferred = tgt::typecheck::infer(&empty_tgt(), &term)
            .unwrap_or_else(|e| panic!("the translation must type-check: {e}"));
        Compiler::new()
            .phase_verify(&empty_src(), &program, None, &inferred, &ty)
            .unwrap_or_else(|e| panic!("Theorem 5.6 must hold: {e}"));
        assert_eq!(link::observe_target(&term), link::observe_source(&program));
        assert_eq!(link::observe_target(&term), Some(false));

        // The store's portable encoding relocates the generated parameter
        // to a symbol new to the reader (one per stored name, reused by
        // every later load); the decoded term is still α-equal and
        // well-typed.
        let decoded = tgt::wire::decode(&tgt::wire::encode_portable(&term)).unwrap();
        assert!(target_alpha_eq(&decoded, &term));
        let decoded_ty = tgt::typecheck::infer(&empty_tgt(), &decoded).unwrap();
        assert!(target_eq(&empty_tgt(), &decoded_ty, &ty));
    }

    #[test]
    fn translating_after_type_checking_infers_no_lambda_again() {
        // Each entry on a thread of its own, so the `[Lam]` memo starts
        // cold: the typecheck phase fills it, and the translate phase must
        // find the type of every λ it translates there.
        for index in 0..prelude::corpus().len() {
            std::thread::spawn(move || {
                let entry = prelude::corpus().swap_remove(index);
                let (compiler, env) = (Compiler::new(), empty_src());
                let (ty, _) = compiler.phase_typecheck(&env, &entry.term).unwrap();
                let before = src::typecheck::lam_memo_stats();
                compiler.phase_translate(&env, &entry.term, &ty).unwrap();
                let lam_memo = src::typecheck::lam_memo_stats().since(&before);
                assert_eq!(lam_memo.memo_misses, 0, "`{}` re-inferred a λ", entry.name);
                let lambdas = entry.term.lambda_count() as u64;
                assert!(lam_memo.memo_hits >= lambdas, "`{}`: {lam_memo:?}", entry.name);
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn code_size_grows_but_lambda_count_matches_closure_count() {
        for entry in prelude::corpus() {
            let translated = translate(&empty_src(), &entry.term).unwrap();
            assert_eq!(
                entry.term.lambda_count(),
                translated.closure_count(),
                "`{}`: every λ must become exactly one closure",
                entry.name
            );
            assert!(translated.size() >= entry.term.size());
        }
    }
}
