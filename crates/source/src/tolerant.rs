//! Keep-going type checking for CC: collect *every* error, not just the
//! first.
//!
//! [`infer_tolerant`] runs the one rule set of [`crate::typecheck`] under
//! its Collect error policy: each violation is recorded as a coded
//! [`Diagnostic`] and checking resumes with the **error sentinel** — the
//! unparseable variable `<error>`, whose type unifies with anything. The
//! recovery points and the error-code table are documented with the
//! rules, in [`crate::typecheck`].
//!
//! ## The sentinel
//!
//! `<error>` cannot lex as an identifier (see [`crate::parse`]), so it never
//! collides with a user-written name. A term or type that mentions it is
//! *poisoned* ([`is_poisoned`] — an O(1) query on the hash-consed free-var
//! metadata). The Collect policy treats poisoned types as equal to
//! everything, which stops one genuine error from cascading into dozens of
//! follow-on mismatches; this is the classic `TyError`/`Ty_Err` recovery
//! scheme of production compilers.

use crate::ast::Term;
use crate::env::Env;
use crate::equiv::Engine;
use crate::subst::occurs_free;
use cccc_util::diag::Diagnostic;
use cccc_util::symbol::Symbol;

/// The reserved name of the error sentinel. It contains characters that can
/// never appear in a lexed identifier.
pub const ERROR_NAME: &str = "<error>";

/// The interned sentinel symbol.
pub fn error_symbol() -> Symbol {
    Symbol::intern(ERROR_NAME)
}

/// The sentinel term/type `<error>`, used both as the hole the tolerant
/// parser patches in and as the type every recovery point assigns.
pub fn error_term() -> Term {
    Term::Var(error_symbol())
}

/// True when `term` mentions the error sentinel anywhere (O(1) via the
/// interner's cached free-variable set).
pub fn is_poisoned(term: &Term) -> bool {
    occurs_free(error_symbol(), term)
}

/// True when any declared type or definition in `env` is poisoned.
pub fn env_is_poisoned(env: &Env) -> bool {
    use crate::env::Decl;
    env.iter().any(|decl| match decl {
        Decl::Assumption { ty, .. } => is_poisoned(ty),
        Decl::Definition { ty, term, .. } => is_poisoned(ty) || is_poisoned(term),
    })
}

/// The result of a tolerant run: the (possibly poisoned) type together with
/// every diagnostic collected along the way.
#[derive(Clone, Debug)]
pub struct TolerantOutcome {
    /// The inferred type; mentions `<error>` wherever recovery happened.
    pub ty: Term,
    /// All diagnostics, in source order of discovery.
    pub diagnostics: Vec<Diagnostic>,
}

impl TolerantOutcome {
    /// True when no error-severity diagnostic was produced.
    pub fn is_clean(&self) -> bool {
        !self.diagnostics.iter().any(Diagnostic::is_error)
    }
}

/// Infers the type of `term` under `env`, collecting every type error
/// instead of stopping at the first.
pub fn infer_tolerant(env: &Env, term: &Term) -> TolerantOutcome {
    infer_tolerant_with_engine(env, term, Engine::Nbe)
}

/// [`infer_tolerant`] through an explicitly chosen equivalence engine.
pub fn infer_tolerant_with_engine(env: &Env, term: &Term, engine: Engine) -> TolerantOutcome {
    let (ty, diagnostics) = crate::typecheck::infer_collecting(env, term, engine);
    TolerantOutcome { ty, diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::equiv::definitionally_equal;
    use crate::typecheck::infer;

    fn codes(outcome: &TolerantOutcome) -> Vec<&str> {
        outcome.diagnostics.iter().filter_map(|d| d.code.as_deref()).collect()
    }

    #[test]
    fn sentinel_cannot_lex() {
        assert!(crate::parse::parse_term(ERROR_NAME).is_err());
    }

    #[test]
    fn well_typed_terms_agree_with_strict_checker() {
        for entry in crate::prelude::corpus() {
            let env = Env::new();
            let strict = infer(&env, &entry.term).expect("corpus terms are well-typed");
            let tolerant = infer_tolerant(&env, &entry.term);
            assert!(
                tolerant.diagnostics.is_empty(),
                "{}: spurious diagnostics {:?}",
                entry.name,
                tolerant.diagnostics
            );
            assert!(
                definitionally_equal(&env, &tolerant.ty, &strict),
                "{}: tolerant type `{}` differs from strict `{}`",
                entry.name,
                tolerant.ty,
                strict
            );
        }
    }

    #[test]
    fn unbound_variable_reports_and_poisons() {
        let outcome = infer_tolerant(&Env::new(), &var("ghost"));
        assert_eq!(codes(&outcome), vec!["E0001"]);
        assert!(is_poisoned(&outcome.ty));
    }

    #[test]
    fn multiple_independent_errors_are_all_reported() {
        // Three separate errors: unbound `a`, true applied, fst of true.
        let t = ite(app(tt(), var("a")), fst(tt()), tt());
        let outcome = infer_tolerant(&Env::new(), &t);
        let found = codes(&outcome);
        assert!(found.contains(&"E0003"), "{found:?}");
        assert!(found.contains(&"E0001"), "{found:?}");
        assert!(found.contains(&"E0004"), "{found:?}");
    }

    #[test]
    fn bad_let_binding_poisons_but_body_is_still_checked() {
        // `let b = * : Bool in fst b` — the binding is ill-typed (E0008) and
        // the body has its own error (fst of a Bool-annotated binder, E0004).
        let t = let_("b", bool_ty(), star(), fst(var("b")));
        let outcome = infer_tolerant(&Env::new(), &t);
        let found = codes(&outcome);
        assert!(found.contains(&"E0008"), "{found:?}");
        assert!(found.contains(&"E0004"), "{found:?}");
    }

    #[test]
    fn poisoned_type_unifies_with_anything() {
        // Only ONE error: the unbound variable. Its poisoned type must not
        // cascade into a mismatch against Bool.
        let t = ite(var("ghost"), tt(), ff());
        let outcome = infer_tolerant(&Env::new(), &t);
        assert_eq!(codes(&outcome), vec!["E0001"]);
    }

    #[test]
    fn mismatch_is_reported_once_then_accepted() {
        let not = lam("b", bool_ty(), ite(var("b"), ff(), tt()));
        let outcome = infer_tolerant(&Env::new(), &app(not, star()));
        assert_eq!(codes(&outcome), vec!["E0008"]);
    }

    #[test]
    fn box_as_term_reports_e0002() {
        let outcome = infer_tolerant(&Env::new(), &app(boxu(), tt()));
        assert!(codes(&outcome).contains(&"E0002"));
    }

    #[test]
    fn pair_annotation_not_sigma_reports_e0006() {
        let outcome = infer_tolerant(&Env::new(), &pair(tt(), ff(), bool_ty()));
        assert_eq!(codes(&outcome), vec!["E0006"]);
    }

    #[test]
    fn env_poison_detection() {
        let clean = Env::new().with_assumption(Symbol::intern("A"), star());
        assert!(!env_is_poisoned(&clean));
        let dirty = clean.with_assumption(Symbol::intern("x"), error_term());
        assert!(env_is_poisoned(&dirty));
    }
}
