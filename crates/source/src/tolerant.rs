//! The error sentinel of keep-going type checking for CC.
//!
//! Under its Collect error policy ([`crate::typecheck::infer_collecting`])
//! the one rule set of [`crate::typecheck`] records each violation as a
//! coded diagnostic and resumes with the **error sentinel** — the
//! unparseable variable `<error>`, whose type unifies with anything. The
//! recovery points and the error-code table are documented with the
//! rules, in [`crate::typecheck`].
//!
//! ## The sentinel
//!
//! `<error>` ([`ERROR_NAME`], shared with CC-CC through
//! [`cccc_util::symbol`]) cannot lex as an identifier (see
//! [`crate::parse`]), so it never collides with a user-written name. A
//! term or type that mentions it is *poisoned* ([`is_poisoned`] — an O(1)
//! query on the hash-consed free-var metadata). The Collect policy treats
//! poisoned types as equal to everything, which stops one genuine error
//! from cascading into dozens of follow-on mismatches; this is the classic
//! `TyError`/`Ty_Err` recovery scheme of production compilers.

use crate::ast::Term;
use crate::env::Env;
use crate::subst::occurs_free;

pub use cccc_util::symbol::{error_symbol, ERROR_NAME};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::equiv::definitionally_equal;
    use crate::typecheck::{infer, infer_collecting};
    use cccc_util::diag::Diagnostic;
    use cccc_util::symbol::Symbol;

    fn codes(diagnostics: &[Diagnostic]) -> Vec<&str> {
        diagnostics.iter().filter_map(|d| d.code.as_deref()).collect()
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
            let (ty, diagnostics) = infer_collecting(&env, &entry.term);
            assert!(
                diagnostics.is_empty(),
                "{}: spurious diagnostics {:?}",
                entry.name,
                diagnostics
            );
            assert!(
                definitionally_equal(&env, &ty, &strict),
                "{}: tolerant type `{}` differs from strict `{}`",
                entry.name,
                ty,
                strict
            );
        }
    }

    #[test]
    fn unbound_variable_reports_and_poisons() {
        let (ty, diagnostics) = infer_collecting(&Env::new(), &var("ghost"));
        assert_eq!(codes(&diagnostics), vec!["E0001"]);
        assert!(is_poisoned(&ty));
    }

    #[test]
    fn multiple_independent_errors_are_all_reported() {
        // Three separate errors: unbound `a`, true applied, fst of true.
        let t = ite(app(tt(), var("a")), fst(tt()), tt());
        let (_, diagnostics) = infer_collecting(&Env::new(), &t);
        let found = codes(&diagnostics);
        assert!(found.contains(&"E0003"), "{found:?}");
        assert!(found.contains(&"E0001"), "{found:?}");
        assert!(found.contains(&"E0004"), "{found:?}");
    }

    #[test]
    fn bad_let_binding_poisons_but_body_is_still_checked() {
        // `let b = * : Bool in fst b` — the binding is ill-typed (E0008) and
        // the body has its own error (fst of a Bool-annotated binder, E0004).
        let t = let_("b", bool_ty(), star(), fst(var("b")));
        let (_, diagnostics) = infer_collecting(&Env::new(), &t);
        let found = codes(&diagnostics);
        assert!(found.contains(&"E0008"), "{found:?}");
        assert!(found.contains(&"E0004"), "{found:?}");
    }

    #[test]
    fn poisoned_type_unifies_with_anything() {
        // Only ONE error: the unbound variable. Its poisoned type must not
        // cascade into a mismatch against Bool.
        let t = ite(var("ghost"), tt(), ff());
        let (_, diagnostics) = infer_collecting(&Env::new(), &t);
        assert_eq!(codes(&diagnostics), vec!["E0001"]);
    }

    #[test]
    fn mismatch_is_reported_once_then_accepted() {
        let not = lam("b", bool_ty(), ite(var("b"), ff(), tt()));
        let (_, diagnostics) = infer_collecting(&Env::new(), &app(not, star()));
        assert_eq!(codes(&diagnostics), vec!["E0008"]);
    }

    #[test]
    fn box_as_term_reports_e0002() {
        let (_, diagnostics) = infer_collecting(&Env::new(), &app(boxu(), tt()));
        assert!(codes(&diagnostics).contains(&"E0002"));
    }

    #[test]
    fn pair_annotation_not_sigma_reports_e0006() {
        let (_, diagnostics) = infer_collecting(&Env::new(), &pair(tt(), ff(), bool_ty()));
        assert_eq!(codes(&diagnostics), vec!["E0006"]);
    }

    #[test]
    fn env_poison_detection() {
        let clean = Env::new().with_assumption(Symbol::intern("A"), star());
        assert!(!env_is_poisoned(&clean));
        let dirty = clean.with_assumption(Symbol::intern("x"), error_term());
        assert!(env_is_poisoned(&dirty));
    }
}
