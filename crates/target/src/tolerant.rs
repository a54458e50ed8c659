//! Keep-going type checking for CC-CC: collect *every* error, not just the
//! first.
//!
//! [`infer_tolerant`] runs the one rule set of [`crate::typecheck`] —
//! including the closure-conversion rules `[Code]`, `[T-Code]`, and
//! `[Clo]` — under its Collect error policy: each violation is recorded as
//! a coded [`Diagnostic`] and checking recovers with the error sentinel
//! `<error>`, exactly like the source-side `cccc_source::tolerant`. A type
//! mentioning the sentinel is *poisoned* ([`is_poisoned`], O(1) on the
//! cached free-variable metadata) and unifies with anything, so a single
//! genuine error does not cascade. The recovery points and the error-code
//! table are documented with the rules, in [`crate::typecheck`].

use crate::ast::Term;
use crate::env::Env;
use crate::equiv::Engine;
use crate::subst::occurs_free;
use cccc_util::diag::Diagnostic;
use cccc_util::symbol::Symbol;

/// The reserved name of the error sentinel (shared spelling with the
/// source language, so poison survives translation boundaries).
pub const ERROR_NAME: &str = "<error>";

/// The interned sentinel symbol.
pub fn error_symbol() -> Symbol {
    Symbol::intern(ERROR_NAME)
}

/// The sentinel term/type `<error>`.
pub fn error_term() -> Term {
    Term::Var(error_symbol())
}

/// True when `term` mentions the error sentinel anywhere.
pub fn is_poisoned(term: &Term) -> bool {
    occurs_free(error_symbol(), term)
}

/// The result of a tolerant run.
#[derive(Clone, Debug)]
pub struct TolerantOutcome {
    /// The inferred type; mentions `<error>` wherever recovery happened.
    pub ty: Term,
    /// All diagnostics, in order of discovery.
    pub diagnostics: Vec<Diagnostic>,
}

impl TolerantOutcome {
    /// True when no error-severity diagnostic was produced.
    pub fn is_clean(&self) -> bool {
        !self.diagnostics.iter().any(Diagnostic::is_error)
    }
}

/// Infers the type of `term` under `env`, collecting every type error.
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

    fn id_code() -> Term {
        code("n", unit_ty(), "x", bool_ty(), var("x"))
    }

    #[test]
    fn well_typed_closure_agrees_with_strict_checker() {
        let env = Env::new();
        let clo = closure(id_code(), unit_val());
        let strict = infer(&env, &clo).expect("closure is well-typed");
        let tolerant = infer_tolerant(&env, &clo);
        assert!(tolerant.diagnostics.is_empty(), "{:?}", tolerant.diagnostics);
        assert!(definitionally_equal(&env, &tolerant.ty, &strict));
    }

    #[test]
    fn open_code_reports_e1010_and_continues() {
        // Code mentioning ambient `y` is open; applying the closure with a
        // mismatched argument is a *second* error.
        let open = code("n", unit_ty(), "x", bool_ty(), var("y"));
        let env = Env::new().with_assumption(Symbol::intern("y"), bool_ty());
        let t = app(closure(open, unit_val()), star());
        let outcome = infer_tolerant(&env, &t);
        let found = codes(&outcome);
        assert!(found.contains(&"E1010"), "{found:?}");
    }

    #[test]
    fn bare_code_application_reports_e1003() {
        let outcome = infer_tolerant(&Env::new(), &app(id_code(), tt()));
        assert_eq!(codes(&outcome), vec!["E1003"]);
    }

    #[test]
    fn non_code_closure_component_reports_e1011() {
        let outcome = infer_tolerant(&Env::new(), &closure(tt(), unit_val()));
        assert_eq!(codes(&outcome), vec!["E1011"]);
    }

    #[test]
    fn multiple_errors_accumulate() {
        // Unbound variable in the closure environment AND a mismatched
        // application argument.
        let t = app(closure(id_code(), var("ghost")), star());
        let outcome = infer_tolerant(&Env::new(), &t);
        let found = codes(&outcome);
        assert!(found.contains(&"E1001"), "{found:?}");
        // ghost poisons the env check, but the closure type is still known,
        // so the bad argument is still caught.
        assert!(found.contains(&"E1008"), "{found:?}");
    }

    #[test]
    fn poisoned_types_do_not_cascade() {
        let outcome = infer_tolerant(&Env::new(), &ite(var("ghost"), tt(), ff()));
        assert_eq!(codes(&outcome), vec!["E1001"]);
    }
}
