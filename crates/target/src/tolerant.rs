//! The error sentinel of keep-going type checking for CC-CC.
//!
//! Under its Collect error policy ([`crate::typecheck::infer_collecting`])
//! the one rule set of [`crate::typecheck`] — including the
//! closure-conversion rules `[Code]`, `[T-Code]`, and `[Clo]` — records
//! each violation as a coded diagnostic and recovers with the error
//! sentinel `<error>`, exactly like the source-side `cccc_source::tolerant`:
//! both re-export [`ERROR_NAME`] and [`error_symbol`] from
//! [`cccc_util::symbol`], so the spelling cannot drift.
//! A type mentioning the sentinel is *poisoned* ([`is_poisoned`], O(1) on
//! the cached free-variable metadata) and unifies with anything, so a
//! single genuine error does not cascade. The recovery points and the
//! error-code table are documented with the rules, in [`crate::typecheck`].

use crate::ast::Term;
use crate::subst::occurs_free;

pub use cccc_util::symbol::{error_symbol, ERROR_NAME};

/// The sentinel term/type `<error>`.
pub fn error_term() -> Term {
    Term::Var(error_symbol())
}

/// True when `term` mentions the error sentinel anywhere.
pub fn is_poisoned(term: &Term) -> bool {
    occurs_free(error_symbol(), term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::env::Env;
    use crate::equiv::definitionally_equal;
    use crate::typecheck::{infer, infer_collecting};
    use cccc_util::diag::Diagnostic;
    use cccc_util::symbol::Symbol;

    fn codes(diagnostics: &[Diagnostic]) -> Vec<&str> {
        diagnostics.iter().filter_map(|d| d.code.as_deref()).collect()
    }

    fn id_code() -> Term {
        code("n", unit_ty(), "x", bool_ty(), var("x"))
    }

    #[test]
    fn well_typed_closure_agrees_with_strict_checker() {
        let env = Env::new();
        let clo = closure(id_code(), unit_val());
        let strict = infer(&env, &clo).expect("closure is well-typed");
        let (ty, diagnostics) = infer_collecting(&env, &clo);
        assert!(diagnostics.is_empty(), "{diagnostics:?}");
        assert!(definitionally_equal(&env, &ty, &strict));
    }

    #[test]
    fn open_code_reports_e1010_and_continues() {
        // Code mentioning ambient `y` is open; applying the closure with a
        // mismatched argument is a *second* error.
        let open = code("n", unit_ty(), "x", bool_ty(), var("y"));
        let env = Env::new().with_assumption(Symbol::intern("y"), bool_ty());
        let t = app(closure(open, unit_val()), star());
        let (_, diagnostics) = infer_collecting(&env, &t);
        let found = codes(&diagnostics);
        assert!(found.contains(&"E1010"), "{found:?}");
    }

    #[test]
    fn bare_code_application_reports_e1003() {
        let (_, diagnostics) = infer_collecting(&Env::new(), &app(id_code(), tt()));
        assert_eq!(codes(&diagnostics), vec!["E1003"]);
    }

    #[test]
    fn non_code_closure_component_reports_e1011() {
        let (_, diagnostics) = infer_collecting(&Env::new(), &closure(tt(), unit_val()));
        assert_eq!(codes(&diagnostics), vec!["E1011"]);
    }

    #[test]
    fn multiple_errors_accumulate() {
        // Unbound variable in the closure environment AND a mismatched
        // application argument.
        let t = app(closure(id_code(), var("ghost")), star());
        let (_, diagnostics) = infer_collecting(&Env::new(), &t);
        let found = codes(&diagnostics);
        assert!(found.contains(&"E1001"), "{found:?}");
        // ghost poisons the env check, but the closure type is still known,
        // so the bad argument is still caught.
        assert!(found.contains(&"E1008"), "{found:?}");
    }

    #[test]
    fn poisoned_types_do_not_cascade() {
        let (_, diagnostics) = infer_collecting(&Env::new(), &ite(var("ghost"), tt(), ff()));
        assert_eq!(codes(&diagnostics), vec!["E1001"]);
    }
}
