//! Components, linking, and ground-value observation (§5.2).
//!
//! A *component* is a well-typed open term `Γ ⊢ e : A`. Linking is
//! substitution: a *closing substitution* `γ` maps every variable of `Γ` to
//! a closed term of the corresponding (γ-instantiated) type, and `γ(e)` is
//! the linked whole program. The correctness-of-separate-compilation theorem
//! relates linking-then-compiling with compiling-then-linking, observing the
//! results at the ground type `Bool` through the relation `≈`.

use crate::translate::{translate, Result as TranslateResult};
use cccc_source as src;
use cccc_target as tgt;
use cccc_util::fuel::Fuel;
use cccc_util::symbol::Symbol;
use std::fmt;

/// A closing substitution `γ` for source components: an ordered list of
/// `(variable, closed term)` pairs covering an environment `Γ`.
pub type SourceSubstitution = Vec<(Symbol, src::Term)>;

/// A closing substitution for target components.
pub type TargetSubstitution = Vec<(Symbol, tgt::Term)>;

/// Errors produced when validating a closing substitution.
#[derive(Clone, Debug)]
pub enum LinkError {
    /// The substitution has no entry for a variable bound in `Γ`.
    MissingBinding(Symbol),
    /// A substituted term is not well-typed at the (instantiated) type the
    /// environment demands.
    IllTyped {
        /// The variable whose replacement failed to check.
        variable: Symbol,
        /// The type error, rendered.
        error: String,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::MissingBinding(x) => {
                write!(f, "closing substitution has no binding for `{x}`")
            }
            LinkError::IllTyped { variable, error } => {
                write!(f, "replacement for `{variable}` is ill-typed: {error}")
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Links a source component with a closing substitution: `γ(e)`.
pub fn link_source(term: &src::Term, substitution: &SourceSubstitution) -> src::Term {
    src::subst::subst_all(term, substitution)
}

/// Links a target component with a closing substitution: `γ(e)`.
pub fn link_target(term: &tgt::Term, substitution: &TargetSubstitution) -> tgt::Term {
    tgt::subst::subst_all(term, substitution)
}

/// Checks `Γ ⊢ γ`: every variable of `Γ` has a closed replacement of the
/// corresponding type (with earlier replacements substituted into it, so
/// dependent environments are handled).
///
/// # Errors
///
/// Returns a [`LinkError`] naming the first variable whose replacement is
/// missing or ill-typed.
pub fn check_source_substitution(
    env: &src::Env,
    substitution: &SourceSubstitution,
) -> std::result::Result<(), LinkError> {
    let mut applied: SourceSubstitution = Vec::new();
    for decl in env.iter() {
        let name = decl.name();
        let replacement = substitution
            .iter()
            .find(|(x, _)| *x == name)
            .map(|(_, e)| e.clone())
            .ok_or(LinkError::MissingBinding(name))?;
        let expected_ty = src::subst::subst_all(decl.ty(), &applied);
        src::typecheck::check(&src::Env::new(), &replacement, &expected_ty)
            .map_err(|e| LinkError::IllTyped { variable: name, error: e.to_string() })?;
        applied.push((name, replacement));
    }
    Ok(())
}

/// Pointwise translation of a closing substitution, `γ⁺`.
///
/// # Errors
///
/// Returns a translation error if any replacement is ill-typed.
pub fn translate_substitution(
    env: &src::Env,
    substitution: &SourceSubstitution,
) -> TranslateResult<TargetSubstitution> {
    // Replacements are closed, so they are translated in the empty
    // environment; `env` is only used to keep the entry order stable.
    let mut translated = Vec::with_capacity(substitution.len());
    let order: Vec<Symbol> = env.names();
    let mut remaining: Vec<(Symbol, src::Term)> = substitution.clone();
    // Translate in environment order first, then anything left over.
    for name in order {
        if let Some(position) = remaining.iter().position(|(x, _)| *x == name) {
            let (x, term) = remaining.remove(position);
            translated.push((x, translate(&src::Env::new(), &term)?));
        }
    }
    for (x, term) in remaining {
        translated.push((x, translate(&src::Env::new(), &term)?));
    }
    Ok(translated)
}

/// The observation relation `≈` on ground values (§5.2): two results are
/// related when they are the same boolean literal.
pub fn ground_values_related(source_value: &src::Term, target_value: &tgt::Term) -> bool {
    matches!(
        (source_value, target_value),
        (src::Term::BoolLit(a), tgt::Term::BoolLit(b)) if a == b
    )
}

/// Runs a closed source program through the NbE engine with the default
/// fuel budget and observes its value at the ground type `Bool`:
/// `Some(b)` if it normalizes to a boolean, `None` otherwise. Observation
/// only needs the value, not a paper-faithful reduction sequence.
///
/// # Errors
///
/// Returns [`src::reduce::ReduceError::OutOfFuel`] when the budget runs
/// out before a normal form.
pub fn run_source(term: &src::Term) -> Result<Option<bool>, src::reduce::ReduceError> {
    let value = src::nbe::normalize_nbe(&src::Env::new(), term, &mut Fuel::default())?;
    Ok(match value {
        src::Term::BoolLit(b) => Some(b),
        _ => None,
    })
}

/// Runs a closed target program through the NbE engine: [`run_source`]
/// for CC-CC.
///
/// # Errors
///
/// Returns [`tgt::reduce::ReduceError::OutOfFuel`] when the budget runs
/// out, or [`tgt::reduce::ReduceError::BareCodeApplication`] on an
/// ill-typed program that applies bare code.
pub fn run_target(term: &tgt::Term) -> Result<Option<bool>, tgt::reduce::ReduceError> {
    let value = tgt::nbe::normalize_nbe(&tgt::Env::new(), term, &mut Fuel::default())?;
    Ok(match value {
        tgt::Term::BoolLit(b) => Some(b),
        _ => None,
    })
}

/// [`run_source`] on a program known to finish within the default budget.
///
/// # Panics
///
/// Panics if the evaluation fails; callers that cannot rule that out use
/// [`run_source`].
pub fn observe_source(term: &src::Term) -> Option<bool> {
    run_source(term).expect("observing a closed source program failed")
}

/// [`run_target`] on a program known to finish within the default budget.
///
/// # Panics
///
/// Panics if the evaluation fails; callers that cannot rule that out use
/// [`run_target`].
pub fn observe_target(term: &tgt::Term) -> Option<bool> {
    run_target(term).expect("observing a closed target program failed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source::builder as s;
    use cccc_source::prelude;

    fn sym(x: &str) -> Symbol {
        Symbol::intern(x)
    }

    #[test]
    fn linking_substitutes_all_bindings() {
        let component = s::ite(s::var("flag"), s::var("yes"), s::ff());
        let gamma = vec![(sym("flag"), s::tt()), (sym("yes"), s::tt())];
        let linked = link_source(&component, &gamma);
        assert_eq!(observe_source(&linked), Some(true));
    }

    #[test]
    fn valid_substitutions_are_accepted() {
        let env = src::Env::new()
            .with_assumption(sym("A"), s::star())
            .with_assumption(sym("a"), s::var("A"));
        let gamma = vec![(sym("A"), s::bool_ty()), (sym("a"), s::tt())];
        assert!(check_source_substitution(&env, &gamma).is_ok());
    }

    #[test]
    fn missing_bindings_are_reported() {
        let env = src::Env::new().with_assumption(sym("x"), s::bool_ty());
        let err = check_source_substitution(&env, &Vec::new()).unwrap_err();
        assert!(matches!(err, LinkError::MissingBinding(_)));
        assert!(err.to_string().contains('x'));
    }

    #[test]
    fn ill_typed_replacements_are_reported() {
        let env = src::Env::new().with_assumption(sym("x"), s::bool_ty());
        let gamma = vec![(sym("x"), s::star())];
        let err = check_source_substitution(&env, &gamma).unwrap_err();
        assert!(matches!(err, LinkError::IllTyped { .. }));
    }

    #[test]
    fn dependent_substitutions_check_with_earlier_entries_instantiated() {
        // Γ = A : ⋆, a : A with γ(A) = Bool, γ(a) = true: `a`'s replacement
        // is checked against Bool, not against the variable A.
        let env = src::Env::new()
            .with_assumption(sym("A"), s::star())
            .with_assumption(sym("a"), s::var("A"));
        let good = vec![(sym("A"), s::bool_ty()), (sym("a"), s::tt())];
        assert!(check_source_substitution(&env, &good).is_ok());
        let bad = vec![(sym("A"), s::bool_ty()), (sym("a"), s::star())];
        assert!(check_source_substitution(&env, &bad).is_err());
    }

    #[test]
    fn translated_substitutions_are_pointwise_translations() {
        let env = src::Env::new()
            .with_assumption(sym("f"), prelude::poly_id_ty())
            .with_assumption(sym("b"), s::bool_ty());
        let gamma = vec![(sym("f"), prelude::poly_id()), (sym("b"), s::ff())];
        let translated = translate_substitution(&env, &gamma).unwrap();
        assert_eq!(translated.len(), 2);
        assert_eq!(translated[0].0, sym("f"));
        assert!(matches!(translated[0].1, tgt::Term::Closure { .. }));
        assert!(matches!(translated[1].1, tgt::Term::BoolLit(false)));
    }

    #[test]
    fn ground_observation_relates_equal_booleans_only() {
        assert!(ground_values_related(&src::Term::BoolLit(true), &tgt::Term::BoolLit(true)));
        assert!(!ground_values_related(&src::Term::BoolLit(true), &tgt::Term::BoolLit(false)));
        assert!(!ground_values_related(&src::Term::BoolTy, &tgt::Term::BoolLit(true)));
    }

    #[test]
    fn observation_of_non_ground_programs_is_none() {
        assert_eq!(observe_source(&prelude::poly_id()), None);
        let translated = translate(&src::Env::new(), &prelude::poly_id()).unwrap();
        assert_eq!(observe_target(&translated), None);
    }

    #[test]
    fn observing_ground_corpus_matches_expected_values() {
        for (entry, expected) in prelude::ground_corpus() {
            assert_eq!(observe_source(&entry.term), Some(expected), "{}", entry.name);
        }
    }
}
