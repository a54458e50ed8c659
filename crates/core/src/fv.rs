//! The dependency-ordered free-variable metafunction `FV` (Figure 10).
//!
//! Closure conversion must collect, for each source function, the sequence of
//! its free variables *together with their types*, ordered so that the type
//! of each variable only refers to variables appearing earlier. The paper
//! defines `FV(e, B, Γ)` recursively: the free variables of a term and its
//! type may have types that mention further free variables, whose types may
//! mention still more, and so on — so the computation transitively closes
//! over Γ and then orders the result by Γ (which is already dependency
//! ordered, by well-formedness).

use cccc_source::env::Env;
use cccc_source::subst::free_var_set;
use cccc_source::Term;
use cccc_util::symbol::Symbol;
use std::collections::HashSet;
use std::fmt;

/// Errors produced by the free-variable analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FvError {
    /// A free variable of the term is not bound in the environment, so its
    /// type (and hence the closure environment) cannot be computed.
    UnboundVariable(Symbol),
}

impl fmt::Display for FvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FvError::UnboundVariable(x) => {
                write!(f, "free variable `{x}` is not bound in the environment")
            }
        }
    }
}

impl std::error::Error for FvError {}

/// Computes `FV(e, B, Γ)`: the dependency-closed, Γ-ordered sequence of free
/// variables of the given `terms` (typically a λ-abstraction and its Π type)
/// paired with their declared source types.
///
/// # Errors
///
/// Returns [`FvError::UnboundVariable`] if any free variable (of the terms
/// or, transitively, of the types of other free variables) is not bound in
/// `env`.
pub fn dependent_free_vars(env: &Env, terms: &[&Term]) -> Result<Vec<(Symbol, Term)>, FvError> {
    // Step 1: the syntactic free variables of the terms themselves —
    // assembled from the hash-consing kernel's cached per-node metadata,
    // not recomputed by traversal.
    let mut needed: HashSet<Symbol> = HashSet::new();
    let mut worklist: Vec<Symbol> = Vec::new();
    for term in terms {
        for x in free_var_set(term) {
            if needed.insert(x) {
                worklist.push(x);
            }
        }
    }

    // Step 2: transitively close over the types (and definitions) recorded
    // in Γ: the type of a needed variable may itself mention further free
    // variables. Environment entries are interned handles, so their
    // free-variable sets are O(1) metadata reads.
    while let Some(x) = worklist.pop() {
        let decl = env.lookup(x).ok_or(FvError::UnboundVariable(x))?;
        let definition_fv = decl.definition().map(|d| d.free_vars());
        for y in
            decl.ty().free_vars().iter().chain(definition_fv.into_iter().flat_map(|f| f.iter()))
        {
            if needed.insert(y) {
                worklist.push(y);
            }
        }
    }

    // Step 3: order by position in Γ, which is dependency-ordered by
    // well-formedness of environments. A shadowed name is captured at its
    // innermost declaration — the one in scope, whose type step 2 read —
    // so Γ is walked newest first and the result reversed.
    let mut ordered: Vec<(Symbol, Term)> = Vec::new();
    for decl in env.iter().rev() {
        let name = decl.name();
        if needed.remove(&name) {
            ordered.push((name, (**decl.ty()).clone()));
        }
    }
    ordered.reverse();

    // Anything left over was never bound in Γ at all.
    if let Some(&leftover) = needed.iter().next() {
        return Err(FvError::UnboundVariable(leftover));
    }
    Ok(ordered)
}

/// Convenience wrapper: `FV` of a single term.
///
/// # Errors
///
/// See [`dependent_free_vars`].
pub fn dependent_free_vars_of(env: &Env, term: &Term) -> Result<Vec<(Symbol, Term)>, FvError> {
    dependent_free_vars(env, &[term])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source::builder::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn closed_terms_have_no_free_variables() {
        let fv = dependent_free_vars_of(&Env::new(), &lam("x", bool_ty(), var("x"))).unwrap();
        assert!(fv.is_empty());
    }

    #[test]
    fn direct_free_variables_are_collected_with_types() {
        let env =
            Env::new().with_assumption(sym("y"), bool_ty()).with_assumption(sym("z"), bool_ty());
        let term = lam("x", bool_ty(), var("y"));
        let fv = dependent_free_vars_of(&env, &term).unwrap();
        assert_eq!(fv.len(), 1);
        assert_eq!(fv[0].0, sym("y"));
        assert!(cccc_source::subst::alpha_eq(&fv[0].1, &bool_ty()));
    }

    #[test]
    fn types_of_free_variables_pull_in_their_own_dependencies() {
        // Γ = A : ⋆, a : A.  The term λ x : Bool. a  mentions only `a`, but
        // the type of `a` mentions `A`, so FV must include A before a.
        let env = Env::new().with_assumption(sym("A"), star()).with_assumption(sym("a"), var("A"));
        let term = lam("x", bool_ty(), var("a"));
        let fv = dependent_free_vars_of(&env, &term).unwrap();
        let names: Vec<Symbol> = fv.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec![sym("A"), sym("a")]);
    }

    #[test]
    fn transitive_chains_are_fully_closed() {
        // A : ⋆, P : A → ⋆, a : A, p : P a.  Mentioning only `p` requires the
        // whole chain.
        let env = Env::new()
            .with_assumption(sym("A"), star())
            .with_assumption(sym("P"), arrow(var("A"), star()))
            .with_assumption(sym("a"), var("A"))
            .with_assumption(sym("p"), app(var("P"), var("a")));
        let term = lam("x", bool_ty(), var("p"));
        let fv = dependent_free_vars_of(&env, &term).unwrap();
        let names: Vec<Symbol> = fv.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec![sym("A"), sym("P"), sym("a"), sym("p")]);
    }

    #[test]
    fn order_follows_the_environment_not_occurrence() {
        let env = Env::new()
            .with_assumption(sym("first"), bool_ty())
            .with_assumption(sym("second"), bool_ty());
        // The term mentions `second` before `first`.
        let term = ite(var("second"), var("first"), tt());
        let fv = dependent_free_vars_of(&env, &term).unwrap();
        let names: Vec<Symbol> = fv.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec![sym("first"), sym("second")]);
    }

    #[test]
    fn annotation_and_type_both_contribute() {
        // FV is computed for both the function and its Π type.
        let env = Env::new().with_assumption(sym("A"), star()).with_assumption(sym("B"), star());
        let function = lam("x", var("A"), var("x"));
        let function_ty = pi("x", var("A"), var("B"));
        let fv = dependent_free_vars(&env, &[&function, &function_ty]).unwrap();
        let names: Vec<Symbol> = fv.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec![sym("A"), sym("B")]);
    }

    #[test]
    fn definitions_pull_in_their_dependencies_too() {
        let env = Env::new().with_assumption(sym("b"), bool_ty()).with_definition(
            sym("c"),
            var("b"),
            bool_ty(),
        );
        let term = lam("x", bool_ty(), var("c"));
        let fv = dependent_free_vars_of(&env, &term).unwrap();
        let names: Vec<Symbol> = fv.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec![sym("b"), sym("c")]);
    }

    #[test]
    fn unbound_variables_are_reported() {
        let err = dependent_free_vars_of(&Env::new(), &var("ghost")).unwrap_err();
        assert_eq!(err, FvError::UnboundVariable(sym("ghost")));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn a_shadowed_name_is_captured_at_the_declaration_in_scope() {
        // Γ = x : Bool, w : Bool, x : ⋆, y : x. The type of `y` is the inner
        // `x`, so FV must capture that `x`, at its position and with its
        // type ⋆, not the outer `x : Bool` it shadows.
        let env = Env::new()
            .with_assumption(sym("x"), bool_ty())
            .with_assumption(sym("w"), bool_ty())
            .with_assumption(sym("x"), star())
            .with_assumption(sym("y"), var("x"));
        let term = lam("z", bool_ty(), ite(var("w"), var("y"), var("y")));
        let fv = dependent_free_vars_of(&env, &term).unwrap();
        let names: Vec<Symbol> = fv.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec![sym("w"), sym("x"), sym("y")]);
        let types = [bool_ty(), star(), var("x")];
        for ((name, ty), expected) in fv.iter().zip(&types) {
            assert!(cccc_source::subst::alpha_eq(ty, expected), "`{name}` : {ty}");
        }
    }

    #[test]
    fn bound_variables_of_the_term_are_not_included() {
        let env = Env::new().with_assumption(sym("y"), bool_ty());
        let term = lam("y", bool_ty(), var("y"));
        assert!(dependent_free_vars_of(&env, &term).unwrap().is_empty());
    }
}
