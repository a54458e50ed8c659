//! Free variables, capture-avoiding substitution, renaming, and
//! α-equivalence for CC terms.
//!
//! CC uses a named representation of binders, so substitution must freshen
//! binders that would capture free variables of the substituted term.
//! α-equivalence compares terms up to a consistent renaming of binders.
//! The algorithms are written once, for CC and CC-CC, in
//! [`cccc_util::syntax`] over CC's constructor table
//! ([`Term`]'s [`Syntax`](cccc_util::syntax::Syntax) implementation);
//! these are their CC instances.

use crate::ast::{RcTerm, Term};
use cccc_util::symbol::Symbol;
use cccc_util::syntax;
use std::collections::HashSet;

/// The free variables of `term`, in order of first occurrence (left to
/// right, outside in). Duplicates are removed.
pub fn free_vars(term: &Term) -> Vec<Symbol> {
    syntax::free_vars(term)
}

/// The free variables of `term` as a set, assembled from the children's
/// metadata cached by the hash-consing kernel: O(free variables), not
/// O(term).
pub fn free_var_set(term: &Term) -> HashSet<Symbol> {
    syntax::free_var_set(term)
}

/// Whether `x` occurs free in `term`. O(1) in the size of the term: the
/// children's cached free-variable sets answer the membership query, only
/// the head's binders are inspected.
pub fn occurs_free(x: Symbol, term: &Term) -> bool {
    syntax::occurs_free(x, term)
}

/// Whether `term` has no free variables. O(1) in the size of the term:
/// closedness bits on the children's cached metadata, with the head's own
/// binders subtracted.
pub fn is_closed(term: &Term) -> bool {
    syntax::is_closed(term)
}

/// Capture-avoiding substitution `term[replacement/x]`.
///
/// Binders that shadow `x` stop the substitution; binders whose name occurs
/// free in `replacement` are renamed to fresh symbols before descending.
/// Every capture check and every "does `x` even occur here?" test is an
/// O(1) lookup against the metadata cached by the hash-consing kernel:
/// subtrees that do not mention `x` are returned as shared handles without
/// being visited at all.
pub fn subst(term: &Term, x: Symbol, replacement: &Term) -> Term {
    syntax::subst(term, x, replacement)
}

/// [`subst`] on interned handles: returns the input handle unchanged (a
/// reference-count bump) when `x` does not occur.
pub fn subst_rc(term: &RcTerm, x: Symbol, replacement: &RcTerm) -> RcTerm {
    syntax::subst_rc(term, x, replacement)
}

/// Applies several substitutions in sequence (left to right). Later
/// substitutions see the result of earlier ones.
pub fn subst_all(term: &Term, substitutions: &[(Symbol, Term)]) -> Term {
    syntax::subst_all(term, substitutions)
}

/// Renames every free occurrence of `from` in `term` to `to`. `to` is
/// assumed not to be captured by any binder of `term` (guaranteed when `to`
/// is a freshly generated symbol).
pub fn rename(term: &Term, from: Symbol, to: Symbol) -> Term {
    syntax::rename(term, from, to)
}

/// α-equivalence of two terms: structural equality up to consistent renaming
/// of bound variables. Pair annotations are compared as well, since they are
/// part of the syntax. Two handles to the *same* node are α-equivalent
/// outright whenever no active binder pairing can touch their free
/// variables — in particular always at the top level.
pub fn alpha_eq(left: &Term, right: &Term) -> bool {
    syntax::alpha_eq(left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn free_vars_of_open_term() {
        let t = app(var("f"), lam("x", var("A"), app(var("x"), var("y"))));
        assert_eq!(free_vars(&t), vec![sym("f"), sym("A"), sym("y")]);
    }

    #[test]
    fn bound_variables_are_not_free() {
        let t = lam("x", bool_ty(), var("x"));
        assert!(free_vars(&t).is_empty());
        assert!(!occurs_free(sym("x"), &t));
    }

    #[test]
    fn pi_binder_scopes_only_codomain() {
        // Π x : x. x — the domain occurrence of x is free, the codomain one is bound.
        let t = pi("x", var("x"), var("x"));
        assert_eq!(free_vars(&t), vec![sym("x")]);
    }

    #[test]
    fn let_binder_scopes_only_body() {
        let t = let_("x", bool_ty(), var("x"), var("x"));
        assert_eq!(free_vars(&t), vec![sym("x")]);
    }

    #[test]
    fn simple_substitution() {
        let t = app(var("f"), var("x"));
        let s = subst(&t, sym("x"), &tt());
        assert!(alpha_eq(&s, &app(var("f"), tt())));
    }

    #[test]
    fn substitution_stops_at_shadowing_binder() {
        let t = lam("x", bool_ty(), var("x"));
        let s = subst(&t, sym("x"), &tt());
        assert!(alpha_eq(&s, &t));
    }

    #[test]
    fn substitution_avoids_capture() {
        // (λ y : Bool. x)[y/x]  must not become  λ y : Bool. y
        let t = lam("y", bool_ty(), var("x"));
        let s = subst(&t, sym("x"), &var("y"));
        match &s {
            Term::Lam { binder, body, .. } => {
                assert_ne!(*binder, sym("y"), "binder should have been freshened");
                assert!(alpha_eq(body, &var("y")));
            }
            _ => panic!("expected lambda"),
        }
        // And the result is *not* alpha-equal to the capturing term.
        assert!(!alpha_eq(&s, &lam("y", bool_ty(), var("y"))));
    }

    #[test]
    fn substitution_in_annotation_and_bound() {
        let t = let_("z", var("x"), var("x"), var("z"));
        let s = subst(&t, sym("x"), &bool_ty());
        assert!(alpha_eq(&s, &let_("z", bool_ty(), bool_ty(), var("z"))));
    }

    #[test]
    fn subst_all_applies_in_order() {
        let t = app(var("x"), var("y"));
        let s = subst_all(&t, &[(sym("x"), var("y")), (sym("y"), tt())]);
        // x ↦ y first, then y ↦ true turns both into true.
        assert!(alpha_eq(&s, &app(tt(), tt())));
    }

    #[test]
    fn alpha_equivalence_of_renamed_lambdas() {
        let a = lam("x", bool_ty(), var("x"));
        let b = lam("y", bool_ty(), var("y"));
        assert!(alpha_eq(&a, &b));
    }

    #[test]
    fn alpha_distinguishes_free_variables() {
        assert!(!alpha_eq(&var("x"), &var("y")));
        assert!(alpha_eq(&var("x"), &var("x")));
    }

    #[test]
    fn alpha_distinguishes_structures() {
        assert!(!alpha_eq(&lam("x", bool_ty(), var("x")), &pi("x", bool_ty(), var("x"))));
        assert!(!alpha_eq(&tt(), &ff()));
        assert!(!alpha_eq(&star(), &boxu()));
    }

    #[test]
    fn alpha_nested_binders() {
        let a = lam("x", star(), lam("y", var("x"), var("y")));
        let b = lam("u", star(), lam("v", var("u"), var("v")));
        let c = lam("u", star(), lam("v", var("u"), var("u")));
        assert!(alpha_eq(&a, &b));
        assert!(!alpha_eq(&a, &c));
    }

    #[test]
    fn alpha_requires_consistent_renaming() {
        // λ x. λ y. x  vs  λ x. λ y. y
        let a = lam("x", bool_ty(), lam("y", bool_ty(), var("x")));
        let b = lam("x", bool_ty(), lam("y", bool_ty(), var("y")));
        assert!(!alpha_eq(&a, &b));
    }

    #[test]
    fn rename_changes_free_occurrences_only() {
        let t = app(var("x"), lam("x", bool_ty(), var("x")));
        let r = rename(&t, sym("x"), sym("z"));
        assert!(alpha_eq(&r, &app(var("z"), lam("x", bool_ty(), var("x")))));
    }

    #[test]
    fn free_vars_deduplicates() {
        let t = app(var("x"), var("x"));
        assert_eq!(free_vars(&t), vec![sym("x")]);
    }

    #[test]
    fn pair_annotation_counts_for_free_vars() {
        let t = pair(tt(), ff(), sigma("p", var("A"), bool_ty()));
        assert_eq!(free_vars(&t), vec![sym("A")]);
    }

    #[test]
    fn substitution_under_sigma_avoids_capture() {
        // (Σ y : Bool. x)[⟨uses y⟩/x]
        let t = sigma("y", bool_ty(), var("x"));
        let s = subst(&t, sym("x"), &var("y"));
        match &s {
            Term::Sigma { binder, second, .. } => {
                assert_ne!(*binder, sym("y"));
                assert!(alpha_eq(second, &var("y")));
            }
            _ => panic!("expected sigma"),
        }
    }
}
