//! Free variables, capture-avoiding substitution, renaming, α-equivalence,
//! and the closedness predicate for CC-CC terms.
//!
//! CC-CC uses the same named representation of binders as CC, with two new
//! binding forms: code `λ (n : A', x : A). e` and code types
//! `Code (n : A', x : A). B`, both of which bind `n` in the argument type
//! and `n`, `x` in the body/result. The closedness predicate [`is_closed`]
//! is what rule `[Code]` checks syntactically and what hoisting relies on.
//! The algorithms are written once, for CC and CC-CC, in
//! [`cccc_util::syntax`] over CC-CC's constructor table
//! ([`Term`]'s [`Syntax`](cccc_util::syntax::Syntax) implementation);
//! these are their CC-CC instances.

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

/// Whether `term` has no free variables — the syntactic premise of rule
/// `[Code]`. O(1) in the size of the term: a handful of closedness bit
/// tests on the children's cached metadata, with the head's own binders
/// subtracted.
pub fn is_closed(term: &Term) -> bool {
    syntax::is_closed(term)
}

/// Capture-avoiding substitution `term[replacement/x]`.
///
/// Binders that shadow `x` stop the substitution; binders whose name occurs
/// free in `replacement` are renamed to fresh symbols before descending,
/// including the two binders of `Code`/`CodeTy`, where the argument binder
/// shadows an environment binder of the same name in the body.
///
/// Every capture check and every "does `x` even occur here?" test is an
/// O(1) lookup against the metadata cached by the hash-consing kernel:
/// subtrees that do not mention `x` — in CC-CC, notably every closed
/// `Code` block — are returned as shared handles without being visited.
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

/// α-equivalence of two terms: structural equality up to consistent
/// renaming of bound variables. Two handles to the *same* node are
/// α-equivalent outright whenever no active binder pairing can touch their
/// free variables — always for a closed node, such as every well-typed
/// `Code` block.
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
    fn free_vars_of_code_exclude_both_binders() {
        // λ (n : A', x : fst n). x y — A' and y are free; n and x are not.
        let c = code("n", var("Aenv"), "x", fst(var("n")), app(var("x"), var("y")));
        assert_eq!(free_vars(&c), vec![sym("Aenv"), sym("y")]);
        assert!(!is_closed(&c));
        assert!(occurs_free(sym("y"), &c));
        assert!(!occurs_free(sym("n"), &c));
    }

    #[test]
    fn closed_code_is_closed() {
        let c = code("n", unit_ty(), "x", bool_ty(), var("x"));
        assert!(is_closed(&c));
        // But the closure over an open environment is not.
        let clo = closure(c, var("captured"));
        assert!(!is_closed(&clo));
        assert_eq!(free_vars(&clo), vec![sym("captured")]);
    }

    #[test]
    fn substitution_into_closure_environments() {
        let clo = closure(code("n", bool_ty(), "x", bool_ty(), var("n")), var("b"));
        let s = subst(&clo, sym("b"), &tt());
        match &s {
            Term::Closure { env, .. } => assert!(alpha_eq(env, &tt())),
            _ => panic!("expected closure"),
        }
    }

    #[test]
    fn substitution_stops_at_shadowing_code_binders() {
        // Substituting for n must not reach under λ (n : …).
        let c = code("n", bool_ty(), "x", bool_ty(), var("n"));
        let s = subst(&c, sym("n"), &tt());
        assert!(alpha_eq(&s, &c));
        // Nor for x under the argument binder.
        let c = code("n", bool_ty(), "x", bool_ty(), var("x"));
        let s = subst(&c, sym("x"), &tt());
        assert!(alpha_eq(&s, &c));
    }

    #[test]
    fn substitution_avoids_capture_by_code_binders() {
        // (λ (n : 1, x : Bool). free)[n/free] must rename the code's n.
        let c = code("n", unit_ty(), "x", bool_ty(), var("free"));
        let s = subst(&c, sym("free"), &var("n"));
        match &s {
            Term::Code { env_binder, body, .. } => {
                assert_ne!(*env_binder, sym("n"), "env binder should have been freshened");
                assert!(alpha_eq(body, &var("n")));
            }
            _ => panic!("expected code"),
        }
        // Same through the argument binder.
        let c = code("n", unit_ty(), "x", bool_ty(), var("free"));
        let s = subst(&c, sym("free"), &var("x"));
        match &s {
            Term::Code { arg_binder, body, .. } => {
                assert_ne!(*arg_binder, sym("x"));
                assert!(alpha_eq(body, &var("x")));
            }
            _ => panic!("expected code"),
        }
    }

    #[test]
    fn freshening_respects_shadowed_code_binders() {
        // Substituting a replacement whose free variables include the
        // shared binder name of λ (n : …, n : …). n must leave the body's
        // occurrence bound to the *argument* binder.
        let shadowing = code("n", var("hole"), "n", bool_ty(), var("n"));
        let s = subst(&shadowing, sym("hole"), &var("n"));
        match &s {
            Term::Code { env_binder, arg_binder, env_ty, body, .. } => {
                assert!(alpha_eq(env_ty, &var("n")), "env type takes the replacement");
                assert_ne!(*env_binder, sym("n"), "env binder freshened to avoid capture");
                // The body still refers to the argument binder.
                assert!(alpha_eq(body, &Term::Var(*arg_binder)));
            }
            _ => panic!("expected code"),
        }
        assert!(alpha_eq(&s, &code("m", var("n"), "y", bool_ty(), var("y"))));
    }

    #[test]
    fn subst_all_applies_in_order() {
        let t = app(var("x"), var("y"));
        let s = subst_all(&t, &[(sym("x"), var("y")), (sym("y"), tt())]);
        assert!(alpha_eq(&s, &app(tt(), tt())));
    }

    #[test]
    fn alpha_equivalence_of_renamed_code() {
        let a = code("n", unit_ty(), "x", bool_ty(), var("x"));
        let b = code("m", unit_ty(), "y", bool_ty(), var("y"));
        assert!(alpha_eq(&a, &b));
        let c = code("m", unit_ty(), "y", bool_ty(), var("m"));
        assert!(!alpha_eq(&a, &c));
    }

    #[test]
    fn alpha_distinguishes_code_from_code_types() {
        let c = code("n", unit_ty(), "x", bool_ty(), bool_ty());
        let ct = code_ty("n", unit_ty(), "x", bool_ty(), bool_ty());
        assert!(!alpha_eq(&c, &ct));
        assert!(alpha_eq(&ct, &code_ty("m", unit_ty(), "y", bool_ty(), bool_ty())));
    }

    #[test]
    fn alpha_dependent_argument_types() {
        // λ (n : Σ A : ⋆. 1, x : fst n). x — α varies both binders at once.
        let a = code("n", sigma("A", star(), unit_ty()), "x", fst(var("n")), var("x"));
        let b = code("m", sigma("B", star(), unit_ty()), "y", fst(var("m")), var("y"));
        assert!(alpha_eq(&a, &b));
        let c = code("m", sigma("B", star(), unit_ty()), "y", fst(var("m")), var("m"));
        assert!(!alpha_eq(&a, &c));
    }

    #[test]
    fn rename_changes_free_occurrences_only() {
        let t = app(var("x"), code("n", unit_ty(), "x", bool_ty(), var("x")));
        let r = rename(&t, sym("x"), sym("z"));
        assert!(alpha_eq(&r, &app(var("z"), code("n", unit_ty(), "x", bool_ty(), var("x")))));
    }

    #[test]
    fn unit_terms_have_no_free_vars() {
        assert!(is_closed(&unit_ty()));
        assert!(is_closed(&unit_val()));
        assert!(alpha_eq(&unit_ty(), &unit_ty()));
        assert!(!alpha_eq(&unit_ty(), &unit_val()));
    }
}
