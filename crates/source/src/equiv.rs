//! Definitional equivalence `Γ ⊢ e ≡ e'` for CC (Figure 2).
//!
//! Equivalence is reduction in `⊲*` up to η-equivalence for functions, as in
//! Coq. Two interchangeable deciders implement it:
//!
//! * [`equiv`] (the default, used by the type checker and everything built
//!   on it) runs the **NbE engine** of [`crate::nbe`]: both sides are
//!   evaluated into the semantic domain and compared with
//!   [`crate::nbe::conv`], which crosses binders at shared de Bruijn levels
//!   and implements the η rules without substitution;
//! * [`equiv_spec`] is the **paper-faithful specification**: both sides
//!   are reduced to weak-head normal form with the step-based engine and
//!   compared structurally, recursing under binders with a shared fresh
//!   variable; when exactly one side weak-head normalizes to a
//!   λ-abstraction, the η rules `[≡-η1]`/`[≡-η2]` compare its body against
//!   the other side applied to the bound variable.
//!
//! The property suites check that the two agree on generator-produced
//! well-typed terms; [`equiv_spec`] also serves as the differential-testing
//! oracle for the NbE engine.
//!
//! [`equiv`], its memoized ladder [`equiv_nodes`], [`Engine`] and the
//! `definitionally_equal` wrappers are defined once, in
//! [`cccc_util::nbe`], and shared with CC-CC; CC's conversion memo and
//! [`equiv_spec`] stay here.

use crate::ast::Term;
use crate::builder::var_sym;
use crate::env::Env;
use crate::reduce::{whnf, ReduceError};
use crate::subst::subst;
use cccc_util::fuel::Fuel;
use cccc_util::intern::ConvCache;
use cccc_util::symbol::Symbol;
use std::cell::RefCell;

pub use cccc_util::intern::ConvCacheStats;
pub use cccc_util::nbe::{
    definitionally_equal, definitionally_equal_spec, equiv, equiv_nodes, equiv_with_engine, Engine,
};

thread_local! {
    /// Decided conversion pairs for CC, keyed by ordered node ids and the
    /// environment fingerprint (collapsed for closed pairs) — see
    /// [`ConvCache`].
    pub(crate) static CONV_CACHE: RefCell<ConvCache> = RefCell::new(ConvCache::default());
}

/// A snapshot of this thread's conversion-cache counters.
pub fn conv_cache_stats() -> ConvCacheStats {
    CONV_CACHE.with(|c| c.borrow().stats())
}

/// Number of decided pairs currently in this thread's conversion memo.
pub fn conv_cache_len() -> usize {
    CONV_CACHE.with(|c| c.borrow().len())
}

/// Checks `Γ ⊢ e1 ≡ e2` with the step-based engine — the executable
/// specification [`equiv`] is differentially tested against.
///
/// # Errors
///
/// Returns [`ReduceError::OutOfFuel`] when normalization runs out of fuel
/// before the comparison can be decided.
pub fn equiv_spec(env: &Env, e1: &Term, e2: &Term, fuel: &mut Fuel) -> Result<bool, ReduceError> {
    let n1 = whnf(env, e1, fuel)?;
    let n2 = whnf(env, e2, fuel)?;
    compare_whnf(env, &n1, &n2, fuel)
}

fn compare_whnf(env: &Env, n1: &Term, n2: &Term, fuel: &mut Fuel) -> Result<bool, ReduceError> {
    match (n1, n2) {
        // η for functions: [≡-η1] / [≡-η2].
        (Term::Lam { binder, domain: _, body }, other) if !matches!(other, Term::Lam { .. }) => {
            eta_expand_compare(env, *binder, body, other, fuel)
        }
        (other, Term::Lam { binder, domain: _, body }) if !matches!(other, Term::Lam { .. }) => {
            eta_expand_compare(env, *binder, body, other, fuel)
        }
        (
            Term::Lam { binder: x, domain: a1, body: b1 },
            Term::Lam { binder: y, domain: a2, body: b2 },
        ) => {
            if !equiv_spec(env, a1, a2, fuel)? {
                return Ok(false);
            }
            compare_under_binder(env, *x, b1, *y, b2, fuel)
        }
        (
            Term::Pi { binder: x, domain: a1, codomain: b1 },
            Term::Pi { binder: y, domain: a2, codomain: b2 },
        )
        | (
            Term::Sigma { binder: x, first: a1, second: b1 },
            Term::Sigma { binder: y, first: a2, second: b2 },
        ) => {
            // Pi-with-Pi matches only the first pattern and Sigma-with-Sigma
            // only the second, so mixing Π and Σ is impossible here.
            if std::mem::discriminant(n1) != std::mem::discriminant(n2) {
                return Ok(false);
            }
            if !equiv_spec(env, a1, a2, fuel)? {
                return Ok(false);
            }
            compare_under_binder(env, *x, b1, *y, b2, fuel)
        }
        (Term::Var(x), Term::Var(y)) => Ok(x == y),
        (Term::Sort(u), Term::Sort(v)) => Ok(u == v),
        (Term::BoolTy, Term::BoolTy) => Ok(true),
        (Term::BoolLit(a), Term::BoolLit(b)) => Ok(a == b),
        (Term::App { func: f1, arg: a1 }, Term::App { func: f2, arg: a2 }) => {
            Ok(compare_whnf(env, f1, f2, fuel)? && equiv_spec(env, a1, a2, fuel)?)
        }
        // Pairs are compared componentwise; the annotation is a typing
        // artifact and does not affect the value.
        (Term::Pair { first: a1, second: b1, .. }, Term::Pair { first: a2, second: b2, .. }) => {
            Ok(equiv_spec(env, a1, a2, fuel)? && equiv_spec(env, b1, b2, fuel)?)
        }
        (Term::Fst(a), Term::Fst(b)) | (Term::Snd(a), Term::Snd(b)) => equiv_spec(env, a, b, fuel),
        (
            Term::If { scrutinee: s1, then_branch: t1, else_branch: e1 },
            Term::If { scrutinee: s2, then_branch: t2, else_branch: e2 },
        ) => Ok(equiv_spec(env, s1, s2, fuel)?
            && equiv_spec(env, t1, t2, fuel)?
            && equiv_spec(env, e1, e2, fuel)?),
        _ => Ok(false),
    }
}

/// Compares `body` (the body of a λ with binder `binder`) against
/// `other x` for a fresh `x`, implementing the η rules.
fn eta_expand_compare(
    env: &Env,
    binder: Symbol,
    body: &Term,
    other: &Term,
    fuel: &mut Fuel,
) -> Result<bool, ReduceError> {
    let fresh = binder.freshen();
    let body = subst(body, binder, &var_sym(fresh));
    let applied = Term::App { func: other.clone().rc(), arg: var_sym(fresh).rc() };
    equiv_spec(env, &body, &applied, fuel)
}

/// Compares two bodies under their respective binders by renaming both to a
/// shared fresh variable.
fn compare_under_binder(
    env: &Env,
    x: Symbol,
    left: &Term,
    y: Symbol,
    right: &Term,
    fuel: &mut Fuel,
) -> Result<bool, ReduceError> {
    let fresh = x.freshen();
    let left = subst(left, x, &var_sym(fresh));
    let right = subst(right, y, &var_sym(fresh));
    equiv_spec(env, &left, &right, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use cccc_util::symbol::Symbol;

    fn eq(a: &Term, b: &Term) -> bool {
        definitionally_equal(&Env::new(), a, b)
    }

    #[test]
    fn alpha_renamed_terms_are_equivalent() {
        assert!(eq(&lam("x", bool_ty(), var("x")), &lam("y", bool_ty(), var("y"))));
        assert!(eq(&pi("x", star(), var("x")), &pi("y", star(), var("y"))));
    }

    #[test]
    fn beta_redex_is_equivalent_to_its_reduct() {
        let redex = app(lam("x", bool_ty(), var("x")), tt());
        assert!(eq(&redex, &tt()));
    }

    #[test]
    fn distinct_literals_are_not_equivalent() {
        assert!(!eq(&tt(), &ff()));
        assert!(!eq(&bool_ty(), &star()));
    }

    #[test]
    fn eta_equivalence_for_functions() {
        // λ x : Bool. f x  ≡  f   (for a free variable f)
        let expanded = lam("x", bool_ty(), app(var("f"), var("x")));
        assert!(eq(&expanded, &var("f")));
        assert!(eq(&var("f"), &expanded));
    }

    #[test]
    fn eta_does_not_conflate_different_functions() {
        let expanded = lam("x", bool_ty(), app(var("f"), var("x")));
        assert!(!eq(&expanded, &var("g")));
    }

    #[test]
    fn delta_definitions_unfold_during_comparison() {
        let env = Env::new().with_definition(Symbol::intern("two"), tt(), bool_ty());
        assert!(definitionally_equal(&env, &var("two"), &tt()));
    }

    #[test]
    fn equivalence_inside_types() {
        // Σ x : Bool. (if true then Bool else ⋆)  ≡  Σ x : Bool. Bool
        let a = sigma("x", bool_ty(), ite(tt(), bool_ty(), star()));
        let b = sigma("x", bool_ty(), bool_ty());
        assert!(eq(&a, &b));
    }

    #[test]
    fn pairs_compare_componentwise() {
        let ann = sigma("x", bool_ty(), bool_ty());
        let a = pair(tt(), app(lam("x", bool_ty(), var("x")), ff()), ann.clone());
        let b = pair(tt(), ff(), ann);
        assert!(eq(&a, &b));
    }

    #[test]
    fn projections_of_neutral_terms_compare_structurally() {
        assert!(eq(&fst(var("p")), &fst(var("p"))));
        assert!(!eq(&fst(var("p")), &snd(var("p"))));
    }

    #[test]
    fn pi_and_sigma_are_not_confused() {
        assert!(!eq(&pi("x", bool_ty(), bool_ty()), &sigma("x", bool_ty(), bool_ty())));
    }

    #[test]
    fn nested_redexes_in_codomain() {
        let a = pi("x", bool_ty(), app(lam("y", star(), var("y")), bool_ty()));
        let b = pi("z", bool_ty(), bool_ty());
        assert!(eq(&a, &b));
    }

    #[test]
    fn lam_vs_lam_checks_domains() {
        let a = lam("x", bool_ty(), var("x"));
        let b = lam("x", star(), var("x"));
        assert!(!eq(&a, &b));
    }

    #[test]
    fn neutral_application_spines() {
        let a = app(app(var("f"), tt()), ff());
        let b = app(app(var("f"), tt()), ff());
        let c = app(app(var("f"), ff()), ff());
        assert!(eq(&a, &b));
        assert!(!eq(&a, &c));
    }

    #[test]
    fn undecided_comparisons_are_not_memoized() {
        // A redex and its reduct that no other test compares, so no
        // answer for the pair is cached yet.
        let redex = app(lam("x", bool_ty(), var("x")), var("memo_contract"));
        let reduct = var("memo_contract");
        let env = Env::new();
        let before = conv_cache_len();
        let starved = equiv(&env, &redex, &reduct, &mut Fuel::new(1));
        assert_eq!(starved, Err(ReduceError::OutOfFuel));
        assert_eq!(conv_cache_len(), before, "an error is not memoized");
        assert_eq!(equiv(&env, &redex, &reduct, &mut Fuel::default()), Ok(true));
        assert_eq!(conv_cache_len(), before + 1, "a decided answer is");
    }

    #[test]
    fn out_of_fuel_means_not_equivalent() {
        let omega_half = lam("x", bool_ty(), app(var("x"), var("x")));
        let omega = app(omega_half.clone(), omega_half);
        // definitionally_equal must not hang or panic on divergent input.
        assert!(!definitionally_equal(&Env::new(), &omega, &tt()));
    }
}
