//! Definitional equivalence `Γ ⊢ e ≡ e'` for CC-CC (Figure 6).
//!
//! Equivalence is reduction in `⊲*` up to the paper's **closure-η**
//! principle, which replaces the function-η rule of CC: a closure is
//! identified with anything that behaves like it under application,
//!
//! ```text
//! [≡-Clo-η1/2]   ⟪λ (n : A', x : A). e, e'⟫ ≡ e''
//!                when  e[e'/n][x/x] ≡ e'' x   for fresh x
//! ```
//!
//! so two closures with *different environments* (one capturing a value,
//! one with it inlined, one projecting it out of a bigger environment) are
//! definitionally equal exactly when their bodies agree once the
//! environment is substituted in. This is the rule that makes
//! compositionality (Lemma 5.1) and coherence (Lemma 5.4) hold for the
//! translation, and it is what the `[Clo]`/`[Conv]` interplay of Figure 7
//! relies on.
//!
//! Two interchangeable deciders implement the judgment:
//!
//! * [`equiv`] (the default, used by the type checker and everything built
//!   on it) runs the **NbE engine** of [`crate::nbe`]: both sides are
//!   evaluated into the semantic domain and compared with
//!   [`crate::nbe::conv`], which applies closure-η directly on values by
//!   extending machine environments — no fresh symbols, no substitution;
//! * [`equiv_spec`] is the **paper-faithful specification**: both sides
//!   are reduced to weak-head normal form with the step-based engine and
//!   compared structurally, recursing under binders with a shared fresh
//!   variable; when either side is a closure over literal code, the
//!   closure-η comparison applies.
//!
//! The property suites check that the two agree on translated
//! generator-produced programs; [`equiv_spec`] is the differential-testing
//! oracle for the NbE engine.
//!
//! [`equiv`], its memoized ladder [`equiv_nodes`], [`Engine`] and the
//! `definitionally_equal` wrappers are defined once, in
//! [`cccc_util::nbe`], and shared with CC; CC-CC's conversion memo and
//! [`equiv_spec`] with its closure-η stay here.

use crate::ast::Term;
use crate::builder::var_sym;
use crate::env::Env;
use crate::reduce::{apply_closure_code, whnf, ReduceError};
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
    /// Decided conversion pairs for CC-CC, keyed by ordered node ids and
    /// the environment fingerprint (collapsed for closed pairs — the
    /// dominant case here, where `[Code]` checks everything against the
    /// empty environment) — see [`ConvCache`].
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
/// Returns a [`ReduceError`] when normalization runs out of fuel (or hits
/// a bare-code application) before the comparison can be decided.
pub fn equiv_spec(env: &Env, e1: &Term, e2: &Term, fuel: &mut Fuel) -> Result<bool, ReduceError> {
    let n1 = whnf(env, e1, fuel)?;
    let n2 = whnf(env, e2, fuel)?;
    compare_whnf(env, &n1, &n2, fuel)
}

/// If `term` is a closure whose code component weak-head normalizes to
/// literal code, returns the pieces the closure-η rule needs.
fn as_eta_closure(
    env: &Env,
    term: &Term,
    fuel: &mut Fuel,
) -> Result<Option<(Symbol, Symbol, Term, Term)>, ReduceError> {
    if let Term::Closure { code, env: closure_env } = term {
        if let Term::Code { env_binder, arg_binder, body, .. } = whnf(env, code, fuel)? {
            return Ok(Some((env_binder, arg_binder, (*body).clone(), (**closure_env).clone())));
        }
    }
    Ok(None)
}

fn compare_whnf(env: &Env, n1: &Term, n2: &Term, fuel: &mut Fuel) -> Result<bool, ReduceError> {
    // Closure-η: if either side is a closure over literal code, compare
    // behaviour under application to a shared fresh variable.
    let left_closure = as_eta_closure(env, n1, fuel)?;
    let right_closure = as_eta_closure(env, n2, fuel)?;
    match (&left_closure, &right_closure) {
        (Some((n, x, body, closure_env)), None) => {
            return eta_expand_compare(env, *n, *x, body, closure_env, n2, fuel);
        }
        (None, Some((n, x, body, closure_env))) => {
            return eta_expand_compare(env, *n, *x, body, closure_env, n1, fuel);
        }
        (Some((n1_, x1, body1, env1)), Some((n2_, x2, body2, env2))) => {
            let fresh = x1.freshen();
            let left = apply_closure_code(*n1_, *x1, body1, env1, &var_sym(fresh));
            let right = apply_closure_code(*n2_, *x2, body2, env2, &var_sym(fresh));
            return equiv_spec(env, &left, &right, fuel);
        }
        (None, None) => {}
    }

    match (n1, n2) {
        (Term::Var(x), Term::Var(y)) => Ok(x == y),
        (Term::Sort(u), Term::Sort(v)) => Ok(u == v),
        (Term::Unit, Term::Unit)
        | (Term::UnitVal, Term::UnitVal)
        | (Term::BoolTy, Term::BoolTy) => Ok(true),
        (Term::BoolLit(a), Term::BoolLit(b)) => Ok(a == b),
        (
            Term::Pi { binder: x, domain: a1, codomain: b1 },
            Term::Pi { binder: y, domain: a2, codomain: b2 },
        )
        | (
            Term::Sigma { binder: x, first: a1, second: b1 },
            Term::Sigma { binder: y, first: a2, second: b2 },
        ) => {
            // Pi matches only the first pattern and Sigma only the second,
            // so the discriminants agree by construction of the match.
            if std::mem::discriminant(n1) != std::mem::discriminant(n2) {
                return Ok(false);
            }
            if !equiv_spec(env, a1, a2, fuel)? {
                return Ok(false);
            }
            compare_under_binder(env, *x, b1, *y, b2, fuel)
        }
        (
            Term::Code { env_binder: m1, env_ty: e1, arg_binder: x1, arg_ty: a1, body: b1 },
            Term::Code { env_binder: m2, env_ty: e2, arg_binder: x2, arg_ty: a2, body: b2 },
        )
        | (
            Term::CodeTy { env_binder: m1, env_ty: e1, arg_binder: x1, arg_ty: a1, result: b1 },
            Term::CodeTy { env_binder: m2, env_ty: e2, arg_binder: x2, arg_ty: a2, result: b2 },
        ) => {
            if std::mem::discriminant(n1) != std::mem::discriminant(n2) {
                return Ok(false);
            }
            if !equiv_spec(env, e1, e2, fuel)? {
                return Ok(false);
            }
            // Share a fresh environment binder, compare argument types,
            // then share a fresh argument binder and compare bodies. When
            // the argument binder shadows the environment binder (x = n),
            // every occurrence in the body refers to the argument, so only
            // the argument renaming applies there.
            let fresh_env = m1.freshen();
            let a1 = subst(a1, *m1, &var_sym(fresh_env));
            let a2 = subst(a2, *m2, &var_sym(fresh_env));
            if !equiv_spec(env, &a1, &a2, fuel)? {
                return Ok(false);
            }
            let fresh_arg = x1.freshen();
            let rename_body = |body: &Term, m: Symbol, x: Symbol| {
                if x == m {
                    subst(body, x, &var_sym(fresh_arg))
                } else {
                    subst(&subst(body, m, &var_sym(fresh_env)), x, &var_sym(fresh_arg))
                }
            };
            let b1 = rename_body(b1, *m1, *x1);
            let b2 = rename_body(b2, *m2, *x2);
            equiv_spec(env, &b1, &b2, fuel)
        }
        // A closure whose code is neutral (an abstract variable, say) is
        // compared structurally.
        (Term::Closure { code: c1, env: e1 }, Term::Closure { code: c2, env: e2 }) => {
            Ok(equiv_spec(env, c1, c2, fuel)? && equiv_spec(env, e1, e2, fuel)?)
        }
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

/// The closure-η comparison: the closure's body with its environment
/// substituted and a fresh argument, against `other` applied to that same
/// fresh argument.
fn eta_expand_compare(
    env: &Env,
    env_binder: Symbol,
    arg_binder: Symbol,
    body: &Term,
    closure_env: &Term,
    other: &Term,
    fuel: &mut Fuel,
) -> Result<bool, ReduceError> {
    // Bare code is never equivalent to a closure — applying it would only
    // produce a BareCodeApplication error, so decide here instead.
    if matches!(other, Term::Code { .. }) {
        return Ok(false);
    }
    let fresh = arg_binder.freshen();
    let applied_closure =
        apply_closure_code(env_binder, arg_binder, body, closure_env, &var_sym(fresh));
    let applied_other = Term::App { func: other.clone().rc(), arg: var_sym(fresh).rc() };
    equiv_spec(env, &applied_closure, &applied_other, fuel)
}

/// Compares two bodies under their respective binders by renaming both to
/// a shared fresh variable.
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

    fn eq(a: &Term, b: &Term) -> bool {
        definitionally_equal(&Env::new(), a, b)
    }

    fn identity_closure() -> Term {
        closure(code("n", unit_ty(), "x", bool_ty(), var("x")), unit_val())
    }

    #[test]
    fn redexes_equal_their_reducts() {
        assert!(eq(&app(identity_closure(), tt()), &tt()));
        assert!(eq(&let_("u", unit_ty(), unit_val(), ff()), &ff()));
        assert!(!eq(&tt(), &ff()));
    }

    #[test]
    fn closure_eta_environment_vs_inlined() {
        // Capturing true in the environment ≡ inlining true in the body.
        let env_ty = product(bool_ty(), unit_ty());
        let captured = closure(
            code("n", env_ty.clone(), "x", unit_ty(), fst(var("n"))),
            pair(tt(), unit_val(), env_ty),
        );
        let inlined = closure(code("n", unit_ty(), "x", unit_ty(), tt()), unit_val());
        assert!(eq(&captured, &inlined));
        let different = closure(code("n", unit_ty(), "x", unit_ty(), ff()), unit_val());
        assert!(!eq(&captured, &different));
    }

    #[test]
    fn closure_eta_against_neutral_terms() {
        // ⟪λ (n : 1, x : Bool). f x, ⟨⟩⟫ ≡ f for an abstract closure f.
        let env = Env::new()
            .with_assumption(cccc_util::Symbol::intern("f"), pi("x", bool_ty(), bool_ty()));
        let wrapper =
            closure(code("n", unit_ty(), "x", bool_ty(), app(var("f"), var("x"))), unit_val());
        assert!(definitionally_equal(&env, &wrapper, &var("f")));
        assert!(definitionally_equal(&env, &var("f"), &wrapper));
        assert!(!definitionally_equal(&env, &wrapper, &var("g")));
    }

    #[test]
    fn alpha_renamed_code_is_equivalent() {
        let a = code("n", unit_ty(), "x", bool_ty(), var("x"));
        let b = code("m", unit_ty(), "y", bool_ty(), var("y"));
        assert!(eq(&a, &b));
        let ct1 = code_ty("n", unit_ty(), "x", bool_ty(), bool_ty());
        let ct2 = code_ty("m", unit_ty(), "y", bool_ty(), bool_ty());
        assert!(eq(&ct1, &ct2));
    }

    #[test]
    fn shadowed_code_binders_stay_alpha_equivalent() {
        // λ (n : 1, n : Bool). n — the body's n is the argument. The term
        // must be definitionally equal to its α-variant with distinct
        // binders, exactly as alpha_eq judges it.
        let shadowing = code("n", unit_ty(), "n", bool_ty(), var("n"));
        let distinct = code("m", unit_ty(), "y", bool_ty(), var("y"));
        assert!(crate::subst::alpha_eq(&shadowing, &distinct));
        assert!(eq(&shadowing, &distinct));
        // Same for code types.
        let shadowing_ty = code_ty("n", unit_ty(), "n", bool_ty(), bool_ty());
        let distinct_ty = code_ty("m", unit_ty(), "y", bool_ty(), bool_ty());
        assert!(eq(&shadowing_ty, &distinct_ty));
        // And the shadowed body is the argument, not the environment: a
        // code returning its (unit) environment is different.
        let env_returner = code("m", unit_ty(), "y", bool_ty(), var("m"));
        assert!(!eq(&shadowing, &env_returner));
    }

    #[test]
    fn code_types_are_not_closure_types() {
        let ct = code_ty("n", unit_ty(), "x", bool_ty(), bool_ty());
        assert!(!eq(&ct, &pi("x", bool_ty(), bool_ty())));
        assert!(!eq(&code("n", unit_ty(), "x", bool_ty(), var("x")), &ct));
        // Closure vs bare code decides false instead of erroring on the
        // would-be bare-code application.
        let bare = code("n", unit_ty(), "x", bool_ty(), var("x"));
        assert!(!eq(&identity_closure(), &bare));
        assert!(!eq(&bare, &identity_closure()));
    }

    #[test]
    fn pi_and_sigma_compare_under_binders() {
        assert!(eq(&pi("x", bool_ty(), var("x")), &pi("y", bool_ty(), var("y"))));
        assert!(!eq(&pi("x", bool_ty(), bool_ty()), &sigma("x", bool_ty(), bool_ty())));
        // Redexes inside types are run.
        let a = sigma("x", bool_ty(), ite(tt(), bool_ty(), star()));
        let b = sigma("x", bool_ty(), bool_ty());
        assert!(eq(&a, &b));
    }

    #[test]
    fn unit_equivalences() {
        assert!(eq(&unit_ty(), &unit_ty()));
        assert!(eq(&unit_val(), &unit_val()));
        assert!(!eq(&unit_ty(), &unit_val()));
        assert!(!eq(&unit_val(), &tt()));
    }

    #[test]
    fn neutral_spines_compare_structurally() {
        let a = app(app(var("f"), tt()), ff());
        let b = app(app(var("f"), tt()), ff());
        let c = app(app(var("f"), ff()), ff());
        assert!(eq(&a, &b));
        assert!(!eq(&a, &c));
        assert!(eq(&fst(var("p")), &fst(var("p"))));
        assert!(!eq(&fst(var("p")), &snd(var("p"))));
    }

    #[test]
    fn delta_definitions_unfold_during_comparison() {
        let env = Env::new().with_definition(cccc_util::Symbol::intern("two"), tt(), bool_ty());
        assert!(definitionally_equal(&env, &var("two"), &tt()));
    }

    #[test]
    fn undecided_comparisons_are_not_memoized() {
        // A redex and its reduct that no other test compares, so no
        // answer for the pair is cached yet.
        let redex = app(identity_closure(), var("memo_contract"));
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
    fn divergent_comparisons_fail_gracefully() {
        let omega_half = closure(
            code("n", unit_ty(), "x", pi("b", bool_ty(), bool_ty()), app(var("x"), var("x"))),
            unit_val(),
        );
        let omega = app(omega_half.clone(), omega_half);
        assert!(!definitionally_equal(&Env::new(), &omega, &tt()));
    }
}
