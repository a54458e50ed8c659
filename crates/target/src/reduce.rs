//! Reduction for CC-CC (Figure 6).
//!
//! The relation `Γ ⊢ e ⊲ e'` has the same δ (definition unfolding), ζ
//! (dependent let), π1/π2 (projections), and `if` rules as CC, but β is
//! replaced by the *closure application* rule
//!
//! ```text
//! ⟪λ (n : A', x : A). e, e'⟫ e'' ⊲ e[e'/n][e''/x]
//! ```
//!
//! which unpacks the closure, substituting the environment for the
//! environment parameter and the argument for the argument parameter in a
//! single (simultaneous) step.
//!
//! This module provides:
//!
//! * [`step`] / [`step_rc`] — one leftmost-outermost reduction step,
//! * [`reduce_steps`] — iterated stepping with a step bound,
//! * [`whnf`] — weak-head normalization (what the equivalence and type
//!   checkers need),
//! * [`normalize`] / [`normalize_default`] — full normalization,
//! * [`evaluate_with_cost`] — the same normalization, also returning how many
//!   times each rule fired (the [`Cost`] behind §7's overhead claims),
//! * [`eval`] — evaluation of closed programs to values.
//!
//! Definition unfolding shares the environment's [`RcTerm`] instead of
//! deep-copying the definition, so δ-heavy normalization (hoisted programs,
//! label environments) allocates nothing per unfold.

use crate::ast::{RcTerm, Term};
use crate::env::Env;
use crate::subst::{occurs_free, rename, subst};
use cccc_util::cost::CostLabels;
use cccc_util::fuel::Fuel;
use cccc_util::symbol::Symbol;
use std::fmt;

/// Errors produced by the reduction engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceError {
    /// The fuel budget was exhausted before a normal form was reached.
    OutOfFuel,
    /// Bare code was applied as if it were a closure. Code is not a
    /// first-class function in CC-CC (rule `[App]` eliminates closures
    /// only), so such a term is stuck *and* ill-typed.
    BareCodeApplication,
}

impl fmt::Display for ReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceError::OutOfFuel => write!(f, "reduction fuel exhausted"),
            ReduceError::BareCodeApplication => {
                write!(f, "bare code applied outside a closure")
            }
        }
    }
}

impl std::error::Error for ReduceError {}

/// Marker selecting the CC-CC labels for the shared cost counters.
#[derive(Clone, Copy, Debug)]
pub struct CcccCost;

impl CostLabels for CcccCost {
    const APPLICATION: &'static str = "clo";
    const FUNCTIONS: &'static str = "closures";
    const TRACE_EVENT: &'static str = "cost.cccc";
}

/// Counters for the CC-CC reduction rules. [`Cost::applications`] counts
/// closure applications: `⟪λ (n, x). e, e'⟫ e'' ⊲ e[e'/n][e''/x]`;
/// [`Cost::functions_built`] counts closure values encountered as
/// evaluation results (heap-allocation proxy for the closures a real
/// runtime would create). Every captured variable costs one environment
/// projection (a ζ-step through the projection prelude) per call.
pub type Cost = cccc_util::cost::Cost<CcccCost>;

/// The closure-application reduct `e[e'/n][e''/x]`, computed
/// capture-avoidingly: the two substitutions are morally simultaneous, so
/// the binders are freshened first when they could collide with free
/// variables of the environment or argument.
pub(crate) fn apply_closure_code(
    env_binder: Symbol,
    arg_binder: Symbol,
    body: &Term,
    environment: &Term,
    argument: &Term,
) -> Term {
    // Freshen the argument binder if the environment could capture it (or
    // if the two binders collide, in which case the argument binder shadows
    // the environment binder).
    let (arg_binder, body) = if arg_binder == env_binder || occurs_free(arg_binder, environment) {
        let fresh = arg_binder.freshen();
        (fresh, rename(body, arg_binder, fresh))
    } else {
        (arg_binder, body.clone())
    };
    let body = subst(&body, env_binder, environment);
    subst(&body, arg_binder, argument)
}

/// Performs one reduction step in leftmost-outermost order, or returns
/// `None` if the term is in normal form with respect to `env`.
pub fn step(env: &Env, term: &Term) -> Option<Term> {
    step_rc(env, term).map(|rc| (*rc).clone())
}

/// [`step`] returning a shared [`RcTerm`]: a δ-unfold returns the
/// environment's own `Rc` (no copy), and iterated callers
/// ([`reduce_steps`]) avoid re-cloning the current term each step.
pub fn step_rc(env: &Env, term: &Term) -> Option<RcTerm> {
    match term {
        // ⊲δ: unfold a variable that has a definition in Γ. The Rc is
        // shared with the environment entry.
        Term::Var(x) => env.lookup_definition(*x).cloned(),
        Term::Sort(_) | Term::Unit | Term::UnitVal | Term::BoolTy | Term::BoolLit(_) => None,
        // ⊲ζ: let x = e : A in e1 ⊲ e1[e/x]
        Term::Let { binder, bound, body, .. } => Some(subst(body, *binder, bound).rc()),
        Term::App { func, arg } => {
            // The closure-application rule (Figure 6).
            if let Term::Closure { code, env: closure_env } = &**func {
                if let Term::Code { env_binder, arg_binder, body, .. } = &**code {
                    return Some(
                        apply_closure_code(*env_binder, *arg_binder, body, closure_env, arg).rc(),
                    );
                }
            }
            if let Some(stepped) = step_rc(env, func) {
                return Some(Term::App { func: stepped, arg: arg.clone() }.rc());
            }
            step_rc(env, arg).map(|stepped| Term::App { func: func.clone(), arg: stepped }.rc())
        }
        Term::Fst(e) => {
            if let Term::Pair { first, .. } = &**e {
                // ⊲π1 — shares the component.
                return Some(first.clone());
            }
            step_rc(env, e).map(|stepped| Term::Fst(stepped).rc())
        }
        Term::Snd(e) => {
            if let Term::Pair { second, .. } = &**e {
                // ⊲π2
                return Some(second.clone());
            }
            step_rc(env, e).map(|stepped| Term::Snd(stepped).rc())
        }
        Term::If { scrutinee, then_branch, else_branch } => {
            if let Term::BoolLit(b) = &**scrutinee {
                return Some(if *b { then_branch.clone() } else { else_branch.clone() });
            }
            if let Some(s) = step_rc(env, scrutinee) {
                return Some(
                    Term::If {
                        scrutinee: s,
                        then_branch: then_branch.clone(),
                        else_branch: else_branch.clone(),
                    }
                    .rc(),
                );
            }
            if let Some(t) = step_rc(env, then_branch) {
                return Some(
                    Term::If {
                        scrutinee: scrutinee.clone(),
                        then_branch: t,
                        else_branch: else_branch.clone(),
                    }
                    .rc(),
                );
            }
            step_rc(env, else_branch).map(|e| {
                Term::If {
                    scrutinee: scrutinee.clone(),
                    then_branch: then_branch.clone(),
                    else_branch: e,
                }
                .rc()
            })
        }
        Term::Closure { code, env: closure_env } => {
            if let Some(c) = step_rc(env, code) {
                return Some(Term::Closure { code: c, env: closure_env.clone() }.rc());
            }
            step_rc(env, closure_env).map(|e| Term::Closure { code: code.clone(), env: e }.rc())
        }
        Term::Code { env_binder, env_ty, arg_binder, arg_ty, body } => {
            if let Some(t) = step_rc(env, env_ty) {
                return Some(
                    Term::Code {
                        env_binder: *env_binder,
                        env_ty: t,
                        arg_binder: *arg_binder,
                        arg_ty: arg_ty.clone(),
                        body: body.clone(),
                    }
                    .rc(),
                );
            }
            if let Some(t) = step_rc(env, arg_ty) {
                return Some(
                    Term::Code {
                        env_binder: *env_binder,
                        env_ty: env_ty.clone(),
                        arg_binder: *arg_binder,
                        arg_ty: t,
                        body: body.clone(),
                    }
                    .rc(),
                );
            }
            step_rc(env, body).map(|b| {
                Term::Code {
                    env_binder: *env_binder,
                    env_ty: env_ty.clone(),
                    arg_binder: *arg_binder,
                    arg_ty: arg_ty.clone(),
                    body: b,
                }
                .rc()
            })
        }
        Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => {
            if let Some(t) = step_rc(env, env_ty) {
                return Some(
                    Term::CodeTy {
                        env_binder: *env_binder,
                        env_ty: t,
                        arg_binder: *arg_binder,
                        arg_ty: arg_ty.clone(),
                        result: result.clone(),
                    }
                    .rc(),
                );
            }
            if let Some(t) = step_rc(env, arg_ty) {
                return Some(
                    Term::CodeTy {
                        env_binder: *env_binder,
                        env_ty: env_ty.clone(),
                        arg_binder: *arg_binder,
                        arg_ty: t,
                        result: result.clone(),
                    }
                    .rc(),
                );
            }
            step_rc(env, result).map(|r| {
                Term::CodeTy {
                    env_binder: *env_binder,
                    env_ty: env_ty.clone(),
                    arg_binder: *arg_binder,
                    arg_ty: arg_ty.clone(),
                    result: r,
                }
                .rc()
            })
        }
        Term::Pi { binder, domain, codomain } => {
            if let Some(d) = step_rc(env, domain) {
                return Some(
                    Term::Pi { binder: *binder, domain: d, codomain: codomain.clone() }.rc(),
                );
            }
            step_rc(env, codomain)
                .map(|c| Term::Pi { binder: *binder, domain: domain.clone(), codomain: c }.rc())
        }
        Term::Sigma { binder, first, second } => {
            if let Some(a) = step_rc(env, first) {
                return Some(
                    Term::Sigma { binder: *binder, first: a, second: second.clone() }.rc(),
                );
            }
            step_rc(env, second)
                .map(|b| Term::Sigma { binder: *binder, first: first.clone(), second: b }.rc())
        }
        Term::Pair { first, second, annotation } => {
            if let Some(a) = step_rc(env, first) {
                return Some(
                    Term::Pair { first: a, second: second.clone(), annotation: annotation.clone() }
                        .rc(),
                );
            }
            if let Some(b) = step_rc(env, second) {
                return Some(
                    Term::Pair { first: first.clone(), second: b, annotation: annotation.clone() }
                        .rc(),
                );
            }
            step_rc(env, annotation).map(|t| {
                Term::Pair { first: first.clone(), second: second.clone(), annotation: t }.rc()
            })
        }
    }
}

/// Repeatedly applies [`step_rc`] at most `max_steps` times; returns the
/// final term and the number of steps actually taken.
pub fn reduce_steps(env: &Env, term: &Term, max_steps: usize) -> (Term, usize) {
    let mut current: Option<RcTerm> = None;
    for taken in 0..max_steps {
        let view: &Term = current.as_deref().unwrap_or(term);
        match step_rc(env, view) {
            Some(next) => current = Some(next),
            None => {
                return (current.map_or_else(|| term.clone(), |rc| (*rc).clone()), taken);
            }
        }
    }
    (current.map_or_else(|| term.clone(), |rc| (*rc).clone()), max_steps)
}

/// Reduces `term` to weak-head normal form under `env`.
///
/// # Errors
///
/// Returns [`ReduceError::OutOfFuel`] when `fuel` is exhausted and
/// [`ReduceError::BareCodeApplication`] when code is applied outside a
/// closure.
pub fn whnf(env: &Env, term: &Term, fuel: &mut Fuel) -> Result<Term, ReduceError> {
    whnf_counted(env, term, fuel, &mut Cost::default())
}

/// [`whnf`], adding each δ, ζ, closure-application, π and `if` step it
/// takes to `cost`.
fn whnf_counted(
    env: &Env,
    term: &Term,
    fuel: &mut Fuel,
    cost: &mut Cost,
) -> Result<Term, ReduceError> {
    // Canonical heads and definition-free variables are already weak-head
    // normal: return a (shallow, handle-sharing) clone without interning
    // the head or spending fuel. This is the dominant case on the
    // type-checking path, where inferred types are usually literal
    // `Π`/`Σ`/`Code`-type/sorts.
    match term {
        Term::Sort(_)
        | Term::Unit
        | Term::UnitVal
        | Term::BoolTy
        | Term::BoolLit(_)
        | Term::Pi { .. }
        | Term::Sigma { .. }
        | Term::Code { .. }
        | Term::CodeTy { .. }
        | Term::Pair { .. } => return Ok(term.clone()),
        Term::Var(x) if env.lookup_definition(*x).is_none() => return Ok(term.clone()),
        _ => {}
    }
    // `current` holds a shared handle so that δ-unfolds and structural
    // descents never copy the definition being unfolded.
    let mut current: RcTerm = term.clone().rc();
    loop {
        if !fuel.tick() {
            return Err(ReduceError::OutOfFuel);
        }
        match &*current {
            Term::Var(x) => match env.lookup_definition(*x) {
                Some(def) => {
                    cost.delta += 1;
                    current = def.clone();
                }
                None => return Ok((*current).clone()),
            },
            Term::Let { binder, bound, body, .. } => {
                cost.zeta += 1;
                current = subst(body, *binder, bound).rc();
            }
            Term::App { func, arg } => {
                let func_whnf = whnf_counted(env, func, fuel, cost)?;
                match func_whnf {
                    Term::Closure { code, env: closure_env } => {
                        let code_whnf = whnf_counted(env, &code, fuel, cost)?;
                        match code_whnf {
                            Term::Code { env_binder, arg_binder, body, .. } => {
                                cost.applications += 1;
                                current = apply_closure_code(
                                    env_binder,
                                    arg_binder,
                                    &body,
                                    &closure_env,
                                    arg,
                                )
                                .rc();
                            }
                            other => {
                                // A closure over neutral "code" (e.g. an
                                // abstract variable) is itself neutral.
                                return Ok(Term::App {
                                    func: Term::Closure { code: other.rc(), env: closure_env }.rc(),
                                    arg: arg.clone(),
                                });
                            }
                        }
                    }
                    Term::Code { .. } => return Err(ReduceError::BareCodeApplication),
                    other => {
                        return Ok(Term::App { func: other.rc(), arg: arg.clone() });
                    }
                }
            }
            Term::Fst(e) => {
                let inner = whnf_counted(env, e, fuel, cost)?;
                match inner {
                    Term::Pair { first, .. } => {
                        cost.projection += 1;
                        current = first;
                    }
                    other => return Ok(Term::Fst(other.rc())),
                }
            }
            Term::Snd(e) => {
                let inner = whnf_counted(env, e, fuel, cost)?;
                match inner {
                    Term::Pair { second, .. } => {
                        cost.projection += 1;
                        current = second;
                    }
                    other => return Ok(Term::Snd(other.rc())),
                }
            }
            Term::If { scrutinee, then_branch, else_branch } => {
                let s = whnf_counted(env, scrutinee, fuel, cost)?;
                match s {
                    Term::BoolLit(b) => {
                        cost.conditional += 1;
                        current = if b { then_branch.clone() } else { else_branch.clone() };
                    }
                    other => {
                        return Ok(Term::If {
                            scrutinee: other.rc(),
                            then_branch: then_branch.clone(),
                            else_branch: else_branch.clone(),
                        })
                    }
                }
            }
            _ => return Ok((*current).clone()),
        }
    }
}

/// Fully normalizes `term` under `env`: weak-head normalizes, then recurses
/// into all remaining subterms (including under binders and inside code).
///
/// Subterms that [`whnf`] already left head-normal — the function of a
/// stuck application, the target of a stuck projection, the scrutinee of a
/// stuck `if` — are *not* re-weak-head-normalized on the way down; without
/// this, normalizing a neutral spine `f a1 … an` re-ran `whnf` from each
/// spine prefix, making the legacy engine accidentally quadratic in spine
/// length.
///
/// # Errors
///
/// See [`whnf`].
pub fn normalize(env: &Env, term: &Term, fuel: &mut Fuel) -> Result<Term, ReduceError> {
    normalize_counted(env, term, fuel, &mut Cost::default())
}

/// [`normalize`], adding every rule it fires to `cost`.
fn normalize_counted(
    env: &Env,
    term: &Term,
    fuel: &mut Fuel,
    cost: &mut Cost,
) -> Result<Term, ReduceError> {
    let head = whnf_counted(env, term, fuel, cost)?;
    normalize_head(env, head, fuel, cost)
}

/// Normalizes the subterms of a term already in weak-head normal form,
/// counting each closure and pair it rebuilds.
fn normalize_head(
    env: &Env,
    head: Term,
    fuel: &mut Fuel,
    cost: &mut Cost,
) -> Result<Term, ReduceError> {
    let norm = |e: &RcTerm, fuel: &mut Fuel, cost: &mut Cost| -> Result<RcTerm, ReduceError> {
        Ok(normalize_counted(env, e, fuel, cost)?.rc())
    };
    // Re-enters `normalize_head` (no `whnf`) on positions the enclosing
    // `whnf` already head-normalized.
    let norm_whnf = |e: &RcTerm, fuel: &mut Fuel, cost: &mut Cost| -> Result<RcTerm, ReduceError> {
        Ok(normalize_head(env, (**e).clone(), fuel, cost)?.rc())
    };
    Ok(match head {
        Term::Var(_)
        | Term::Sort(_)
        | Term::Unit
        | Term::UnitVal
        | Term::BoolTy
        | Term::BoolLit(_) => head,
        Term::Pi { binder, domain, codomain } => Term::Pi {
            binder,
            domain: norm(&domain, fuel, cost)?,
            codomain: norm(&codomain, fuel, cost)?,
        },
        Term::Code { env_binder, env_ty, arg_binder, arg_ty, body } => Term::Code {
            env_binder,
            env_ty: norm(&env_ty, fuel, cost)?,
            arg_binder,
            arg_ty: norm(&arg_ty, fuel, cost)?,
            body: norm(&body, fuel, cost)?,
        },
        Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => Term::CodeTy {
            env_binder,
            env_ty: norm(&env_ty, fuel, cost)?,
            arg_binder,
            arg_ty: norm(&arg_ty, fuel, cost)?,
            result: norm(&result, fuel, cost)?,
        },
        Term::Closure { code, env: closure_env } => {
            cost.functions_built += 1;
            Term::Closure { code: norm(&code, fuel, cost)?, env: norm(&closure_env, fuel, cost)? }
        }
        Term::App { func, arg } => {
            Term::App { func: norm_whnf(&func, fuel, cost)?, arg: norm(&arg, fuel, cost)? }
        }
        Term::Let { .. } => unreachable!("whnf eliminates let"),
        Term::Sigma { binder, first, second } => Term::Sigma {
            binder,
            first: norm(&first, fuel, cost)?,
            second: norm(&second, fuel, cost)?,
        },
        Term::Pair { first, second, annotation } => {
            cost.pairs_built += 1;
            Term::Pair {
                first: norm(&first, fuel, cost)?,
                second: norm(&second, fuel, cost)?,
                annotation: norm(&annotation, fuel, cost)?,
            }
        }
        Term::Fst(e) => Term::Fst(norm_whnf(&e, fuel, cost)?),
        Term::Snd(e) => Term::Snd(norm_whnf(&e, fuel, cost)?),
        Term::If { scrutinee, then_branch, else_branch } => Term::If {
            scrutinee: norm_whnf(&scrutinee, fuel, cost)?,
            then_branch: norm(&then_branch, fuel, cost)?,
            else_branch: norm(&else_branch, fuel, cost)?,
        },
    })
}

/// Normalizes with the default fuel budget.
///
/// # Panics
///
/// Panics if the default budget is exhausted or the term applies bare
/// code; intended for tests and examples operating on well-typed terms.
pub fn normalize_default(env: &Env, term: &Term) -> Term {
    let mut fuel = Fuel::default();
    normalize(env, term, &mut fuel).expect("normalization of a well-typed term failed")
}

/// Normalizes `term` under `env` like [`normalize`], returning the value
/// together with how many times each rule fired. It runs the same reducer,
/// so it spends exactly the fuel [`normalize`] spends. When a trace sink is
/// installed on the current thread the counters are also recorded as a
/// `cost.cccc` event.
///
/// # Errors
///
/// See [`whnf`].
pub fn evaluate_with_cost(
    env: &Env,
    term: &Term,
    fuel: &mut Fuel,
) -> Result<(Term, Cost), ReduceError> {
    let mut cost = Cost::default();
    let value = normalize_counted(env, term, fuel, &mut cost)?;
    cost.record_trace();
    Ok((value, cost))
}

/// [`evaluate_with_cost`] with the default fuel budget.
///
/// # Panics
///
/// Panics if the default budget is exhausted or the term applies bare
/// code.
pub fn evaluate_with_cost_default(env: &Env, term: &Term) -> (Term, Cost) {
    let mut fuel = Fuel::default();
    evaluate_with_cost(env, term, &mut fuel).expect("instrumented evaluation failed")
}

/// Evaluates a closed program to a value (Theorem 4.8's `e ⊲* v`).
///
/// # Errors
///
/// See [`whnf`].
pub fn eval(env: &Env, term: &Term, fuel: &mut Fuel) -> Result<Term, ReduceError> {
    normalize(env, term, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::subst::alpha_eq;

    fn nf(t: &Term) -> Term {
        normalize_default(&Env::new(), t)
    }

    fn run(term: &Term) -> (Term, Cost) {
        evaluate_with_cost_default(&Env::new(), term)
    }

    fn identity_closure() -> Term {
        closure(code("n", unit_ty(), "x", bool_ty(), var("x")), unit_val())
    }

    #[test]
    fn closure_application_beta() {
        let t = app(identity_closure(), tt());
        assert!(alpha_eq(&nf(&t), &tt()));
    }

    #[test]
    fn closure_application_unpacks_the_environment() {
        // ⟪λ (n : Bool, x : 1). n, true⟫ ⟨⟩ ⊲ true
        let clo = closure(code("n", bool_ty(), "x", unit_ty(), var("n")), tt());
        assert!(alpha_eq(&nf(&app(clo, unit_val())), &tt()));
    }

    #[test]
    fn environment_capture_is_avoided() {
        // The environment mentions a free variable named like the argument
        // binder: ⟪λ (n : Bool, x : Bool). if n then x else false, x⟫ true
        // must not confuse the captured `x` with the argument.
        let clo =
            closure(code("n", bool_ty(), "x", bool_ty(), ite(var("n"), var("x"), ff())), var("x"));
        let value = nf(&app(clo, tt()));
        // n ↦ the *free* x, so the result is `if x then true else false`.
        assert!(alpha_eq(&value, &ite(var("x"), tt(), ff())));
    }

    #[test]
    fn zeta_delta_and_projections() {
        let t = let_("u", unit_ty(), unit_val(), tt());
        assert!(alpha_eq(&nf(&t), &tt()));
        let env = Env::new().with_definition(Symbol::intern("b"), tt(), bool_ty());
        let mut fuel = Fuel::default();
        assert!(alpha_eq(&normalize(&env, &var("b"), &mut fuel).unwrap(), &tt()));
        let p = pair(tt(), ff(), product(bool_ty(), bool_ty()));
        assert!(alpha_eq(&nf(&fst(p.clone())), &tt()));
        assert!(alpha_eq(&nf(&snd(p)), &ff()));
        assert!(alpha_eq(&nf(&ite(tt(), ff(), tt())), &ff()));
    }

    #[test]
    fn step_counts_closure_applications() {
        let t = app(identity_closure(), app(identity_closure(), tt()));
        let (v, steps) = reduce_steps(&Env::new(), &t, 100);
        assert!(alpha_eq(&v, &tt()));
        assert_eq!(steps, 2);
    }

    #[test]
    fn step_on_values_is_none() {
        assert!(step(&Env::new(), &tt()).is_none());
        assert!(step(&Env::new(), &unit_val()).is_none());
        assert!(step(&Env::new(), &identity_closure()).is_none());
        assert!(step(&Env::new(), &var("free")).is_none());
    }

    #[test]
    fn step_reduces_inside_code_and_environments() {
        // A redex inside a closure environment is found by the contextual
        // closure.
        let clo =
            closure(code("n", bool_ty(), "x", unit_ty(), var("n")), app(identity_closure(), tt()));
        let stepped = step(&Env::new(), &clo).unwrap();
        match stepped {
            Term::Closure { env, .. } => assert!(alpha_eq(&env, &tt())),
            other => panic!("expected closure, got {other}"),
        }
        // And one inside a code body.
        let c = code("n", unit_ty(), "x", bool_ty(), app(identity_closure(), var("x")));
        let stepped = step(&Env::new(), &c).unwrap();
        match stepped {
            Term::Code { body, .. } => assert!(alpha_eq(&body, &var("x"))),
            other => panic!("expected code, got {other}"),
        }
    }

    #[test]
    fn bare_code_application_is_a_stuck_error() {
        let bare = app(code("n", unit_ty(), "x", bool_ty(), var("x")), tt());
        let mut fuel = Fuel::default();
        assert_eq!(
            whnf(&Env::new(), &bare, &mut fuel).unwrap_err(),
            ReduceError::BareCodeApplication
        );
    }

    #[test]
    fn neutral_applications_do_not_reduce() {
        let neutral = app(var("f"), tt());
        assert!(step(&Env::new(), &neutral).is_none());
        let mut fuel = Fuel::default();
        let w = whnf(&Env::new(), &neutral, &mut fuel).unwrap();
        assert!(alpha_eq(&w, &neutral));
    }

    #[test]
    fn delta_unfolding_shares_the_definition() {
        let definition = identity_closure();
        let env = Env::new().with_definition(
            Symbol::intern("id"),
            definition,
            pi("x", bool_ty(), bool_ty()),
        );
        let unfolded = step_rc(&env, &var("id")).unwrap();
        let again = step_rc(&env, &var("id")).unwrap();
        // Both unfolds return the same shared node.
        assert!(unfolded.same(&again));
    }

    #[test]
    fn out_of_fuel_is_reported() {
        // ω = ⟪λ (n : 1, x : Π b : Bool. Bool). x x, ⟨⟩⟫ applied to itself
        // diverges (ill-typed, but a good fuel witness).
        let omega_half = closure(
            code("n", unit_ty(), "x", pi("b", bool_ty(), bool_ty()), app(var("x"), var("x"))),
            unit_val(),
        );
        let omega = app(omega_half.clone(), omega_half);
        let mut fuel = Fuel::new(500);
        assert!(matches!(normalize(&Env::new(), &omega, &mut fuel), Err(ReduceError::OutOfFuel)));
    }

    #[test]
    fn reduce_error_displays() {
        assert_eq!(ReduceError::OutOfFuel.to_string(), "reduction fuel exhausted");
        assert!(ReduceError::BareCodeApplication.to_string().contains("code"));
    }

    #[test]
    fn closure_applications_are_counted() {
        let (value, cost) = run(&app(identity_closure(), tt()));
        assert!(alpha_eq(&value, &tt()));
        assert_eq!(cost.applications, 1);
        assert_eq!(cost.total_steps(), 1);
    }

    #[test]
    fn projection_preludes_cost_zeta_steps() {
        // A closure capturing one variable: applying it fires one closure
        // application and one ζ (the projection let).
        let env_ty = product(bool_ty(), unit_ty());
        let clo = closure(
            code(
                "n",
                env_ty.clone(),
                "x",
                bool_ty(),
                let_("b", bool_ty(), fst(var("n")), ite(var("b"), var("x"), ff())),
            ),
            pair(tt(), unit_val(), env_ty),
        );
        let (value, cost) = run(&app(clo, tt()));
        assert!(alpha_eq(&value, &tt()));
        assert_eq!(cost.applications, 1);
        assert_eq!(cost.zeta, 1);
        assert_eq!(cost.projection, 1);
        assert_eq!(cost.conditional, 1);
    }

    #[test]
    fn delta_counts_label_unfolding() {
        let env = Env::new().with_definition(
            cccc_util::Symbol::intern("id"),
            identity_closure(),
            pi("x", bool_ty(), bool_ty()),
        );
        let mut fuel = Fuel::default();
        let (_, cost) = evaluate_with_cost(&env, &app(var("id"), ff()), &mut fuel).unwrap();
        assert_eq!(cost.delta, 1);
        assert_eq!(cost.applications, 1);
    }

    #[test]
    fn allocation_proxies_fire() {
        let (_, cost) = run(&identity_closure());
        assert_eq!(cost.functions_built, 1);
        let (_, cost) = run(&pair(tt(), ff(), product(bool_ty(), bool_ty())));
        assert_eq!(cost.pairs_built, 1);
    }

    #[test]
    fn instrumented_and_plain_normalization_agree() {
        let program = app(identity_closure(), ite(app(identity_closure(), tt()), ff(), tt()));
        let (value, cost) = run(&program);
        let plain = crate::reduce::normalize_default(&Env::new(), &program);
        assert!(alpha_eq(&value, &plain));
        assert!(cost.total_steps() >= 3);
    }

    #[test]
    fn cost_display_and_addition() {
        let (_, a) = run(&app(identity_closure(), tt()));
        let (_, b) = run(&app(identity_closure(), ff()));
        let sum = a + b;
        assert_eq!(sum.applications, 2);
        assert!(sum.to_string().contains("clo="));
    }
}
