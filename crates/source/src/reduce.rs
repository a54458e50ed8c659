//! Reduction for CC (Figure 2).
//!
//! The paper defines a small-step relation `Γ ⊢ e ⊲ e'` with five rules —
//! δ (unfold a defined variable), ζ (dependent let), β (application), π1 and
//! π2 (projections) — plus its reflexive, transitive, contextual closure
//! `⊲*`. We additionally reduce `if` on boolean literals, matching the ground
//! types added in §5.2.
//!
//! This module provides:
//!
//! * [`step`] — one leftmost-outermost reduction step (the `⊲` relation),
//! * [`reduce_steps`] — iterated stepping with a step bound,
//! * [`whnf`] — weak-head normalization (what the equivalence checker and
//!   type checker need),
//! * [`normalize`] — full normalization to β/δ/ζ/π-normal form,
//! * [`evaluate_with_cost`] — the same normalization, also returning how many
//!   times each rule fired (the [`Cost`] behind §7's overhead claims),
//! * [`eval`] — evaluation of closed programs to values (Theorem 4.8 / 5.7
//!   use this to observe results).

use crate::ast::{RcTerm, Term};
use crate::env::Env;
use crate::subst::subst;
use cccc_util::cost::CostLabels;
use cccc_util::fuel::Fuel;
use std::fmt;

/// Errors produced by the reduction engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceError {
    /// The fuel budget was exhausted before a normal form was reached.
    /// On well-typed terms this indicates the budget was too small; on
    /// ill-typed terms it may indicate divergence.
    OutOfFuel,
}

impl fmt::Display for ReduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReduceError::OutOfFuel => write!(f, "reduction fuel exhausted"),
        }
    }
}

impl std::error::Error for ReduceError {}

/// Marker selecting the CC labels for the shared cost counters.
#[derive(Clone, Copy, Debug)]
pub struct CcCost;

impl CostLabels for CcCost {
    const APPLICATION: &'static str = "β";
    const FUNCTIONS: &'static str = "functions";
    const TRACE_EVENT: &'static str = "cost.cc";
}

/// Counters for the CC reduction rules. [`Cost::applications`] counts
/// β-steps: `(λ x : A. e1) e2 ⊲ e1[e2/x]`; [`Cost::functions_built`]
/// counts λ-values encountered as evaluation results (an allocation proxy
/// for the closures an implementation would create).
pub type Cost = cccc_util::cost::Cost<CcCost>;

/// Performs one reduction step in leftmost-outermost order, or returns
/// `None` if the term is in normal form with respect to `env`.
pub fn step(env: &Env, term: &Term) -> Option<Term> {
    step_rc(env, term).map(|rc| (*rc).clone())
}

/// [`step`] returning a shared [`RcTerm`]: a δ-unfold returns the
/// environment's own `Rc` instead of copying the definition, and iterated
/// callers ([`reduce_steps`]) avoid re-cloning the current term each step.
pub fn step_rc(env: &Env, term: &Term) -> Option<RcTerm> {
    match term {
        // ⊲δ: unfold a variable that has a definition in Γ. The Rc is
        // shared with the environment entry — no copy per unfold.
        Term::Var(x) => env.lookup_definition(*x).cloned(),
        Term::Sort(_) | Term::BoolTy | Term::BoolLit(_) => None,
        // ⊲ζ: let x = e : A in e1  ⊲  e1[e/x]
        Term::Let { binder, bound, body, .. } => Some(subst(body, *binder, bound).rc()),
        Term::App { func, arg } => {
            if let Term::Lam { binder, body, .. } = &**func {
                // ⊲β
                return Some(subst(body, *binder, arg).rc());
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
        Term::Lam { binder, domain, body } => {
            if let Some(d) = step_rc(env, domain) {
                return Some(Term::Lam { binder: *binder, domain: d, body: body.clone() }.rc());
            }
            step_rc(env, body)
                .map(|b| Term::Lam { binder: *binder, domain: domain.clone(), body: b }.rc())
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
/// Returns [`ReduceError::OutOfFuel`] when `fuel` is exhausted.
pub fn whnf(env: &Env, term: &Term, fuel: &mut Fuel) -> Result<Term, ReduceError> {
    whnf_counted(env, term, fuel, &mut Cost::default())
}

/// [`whnf`], adding each δ, ζ, β, π and `if` step it takes to `cost`.
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
    // `Π`/`Σ`/sorts.
    match term {
        Term::Sort(_)
        | Term::BoolTy
        | Term::BoolLit(_)
        | Term::Pi { .. }
        | Term::Lam { .. }
        | Term::Sigma { .. }
        | Term::Pair { .. } => return Ok(term.clone()),
        Term::Var(x) if env.lookup_definition(*x).is_none() => return Ok(term.clone()),
        _ => {}
    }
    // `current` holds a shared handle so that δ-unfolds and head
    // eliminations share subterms instead of copying them.
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
                    Term::Lam { binder, body, .. } => {
                        cost.applications += 1;
                        current = subst(&body, binder, arg).rc();
                    }
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
/// into all remaining subterms (including under binders).
///
/// Subterms that [`whnf`] already left head-normal — the function of a
/// stuck application, the target of a stuck projection, the scrutinee of a
/// stuck `if` — are *not* re-weak-head-normalized on the way down. Without
/// this, normalizing a neutral spine `f a1 … an` re-ran `whnf` from each
/// spine prefix, making the legacy engine accidentally quadratic in spine
/// length.
///
/// # Errors
///
/// Returns [`ReduceError::OutOfFuel`] when `fuel` is exhausted.
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
/// counting each λ and pair it rebuilds.
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
        Term::Var(_) | Term::Sort(_) | Term::BoolTy | Term::BoolLit(_) => head,
        Term::Pi { binder, domain, codomain } => Term::Pi {
            binder,
            domain: norm(&domain, fuel, cost)?,
            codomain: norm(&codomain, fuel, cost)?,
        },
        Term::Lam { binder, domain, body } => {
            cost.functions_built += 1;
            Term::Lam { binder, domain: norm(&domain, fuel, cost)?, body: norm(&body, fuel, cost)? }
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
/// Panics if the default budget is exhausted; intended for tests and
/// examples operating on well-typed terms.
pub fn normalize_default(env: &Env, term: &Term) -> Term {
    let mut fuel = Fuel::default();
    normalize(env, term, &mut fuel).expect("normalization exhausted default fuel")
}

/// Normalizes `term` under `env` like [`normalize`], returning the value
/// together with how many times each rule fired. It runs the same reducer,
/// so it spends exactly the fuel [`normalize`] spends. When a trace sink is
/// installed on the current thread the counters are also recorded as a
/// `cost.cc` event.
///
/// # Errors
///
/// Returns [`ReduceError::OutOfFuel`] when `fuel` is exhausted.
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
/// Panics if the default budget is exhausted.
pub fn evaluate_with_cost_default(env: &Env, term: &Term) -> (Term, Cost) {
    let mut fuel = Fuel::default();
    evaluate_with_cost(env, term, &mut fuel).expect("instrumented evaluation exhausted fuel")
}

/// Evaluates a closed program to a value (Theorem 4.8's `e ⊲* v`).
///
/// # Errors
///
/// Returns [`ReduceError::OutOfFuel`] when `fuel` is exhausted.
pub fn eval(env: &Env, term: &Term, fuel: &mut Fuel) -> Result<Term, ReduceError> {
    normalize(env, term, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::prelude;
    use crate::subst::alpha_eq;
    use cccc_util::symbol::Symbol;
    use cccc_util::trace;

    fn nf(t: &Term) -> Term {
        normalize_default(&Env::new(), t)
    }

    fn run(term: &Term) -> (Term, Cost) {
        evaluate_with_cost_default(&Env::new(), term)
    }

    #[test]
    fn beta_reduction() {
        let t = app(lam("x", bool_ty(), var("x")), tt());
        assert!(alpha_eq(&nf(&t), &tt()));
    }

    #[test]
    fn zeta_reduction() {
        let t = let_("x", bool_ty(), tt(), ite(var("x"), ff(), tt()));
        assert!(alpha_eq(&nf(&t), &ff()));
    }

    #[test]
    fn delta_reduction_uses_environment() {
        let env = Env::new().with_definition(Symbol::intern("b"), tt(), bool_ty());
        let mut fuel = Fuel::default();
        let result = normalize(&env, &var("b"), &mut fuel).unwrap();
        assert!(alpha_eq(&result, &tt()));
    }

    #[test]
    fn projections_reduce() {
        let p = pair(tt(), ff(), sigma("x", bool_ty(), bool_ty()));
        assert!(alpha_eq(&nf(&fst(p.clone())), &tt()));
        assert!(alpha_eq(&nf(&snd(p)), &ff()));
    }

    #[test]
    fn if_reduces_on_literals() {
        assert!(alpha_eq(&nf(&ite(tt(), ff(), tt())), &ff()));
        assert!(alpha_eq(&nf(&ite(ff(), ff(), tt())), &tt()));
    }

    #[test]
    fn nested_beta_normalizes_under_binders() {
        // λ y : Bool. (λ x : Bool. x) y  normalizes to  λ y : Bool. y
        let t = lam("y", bool_ty(), app(lam("x", bool_ty(), var("x")), var("y")));
        assert!(alpha_eq(&nf(&t), &lam("y", bool_ty(), var("y"))));
    }

    #[test]
    fn whnf_stops_at_head() {
        // whnf of  λ y. (λ x. x) true  is the lambda itself (body untouched).
        let body = app(lam("x", bool_ty(), var("x")), tt());
        let t = lam("y", bool_ty(), body.clone());
        let mut fuel = Fuel::default();
        let w = whnf(&Env::new(), &t, &mut fuel).unwrap();
        match w {
            Term::Lam { body: b, .. } => assert!(alpha_eq(&b, &body)),
            _ => panic!("expected lambda"),
        }
    }

    #[test]
    fn step_counts_single_steps() {
        // (λ x. x) ((λ y. y) true) needs two β steps and nothing more.
        let t = app(lam("x", bool_ty(), var("x")), app(lam("y", bool_ty(), var("y")), tt()));
        let (v, steps) = reduce_steps(&Env::new(), &t, 100);
        assert!(alpha_eq(&v, &tt()));
        assert_eq!(steps, 2);
    }

    #[test]
    fn step_on_normal_form_is_none() {
        assert!(step(&Env::new(), &tt()).is_none());
        assert!(step(&Env::new(), &lam("x", bool_ty(), var("x"))).is_none());
        assert!(step(&Env::new(), &var("free")).is_none());
    }

    #[test]
    fn out_of_fuel_is_reported() {
        // Ω = (λ x : Bool. x x) (λ x : Bool. x x) — ill-typed but a good
        // divergence witness for the fuel mechanism.
        let omega_half = lam("x", bool_ty(), app(var("x"), var("x")));
        let omega = app(omega_half.clone(), omega_half);
        let mut fuel = Fuel::new(1000);
        assert!(matches!(normalize(&Env::new(), &omega, &mut fuel), Err(ReduceError::OutOfFuel)));
    }

    #[test]
    fn values_evaluate_to_themselves() {
        let v = pair(tt(), ff(), sigma("x", bool_ty(), bool_ty()));
        assert!(alpha_eq(&nf(&v), &v));
    }

    #[test]
    fn eval_polymorphic_identity_applied() {
        // (λ A : ⋆. λ x : A. x) Bool true  ⊲*  true
        let id = lam("A", star(), lam("x", var("A"), var("x")));
        let t = app(app(id, bool_ty()), tt());
        assert!(alpha_eq(&nf(&t), &tt()));
    }

    #[test]
    fn reduce_error_displays() {
        assert_eq!(ReduceError::OutOfFuel.to_string(), "reduction fuel exhausted");
    }

    #[test]
    fn beta_steps_are_counted() {
        let (value, cost) = run(&app(lam("x", bool_ty(), var("x")), tt()));
        assert!(alpha_eq(&value, &tt()));
        assert_eq!(cost.applications, 1);
        assert_eq!(cost.total_steps(), 1);
    }

    #[test]
    fn all_rule_counters_fire() {
        let term = let_(
            "p",
            sigma("x", bool_ty(), bool_ty()),
            pair(tt(), ff(), sigma("x", bool_ty(), bool_ty())),
            ite(fst(var("p")), snd(var("p")), tt()),
        );
        let (value, cost) = run(&term);
        assert!(alpha_eq(&value, &ff()));
        assert_eq!(cost.zeta, 1);
        assert_eq!(cost.projection, 2);
        assert_eq!(cost.conditional, 1);
        assert_eq!(cost.applications, 0);
    }

    #[test]
    fn delta_steps_count_definition_unfolding() {
        let env = Env::new().with_definition(cccc_util::Symbol::intern("flag"), tt(), bool_ty());
        let mut fuel = Fuel::default();
        let (_, cost) = evaluate_with_cost(&env, &ite(var("flag"), ff(), tt()), &mut fuel).unwrap();
        assert_eq!(cost.delta, 1);
        assert_eq!(cost.conditional, 1);
    }

    #[test]
    fn instrumented_and_plain_normalization_agree() {
        for (entry, expected) in prelude::ground_corpus() {
            let (value, cost) = run(&entry.term);
            assert!(alpha_eq(&value, &bool_lit(expected)), "{}", entry.name);
            assert!(cost.total_steps() > 0, "{} took no steps", entry.name);
            let plain = crate::reduce::normalize_default(&Env::new(), &entry.term);
            assert!(alpha_eq(&plain, &value));
        }
    }

    #[test]
    fn evaluate_with_cost_spends_exactly_the_fuel_normalize_spends() {
        let is_even_4x4 = app(
            prelude::church_is_even(),
            app(app(prelude::church_mul(), prelude::church_numeral(4)), prelude::church_numeral(4)),
        );
        let programs = prelude::ground_corpus().into_iter().map(|(entry, _)| entry.term);
        for term in programs.chain([is_even_4x4]) {
            let mut plain = Fuel::default();
            normalize(&Env::new(), &term, &mut plain).unwrap();
            let mut counted = Fuel::default();
            evaluate_with_cost(&Env::new(), &term, &mut counted).unwrap();
            assert_eq!(counted.used(), plain.used(), "{term}");
            let mut exact = Fuel::new(plain.used());
            assert!(evaluate_with_cost(&Env::new(), &term, &mut exact).is_ok(), "{term}");
        }
    }

    #[test]
    fn cost_display_and_addition() {
        let (_, a) = run(&app(prelude::not_fn(), tt()));
        let (_, b) = run(&app(prelude::not_fn(), ff()));
        let sum = a + b;
        assert_eq!(sum.applications, a.applications + b.applications);
        assert!(sum.to_string().contains("β="));
        assert!(sum.to_string().contains("functions="));
    }

    #[test]
    fn church_multiplication_costs_grow_with_operands() {
        let program = |n: usize| {
            app(
                prelude::church_is_even(),
                app(
                    app(prelude::church_mul(), prelude::church_numeral(n)),
                    prelude::church_numeral(n),
                ),
            )
        };
        let (_, small) = run(&program(2));
        let (_, large) = run(&program(5));
        assert!(large.total_steps() > small.total_steps());
    }

    #[test]
    fn traced_evaluation_records_a_cost_event() {
        let term = app(lam("x", bool_ty(), var("x")), tt());
        let ((), built) = trace::capture(|| {
            run(&term);
        });
        let events: Vec<_> = built.events.iter().filter(|e| e.name == "cost.cc").collect();
        assert_eq!(events.len(), 1);
        assert!(events[0].counters.contains(&("applications", 1)));
    }
}
