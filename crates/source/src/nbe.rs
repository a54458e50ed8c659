//! Normalization by evaluation (NbE) for CC.
//!
//! The step-based engine in [`crate::reduce`] implements the paper's `⊲`
//! relation literally: every β/ζ-contraction runs a capture-avoiding
//! substitution that re-traverses the term. That is the right *specification*
//! but a poor *algorithm* — definitional equivalence (`≡`, Figure 2) is
//! decided constantly by the type checker, and substitution-based
//! normalization is quadratic (or worse) on exactly those call sites.
//!
//! This module is the algorithmic engine: an environment machine that
//! evaluates terms into a *semantic domain* ([`Value`]) where binders are
//! [`Closure`]s carrying their evaluation environment instead of eagerly
//! substituted bodies, and definitions are unfolded lazily through
//! [`Thunk`]s (δ, evaluated at most once per environment). Normal forms are
//! recovered by read-back ([`quote`]), and equivalence is decided directly
//! on values ([`conv`]) without generating fresh symbols or substituting —
//! binders are crossed with de Bruijn *levels* ([`Head::Local`]).
//!
//! # Paper correspondence
//!
//! | Paper (Figure 2) | Here |
//! |---|---|
//! | `Γ ⊢ e ⊲* v` (reduction to a value) | [`eval`] into [`Value`] |
//! | normal form of `e` | [`quote`] ∘ [`eval`] = [`normalize_nbe`] |
//! | weak-head normal form | [`whnf_nbe`] |
//! | `Γ ⊢ e ≡ e'` with η (`[≡-η1]`/`[≡-η2]`) | [`conv`] / [`conv_terms`] |
//! | δ (unfold `x = e : A ∈ Γ`) | [`ValEnv::from_env`] + lazy [`Thunk`] |
//!
//! The two engines are differentially tested against each other: the
//! property suites assert that [`normalize_nbe`] agrees with
//! [`crate::reduce::normalize`] and that [`conv_terms`] agrees with
//! [`crate::equiv::equiv_spec`] on generator-produced well-typed programs.
//!
//! The language-independent half — [`Thunk`], [`ValEnv`], [`Closure`],
//! the [`Head`]/[`Elim`] spines, canonical-name read-back and the entry
//! points — is [`cccc_util::nbe`], shared with CC-CC. CC's [`Value`],
//! evaluation, read-back, [`conv`] with function-η and [`whnf_nbe`] stay
//! here, plugged in through [`Calculus`] with CC's own canonical names.

use crate::ast::{Term, Universe};
use crate::env::Env;
use crate::reduce::ReduceError;
use cccc_util::fuel::Fuel;
use cccc_util::intern::ConvCache;
use cccc_util::nbe::{conv_stuck, Calculus, QuoteError, QuoteNames, MAX_EVAL_DEPTH};
use cccc_util::symbol::Symbol;
use std::cell::RefCell;
use std::rc::Rc;
use std::thread::LocalKey;

pub use cccc_util::nbe::{conv_terms, eval, eval_in, normalize_nbe, normalize_nbe_default, quote};

/// A suspended body over one binder (λ, Π, Σ).
pub type Closure = cccc_util::nbe::Closure<Term>;
/// A lazily evaluated value (δ, ζ and suspended `if` branches).
pub type Thunk = cccc_util::nbe::Thunk<Term>;
/// A persistent evaluation environment.
pub type ValEnv = cccc_util::nbe::ValEnv<Term>;
/// The head of a [`Value::Stuck`] spine.
pub type Head = cccc_util::nbe::Head<Term>;
/// One pending elimination in a stuck spine.
pub type Elim = cccc_util::nbe::Elim<Term>;

/// A reference-counted semantic value.
pub type RcValue = Rc<Value>;

/// The semantic domain of CC values.
///
/// Canonical forms mirror the value grammar of Theorem 4.8; everything
/// blocked on a variable (or, for ill-typed input, on a non-eliminable
/// value) is a [`Value::Stuck`] spine.
#[derive(Clone, Debug)]
pub enum Value {
    /// A universe `⋆` or `□`.
    Sort(Universe),
    /// The ground type `Bool`.
    BoolTy,
    /// A boolean literal.
    Bool(bool),
    /// A function value `λ x : A. e` whose body is a closure.
    Lam {
        /// The original binder name (used only for read-back).
        binder: Symbol,
        /// The evaluated domain annotation.
        domain: RcValue,
        /// The suspended body.
        body: Closure,
    },
    /// A dependent function type `Π x : A. B`.
    Pi {
        /// The original binder name (used only for read-back).
        binder: Symbol,
        /// The evaluated domain.
        domain: RcValue,
        /// The suspended codomain.
        codomain: Closure,
    },
    /// A strong dependent pair type `Σ x : A. B`.
    Sigma {
        /// The original binder name (used only for read-back).
        binder: Symbol,
        /// The evaluated type of the first component.
        first: RcValue,
        /// The suspended type of the second component.
        second: Closure,
    },
    /// A dependent pair `⟨e1, e2⟩`.
    Pair {
        /// The first component.
        first: RcValue,
        /// The second component.
        second: RcValue,
        /// The evaluated Σ annotation (a typing artifact; ignored by
        /// [`conv`], quoted back by [`quote`]).
        annotation: RcValue,
    },
    /// A neutral/stuck term: a head that cannot reduce, under a spine of
    /// pending eliminations.
    Stuck {
        /// What evaluation is blocked on.
        head: Head,
        /// The eliminations waiting for the head, innermost first.
        spine: Vec<Elim>,
    },
}

impl Value {
    /// A stuck value with an empty spine.
    pub fn stuck(head: Head) -> RcValue {
        Rc::new(Value::Stuck { head, spine: Vec::new() })
    }

    /// A neutral free variable.
    pub fn global(name: Symbol) -> RcValue {
        Value::stuck(Head::Global(name))
    }

    /// A fresh variable at de Bruijn level `level`, as introduced by
    /// [`conv`] and [`quote`] when crossing a binder.
    pub fn local(level: usize) -> RcValue {
        Value::stuck(Head::Local(level))
    }
}

thread_local! {
    /// CC's canonical read-back names ([`Calculus::readback_names`]).
    static QUOTE_LEVEL_NAMES: RefCell<Vec<Symbol>> = const { RefCell::new(Vec::new()) };
}

impl Calculus for Term {
    type Value = Value;
    type Error = ReduceError;

    fn eval_at(
        env: &ValEnv,
        term: &Term,
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<RcValue, ReduceError> {
        eval_at(env, term, fuel, depth)
    }

    fn stuck(head: Head) -> RcValue {
        Value::stuck(head)
    }

    fn quote_with(
        names: &mut Vec<Symbol>,
        value: &Value,
        fuel: &mut Fuel,
        mode: QuoteNames,
    ) -> Result<Term, QuoteError<ReduceError>> {
        quote_with(names, value, fuel, mode)
    }

    fn conv(level: usize, v1: &Value, v2: &Value, fuel: &mut Fuel) -> Result<bool, ReduceError> {
        conv(level, v1, v2, fuel)
    }

    fn alpha_eq(left: &Term, right: &Term) -> bool {
        crate::subst::alpha_eq(left, right)
    }

    fn equiv_spec(env: &Env, e1: &Term, e2: &Term, fuel: &mut Fuel) -> Result<bool, ReduceError> {
        crate::equiv::equiv_spec(env, e1, e2, fuel)
    }

    fn conv_memo() -> &'static LocalKey<RefCell<ConvCache>> {
        &crate::equiv::CONV_CACHE
    }

    fn readback_names() -> &'static LocalKey<RefCell<Vec<Symbol>>> {
        &QUOTE_LEVEL_NAMES
    }
}

fn eval_at(env: &ValEnv, term: &Term, fuel: &mut Fuel, depth: u32) -> Result<RcValue, ReduceError> {
    if !fuel.tick() || depth > MAX_EVAL_DEPTH {
        return Err(ReduceError::OutOfFuel);
    }
    match term {
        Term::Var(x) => match env.lookup(*x) {
            Some(thunk) => thunk.force(fuel),
            None => Ok(Value::global(*x)),
        },
        Term::Sort(u) => Ok(Rc::new(Value::Sort(*u))),
        Term::BoolTy => Ok(Rc::new(Value::BoolTy)),
        Term::BoolLit(b) => Ok(Rc::new(Value::Bool(*b))),
        Term::Pi { binder, domain, codomain } => Ok(Rc::new(Value::Pi {
            binder: *binder,
            domain: eval_at(env, domain, fuel, depth)?,
            codomain: Closure::new(env.clone(), *binder, codomain.clone()),
        })),
        Term::Lam { binder, domain, body } => Ok(Rc::new(Value::Lam {
            binder: *binder,
            domain: eval_at(env, domain, fuel, depth)?,
            body: Closure::new(env.clone(), *binder, body.clone()),
        })),
        Term::Sigma { binder, first, second } => Ok(Rc::new(Value::Sigma {
            binder: *binder,
            first: eval_at(env, first, fuel, depth)?,
            second: Closure::new(env.clone(), *binder, second.clone()),
        })),
        Term::App { func, arg } => {
            let func = eval_at(env, func, fuel, depth)?;
            let arg = eval_at(env, arg, fuel, depth)?;
            apply(func, arg, fuel, depth)
        }
        // ζ, lazily: the definition is evaluated the first time the body
        // uses it, and at most once.
        Term::Let { binder, bound, body, .. } => {
            let inner = env.bind(*binder, Thunk::suspended(env.clone(), bound.clone()));
            eval_at(&inner, body, fuel, depth)
        }
        Term::Pair { first, second, annotation } => Ok(Rc::new(Value::Pair {
            first: eval_at(env, first, fuel, depth)?,
            second: eval_at(env, second, fuel, depth)?,
            annotation: eval_at(env, annotation, fuel, depth)?,
        })),
        Term::Fst(e) => Ok(project(eval_at(env, e, fuel, depth)?, true)),
        Term::Snd(e) => Ok(project(eval_at(env, e, fuel, depth)?, false)),
        Term::If { scrutinee, then_branch, else_branch } => {
            let scrutinee = eval_at(env, scrutinee, fuel, depth)?;
            match &*scrutinee {
                Value::Bool(true) => eval_at(env, then_branch, fuel, depth),
                Value::Bool(false) => eval_at(env, else_branch, fuel, depth),
                _ => Ok(extend(
                    scrutinee,
                    Elim::If {
                        then_branch: Thunk::suspended(env.clone(), then_branch.clone()),
                        else_branch: Thunk::suspended(env.clone(), else_branch.clone()),
                    },
                )),
            }
        }
    }
}

/// Applies `func` to `arg`: β when the function is a λ-value (one new
/// β-frame against [`MAX_EVAL_DEPTH`]), spine extension otherwise.
fn apply(func: RcValue, arg: RcValue, fuel: &mut Fuel, depth: u32) -> Result<RcValue, ReduceError> {
    if let Value::Lam { body, .. } = &*func {
        return body.apply_at(arg, fuel, depth + 1);
    }
    Ok(extend(func, Elim::App(arg)))
}

/// Projects a component out of `value`: π1/π2 when it is a pair, spine
/// extension otherwise.
fn project(value: RcValue, first: bool) -> RcValue {
    if let Value::Pair { first: a, second: b, .. } = &*value {
        return if first { a.clone() } else { b.clone() };
    }
    extend(value, if first { Elim::Fst } else { Elim::Snd })
}

/// Pushes an elimination onto a stuck value's spine, wrapping canonical
/// values that the elimination does not apply to in a [`Head::Blocked`].
/// When the value is uniquely owned the spine is reused in place, so
/// building a neutral spine of n eliminations stays linear.
fn extend(value: RcValue, elim: Elim) -> RcValue {
    match Rc::try_unwrap(value) {
        Ok(Value::Stuck { head, mut spine }) => {
            spine.push(elim);
            Rc::new(Value::Stuck { head, spine })
        }
        Ok(other) => {
            Rc::new(Value::Stuck { head: Head::Blocked(Rc::new(other)), spine: vec![elim] })
        }
        Err(shared) => {
            if let Value::Stuck { head, spine } = &*shared {
                let mut spine = spine.clone();
                spine.push(elim);
                Rc::new(Value::Stuck { head: head.clone(), spine })
            } else {
                Rc::new(Value::Stuck { head: Head::Blocked(shared), spine: vec![elim] })
            }
        }
    }
}

/// [`quote`] with an explicit stack of binder names for the levels already
/// crossed; `names.len()` is the current level.
fn quote_with(
    names: &mut Vec<Symbol>,
    value: &Value,
    fuel: &mut Fuel,
    mode: QuoteNames,
) -> Result<Term, QuoteError<ReduceError>> {
    if !fuel.tick() {
        return Err(QuoteError::Reduce(ReduceError::OutOfFuel));
    }
    match value {
        Value::Sort(u) => Ok(Term::Sort(*u)),
        Value::BoolTy => Ok(Term::BoolTy),
        Value::Bool(b) => Ok(Term::BoolLit(*b)),
        Value::Lam { domain, body, .. } => {
            let domain = quote_with(names, domain, fuel, mode)?;
            let (binder, body) = body.quote(names, fuel, mode)?;
            Ok(Term::Lam { binder, domain: domain.rc(), body: body.rc() })
        }
        Value::Pi { domain, codomain, .. } => {
            let domain = quote_with(names, domain, fuel, mode)?;
            let (binder, codomain) = codomain.quote(names, fuel, mode)?;
            Ok(Term::Pi { binder, domain: domain.rc(), codomain: codomain.rc() })
        }
        Value::Sigma { first, second, .. } => {
            let first = quote_with(names, first, fuel, mode)?;
            let (binder, second) = second.quote(names, fuel, mode)?;
            Ok(Term::Sigma { binder, first: first.rc(), second: second.rc() })
        }
        Value::Pair { first, second, annotation } => Ok(Term::Pair {
            first: quote_with(names, first, fuel, mode)?.rc(),
            second: quote_with(names, second, fuel, mode)?.rc(),
            annotation: quote_with(names, annotation, fuel, mode)?.rc(),
        }),
        Value::Stuck { head, spine } => {
            let mut out = match head {
                Head::Global(x) => Term::Var(mode.free_var(names, *x)?),
                Head::Local(level) => Term::Var(names[*level]),
                Head::Blocked(v) => quote_with(names, v, fuel, mode)?,
            };
            for elim in spine {
                out = match elim {
                    Elim::App(arg) => {
                        Term::App { func: out.rc(), arg: quote_with(names, arg, fuel, mode)?.rc() }
                    }
                    Elim::Fst => Term::Fst(out.rc()),
                    Elim::Snd => Term::Snd(out.rc()),
                    Elim::If { then_branch, else_branch } => {
                        let then_value = then_branch.force(fuel)?;
                        let else_value = else_branch.force(fuel)?;
                        Term::If {
                            scrutinee: out.rc(),
                            then_branch: quote_with(names, &then_value, fuel, mode)?.rc(),
                            else_branch: quote_with(names, &else_value, fuel, mode)?.rc(),
                        }
                    }
                };
            }
            Ok(out)
        }
    }
}

/// Decides `Γ ⊢ e1 ≡ e2` directly on values, at binder level `level`.
///
/// Implements the η rules `[≡-η1]`/`[≡-η2]` by applying both sides to the
/// same fresh level — no fresh symbols, no substitution. A `false` answer
/// is definitive (the step-based specification agrees, see the property
/// suites); errors mean the comparison could not be decided within `fuel`.
///
/// # Errors
///
/// Returns [`ReduceError::OutOfFuel`] when `fuel` is exhausted.
pub fn conv(
    level: usize,
    left: &Value,
    right: &Value,
    fuel: &mut Fuel,
) -> Result<bool, ReduceError> {
    if !fuel.tick() {
        return Err(ReduceError::OutOfFuel);
    }
    match (left, right) {
        (Value::Lam { domain: d1, body: b1, .. }, Value::Lam { domain: d2, body: b2, .. }) => {
            Ok(conv(level, d1, d2, fuel)? && b1.conv(level, b2, fuel)?)
        }
        // η: exactly one side is a function; compare its body against the
        // other side applied to the same fresh variable.
        (Value::Lam { body, .. }, other) | (other, Value::Lam { body, .. }) => {
            let fresh = Value::local(level);
            let applied_lam = body.apply(fresh.clone(), fuel)?;
            let applied_other = apply_value(other, fresh, fuel)?;
            conv(level + 1, &applied_lam, &applied_other, fuel)
        }
        (
            Value::Pi { domain: d1, codomain: c1, .. },
            Value::Pi { domain: d2, codomain: c2, .. },
        ) => Ok(conv(level, d1, d2, fuel)? && c1.conv(level, c2, fuel)?),
        (
            Value::Sigma { first: f1, second: s1, .. },
            Value::Sigma { first: f2, second: s2, .. },
        ) => Ok(conv(level, f1, f2, fuel)? && s1.conv(level, s2, fuel)?),
        (Value::Sort(u), Value::Sort(v)) => Ok(u == v),
        (Value::BoolTy, Value::BoolTy) => Ok(true),
        (Value::Bool(a), Value::Bool(b)) => Ok(a == b),
        // Pairs compare componentwise; the annotation is a typing artifact.
        (Value::Pair { first: f1, second: s1, .. }, Value::Pair { first: f2, second: s2, .. }) => {
            Ok(conv(level, f1, f2, fuel)? && conv(level, s1, s2, fuel)?)
        }
        (Value::Stuck { head: h1, spine: s1 }, Value::Stuck { head: h2, spine: s2 }) => {
            conv_stuck(level, (h1, s1), (h2, s2), fuel)
        }
        _ => Ok(false),
    }
}

/// [`apply`] on a borrowed value (used by the η rule, where the
/// non-function side may be any value).
fn apply_value(func: &Value, arg: RcValue, fuel: &mut Fuel) -> Result<RcValue, ReduceError> {
    match func {
        Value::Lam { body, .. } => body.apply(arg, fuel),
        Value::Stuck { head, spine } => {
            let mut spine = spine.clone();
            spine.push(Elim::App(arg));
            Ok(Rc::new(Value::Stuck { head: head.clone(), spine }))
        }
        other => Ok(Rc::new(Value::Stuck {
            head: Head::Blocked(Rc::new(other.clone())),
            spine: vec![Elim::App(arg)],
        })),
    }
}

/// Weak-head normalization through the NbE engine. This is the entry
/// point the type checker uses to expose head constructors (`Π`, `Σ`,
/// sorts, …).
///
/// A term whose head is already canonical (or a neutral variable) is
/// returned unchanged — the dominant case on the type-checking path, where
/// inferred types are usually literal `Π`/`Σ`/sorts. Otherwise the term is
/// evaluated and read back, which yields a complete normal form (in
/// particular weak-head normal).
///
/// # Errors
///
/// Returns [`ReduceError::OutOfFuel`] when `fuel` is exhausted.
pub fn whnf_nbe(env: &Env, term: &Term, fuel: &mut Fuel) -> Result<Term, ReduceError> {
    match term {
        Term::Sort(_)
        | Term::BoolTy
        | Term::BoolLit(_)
        | Term::Pi { .. }
        | Term::Lam { .. }
        | Term::Sigma { .. }
        | Term::Pair { .. } => Ok(term.clone()),
        Term::Var(x) if env.lookup_definition(*x).is_none() => Ok(term.clone()),
        _ => normalize_nbe(env, term, fuel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::subst::alpha_eq;

    fn nf(t: &Term) -> Term {
        normalize_nbe_default(&Env::new(), t)
    }

    #[test]
    fn beta_zeta_projections_if() {
        assert!(alpha_eq(&nf(&app(lam("x", bool_ty(), var("x")), tt())), &tt()));
        assert!(alpha_eq(&nf(&let_("x", bool_ty(), tt(), ite(var("x"), ff(), tt()))), &ff()));
        let p = pair(tt(), ff(), sigma("x", bool_ty(), bool_ty()));
        assert!(alpha_eq(&nf(&fst(p.clone())), &tt()));
        assert!(alpha_eq(&nf(&snd(p)), &ff()));
        assert!(alpha_eq(&nf(&ite(tt(), ff(), tt())), &ff()));
    }

    #[test]
    fn normalizes_under_binders() {
        let t = lam("y", bool_ty(), app(lam("x", bool_ty(), var("x")), var("y")));
        assert!(alpha_eq(&nf(&t), &lam("y", bool_ty(), var("y"))));
    }

    #[test]
    fn delta_definitions_unfold_lazily() {
        let env = Env::new().with_definition(Symbol::intern("b"), tt(), bool_ty());
        let mut fuel = Fuel::default();
        let result = normalize_nbe(&env, &ite(var("b"), ff(), tt()), &mut fuel).unwrap();
        assert!(alpha_eq(&result, &ff()));
    }

    #[test]
    fn capture_is_avoided_through_environments() {
        // (λ y : Bool. x)[y/x] via an application: λ-binder must not
        // capture the free y.
        let env = Env::new().with_assumption(Symbol::intern("y"), bool_ty());
        let t = app(lam("x", bool_ty(), lam("y", bool_ty(), var("x"))), var("y"));
        let mut fuel = Fuel::default();
        let result = normalize_nbe(&env, &t, &mut fuel).unwrap();
        match &result {
            Term::Lam { binder, body, .. } => {
                assert_ne!(*binder, Symbol::intern("y"));
                assert!(alpha_eq(body, &var("y")));
            }
            other => panic!("expected lambda, got {other}"),
        }
    }

    #[test]
    fn conv_implements_function_eta() {
        let env = Env::new();
        let mut fuel = Fuel::default();
        let expanded = lam("x", bool_ty(), app(var("f"), var("x")));
        assert!(conv_terms(&env, &expanded, &var("f"), &mut fuel).unwrap());
        assert!(conv_terms(&env, &var("f"), &expanded, &mut fuel).unwrap());
        assert!(!conv_terms(&env, &expanded, &var("g"), &mut fuel).unwrap());
    }

    #[test]
    fn divergence_is_reported_not_overflowed() {
        let omega_half = lam("x", bool_ty(), app(var("x"), var("x")));
        let omega = app(omega_half.clone(), omega_half);
        let mut fuel = Fuel::default();
        assert!(matches!(
            normalize_nbe(&Env::new(), &omega, &mut fuel),
            Err(ReduceError::OutOfFuel)
        ));
    }

    #[test]
    fn free_canonical_readback_names_are_not_captured() {
        // Extract the canonical level-0 binder introduced by read-back …
        let canonical = match nf(&lam("x", bool_ty(), var("x"))) {
            Term::Lam { binder, .. } => binder,
            other => panic!("expected lambda, got {other}"),
        };
        // … and feed it back in *free* under a fresh binder. Quoting must
        // not capture it (the canonical-name conflict triggers the
        // freshening fallback).
        let tricky = lam("y", bool_ty(), app(var_sym(canonical), var("y")));
        let result = nf(&tricky);
        assert!(alpha_eq(&result, &tricky), "free `{canonical}` was captured in {result}");
    }

    #[test]
    fn stuck_spines_quote_back() {
        let env = Env::new();
        let mut fuel = Fuel::default();
        let t = ite(app(var("f"), tt()), fst(var("p")), snd(var("p")));
        let result = normalize_nbe(&env, &t, &mut fuel).unwrap();
        assert!(alpha_eq(&result, &t));
    }

    #[test]
    fn fallback_retry_is_not_double_charged_near_the_fuel_boundary() {
        // Extract the canonical level-0 read-back name …
        let canonical = match nf(&lam("x", bool_ty(), var("x"))) {
            Term::Lam { binder, .. } => binder,
            other => panic!("expected lambda, got {other}"),
        };
        // … and build a capture-conflict term: the free occurrence of the
        // canonical name under a binder forces quote's freshening retry.
        let tricky = lam("y", bool_ty(), app(var_sym(canonical), var("y")));
        // Budget calibration: an α-variant with a plain free variable has
        // the identical tick structure (same evaluation, same read-back
        // traversal) but never conflicts, so its cost is exactly what one
        // *single* quote pass of `tricky` needs.
        let plain = lam("y", bool_ty(), app(var("plain_free"), var("y")));
        let mut calibration = Fuel::default();
        let _ = normalize_nbe(&Env::new(), &plain, &mut calibration).unwrap();
        let budget = calibration.used();
        // On exactly that budget the conflict case must still succeed:
        // the abandoned canonical attempt's ticks are refunded, so only
        // one full pass is ever charged. (Double-charging the retry —
        // the old behaviour — needs strictly more than `budget` and
        // spuriously reported OutOfFuel here.)
        let mut exact = Fuel::new(budget);
        let result = normalize_nbe(&Env::new(), &tricky, &mut exact)
            .expect("the freshening retry must run on a fresh sub-budget");
        assert!(alpha_eq(&result, &tricky));
        assert!(exact.is_exhausted(), "the budget was chosen to be exactly boundary-tight");
    }
}
