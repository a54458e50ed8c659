//! Normalization by evaluation (NbE) for CC-CC.
//!
//! The algorithmic counterpart of the step relation in [`crate::reduce`]
//! (Figure 6): an environment machine that evaluates terms into a semantic
//! domain ([`Value`]) where code bodies are [`CodeClosure`]s carrying their
//! evaluation environment, definitions unfold lazily through [`Thunk`]s
//! (δ, at most once per environment), and closure application
//! `⟪λ (n : A', x : A). e, e'⟫ e''` extends the machine environment with
//! `n ↦ e'` and `x ↦ e''` instead of substituting. Normal forms are
//! recovered by read-back ([`quote`]); definitional equivalence — including
//! the paper's **closure-η** rule `[≡-Clo-η1/2]` — is decided directly on
//! values ([`conv`]) by applying both sides to the same fresh de Bruijn
//! level, with no fresh symbols and no substitution.
//!
//! # Paper correspondence
//!
//! | Paper (Figure 6) | Here |
//! |---|---|
//! | `Γ ⊢ e ⊲* v` (reduction to a value) | [`eval`] into [`Value`] |
//! | closure application `⟪λ (n, x). e, e'⟫ e''` | [`Value::Clo`] + environment extension in `apply` |
//! | normal form of `e` | [`quote`] ∘ [`eval`] = [`normalize_nbe`] |
//! | `Γ ⊢ e ≡ e'` with closure-η | [`conv`] / [`conv_terms`] |
//! | δ (unfold `x = e : A ∈ Γ`) | [`ValEnv::from_env`] + lazy [`Thunk`] |
//!
//! The step engine stays as the paper-faithful specification; the property
//! suites differentially test [`normalize_nbe`] against
//! [`crate::reduce::normalize`] and [`conv_terms`] against
//! [`crate::equiv::equiv_spec`].
//!
//! The language-independent half — [`Thunk`], [`ValEnv`], [`Closure`],
//! the [`Head`]/[`Elim`] spines, canonical-name read-back and the entry
//! points — is [`cccc_util::nbe`], shared with CC. CC-CC's [`Value`], its
//! two-binder [`CodeClosure`], evaluation, read-back, [`conv`] with
//! closure-η and [`whnf_nbe`] stay here, plugged in through [`Calculus`]
//! with CC-CC's own canonical names.

use crate::ast::{RcTerm, Term, Universe};
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

/// A suspended term over one binder (Π, Σ, and a code's argument type
/// over its environment binder).
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

/// The semantic domain of CC-CC values.
#[derive(Clone, Debug)]
pub enum Value {
    /// A universe `⋆` or `□`.
    Sort(Universe),
    /// The unit type `1`.
    Unit,
    /// The unit value `⟨⟩`.
    UnitVal,
    /// The ground type `Bool`.
    BoolTy,
    /// A boolean literal.
    Bool(bool),
    /// Closed code `λ (n : A', x : A). e`.
    Code {
        /// The environment binder's original name (read-back only).
        env_binder: Symbol,
        /// The argument binder's original name (read-back only).
        arg_binder: Symbol,
        /// The evaluated environment type.
        env_ty: RcValue,
        /// The argument type, suspended over the environment binder.
        arg_ty: Closure,
        /// The body, suspended over both binders.
        body: CodeClosure,
    },
    /// The type of code, `Code (n : A', x : A). B`.
    CodeTy {
        /// The environment binder's original name (read-back only).
        env_binder: Symbol,
        /// The argument binder's original name (read-back only).
        arg_binder: Symbol,
        /// The evaluated environment type.
        env_ty: RcValue,
        /// The argument type, suspended over the environment binder.
        arg_ty: Closure,
        /// The result type, suspended over both binders.
        result: CodeClosure,
    },
    /// A closure `⟪e, e'⟫` pairing (evaluated) code with its environment.
    Clo {
        /// The code component.
        code: RcValue,
        /// The environment component.
        env: RcValue,
    },
    /// The closure type `Π x : A. B`.
    Pi {
        /// The binder's original name (read-back only).
        binder: Symbol,
        /// The evaluated domain.
        domain: RcValue,
        /// The suspended codomain.
        codomain: Closure,
    },
    /// A strong dependent pair type `Σ x : A. B`.
    Sigma {
        /// The binder's original name (read-back only).
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
        /// The evaluated Σ annotation (ignored by [`conv`], quoted back).
        annotation: RcValue,
    },
    /// A neutral/stuck term: a blocked head under pending eliminations.
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

    /// A fresh variable at de Bruijn level `level`.
    pub fn local(level: usize) -> RcValue {
        Value::stuck(Head::Local(level))
    }
}

/// A suspended code body (or code-type result) over the environment binder
/// and the argument binder. When the two binders share a name the argument
/// binding shadows the environment binding, exactly as the paper's
/// simultaneous substitution `e[e'/n][e''/x]` resolves it.
#[derive(Clone, Debug)]
pub struct CodeClosure {
    env: ValEnv,
    env_binder: Symbol,
    arg_binder: Symbol,
    body: RcTerm,
}

impl CodeClosure {
    /// Applies the code body to an environment value and an argument value.
    ///
    /// # Errors
    ///
    /// See [`eval`].
    pub fn apply(
        &self,
        environment: RcValue,
        argument: RcValue,
        fuel: &mut Fuel,
    ) -> Result<RcValue, ReduceError> {
        let env = self
            .env
            .bind(self.env_binder, Thunk::forced(environment))
            .bind(self.arg_binder, Thunk::forced(argument));
        eval_at(&env, &self.body, fuel, 0)
    }
}

thread_local! {
    /// CC-CC's canonical read-back names ([`Calculus::readback_names`]).
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
        Term::Unit => Ok(Rc::new(Value::Unit)),
        Term::UnitVal => Ok(Rc::new(Value::UnitVal)),
        Term::BoolTy => Ok(Rc::new(Value::BoolTy)),
        Term::BoolLit(b) => Ok(Rc::new(Value::Bool(*b))),
        Term::Pi { binder, domain, codomain } => Ok(Rc::new(Value::Pi {
            binder: *binder,
            domain: eval_at(env, domain, fuel, depth)?,
            codomain: Closure::new(env.clone(), *binder, codomain.clone()),
        })),
        Term::Sigma { binder, first, second } => Ok(Rc::new(Value::Sigma {
            binder: *binder,
            first: eval_at(env, first, fuel, depth)?,
            second: Closure::new(env.clone(), *binder, second.clone()),
        })),
        Term::Code { env_binder, env_ty, arg_binder, arg_ty, body } => Ok(Rc::new(Value::Code {
            env_binder: *env_binder,
            arg_binder: *arg_binder,
            env_ty: eval_at(env, env_ty, fuel, depth)?,
            arg_ty: Closure::new(env.clone(), *env_binder, arg_ty.clone()),
            body: CodeClosure {
                env: env.clone(),
                env_binder: *env_binder,
                arg_binder: *arg_binder,
                body: body.clone(),
            },
        })),
        Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => {
            Ok(Rc::new(Value::CodeTy {
                env_binder: *env_binder,
                arg_binder: *arg_binder,
                env_ty: eval_at(env, env_ty, fuel, depth)?,
                arg_ty: Closure::new(env.clone(), *env_binder, arg_ty.clone()),
                result: CodeClosure {
                    env: env.clone(),
                    env_binder: *env_binder,
                    arg_binder: *arg_binder,
                    body: result.clone(),
                },
            }))
        }
        Term::Closure { code, env: closure_env } => Ok(Rc::new(Value::Clo {
            code: eval_at(env, code, fuel, depth)?,
            env: eval_at(env, closure_env, fuel, depth)?,
        })),
        Term::App { func, arg } => {
            let func = eval_at(env, func, fuel, depth)?;
            let arg = eval_at(env, arg, fuel, depth)?;
            apply(func, arg, fuel, depth)
        }
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

/// Applies `func` to `arg`: the closure-application rule when `func` is a
/// closure over literal code, an error for bare code, spine extension
/// otherwise (including closures over neutral code, which are stuck).
fn apply(func: RcValue, arg: RcValue, fuel: &mut Fuel, depth: u32) -> Result<RcValue, ReduceError> {
    // Decide what to do while borrowing `func`, then either run the body
    // (one new β-frame against [`MAX_EVAL_DEPTH`]) or extend the spine
    // with ownership of `func`.
    let beta = match &*func {
        Value::Clo { code, env } => match &**code {
            Value::Code { body, .. } => {
                let inner = body
                    .env
                    .bind(body.env_binder, Thunk::forced(env.clone()))
                    .bind(body.arg_binder, Thunk::forced(arg.clone()));
                Some((inner, body.body.clone()))
            }
            _ => None,
        },
        Value::Code { .. } => return Err(ReduceError::BareCodeApplication),
        _ => None,
    };
    match beta {
        Some((inner, body)) => eval_at(&inner, &body, fuel, depth + 1),
        None => Ok(extend(func, Elim::App(arg))),
    }
}

/// Projects a component out of `value`.
fn project(value: RcValue, first: bool) -> RcValue {
    if let Value::Pair { first: a, second: b, .. } = &*value {
        return if first { a.clone() } else { b.clone() };
    }
    extend(value, if first { Elim::Fst } else { Elim::Snd })
}

/// Pushes an elimination onto a stuck value's spine, wrapping non-spine
/// values in a [`Head::Blocked`]. When the value is uniquely owned the
/// spine is reused in place, so building a neutral spine of n
/// eliminations stays linear.
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
        Value::Unit => Ok(Term::Unit),
        Value::UnitVal => Ok(Term::UnitVal),
        Value::BoolTy => Ok(Term::BoolTy),
        Value::Bool(b) => Ok(Term::BoolLit(*b)),
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
        Value::Code { env_binder, arg_binder, env_ty, arg_ty, body } => {
            let (env_binder, arg_binder, env_ty, arg_ty, body) =
                quote_code(names, *env_binder, *arg_binder, env_ty, arg_ty, body, fuel, mode)?;
            Ok(Term::Code {
                env_binder,
                env_ty: env_ty.rc(),
                arg_binder,
                arg_ty: arg_ty.rc(),
                body: body.rc(),
            })
        }
        Value::CodeTy { env_binder, arg_binder, env_ty, arg_ty, result } => {
            let (env_binder, arg_binder, env_ty, arg_ty, result) =
                quote_code(names, *env_binder, *arg_binder, env_ty, arg_ty, result, fuel, mode)?;
            Ok(Term::CodeTy {
                env_binder,
                env_ty: env_ty.rc(),
                arg_binder,
                arg_ty: arg_ty.rc(),
                result: result.rc(),
            })
        }
        Value::Clo { code, env } => Ok(Term::Closure {
            code: quote_with(names, code, fuel, mode)?.rc(),
            env: quote_with(names, env, fuel, mode)?.rc(),
        }),
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

/// Crosses the two binders of code (or a code type) during read-back.
#[allow(clippy::type_complexity, clippy::too_many_arguments)]
fn quote_code(
    names: &mut Vec<Symbol>,
    env_binder: Symbol,
    arg_binder: Symbol,
    env_ty: &RcValue,
    arg_ty: &Closure,
    body: &CodeClosure,
    fuel: &mut Fuel,
    mode: QuoteNames,
) -> Result<(Symbol, Symbol, Term, Term, Term), QuoteError<ReduceError>> {
    let env_ty = quote_with(names, env_ty, fuel, mode)?;
    let name_env = mode.binder_name::<Term>(names.len(), env_binder);
    let name_arg = mode.binder_name::<Term>(names.len() + 1, arg_binder);
    let arg_ty_value = arg_ty.apply(Value::local(names.len()), fuel)?;
    names.push(name_env);
    let arg_ty_term = quote_with(names, &arg_ty_value, fuel, mode);
    names.pop();
    let body_value = body.apply(Value::local(names.len()), Value::local(names.len() + 1), fuel)?;
    names.push(name_env);
    names.push(name_arg);
    let body_term = quote_with(names, &body_value, fuel, mode);
    names.pop();
    names.pop();
    Ok((name_env, name_arg, env_ty, arg_ty_term?, body_term?))
}

/// Returns the body/environment of a closure over literal code, if `value`
/// is one — the shape the closure-η rule applies to.
fn as_eta_closure(value: &Value) -> Option<(&CodeClosure, &RcValue)> {
    if let Value::Clo { code, env } = value {
        if let Value::Code { body, .. } = &**code {
            return Some((body, env));
        }
    }
    None
}

/// Decides `Γ ⊢ e1 ≡ e2` directly on values, at binder level `level`,
/// including the closure-η rule `[≡-Clo-η1/2]`: a closure over literal
/// code is identified with anything that behaves the same under
/// application to a shared fresh variable.
///
/// # Errors
///
/// See [`eval`].
pub fn conv(
    level: usize,
    left: &Value,
    right: &Value,
    fuel: &mut Fuel,
) -> Result<bool, ReduceError> {
    if !fuel.tick() {
        return Err(ReduceError::OutOfFuel);
    }
    // Closure-η first: either side a closure over literal code.
    let left_clo = as_eta_closure(left);
    let right_clo = as_eta_closure(right);
    match (left_clo, right_clo) {
        (Some((b1, e1)), Some((b2, e2))) => {
            let fresh = Value::local(level);
            let a = b1.apply(e1.clone(), fresh.clone(), fuel)?;
            let b = b2.apply(e2.clone(), fresh, fuel)?;
            return conv(level + 1, &a, &b, fuel);
        }
        (Some((body, clo_env)), None) => {
            return eta_expand_conv(level, body, clo_env, right, fuel);
        }
        (None, Some((body, clo_env))) => {
            return eta_expand_conv(level, body, clo_env, left, fuel);
        }
        (None, None) => {}
    }

    match (left, right) {
        (Value::Sort(u), Value::Sort(v)) => Ok(u == v),
        (Value::Unit, Value::Unit)
        | (Value::UnitVal, Value::UnitVal)
        | (Value::BoolTy, Value::BoolTy) => Ok(true),
        (Value::Bool(a), Value::Bool(b)) => Ok(a == b),
        (
            Value::Pi { domain: d1, codomain: c1, .. },
            Value::Pi { domain: d2, codomain: c2, .. },
        ) => Ok(conv(level, d1, d2, fuel)? && c1.conv(level, c2, fuel)?),
        (
            Value::Sigma { first: f1, second: s1, .. },
            Value::Sigma { first: f2, second: s2, .. },
        ) => Ok(conv(level, f1, f2, fuel)? && s1.conv(level, s2, fuel)?),
        (
            Value::Code { env_ty: e1, arg_ty: a1, body: b1, .. },
            Value::Code { env_ty: e2, arg_ty: a2, body: b2, .. },
        )
        | (
            Value::CodeTy { env_ty: e1, arg_ty: a1, result: b1, .. },
            Value::CodeTy { env_ty: e2, arg_ty: a2, result: b2, .. },
        ) => {
            // Mixed Code/CodeTy pairs cannot reach here — the alternatives
            // pair like with like — and fall to the catch-all `false` arm.
            if !conv(level, e1, e2, fuel)? || !a1.conv(level, a2, fuel)? {
                return Ok(false);
            }
            let env_fresh = Value::local(level);
            let arg_fresh = Value::local(level + 1);
            let v1 = b1.apply(env_fresh.clone(), arg_fresh.clone(), fuel)?;
            let v2 = b2.apply(env_fresh, arg_fresh, fuel)?;
            conv(level + 2, &v1, &v2, fuel)
        }
        // Closures over neutral code compare structurally.
        (Value::Clo { code: c1, env: e1 }, Value::Clo { code: c2, env: e2 }) => {
            Ok(conv(level, c1, c2, fuel)? && conv(level, e1, e2, fuel)?)
        }
        (Value::Pair { first: f1, second: s1, .. }, Value::Pair { first: f2, second: s2, .. }) => {
            Ok(conv(level, f1, f2, fuel)? && conv(level, s1, s2, fuel)?)
        }
        (Value::Stuck { head: h1, spine: s1 }, Value::Stuck { head: h2, spine: s2 }) => {
            conv_stuck(level, (h1, s1), (h2, s2), fuel)
        }
        _ => Ok(false),
    }
}

/// The closure-η comparison: the code body with the closure's environment
/// and a fresh argument, against `other` applied to that same fresh
/// argument. Bare code is never equivalent to a closure (applying it is a
/// [`ReduceError::BareCodeApplication`]), so that case decides `false`.
fn eta_expand_conv(
    level: usize,
    body: &CodeClosure,
    closure_env: &RcValue,
    other: &Value,
    fuel: &mut Fuel,
) -> Result<bool, ReduceError> {
    if matches!(other, Value::Code { .. }) {
        return Ok(false);
    }
    let fresh = Value::local(level);
    let applied_closure = body.apply(closure_env.clone(), fresh.clone(), fuel)?;
    let applied_other = apply_value(other, fresh)?;
    conv(level + 1, &applied_closure, &applied_other, fuel)
}

/// Applies a borrowed value (used by closure-η, where the other side may
/// be any value).
fn apply_value(func: &Value, arg: RcValue) -> Result<RcValue, ReduceError> {
    match func {
        Value::Clo { code, .. } if matches!(&**code, Value::Code { .. }) => {
            unreachable!("literal-code closures are handled by closure-η before application")
        }
        Value::Code { .. } => Err(ReduceError::BareCodeApplication),
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

/// Weak-head normalization through the NbE engine; the type checker uses
/// this to expose head constructors (`Π`, `Σ`, `Code`, sorts, …).
///
/// A term whose head is already canonical (or a neutral variable) is
/// returned unchanged — the dominant case on the type-checking path, where
/// inferred types are usually literal `Π`/`Σ`/`Code` types. Otherwise the
/// term is evaluated and read back, which yields a complete normal form
/// (in particular weak-head normal).
///
/// # Errors
///
/// See [`eval`].
pub fn whnf_nbe(env: &Env, term: &Term, fuel: &mut Fuel) -> Result<Term, ReduceError> {
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
        | Term::Closure { .. }
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

    fn identity_closure() -> Term {
        closure(code("n", unit_ty(), "x", bool_ty(), var("x")), unit_val())
    }

    #[test]
    fn closure_application_and_environment_unpacking() {
        assert!(alpha_eq(&nf(&app(identity_closure(), tt())), &tt()));
        let clo = closure(code("n", bool_ty(), "x", unit_ty(), var("n")), tt());
        assert!(alpha_eq(&nf(&app(clo, unit_val())), &tt()));
    }

    #[test]
    fn environment_capture_is_avoided() {
        let clo =
            closure(code("n", bool_ty(), "x", bool_ty(), ite(var("n"), var("x"), ff())), var("x"));
        let value = nf(&app(clo, tt()));
        assert!(alpha_eq(&value, &ite(var("x"), tt(), ff())));
    }

    #[test]
    fn shadowed_code_binders_bind_the_argument() {
        // λ (n : Bool, n : Bool). n — the body's n is the argument.
        let clo = closure(code("n", bool_ty(), "n", bool_ty(), var("n")), ff());
        assert!(alpha_eq(&nf(&app(clo, tt())), &tt()));
    }

    #[test]
    fn bare_code_application_is_reported() {
        let bare = app(code("n", unit_ty(), "x", bool_ty(), var("x")), tt());
        let mut fuel = Fuel::default();
        assert_eq!(
            normalize_nbe(&Env::new(), &bare, &mut fuel).unwrap_err(),
            ReduceError::BareCodeApplication
        );
    }

    #[test]
    fn closure_eta_identifies_environment_shapes() {
        let env_ty = product(bool_ty(), unit_ty());
        let captured = closure(
            code("n", env_ty.clone(), "x", unit_ty(), fst(var("n"))),
            pair(tt(), unit_val(), env_ty),
        );
        let inlined = closure(code("n", unit_ty(), "x", unit_ty(), tt()), unit_val());
        let mut fuel = Fuel::default();
        assert!(conv_terms(&Env::new(), &captured, &inlined, &mut fuel).unwrap());
        let different = closure(code("n", unit_ty(), "x", unit_ty(), ff()), unit_val());
        assert!(!conv_terms(&Env::new(), &captured, &different, &mut fuel).unwrap());
    }

    #[test]
    fn closure_eta_against_neutral_terms() {
        let env = Env::new()
            .with_assumption(cccc_util::Symbol::intern("f"), pi("x", bool_ty(), bool_ty()));
        let wrapper =
            closure(code("n", unit_ty(), "x", bool_ty(), app(var("f"), var("x"))), unit_val());
        let mut fuel = Fuel::default();
        assert!(conv_terms(&env, &wrapper, &var("f"), &mut fuel).unwrap());
        assert!(conv_terms(&env, &var("f"), &wrapper, &mut fuel).unwrap());
        assert!(!conv_terms(&env, &wrapper, &var("g"), &mut fuel).unwrap());
    }

    #[test]
    fn divergence_is_reported_not_overflowed() {
        let omega_half = closure(
            code("n", unit_ty(), "x", pi("b", bool_ty(), bool_ty()), app(var("x"), var("x"))),
            unit_val(),
        );
        let omega = app(omega_half.clone(), omega_half);
        let mut fuel = Fuel::default();
        assert!(matches!(
            normalize_nbe(&Env::new(), &omega, &mut fuel),
            Err(ReduceError::OutOfFuel)
        ));
    }

    #[test]
    fn delta_definitions_unfold_lazily() {
        let env = Env::new().with_definition(cccc_util::Symbol::intern("b"), tt(), bool_ty());
        let mut fuel = Fuel::default();
        let result = normalize_nbe(&env, &ite(var("b"), ff(), tt()), &mut fuel).unwrap();
        assert!(alpha_eq(&result, &ff()));
    }

    #[test]
    fn free_canonical_readback_names_are_not_captured() {
        // Extract the canonical names of levels 0 and 1 from a read-back
        // code block: its environment and argument binders …
        let (level0, level1) = match nf(&code("n", unit_ty(), "x", bool_ty(), var("x"))) {
            Term::Code { env_binder, arg_binder, .. } => (env_binder, arg_binder),
            other => panic!("expected code, got {other}"),
        };
        // … and feed each back in *free* under binders at those levels.
        // Quoting must not capture them (the canonical-name conflict
        // triggers the freshening fallback), under Π's one binder …
        let tricky = pi("y", bool_ty(), app(var_sym(level0), var("y")));
        let result = nf(&tricky);
        assert!(alpha_eq(&result, &tricky), "free `{level0}` was captured in {result}");
        // … and under code's two.
        let tricky = code("m", unit_ty(), "y", bool_ty(), app(var_sym(level1), var("y")));
        let result = nf(&tricky);
        assert!(alpha_eq(&result, &tricky), "free `{level1}` was captured in {result}");
    }

    #[test]
    fn fallback_retry_is_not_double_charged_near_the_fuel_boundary() {
        // Extract the canonical level-0 read-back name from a Π quote …
        let canonical = match nf(&pi("x", bool_ty(), var("x"))) {
            Term::Pi { binder, .. } => binder,
            other => panic!("expected Pi, got {other}"),
        };
        // … and build a capture-conflict term: the free occurrence of the
        // canonical name under a binder forces quote's freshening retry.
        let tricky = pi("y", bool_ty(), app(var_sym(canonical), var("y")));
        // Budget calibration: an α-variant with a plain free variable has
        // the identical tick structure (same evaluation, same read-back
        // traversal) but never conflicts, so its cost is exactly what one
        // *single* quote pass of `tricky` needs.
        let plain = pi("y", bool_ty(), app(var("plain_free"), var("y")));
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
