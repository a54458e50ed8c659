//! The language-independent half of normalization by evaluation (NbE) and
//! of the conversion checker, defined once for CC and CC-CC.
//!
//! Both type checkers decide `Γ ⊢ e ≡ e'` with one environment machine:
//! binders evaluate to [`Closure`]s, definitions unfold lazily through
//! [`Thunk`]s, [`quote`] reads values back with canonical binder names,
//! and [`equiv_nodes`] tries identity, the memo and α-equivalence before
//! the engine. All of it is generic over a [`Calculus`], which each
//! language implements on its `Term` with what follows its grammar and
//! with its own thread-local tables; each language's `nbe` and `equiv`
//! modules re-export it, monomorphized.

use crate::env::{Decl, Env};
use crate::fuel::Fuel;
use crate::intern::{ConvCache, Node, ThreadInterned};
use crate::symbol::Symbol;
use std::cell::{OnceCell, RefCell};
use std::fmt::Debug;
use std::rc::Rc;
use std::thread::LocalKey;

/// Maximum depth of nested *β-application* frames (closure applications
/// in CC-CC), which each language's `eval_at` checks. A step engine loops,
/// so a divergent (necessarily ill-typed) term like Ω merely exhausts
/// fuel; the environment machine recurses through every application, so
/// it reports fuel exhaustion at this depth instead of overflowing the
/// stack. Structural descent does not count: the term's depth bounds it.
/// The bound fits the 2 MiB stack of Rust test threads even in debug
/// builds; the deepest workloads evaluate within a few hundred frames.
pub const MAX_EVAL_DEPTH: u32 = 512;

/// A calculus whose definitional equivalence this module decides: what
/// the shared machinery needs from the language's grammar.
pub trait Calculus: ThreadInterned {
    /// The semantic domain.
    type Value: Debug;
    /// Why evaluation stopped: fuel exhaustion, or a stuck ill-typed form.
    type Error: Debug;

    /// Evaluates `term` in `env`, `depth` β-frames deep; past
    /// [`MAX_EVAL_DEPTH`] it fails as fuel exhaustion does.
    fn eval_at(
        env: &ValEnv<Self>,
        term: &Self,
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<RcValue<Self>, Self::Error>;

    /// The neutral value `head`, with an empty spine.
    fn stuck(head: Head<Self>) -> RcValue<Self>;

    /// Reads `value` back under `names`, the binder names of the levels
    /// already crossed, naming new binders per `mode`.
    fn quote_with(
        names: &mut Vec<Symbol>,
        value: &Self::Value,
        fuel: &mut Fuel,
        mode: QuoteNames,
    ) -> Result<Self, QuoteError<Self::Error>>;

    /// Decides `Γ ⊢ e1 ≡ e2` on values at binder level `level`, with the
    /// language's η rule.
    fn conv(
        level: usize,
        left: &Self::Value,
        right: &Self::Value,
        fuel: &mut Fuel,
    ) -> Result<bool, Self::Error>;

    /// α-equivalence, the linear pre-check of [`equiv_nodes`].
    fn alpha_eq(left: &Self, right: &Self) -> bool;

    /// `Γ ⊢ e1 ≡ e2` by the substitution-based step engine, the
    /// paper-faithful specification.
    fn equiv_spec(
        env: &Env<Self>,
        e1: &Self,
        e2: &Self,
        fuel: &mut Fuel,
    ) -> Result<bool, Self::Error>;

    /// The language's conversion memo on each thread. A `thread_local!`
    /// in generic code would be one table for every language, and memo
    /// keys are node ids of one language's interner.
    fn conv_memo() -> &'static LocalKey<RefCell<ConvCache>>;

    /// The language's canonical read-back names on each thread, one per de
    /// Bruijn level. Per language, because CC read-back names reach CC-CC
    /// terms through the translation: one shared table would let them
    /// trip CC-CC's capture check and fall back to freshened names.
    fn readback_names() -> &'static LocalKey<RefCell<Vec<Symbol>>>;
}

/// A reference-counted semantic value of the calculus `L`.
pub type RcValue<L> = Rc<<L as Calculus>::Value>;

/// A lazily evaluated value: evaluated at most once (per environment), the
/// result cached behind a [`OnceCell`]. This is what makes δ-unfolding of
/// environment definitions cheap — each definition is evaluated the first
/// time it is looked up and shared from then on.
#[derive(Clone, Debug)]
pub struct Thunk<L: Calculus>(Rc<ThunkData<L>>);

#[derive(Debug)]
struct ThunkData<L: Calculus> {
    cell: OnceCell<RcValue<L>>,
    env: ValEnv<L>,
    /// `None` for already-forced thunks (the cell is pre-filled).
    term: Option<Node<L>>,
}

impl<L: Calculus> Thunk<L> {
    /// A thunk whose evaluation is suspended.
    pub fn suspended(env: ValEnv<L>, term: Node<L>) -> Thunk<L> {
        Thunk(Rc::new(ThunkData { cell: OnceCell::new(), env, term: Some(term) }))
    }

    /// A thunk holding an already-computed value.
    pub fn forced(value: RcValue<L>) -> Thunk<L> {
        let cell = OnceCell::new();
        let _ = cell.set(value);
        Thunk(Rc::new(ThunkData { cell, env: ValEnv::new(), term: None }))
    }

    /// Forces the thunk, evaluating its term on first use; a failed
    /// evaluation returns its error and caches nothing.
    pub fn force(&self, fuel: &mut Fuel) -> Result<RcValue<L>, L::Error> {
        if let Some(value) = self.0.cell.get() {
            return Ok(value.clone());
        }
        let term = self.0.term.as_ref().expect("suspended thunk carries its term");
        let value = L::eval_at(&self.0.env, term, fuel, 0)?;
        let _ = self.0.cell.set(value.clone());
        Ok(value)
    }
}

/// A persistent evaluation environment mapping variables to [`Thunk`]s:
/// extension is O(1) and shares the tail, so going under a binder never
/// copies it (unlike [`Env::with_assumption`], which clones its vector).
#[derive(Clone, Debug)]
pub struct ValEnv<L: Calculus>(Option<Rc<EnvNode<L>>>);

#[derive(Debug)]
struct EnvNode<L: Calculus> {
    name: Symbol,
    thunk: Thunk<L>,
    rest: ValEnv<L>,
}

impl<L: Calculus> Default for ValEnv<L> {
    fn default() -> ValEnv<L> {
        ValEnv(None)
    }
}

impl<L: Calculus> ValEnv<L> {
    /// The empty environment.
    pub fn new() -> ValEnv<L> {
        ValEnv(None)
    }

    /// Extends the environment with a binding, shadowing earlier entries
    /// of the same name.
    pub fn bind(&self, name: Symbol, thunk: Thunk<L>) -> ValEnv<L> {
        ValEnv(Some(Rc::new(EnvNode { name, thunk, rest: self.clone() })))
    }

    /// The most recent binding of `name`.
    pub fn lookup(&self, name: Symbol) -> Option<&Thunk<L>> {
        let mut node = self.0.as_deref();
        while let Some(n) = node {
            if n.name == name {
                return Some(&n.thunk);
            }
            node = n.rest.0.as_deref();
        }
        None
    }

    /// Builds the evaluation environment corresponding to a typing
    /// environment `Γ`: assumptions become neutral variables, definitions
    /// become lazy thunks over the environment prefix they were declared
    /// in (the δ rule, evaluated at most once per environment).
    pub fn from_env(env: &Env<L>) -> ValEnv<L> {
        let mut out = ValEnv::new();
        for decl in env.iter() {
            match decl {
                Decl::Assumption { name, .. } => {
                    out = out.bind(*name, Thunk::forced(L::stuck(Head::Global(*name))));
                }
                Decl::Definition { name, term, .. } => {
                    let thunk = Thunk::suspended(out.clone(), term.clone());
                    out = out.bind(*name, thunk);
                }
            }
        }
        out
    }
}

/// A suspended body over one binder: a term together with the environment
/// it was closed over, applied by extending that environment with the
/// argument.
#[derive(Clone, Debug)]
pub struct Closure<L: Calculus> {
    env: ValEnv<L>,
    binder: Symbol,
    body: Node<L>,
}

impl<L: Calculus> Closure<L> {
    /// `body` under `binder`, closed over `env`.
    pub fn new(env: ValEnv<L>, binder: Symbol, body: Node<L>) -> Closure<L> {
        Closure { env, binder, body }
    }

    /// Applies the closure to an argument value, failing as its body's
    /// evaluation does.
    pub fn apply(&self, argument: RcValue<L>, fuel: &mut Fuel) -> Result<RcValue<L>, L::Error> {
        self.apply_at(argument, fuel, 0)
    }

    /// [`Closure::apply`] `depth` β-frames deep: a β-step runs the body
    /// one frame deeper than the application.
    pub fn apply_at(
        &self,
        argument: RcValue<L>,
        fuel: &mut Fuel,
        depth: u32,
    ) -> Result<RcValue<L>, L::Error> {
        let env = self.env.bind(self.binder, Thunk::forced(argument));
        L::eval_at(&env, &self.body, fuel, depth)
    }

    /// Compares two closures by instantiating both at the same fresh
    /// level, failing when `fuel` cannot decide it.
    pub fn conv(&self, level: usize, other: &Self, fuel: &mut Fuel) -> Result<bool, L::Error> {
        let fresh = L::stuck(Head::Local(level));
        let a = self.apply(fresh.clone(), fuel)?;
        let b = other.apply(fresh, fuel)?;
        L::conv(level + 1, &a, &b, fuel)
    }

    /// Crosses the binder during read-back: instantiates the closure at the
    /// next level and quotes the result under the mode's binder name,
    /// failing as [`Calculus::quote_with`] does.
    pub fn quote(
        &self,
        names: &mut Vec<Symbol>,
        fuel: &mut Fuel,
        mode: QuoteNames,
    ) -> Result<(Symbol, L), QuoteError<L::Error>> {
        let name = mode.binder_name::<L>(names.len(), self.binder);
        let body = self.apply(L::stuck(Head::Local(names.len())), fuel)?;
        names.push(name);
        let body = L::quote_with(names, &body, fuel, mode);
        names.pop();
        Ok((name, body?))
    }
}

/// The head of a stuck value's spine.
#[derive(Clone, Debug)]
pub enum Head<L: Calculus> {
    /// A free variable with no definition in the environment.
    Global(Symbol),
    /// A variable introduced when crossing a binder, identified by its
    /// de Bruijn *level*: conversion generates no fresh symbols.
    Local(usize),
    /// A value its elimination does not apply to (`fst true`, or in CC-CC
    /// a closure over neutral code): the engine stays total on any input.
    Blocked(RcValue<L>),
}

/// One pending elimination in a stuck spine.
#[derive(Clone, Debug)]
pub enum Elim<L: Calculus> {
    /// Application to an evaluated argument.
    App(RcValue<L>),
    /// First projection.
    Fst,
    /// Second projection.
    Snd,
    /// A conditional blocked on its scrutinee; the branches stay
    /// suspended until read-back or comparison forces them.
    If {
        /// The `then` branch.
        then_branch: Thunk<L>,
        /// The `else` branch.
        else_branch: Thunk<L>,
    },
}

/// Compares two stuck values at binder level `level`: their heads, then
/// their spines elimination by elimination. Fails when `fuel` cannot
/// decide it.
pub fn conv_stuck<L: Calculus>(
    level: usize,
    (h1, s1): (&Head<L>, &[Elim<L>]),
    (h2, s2): (&Head<L>, &[Elim<L>]),
    fuel: &mut Fuel,
) -> Result<bool, L::Error> {
    let heads = match (h1, h2) {
        (Head::Global(x), Head::Global(y)) => x == y,
        (Head::Local(a), Head::Local(b)) => a == b,
        (Head::Blocked(a), Head::Blocked(b)) => L::conv(level, a, b, fuel)?,
        _ => false,
    };
    if !heads || s1.len() != s2.len() {
        return Ok(false);
    }
    for (e1, e2) in s1.iter().zip(s2) {
        let same = match (e1, e2) {
            (Elim::App(a), Elim::App(b)) => L::conv(level, a, b, fuel)?,
            (Elim::Fst, Elim::Fst) | (Elim::Snd, Elim::Snd) => true,
            (
                Elim::If { then_branch: t1, else_branch: f1 },
                Elim::If { then_branch: t2, else_branch: f2 },
            ) => {
                let (t1, t2) = (t1.force(fuel)?, t2.force(fuel)?);
                L::conv(level, &t1, &t2, fuel)? && {
                    let (f1, f2) = (f1.force(fuel)?, f2.force(fuel)?);
                    L::conv(level, &f1, &f2, fuel)?
                }
            }
            _ => false,
        };
        if !same {
            return Ok(false);
        }
    }
    Ok(true)
}

/// How read-back chooses binder names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuoteNames {
    /// The thread's canonical per-level names (stable, shareable output).
    Canonical,
    /// A fresh symbol per binder (the always-safe fallback).
    Freshen,
}

impl QuoteNames {
    /// The name of a binder of `L` crossed at `level`: the level's
    /// canonical name, or a fresh variant of the binder's own name.
    pub fn binder_name<L: Calculus>(self, level: usize, binder: Symbol) -> Symbol {
        match self {
            QuoteNames::Canonical => canonical_name::<L>(level),
            QuoteNames::Freshen => binder.freshen(),
        }
    }

    /// Reads back the free variable `name` under the binders `names`.
    ///
    /// # Errors
    ///
    /// [`QuoteError::CanonicalCaptured`] when a canonical binder in
    /// `names` would capture it. Canonical names are globally fresh, so
    /// this happens only when a caller feeds a previous read-back's binder
    /// back in free; [`quote`] then restarts with freshened names.
    pub fn free_var<E>(self, names: &[Symbol], name: Symbol) -> Result<Symbol, QuoteError<E>> {
        if self == QuoteNames::Canonical && names.contains(&name) {
            return Err(QuoteError::CanonicalCaptured);
        }
        Ok(name)
    }
}

/// A read-back failure: an evaluation error, or a capture of a canonical
/// name (which triggers the freshening retry).
#[derive(Debug)]
pub enum QuoteError<E> {
    /// Evaluating a body failed.
    Reduce(E),
    /// A canonical binder would capture a free variable.
    CanonicalCaptured,
}

impl<E> From<E> for QuoteError<E> {
    fn from(e: E) -> QuoteError<E> {
        QuoteError::Reduce(e)
    }
}

/// The canonical binder name of `L` for de Bruijn level `level`, lazily
/// extending the thread's table with globally fresh symbols.
fn canonical_name<L: Calculus>(level: usize) -> Symbol {
    L::readback_names().with(|names| {
        let mut names = names.borrow_mut();
        while names.len() <= level {
            names.push(Symbol::fresh("q"));
        }
        names[level]
    })
}

/// Reads a value back into a normal term.
///
/// Binders are re-introduced with *canonical* generated names, one per de
/// Bruijn level, shared by every read-back on the thread: quoting the same
/// value twice yields the *same* interned term, so repeated normalization
/// hits the hash-consing kernel and repeated conversion checks hit the
/// memo table. The one way a canonical name can be captured — a caller
/// re-normalizing a term that contains a previous read-back's canonical
/// name *free* — is detected during the quote, which then soundly
/// restarts with per-quote freshened names. The result is α-equivalent to
/// the step-based normal form.
///
/// # Errors
///
/// The evaluation error of a forced body.
pub fn quote<L: Calculus>(value: &L::Value, fuel: &mut Fuel) -> Result<L, L::Error> {
    let entry = *fuel;
    let attempt = match L::quote_with(&mut Vec::new(), value, fuel, QuoteNames::Canonical) {
        Err(QuoteError::CanonicalCaptured) => {
            // The abandoned canonical attempt must not charge the retry:
            // refund its ticks so the freshening pass runs against the
            // budget this call was handed, not the depleted remainder.
            // Otherwise a term that hits the fallback near the fuel
            // boundary is double-charged and spuriously reports
            // `OutOfFuel`.
            *fuel = entry;
            L::quote_with(&mut Vec::new(), value, fuel, QuoteNames::Freshen)
        }
        other => other,
    };
    attempt.map_err(|error| match error {
        QuoteError::Reduce(e) => e,
        QuoteError::CanonicalCaptured => unreachable!("freshened quote cannot conflict"),
    })
}

/// Evaluates `term` in the evaluation environment `env`.
///
/// # Errors
///
/// The language's evaluation error, fuel exhaustion included.
pub fn eval<L: Calculus>(
    env: &ValEnv<L>,
    term: &L,
    fuel: &mut Fuel,
) -> Result<RcValue<L>, L::Error> {
    L::eval_at(env, term, fuel, 0)
}

/// Evaluates `term` under the typing environment `env` (definitions become
/// lazy δ-thunks, assumptions become neutral variables).
///
/// # Errors
///
/// As [`eval`].
pub fn eval_in<L: Calculus>(
    env: &Env<L>,
    term: &L,
    fuel: &mut Fuel,
) -> Result<RcValue<L>, L::Error> {
    eval(&ValEnv::from_env(env), term, fuel)
}

/// Fully normalizes `term` through the NbE engine: evaluate, then read
/// back. Agrees with the step engine up to α-equivalence on well-typed
/// terms.
///
/// # Errors
///
/// As [`eval`].
pub fn normalize_nbe<L: Calculus>(env: &Env<L>, term: &L, fuel: &mut Fuel) -> Result<L, L::Error> {
    let value = eval_in(env, term, fuel)?;
    quote::<L>(&value, fuel)
}

/// [`normalize_nbe`] with the default fuel budget.
///
/// # Panics
///
/// Panics if normalization fails; intended for tests and examples on
/// well-typed terms.
pub fn normalize_nbe_default<L: Calculus>(env: &Env<L>, term: &L) -> L {
    let mut fuel = Fuel::default();
    normalize_nbe(env, term, &mut fuel).expect("NbE normalization of a well-typed term failed")
}

/// Decides definitional equivalence of two terms through the NbE engine:
/// evaluate both sides under `env`, then compare the values.
///
/// # Errors
///
/// As [`eval`].
pub fn conv_terms<L: Calculus>(
    env: &Env<L>,
    e1: &L,
    e2: &L,
    fuel: &mut Fuel,
) -> Result<bool, L::Error> {
    let venv = ValEnv::from_env(env);
    let v1 = eval(&venv, e1, fuel)?;
    let v2 = eval(&venv, e2, fuel)?;
    L::conv(0, &v1, &v2, fuel)
}

/// Which equivalence/normalization engine to run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Engine {
    /// The normalization-by-evaluation engine; the default on every hot
    /// path.
    #[default]
    Nbe,
    /// The substitution-based step engine; the paper-faithful
    /// specification and differential-testing oracle.
    Step,
}

/// Checks `Γ ⊢ e1 ≡ e2` with an explicit fuel budget, through the NbE
/// engine with identity and memo fast paths.
///
/// # Errors
///
/// When normalization fails (runs out of fuel, say) before the comparison
/// is decided.
pub fn equiv<L: Calculus>(env: &Env<L>, e1: &L, e2: &L, fuel: &mut Fuel) -> Result<bool, L::Error> {
    // Interning the heads is O(1) (children are already interned) and
    // buys node identities for the fast paths below.
    let n1 = e1.clone().rc();
    let n2 = e2.clone().rc();
    equiv_nodes(env, &n1, &n2, fuel)
}

/// [`equiv`] on interned handles.
///
/// Decision ladder: node identity (O(1), hash-consing makes structurally
/// identical terms the *same* node) → memo table of previously decided
/// `(id, id, env)` pairs → α-equivalence (linear, with its own identity
/// shortcuts) → the NbE engine. Decided answers are memoized; errors are
/// not — they depend on the budget, not the judgment.
///
/// # Errors
///
/// As [`equiv`].
pub fn equiv_nodes<L: Calculus>(
    env: &Env<L>,
    n1: &Node<L>,
    n2: &Node<L>,
    fuel: &mut Fuel,
) -> Result<bool, L::Error> {
    if n1.same(n2) {
        L::conv_memo().with(|c| c.borrow_mut().note_identity_hit());
        return Ok(true);
    }
    let key = ConvCache::key(n1, n2, env.fingerprint());
    if let Some(answer) = L::conv_memo().with(|c| c.borrow_mut().lookup(key)) {
        return Ok(answer);
    }
    // α-equivalent terms are definitionally equal outright; the type
    // checker overwhelmingly compares a type against a near-identical
    // copy of itself, so this pre-check pays for itself many times over
    // before the engine ever evaluates anything.
    let answer = L::alpha_eq(n1, n2) || conv_terms(env, n1, n2, fuel)?;
    L::conv_memo().with(|c| c.borrow_mut().insert(key, answer));
    Ok(answer)
}

/// Checks `Γ ⊢ e1 ≡ e2` through the chosen engine.
///
/// # Errors
///
/// As [`equiv`] and [`Calculus::equiv_spec`].
pub fn equiv_with_engine<L: Calculus>(
    env: &Env<L>,
    e1: &L,
    e2: &L,
    fuel: &mut Fuel,
    engine: Engine,
) -> Result<bool, L::Error> {
    match engine {
        Engine::Nbe => equiv(env, e1, e2, fuel),
        Engine::Step => L::equiv_spec(env, e1, e2, fuel),
    }
}

/// Checks `Γ ⊢ e1 ≡ e2` with the default fuel budget, treating reduction
/// failure as "not equivalent".
pub fn definitionally_equal<L: Calculus>(env: &Env<L>, e1: &L, e2: &L) -> bool {
    equiv(env, e1, e2, &mut Fuel::default()).unwrap_or(false)
}

/// [`definitionally_equal`] through the step-based specification.
pub fn definitionally_equal_spec<L: Calculus>(env: &Env<L>, e1: &L, e2: &L) -> bool {
    L::equiv_spec(env, e1, e2, &mut Fuel::default()).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::{FreeVars, Internable, Interner, NodeMeta};
    use std::cell::Cell;

    /// A minimal calculus: variables and numerals.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    enum Tiny {
        Var(Symbol),
        Num(u32),
    }

    /// Its values: numerals and neutral heads.
    #[derive(Debug)]
    enum TinyValue {
        Num(u32),
        Stuck(Head<Tiny>),
    }

    impl Internable for Tiny {
        fn compute_meta(&self) -> NodeMeta {
            match self {
                Tiny::Var(x) => NodeMeta::leaf(FreeVars::singleton(*x)),
                Tiny::Num(_) => NodeMeta::leaf(FreeVars::closed()),
            }
        }
    }

    thread_local! {
        static TERMS: RefCell<Interner<Tiny>> = RefCell::new(Interner::new());
        static CONV: RefCell<ConvCache> = RefCell::new(ConvCache::default());
        static NAMES: RefCell<Vec<Symbol>> = const { RefCell::new(Vec::new()) };
        /// Terms `eval_at` has evaluated on this thread.
        static EVALS: Cell<usize> = const { Cell::new(0) };
    }

    impl ThreadInterned for Tiny {
        fn rc(self) -> Node<Tiny> {
            TERMS.with(|terms| terms.borrow_mut().intern(self))
        }
    }

    impl Calculus for Tiny {
        type Value = TinyValue;
        type Error = ();

        fn eval_at(
            env: &ValEnv<Tiny>,
            term: &Tiny,
            fuel: &mut Fuel,
            _: u32,
        ) -> Result<RcValue<Tiny>, ()> {
            EVALS.with(|n| n.set(n.get() + 1));
            if !fuel.tick() {
                return Err(());
            }
            match term {
                Tiny::Var(x) => match env.lookup(*x) {
                    Some(thunk) => thunk.force(fuel),
                    None => Ok(Tiny::stuck(Head::Global(*x))),
                },
                Tiny::Num(n) => Ok(Rc::new(TinyValue::Num(*n))),
            }
        }

        fn stuck(head: Head<Tiny>) -> RcValue<Tiny> {
            Rc::new(TinyValue::Stuck(head))
        }

        fn quote_with(
            names: &mut Vec<Symbol>,
            value: &TinyValue,
            _: &mut Fuel,
            mode: QuoteNames,
        ) -> Result<Tiny, QuoteError<()>> {
            match value {
                TinyValue::Num(n) => Ok(Tiny::Num(*n)),
                TinyValue::Stuck(Head::Global(x)) => Ok(Tiny::Var(mode.free_var(names, *x)?)),
                TinyValue::Stuck(Head::Local(level)) => Ok(Tiny::Var(names[*level])),
                TinyValue::Stuck(Head::Blocked(_)) => unreachable!("Tiny has no eliminations"),
            }
        }

        fn conv(
            level: usize,
            left: &TinyValue,
            right: &TinyValue,
            fuel: &mut Fuel,
        ) -> Result<bool, ()> {
            match (left, right) {
                (TinyValue::Num(a), TinyValue::Num(b)) => Ok(a == b),
                (TinyValue::Stuck(h1), TinyValue::Stuck(h2)) => {
                    conv_stuck(level, (h1, &[]), (h2, &[]), fuel)
                }
                _ => Ok(false),
            }
        }

        fn alpha_eq(left: &Tiny, right: &Tiny) -> bool {
            left == right
        }

        /// Tiny has no step engine; NbE stands in for it.
        fn equiv_spec(env: &Env<Tiny>, e1: &Tiny, e2: &Tiny, fuel: &mut Fuel) -> Result<bool, ()> {
            conv_terms(env, e1, e2, fuel)
        }

        fn conv_memo() -> &'static LocalKey<RefCell<ConvCache>> {
            &CONV
        }

        fn readback_names() -> &'static LocalKey<RefCell<Vec<Symbol>>> {
            &NAMES
        }
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn evals() -> usize {
        EVALS.with(Cell::get)
    }

    /// The numeral `name` evaluates to in `env`.
    fn num_of(env: &ValEnv<Tiny>, name: &str) -> u32 {
        match &*eval(env, &Tiny::Var(sym(name)), &mut Fuel::default()).unwrap() {
            TinyValue::Num(n) => *n,
            other => panic!("`{name}` is not a numeral: {other:?}"),
        }
    }

    #[test]
    fn a_thunk_that_is_never_forced_never_evaluates_its_term() {
        let env =
            ValEnv::new().bind(sym("unused"), Thunk::suspended(ValEnv::new(), Tiny::Num(1).rc()));
        let before = evals();
        let value = eval(&env, &Tiny::Var(sym("other")), &mut Fuel::default()).unwrap();
        assert!(matches!(&*value, TinyValue::Stuck(Head::Global(x)) if *x == sym("other")));
        assert_eq!(evals() - before, 1, "only the variable itself was evaluated");
        // A typing environment's definitions are suspended the same way.
        let typing = Env::new().with_definition(sym("d"), Tiny::Num(3), Tiny::Var(sym("N")));
        let before = evals();
        let _ = ValEnv::from_env(&typing);
        assert_eq!(evals(), before, "building the environment evaluates nothing");
    }

    #[test]
    fn a_thunk_forced_twice_evaluates_its_term_once() {
        let thunk = Thunk::<Tiny>::suspended(ValEnv::new(), Tiny::Num(7).rc());
        // A failed force caches nothing: the next one evaluates again.
        assert!(thunk.force(&mut Fuel::new(0)).is_err());
        let before = evals();
        for _ in 0..2 {
            assert!(matches!(*thunk.force(&mut Fuel::default()).unwrap(), TinyValue::Num(7)));
        }
        assert_eq!(evals() - before, 1);
        // δ through a typing environment: each lookup evaluates the
        // variable, the definition only the first time.
        let typing = Env::new().with_definition(sym("d"), Tiny::Num(3), Tiny::Var(sym("N")));
        let env = ValEnv::from_env(&typing);
        let before = evals();
        assert_eq!((num_of(&env, "d"), num_of(&env, "d")), (3, 3));
        assert_eq!(evals() - before, 3);
    }

    #[test]
    fn bind_shadows_an_earlier_binding_of_the_same_name() {
        let num = |n| Thunk::forced(Rc::new(TinyValue::Num(n)));
        let env = ValEnv::<Tiny>::new().bind(sym("x"), num(1)).bind(sym("y"), num(2));
        let shadowed = env.bind(sym("x"), num(3));
        assert_eq!((num_of(&shadowed, "x"), num_of(&shadowed, "y")), (3, 2));
        assert_eq!(num_of(&env, "x"), 1, "extension leaves the original environment as it was");
    }
}
