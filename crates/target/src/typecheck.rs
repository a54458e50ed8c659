//! The CC-CC type system (Figure 7).
//!
//! Most rules are those of CC; the two that define typed closure
//! conversion are:
//!
//! * **`[Code]`** — code `λ (n : A', x : A). e` is checked **in the empty
//!   environment**: `· ⊢ A' : s'`, `n : A' ⊢ A : s`, and
//!   `n : A', x : A ⊢ e : B`, giving `Code (n : A', x : A). B`. The
//!   ambient `Γ` is deliberately discarded — this is what makes code
//!   closed, hoistable, and statically allocatable. Open code is rejected
//!   with [`TypeError::OpenCode`].
//! * **`[Clo]`** — a closure `⟪e, e'⟫` where `e : Code (n : A', x : A). B`
//!   and `Γ ⊢ e' : A'` has the *closure type* `Π x : A[e'/n]. B[e'/n]`:
//!   the environment is substituted into the code type, so two closures
//!   with different environments can share a type.
//!
//! Code is not a first-class function: applying it directly is rejected
//! with [`TypeError::NotAClosure`] (rule `[App]` eliminates Π, the type of
//! closures, only).
//!
//! As in the source checker, Σ-formation additionally accepts the
//! predicative ECC rule `A : □, B : ⋆ ⟹ Σ x:A.B : □`, which the
//! environment telescopes of closure conversion need when a closure
//! captures a type variable.
//!
//! ## Error policies
//!
//! As in `cccc_source::typecheck`, the rules are written once, in a
//! checker generic over its error policy: **Stop** ([`infer`], [`check`],
//! …) returns the first [`TypeError`]; **Collect**
//! ([`crate::tolerant::infer_tolerant`]) records each violation as a
//! [`Diagnostic`] coded by [`TypeError::code`] and recovers with the
//! sentinel `<error>` at the same points the source checker does. Open
//! code is reported and checking continues into its body, and Collect
//! bypasses the `[Code]` memo. CC-CC terms are produced by the
//! translator, never parsed, so these diagnostics carry no spans.
//!
//! ## Error codes
//!
//! | Code | Meaning |
//! |---|---|
//! | `E1001` | unbound variable |
//! | `E1002` | the universe `□` has no type |
//! | `E1003` | application of a non-closure (including bare code) |
//! | `E1004` | projection of a non-pair |
//! | `E1005` | term used as a type is not a universe |
//! | `E1006` | pair annotation is not a Σ type |
//! | `E1008` | type mismatch |
//! | `E1009` | normalization ran out of fuel |
//! | `E1010` | open code (rule `[Code]` requires closed code) |
//! | `E1011` | closure component is not code |

use crate::ast::{RcTerm, Term, Universe};
use crate::env::{Decl, Env};
use crate::equiv::{equiv_with_engine, Engine};
use crate::pretty::term_to_string;
use crate::reduce::{whnf, ReduceError};
use crate::subst::{free_vars, is_closed, occurs_free, rename, subst};
use crate::tolerant::{error_symbol, error_term, is_poisoned};
use cccc_util::diag::Diagnostic;
use cccc_util::fuel::Fuel;
use cccc_util::intern::{FxHashMap, NodeId};
use cccc_util::symbol::Symbol;
use std::cell::RefCell;
use std::fmt;

/// Errors produced by the CC-CC type checker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TypeError {
    /// A variable was used that is not bound in the environment.
    UnboundVariable(Symbol),
    /// The universe `□` was used as a term; it has no type.
    BoxHasNoType,
    /// Code (or a code type) with free variables: rule `[Code]` checks
    /// code in the empty environment, so it must be closed.
    OpenCode {
        /// The offending code, pretty-printed.
        code: String,
        /// The free variables that leak, pretty-printed.
        free: String,
    },
    /// The code component of a closure does not have a `Code` type.
    NotCode {
        /// The offending term, pretty-printed.
        term: String,
        /// Its inferred type, pretty-printed.
        ty: String,
    },
    /// A term in function position does not have a closure (Π) type —
    /// including bare code, which is not first-class.
    NotAClosure {
        /// The offending term, pretty-printed.
        term: String,
        /// Its inferred type, pretty-printed.
        ty: String,
    },
    /// A term in projection position does not have a Σ type.
    NotAPair {
        /// The offending term, pretty-printed.
        term: String,
        /// Its inferred type, pretty-printed.
        ty: String,
    },
    /// A term expected to be a type does not live in a universe.
    NotAUniverse {
        /// The offending term, pretty-printed.
        term: String,
        /// Its inferred type, pretty-printed.
        ty: String,
    },
    /// The annotation on a dependent pair is not a Σ type.
    PairAnnotationNotSigma {
        /// The annotation, pretty-printed.
        annotation: String,
    },
    /// The inferred type of a term does not match the expected type.
    Mismatch {
        /// What the context required, pretty-printed.
        expected: String,
        /// What was inferred, pretty-printed.
        found: String,
        /// The term being checked, pretty-printed.
        term: String,
    },
    /// Normalization failed while deciding equivalence.
    Reduction(ReduceError),
}

impl TypeError {
    /// The stable error code (see the module docs for the table).
    pub fn code(&self) -> &'static str {
        match self {
            TypeError::UnboundVariable(_) => "E1001",
            TypeError::BoxHasNoType => "E1002",
            TypeError::NotAClosure { .. } => "E1003",
            TypeError::NotAPair { .. } => "E1004",
            TypeError::NotAUniverse { .. } => "E1005",
            TypeError::PairAnnotationNotSigma { .. } => "E1006",
            TypeError::Mismatch { .. } => "E1008",
            TypeError::Reduction(_) => "E1009",
            TypeError::OpenCode { .. } => "E1010",
            TypeError::NotCode { .. } => "E1011",
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            TypeError::BoxHasNoType => write!(f, "the universe □ has no type"),
            TypeError::OpenCode { code, free } => {
                write!(f, "rule [Code] requires closed code, but `{code}` mentions {free}")
            }
            TypeError::NotCode { term, ty } => {
                write!(f, "closure component `{term}` has type `{ty}`, not a code type")
            }
            TypeError::NotAClosure { term, ty } => {
                write!(f, "`{term}` is applied but has non-closure type `{ty}`")
            }
            TypeError::NotAPair { term, ty } => {
                write!(f, "`{term}` is projected but has non-pair type `{ty}`")
            }
            TypeError::NotAUniverse { term, ty } => {
                write!(f, "`{term}` is used as a type but has type `{ty}`, not a universe")
            }
            TypeError::PairAnnotationNotSigma { annotation } => {
                write!(f, "pair annotation `{annotation}` is not a Σ type")
            }
            TypeError::Mismatch { expected, found, term } => write!(
                f,
                "type mismatch: `{term}` has type `{found}` but `{expected}` was expected"
            ),
            TypeError::Reduction(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TypeError {}

impl From<ReduceError> for TypeError {
    fn from(e: ReduceError) -> TypeError {
        TypeError::Reduction(e)
    }
}

/// Result type for the CC-CC type checker.
pub type Result<T> = std::result::Result<T, TypeError>;

/// Infers the type of `term` under `env` (the judgment `Γ ⊢ e : A`).
///
/// # Errors
///
/// Returns a [`TypeError`] when the term is ill-typed.
pub fn infer(env: &Env, term: &Term) -> Result<Term> {
    infer_with_engine(env, term, Engine::Nbe)
}

/// [`infer`] through an explicitly chosen equivalence/normalization
/// engine. [`Engine::Step`] runs the substitution-based step engine — the
/// paper-faithful specification — and exists for differential testing and
/// head-to-head benchmarking against [`Engine::Nbe`].
///
/// # Errors
///
/// Returns a [`TypeError`] when the term is ill-typed.
pub fn infer_with_engine(env: &Env, term: &Term, engine: Engine) -> Result<Term> {
    let mut fuel = Fuel::default();
    Stopping::new(&mut fuel, engine).infer(env, term)
}

/// Checks `term` against `expected` under `env`, applying the conversion
/// rule `[Conv]` (with closure-η).
///
/// # Errors
///
/// Returns a [`TypeError`] when the term is ill-typed or its type is not
/// definitionally equal to `expected`.
pub fn check(env: &Env, term: &Term, expected: &Term) -> Result<()> {
    let mut fuel = Fuel::default();
    Stopping::new(&mut fuel, Engine::Nbe).check(env, term, expected).map(drop)
}

/// Infers the universe in which the type `term` lives.
///
/// # Errors
///
/// Returns [`TypeError::NotAUniverse`] when `term` is not a type.
pub fn infer_universe(env: &Env, term: &Term) -> Result<Universe> {
    let mut fuel = Fuel::default();
    let universe = Stopping::new(&mut fuel, Engine::Nbe).universe(env, term)?;
    Ok(universe.expect("the Stop policy never recovers"))
}

/// Checks well-formedness of an environment (`⊢ Γ`).
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered while checking entries in
/// order.
pub fn check_env(env: &Env) -> Result<()> {
    let mut prefix = Env::new();
    for decl in env.iter() {
        match decl {
            Decl::Assumption { name, ty } => {
                infer_universe(&prefix, ty)?;
                prefix.push_assumption(*name, (**ty).clone());
            }
            Decl::Definition { name, ty, term } => {
                infer_universe(&prefix, ty)?;
                check(&prefix, term, ty)?;
                prefix.push_definition(*name, (**term).clone(), (**ty).clone());
            }
        }
    }
    Ok(())
}

/// Returns `true` when `term` is well-typed under `env`.
pub fn is_well_typed(env: &Env, term: &Term) -> bool {
    infer(env, term).is_ok()
}

/// The code-typing memo never outgrows this many entries; it is cleared
/// wholesale when it would.
const CODE_MEMO_CAP: usize = 1 << 18;

thread_local! {
    /// Memoized `[Code]`/`[T-Code]` results, keyed by node identity (and
    /// engine, so the step-engine oracle never reads NbE-derived entries).
    ///
    /// This is sound *unconditionally* — no environment component is
    /// needed — because both rules discard the ambient `Γ` and check the
    /// code in the empty environment, so the resulting type depends on the
    /// code term alone. Hits across compilations come from the
    /// translation: every code block it emits binds the same generated
    /// environment parameter, so the same λ under the same captured
    /// telescope becomes the same interned node in every unit a thread
    /// compiles, and the first unit's entry answers the rest. An entry
    /// holds the node's id, not the node: a code block whose node has
    /// been freed is rebuilt under a new id and checked again.
    static CODE_MEMO: RefCell<FxHashMap<(NodeId, Engine), RcTerm>> =
        RefCell::new(FxHashMap::default());
}

/// Clears this thread's `[Code]` typing memo.
pub fn reset_code_memo() {
    CODE_MEMO.with(|m| m.borrow_mut().clear());
}

fn code_memo_get(id: NodeId, engine: Engine) -> Option<RcTerm> {
    CODE_MEMO.with(|m| m.borrow().get(&(id, engine)).cloned())
}

fn code_memo_insert(id: NodeId, engine: Engine, ty: RcTerm) {
    CODE_MEMO.with(|m| {
        let mut memo = m.borrow_mut();
        if memo.len() >= CODE_MEMO_CAP {
            memo.clear();
        }
        memo.insert((id, engine), ty);
    });
}

/// Infers the type of `term` under the Collect policy: every violation
/// becomes a diagnostic and checking resumes with the sentinel. The
/// entry point behind [`crate::tolerant::infer_tolerant_with_engine`].
pub(crate) fn infer_collecting(env: &Env, term: &Term, engine: Engine) -> (Term, Vec<Diagnostic>) {
    let mut fuel = Fuel::default();
    let mut checker = Collecting::new(&mut fuel, engine);
    let ty = checker.infer(env, term).expect("the Collect policy never stops");
    (ty, checker.diagnostics)
}

/// The Stop policy: the first violation is returned as a [`TypeError`].
type Stopping<'a> = Checker<'a, false>;
/// The Collect policy: violations are recorded and checking recovers.
type Collecting<'a> = Checker<'a, true>;

/// The rules of Figure 7 under an error policy: Stop (`COLLECT = false`)
/// returns `Err` at the first violation, Collect (`COLLECT = true`) never
/// does.
struct Checker<'a, const COLLECT: bool> {
    fuel: &'a mut Fuel,
    engine: Engine,
    diagnostics: Vec<Diagnostic>,
}

impl<'a, const COLLECT: bool> Checker<'a, COLLECT> {
    fn new(fuel: &'a mut Fuel, engine: Engine) -> Self {
        Checker { fuel, engine, diagnostics: Vec::new() }
    }

    /// Whether `term` mentions the sentinel — always `false` under Stop,
    /// which never recovers and so never produces one.
    fn poisoned(&self, term: &Term) -> bool {
        COLLECT && is_poisoned(term)
    }

    /// A rule violation: Stop returns it; Collect records it as a coded
    /// diagnostic (refilling the fuel tank after `E1009`) and lets the
    /// caller recover.
    fn fail(&mut self, error: TypeError) -> Result<()> {
        if !COLLECT {
            return Err(error);
        }
        if matches!(error, TypeError::Reduction(_)) {
            *self.fuel = Fuel::default();
        }
        let mut diagnostic = Diagnostic::error(error.to_string()).with_code(error.code());
        if let TypeError::Mismatch { expected, found, .. } = &error {
            diagnostic = diagnostic
                .with_note(format!("expected `{expected}`"))
                .with_note(format!("found    `{found}`"));
        }
        self.diagnostics.push(diagnostic);
        Ok(())
    }

    /// Weak-head normalizes through the chosen engine: NbE read-back or
    /// the step-based `whnf`.
    fn head_normal(&mut self, env: &Env, term: &Term) -> Result<Term> {
        let result = match self.engine {
            Engine::Nbe => crate::nbe::whnf_nbe(env, term, self.fuel),
            Engine::Step => whnf(env, term, self.fuel),
        };
        match result {
            Ok(normal) => Ok(normal),
            Err(error) => self.fail(error.into()).map(|()| error_term()),
        }
    }

    fn infer(&mut self, env: &Env, term: &Term) -> Result<Term> {
        match term {
            // The sentinel types as itself, silently: whoever introduced
            // it already reported.
            Term::Var(x) if COLLECT && *x == error_symbol() => Ok(error_term()),
            // [Var]
            Term::Var(x) => match env.lookup_type(*x) {
                Some(ty) => Ok((**ty).clone()),
                None => self.fail(TypeError::UnboundVariable(*x)).map(|()| error_term()),
            },
            // [Ax-*]
            Term::Sort(Universe::Star) => Ok(Term::Sort(Universe::Box)),
            Term::Sort(Universe::Box) => self.fail(TypeError::BoxHasNoType).map(|()| error_term()),
            // [Unit] / [UnitVal]
            Term::Unit => Ok(Term::Sort(Universe::Star)),
            Term::UnitVal => Ok(Term::Unit),
            // Ground types (§5.2).
            Term::BoolTy => Ok(Term::Sort(Universe::Star)),
            Term::BoolLit(_) => Ok(Term::BoolTy),
            Term::If { scrutinee, then_branch, else_branch } => {
                self.check(env, scrutinee, &Term::BoolTy)?;
                let then_ty = self.infer(env, then_branch)?;
                self.check(env, else_branch, &then_ty)?;
                Ok(then_ty)
            }
            // [Prod-*] / [Prod-□]: Π is the type of closures.
            Term::Pi { binder, domain, codomain } => {
                self.universe(env, domain)?;
                let inner = env.with_assumption(*binder, (**domain).clone());
                let codomain_universe = self.universe(&inner, codomain)?;
                Ok(codomain_universe.map_or_else(error_term, Term::Sort))
            }
            // [Sig-*], [Sig-□], and the predicative large rule.
            Term::Sigma { binder, first, second } => {
                let first_universe = self.universe(env, first)?;
                let inner = env.with_assumption(*binder, (**first).clone());
                let second_universe = self.universe(&inner, second)?;
                Ok(match (first_universe, second_universe) {
                    (Some(Universe::Star), Some(Universe::Star)) => Term::Sort(Universe::Star),
                    (Some(_), Some(_)) => Term::Sort(Universe::Box),
                    _ => error_term(),
                })
            }
            // [Code]: the empty environment replaces Γ.
            Term::Code { env_binder, env_ty, arg_binder, arg_ty, body } => {
                self.code_rule(term, *env_binder, env_ty, *arg_binder, arg_ty, |checker, scope| {
                    let body_ty = checker.infer(scope, body)?;
                    // The resulting code type must itself be well-formed.
                    if !checker.poisoned(&body_ty) {
                        checker.universe(scope, &body_ty)?;
                    }
                    Ok(Term::CodeTy {
                        env_binder: *env_binder,
                        env_ty: env_ty.clone(),
                        arg_binder: *arg_binder,
                        arg_ty: arg_ty.clone(),
                        result: body_ty.rc(),
                    })
                })
            }
            // [T-Code]: code types are checked in the empty environment too.
            Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => {
                self.code_rule(term, *env_binder, env_ty, *arg_binder, arg_ty, |checker, scope| {
                    Ok(checker.universe(scope, result)?.map_or_else(error_term, Term::Sort))
                })
            }
            // [Clo]: substitute the environment into the code type.
            Term::Closure { code, env: closure_env } => {
                let code_ty = self.infer(env, code)?;
                if self.poisoned(&code_ty) {
                    self.infer(env, closure_env)?;
                    return Ok(error_term());
                }
                match self.head_normal(env, &code_ty)? {
                    Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => {
                        self.check(env, closure_env, &env_ty)?;
                        // Π x : A[e'/n]. B[e'/n]. In the argument type the
                        // environment binder is never shadowed, but in the
                        // result the argument binder may shadow it (x = n), in
                        // which case every occurrence refers to x and the
                        // substitution does not reach B; otherwise freshen x
                        // when the environment mentions it.
                        let domain = subst(&arg_ty, env_binder, closure_env);
                        let (binder, codomain) = if arg_binder == env_binder {
                            (arg_binder, (*result).clone())
                        } else if occurs_free(arg_binder, closure_env) {
                            let fresh = arg_binder.freshen();
                            let renamed = rename(&result, arg_binder, fresh);
                            (fresh, subst(&renamed, env_binder, closure_env))
                        } else {
                            (arg_binder, subst(&result, env_binder, closure_env))
                        };
                        Ok(Term::Pi { binder, domain: domain.rc(), codomain: codomain.rc() })
                    }
                    other => {
                        if !self.poisoned(&other) {
                            self.fail(TypeError::NotCode {
                                term: term_to_string(code),
                                ty: term_to_string(&other),
                            })?;
                        }
                        self.infer(env, closure_env)?;
                        Ok(error_term())
                    }
                }
            }
            // [App]: eliminates closures (Π), never code.
            Term::App { func, arg } => {
                let func_ty = self.infer(env, func)?;
                if self.poisoned(&func_ty) {
                    self.infer(env, arg)?;
                    return Ok(error_term());
                }
                match self.head_normal(env, &func_ty)? {
                    Term::Pi { binder, domain, codomain } => {
                        self.check(env, arg, &domain)?;
                        Ok(subst(&codomain, binder, arg))
                    }
                    other => {
                        if !self.poisoned(&other) {
                            self.fail(TypeError::NotAClosure {
                                term: term_to_string(func),
                                ty: term_to_string(&other),
                            })?;
                        }
                        self.infer(env, arg)?;
                        Ok(error_term())
                    }
                }
            }
            // [Let]; Collect poisons an ill-typed binding exactly as the
            // source checker does.
            Term::Let { binder, annotation, bound, body } => {
                let annotation_ok = self.universe(env, annotation)?.is_some();
                let bound_ok = annotation_ok && self.check(env, bound, annotation)?;
                if bound_ok && !self.poisoned(bound) && !self.poisoned(annotation) {
                    let inner =
                        env.with_definition(*binder, (**bound).clone(), (**annotation).clone());
                    let body_ty = self.infer(&inner, body)?;
                    Ok(subst(&body_ty, *binder, bound))
                } else {
                    let assumed = if annotation_ok { (**annotation).clone() } else { error_term() };
                    let inner = env.with_assumption(*binder, assumed);
                    let body_ty = self.infer(&inner, body)?;
                    Ok(subst(&body_ty, *binder, &error_term()))
                }
            }
            // [Pair]
            Term::Pair { first, second, annotation } => {
                self.universe(env, annotation)?;
                let sigma = if self.poisoned(annotation) {
                    error_term()
                } else {
                    self.head_normal(env, annotation)?
                };
                match sigma {
                    Term::Sigma { binder, first: first_ty, second: second_ty } => {
                        self.check(env, first, &first_ty)?;
                        let expected_second = subst(&second_ty, binder, first);
                        self.check(env, second, &expected_second)?;
                        Ok((**annotation).clone())
                    }
                    other => {
                        if !self.poisoned(&other) {
                            self.fail(TypeError::PairAnnotationNotSigma {
                                annotation: term_to_string(annotation),
                            })?;
                        }
                        self.infer(env, first)?;
                        self.infer(env, second)?;
                        Ok(error_term())
                    }
                }
            }
            // [Fst]
            Term::Fst(e) => Ok(match self.projection_sigma(env, e)? {
                Some((_, first_ty, _)) => (*first_ty).clone(),
                None => error_term(),
            }),
            // [Snd]
            Term::Snd(e) => Ok(match self.projection_sigma(env, e)? {
                Some((binder, _, second_ty)) => subst(&second_ty, binder, &Term::Fst(e.clone())),
                None => error_term(),
            }),
        }
    }

    /// The premises `[Code]` and `[T-Code]` share: `term` is closed, and
    /// its telescope `n : A', x : A` is well-formed in the empty
    /// environment; `last` checks the remaining premise in that scope.
    /// The judgment depends on the code alone (Γ is discarded), so Stop
    /// memoizes it by node identity — each distinct code block is checked
    /// once. Collect bypasses the memo, so recovery results never pollute
    /// a cache a Stop run could observe.
    fn code_rule(
        &mut self,
        term: &Term,
        env_binder: Symbol,
        env_ty: &RcTerm,
        arg_binder: Symbol,
        arg_ty: &RcTerm,
        last: impl FnOnce(&mut Self, &Env) -> Result<Term>,
    ) -> Result<Term> {
        let node = (!COLLECT).then(|| term.clone().rc());
        if let Some(ty) = node.as_ref().and_then(|n| code_memo_get(n.id(), self.engine)) {
            return Ok((*ty).clone());
        }
        self.require_closed(term)?;
        let empty = Env::new();
        self.universe(&empty, env_ty)?;
        let with_env = empty.with_assumption(env_binder, (**env_ty).clone());
        self.universe(&with_env, arg_ty)?;
        let scope = with_env.with_assumption(arg_binder, (**arg_ty).clone());
        let ty = last(self, &scope)?;
        if let Some(node) = node {
            code_memo_insert(node.id(), self.engine, ty.clone().rc());
        }
        Ok(ty)
    }

    /// Shared `fst`/`snd` premise: the scrutinee's type must
    /// head-normalize to a Σ. `None` means Collect recovered.
    fn projection_sigma(
        &mut self,
        env: &Env,
        e: &RcTerm,
    ) -> Result<Option<(Symbol, RcTerm, RcTerm)>> {
        let e_ty = self.infer(env, e)?;
        if self.poisoned(&e_ty) {
            return Ok(None);
        }
        match self.head_normal(env, &e_ty)? {
            Term::Sigma { binder, first, second } => Ok(Some((binder, first, second))),
            other => {
                if !self.poisoned(&other) {
                    self.fail(TypeError::NotAPair {
                        term: term_to_string(e),
                        ty: term_to_string(&other),
                    })?;
                }
                Ok(None)
            }
        }
    }

    /// The syntactic closedness premise of `[Code]`/`[T-Code]`.
    ///
    /// The success path — every well-typed program — is O(1): closedness
    /// is a cached metadata bit on the children's interned nodes. Only the
    /// error path materializes the ordered free-variable list for the
    /// diagnostic. Collect checking continues past open code, and does not
    /// count the sentinel as a leak (whoever introduced it already
    /// reported).
    fn require_closed(&mut self, term: &Term) -> Result<()> {
        if is_closed(term) {
            return Ok(());
        }
        let mut free = free_vars(term);
        if COLLECT {
            free.retain(|s| *s != error_symbol());
            if free.is_empty() {
                return Ok(());
            }
        }
        self.fail(TypeError::OpenCode {
            code: term_to_string(term),
            free: free.iter().map(|s| format!("`{s}`")).collect::<Vec<_>>().join(", "),
        })
    }

    /// `[Conv]` with closure-η: checks `term` against `expected`.
    /// `Ok(false)` (Collect only) means a mismatch was reported; poisoned
    /// types and fuel exhaustion are accepted.
    fn check(&mut self, env: &Env, term: &Term, expected: &Term) -> Result<bool> {
        let found = self.infer(env, term)?;
        if self.poisoned(&found) || self.poisoned(expected) {
            return Ok(true);
        }
        match equiv_with_engine(env, &found, expected, self.fuel, self.engine) {
            Ok(true) => Ok(true),
            Ok(false) => self
                .fail(TypeError::Mismatch {
                    expected: term_to_string(expected),
                    found: term_to_string(&found),
                    term: term_to_string(term),
                })
                .map(|()| false),
            Err(error) => self.fail(error.into()).map(|()| true),
        }
    }

    /// Infers the universe in which the type `term` lives. `None` means
    /// Collect recovered (the type was poisoned, or a diagnostic was
    /// reported).
    fn universe(&mut self, env: &Env, term: &Term) -> Result<Option<Universe>> {
        // `□` itself is a valid classifier even though it is not a term.
        if matches!(term, Term::Sort(Universe::Box)) {
            return Ok(Some(Universe::Box));
        }
        let ty = self.infer(env, term)?;
        if self.poisoned(&ty) {
            return Ok(None);
        }
        match self.head_normal(env, &ty)? {
            Term::Sort(u) => Ok(Some(u)),
            other => {
                if !self.poisoned(&other) {
                    self.fail(TypeError::NotAUniverse {
                        term: term_to_string(term),
                        ty: term_to_string(&other),
                    })?;
                }
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::equiv::definitionally_equal;
    use crate::subst::alpha_eq;

    fn infer_closed(t: &Term) -> Result<Term> {
        infer(&Env::new(), t)
    }

    fn identity_code() -> Term {
        code("n", unit_ty(), "x", bool_ty(), var("x"))
    }

    #[test]
    fn atoms_type_as_in_cc() {
        assert!(alpha_eq(&infer_closed(&star()).unwrap(), &boxu()));
        assert!(matches!(infer_closed(&boxu()), Err(TypeError::BoxHasNoType)));
        assert!(alpha_eq(&infer_closed(&bool_ty()).unwrap(), &star()));
        assert!(alpha_eq(&infer_closed(&tt()).unwrap(), &bool_ty()));
        assert!(alpha_eq(&infer_closed(&unit_ty()).unwrap(), &star()));
        assert!(alpha_eq(&infer_closed(&unit_val()).unwrap(), &unit_ty()));
        assert!(matches!(infer_closed(&var("nope")), Err(TypeError::UnboundVariable(_))));
    }

    #[test]
    fn code_types_in_the_empty_environment() {
        let ty = infer_closed(&identity_code()).unwrap();
        let expected = code_ty("n", unit_ty(), "x", bool_ty(), bool_ty());
        assert!(definitionally_equal(&Env::new(), &ty, &expected));
    }

    #[test]
    fn open_code_is_rejected_even_when_ambient_env_binds_the_leak() {
        let ambient = Env::new().with_assumption(Symbol::intern("leak"), bool_ty());
        let open = code("n", unit_ty(), "x", bool_ty(), var("leak"));
        let err = infer(&ambient, &open).unwrap_err();
        match &err {
            TypeError::OpenCode { free, .. } => assert!(free.contains("leak")),
            other => panic!("expected OpenCode, got {other}"),
        }
        // Same for code types.
        let open_ty = code_ty("n", unit_ty(), "x", var("LeakTy"), bool_ty());
        let ambient = ambient.with_assumption(Symbol::intern("LeakTy"), star());
        assert!(matches!(infer(&ambient, &open_ty), Err(TypeError::OpenCode { .. })));
    }

    #[test]
    fn clo_substitutes_the_environment() {
        // ⟪λ (n : Σ A : ⋆. 1, x : fst n). x, ⟨Bool, ⟨⟩⟩⟫ : Π x : Bool. Bool
        let env_ty = sigma("A", star(), unit_ty());
        let clo = closure(
            code("n2", env_ty.clone(), "x", fst(var("n2")), var("x")),
            pair(bool_ty(), unit_val(), env_ty),
        );
        let ty = infer_closed(&clo).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &pi("x", bool_ty(), bool_ty())));
    }

    #[test]
    fn closures_require_matching_environments() {
        let clo = closure(identity_code(), tt());
        assert!(matches!(infer_closed(&clo), Err(TypeError::Mismatch { .. })));
        let not_code = closure(tt(), unit_val());
        assert!(matches!(infer_closed(&not_code), Err(TypeError::NotCode { .. })));
    }

    #[test]
    fn bare_code_cannot_be_applied() {
        let err = infer_closed(&app(identity_code(), tt())).unwrap_err();
        assert!(matches!(err, TypeError::NotAClosure { .. }));
        let err = infer_closed(&app(tt(), tt())).unwrap_err();
        assert!(matches!(err, TypeError::NotAClosure { .. }));
    }

    #[test]
    fn closure_application_types() {
        let clo = closure(identity_code(), unit_val());
        let ty = infer_closed(&app(clo, tt())).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &bool_ty()));
    }

    #[test]
    fn dependent_closures_substitute_arguments() {
        // The outer code of the polymorphic identity: applying it at Bool
        // gives Π x : Bool. Bool.
        let inner_env_ty = sigma("A", star(), unit_ty());
        let inner = code("n2", inner_env_ty.clone(), "x", fst(var("n2")), var("x"));
        let outer = closure(
            code(
                "n1",
                unit_ty(),
                "A",
                star(),
                closure(inner, pair(var("A"), unit_val(), inner_env_ty)),
            ),
            unit_val(),
        );
        let applied_ty = infer_closed(&app(outer, bool_ty())).unwrap();
        assert!(definitionally_equal(&Env::new(), &applied_ty, &pi("x", bool_ty(), bool_ty())));
    }

    #[test]
    fn lets_pairs_and_projections_type_as_in_cc() {
        let t = let_("u", unit_ty(), unit_val(), tt());
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &bool_ty()));
        let ann = sigma("A", star(), var("A"));
        let p = pair(bool_ty(), tt(), ann.clone());
        assert!(alpha_eq(&infer_closed(&p).unwrap(), &ann));
        assert!(alpha_eq(&infer_closed(&fst(p.clone())).unwrap(), &star()));
        let snd_ty = infer_closed(&snd(p)).unwrap();
        assert!(definitionally_equal(&Env::new(), &snd_ty, &bool_ty()));
        assert!(matches!(infer_closed(&fst(tt())), Err(TypeError::NotAPair { .. })));
        assert!(matches!(
            infer_closed(&pair(tt(), ff(), bool_ty())),
            Err(TypeError::PairAnnotationNotSigma { .. })
        ));
    }

    #[test]
    fn sigma_universes_support_type_capture() {
        // Σ A : ⋆. 1 : □ — the telescope of a closure capturing a type.
        let t = sigma("A", star(), unit_ty());
        assert!(infer_closed(&t).unwrap().is_box());
        // Small telescopes stay small.
        let t = sigma("b", bool_ty(), unit_ty());
        assert!(infer_closed(&t).unwrap().is_star());
    }

    #[test]
    fn conversion_runs_closures_inside_types() {
        // A pair annotation that needs a closure application reduced.
        let family = closure(
            code("n", unit_ty(), "b", bool_ty(), ite(var("b"), bool_ty(), unit_ty())),
            unit_val(),
        );
        let t = app(
            closure(
                code("n", unit_ty(), "x", ite(tt(), bool_ty(), unit_ty()), var("x")),
                unit_val(),
            ),
            tt(),
        );
        assert!(definitionally_equal(&Env::new(), &infer_closed(&t).unwrap(), &bool_ty()));
        // And checking against an unreduced type works through [Conv].
        check(&Env::new(), &tt(), &app(family, tt())).unwrap();
    }

    #[test]
    fn check_env_accepts_dependent_telescopes() {
        let env = Env::new()
            .with_assumption(Symbol::intern("A"), star())
            .with_assumption(Symbol::intern("a"), var("A"))
            .with_definition(Symbol::intern("u"), unit_val(), unit_ty());
        assert!(check_env(&env).is_ok());
        let bad = Env::new().with_definition(Symbol::intern("u"), star(), unit_ty());
        assert!(check_env(&bad).is_err());
    }

    #[test]
    fn shadowed_code_binders_keep_their_references() {
        // λ (n : 1, n : Σ A : ⋆. A). snd n — the argument binder shadows
        // the environment binder, so the body's `n` is the argument and
        // [Clo] must not substitute the environment into the result.
        let arg_ty = sigma("A", star(), var("A"));
        let shadowing = code("n", unit_ty(), "n", arg_ty.clone(), snd(var("n")));
        let clo = closure(shadowing, unit_val());
        let ty = infer_closed(&clo).unwrap();
        match &ty {
            Term::Pi { binder, codomain, .. } => {
                // The codomain projects the *argument*, not the unit env.
                assert!(
                    crate::subst::occurs_free(*binder, codomain),
                    "codomain `{codomain}` must still mention the argument binder"
                );
            }
            other => panic!("expected a closure type, got {other}"),
        }
        // And the closure type is the same as an α-variant without
        // shadowing.
        let unshadowed =
            closure(code("m", unit_ty(), "p", arg_ty.clone(), snd(var("p"))), unit_val());
        let expected = infer_closed(&unshadowed).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &expected), "{ty} vs {expected}");
    }

    #[test]
    fn is_well_typed_helper() {
        assert!(is_well_typed(&Env::new(), &unit_val()));
        assert!(!is_well_typed(&Env::new(), &var("ghost")));
    }

    #[test]
    fn error_display_is_informative() {
        let err = infer_closed(&app(tt(), ff())).unwrap_err();
        assert!(err.to_string().contains("non-closure"));
        let err = TypeError::OpenCode { code: "c".into(), free: "`x`".into() };
        assert!(err.to_string().contains("[Code]"));
    }
}
