//! The CC type system (Figures 3 and 4).
//!
//! The checker is a direct implementation of the paper's rules: types are
//! inferred structurally, and the conversion rule `[Conv]` is applied
//! whenever a term is checked against an expected type, using the
//! definitional-equivalence algorithm of [`crate::equiv`].
//!
//! ## Σ-formation
//!
//! The paper gives two Σ-formation rules: `[Sig-*]` (small over small) and
//! `[Sig-□]` (large second component). We additionally accept
//! `A : □, B : ⋆ ⟹ Σ x:A.B : □`, the predicative rule of ECC. This is
//! required to type the environment telescopes produced by closure
//! conversion when a closure captures a *type* variable (the paper's own
//! example uses the environment type `⋆ × 1`, which needs exactly this
//! rule), and it is sound: it never makes a large Σ small. The restriction
//! the paper highlights — no impredicative strong Σ — is still enforced:
//! `Σ x:A.B : ⋆` requires both `A : ⋆` and `B : ⋆`.
//!
//! ## Error policies
//!
//! The rules are written once, in a checker generic over its error
//! policy. **Stop** — [`infer`], [`check`], and the other public entry
//! points — returns a [`TypeError`] at the first violation. **Collect**
//! — [`crate::tolerant::infer_tolerant`], the keep-going front end —
//! records each violation as a [`Diagnostic`] coded by
//! [`TypeError::code`], with the primary span from the [`crate::spans`]
//! side-table, and recovers with the error sentinel `<error>`
//! ([`crate::tolerant::error_term`]) at these points:
//!
//! - a poisoned type (one mentioning the sentinel) unifies with anything,
//!   so one genuine error does not cascade into follow-on mismatches;
//! - an ill-typed `let` binding poisons that binding: the body is checked
//!   with the binder held abstract at its declared annotation (the
//!   definition is *not* unfolded), and the binder is replaced by the
//!   sentinel in the result type so the damage is visible downstream;
//! - an application of a non-function (or projection of a non-pair)
//!   yields the sentinel type after still checking the argument;
//! - a failed conversion check reports the mismatch — with the expected
//!   type's origin as a related span when the parser saw it — and then
//!   accepts the term, so each mismatch is reported exactly once;
//! - fuel exhaustion inside normalization is reported (`E0009`) and the
//!   fuel tank is refilled, so one diverging type does not starve the
//!   rest of the program of diagnostics.
//!
//! The policy is a const parameter: the Stop instantiation carries no
//! poison checks and allocates no diagnostics. On well-typed input both
//! policies walk the same rules and infer the same type.
//!
//! ## Error codes
//!
//! | Code | Meaning |
//! |---|---|
//! | `E0001` | unbound variable |
//! | `E0002` | the universe `□` has no type |
//! | `E0003` | application of a non-function |
//! | `E0004` | projection of a non-pair |
//! | `E0005` | term used as a type is not a universe |
//! | `E0006` | pair annotation is not a Σ type |
//! | `E0008` | type mismatch |
//! | `E0009` | normalization ran out of fuel |
//! | `E0100` | parse error (reported by [`crate::parse`]) |

use crate::ast::{RcTerm, Term, Universe};
use crate::env::{Decl, Env};
use crate::equiv::{equiv_with_engine, Engine};
use crate::pretty::term_to_string;
use crate::reduce::{whnf, ReduceError};
use crate::spans;
use crate::subst::subst;
use crate::tolerant::{error_symbol, error_term, is_poisoned};
use cccc_util::diag::Diagnostic;
use cccc_util::fuel::Fuel;
use cccc_util::symbol::Symbol;
use std::fmt;

/// Errors produced by the CC type checker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TypeError {
    /// A variable was used that is not bound in the environment.
    UnboundVariable(Symbol),
    /// The universe `□` was used as a term; it has no type.
    BoxHasNoType,
    /// A term in function position does not have a Π type.
    NotAFunction {
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
    /// Normalization ran out of fuel while deciding equivalence.
    Reduction(ReduceError),
}

impl TypeError {
    /// The stable error code (see the module docs for the table).
    pub fn code(&self) -> &'static str {
        match self {
            TypeError::UnboundVariable(_) => "E0001",
            TypeError::BoxHasNoType => "E0002",
            TypeError::NotAFunction { .. } => "E0003",
            TypeError::NotAPair { .. } => "E0004",
            TypeError::NotAUniverse { .. } => "E0005",
            TypeError::PairAnnotationNotSigma { .. } => "E0006",
            TypeError::Mismatch { .. } => "E0008",
            TypeError::Reduction(_) => "E0009",
        }
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVariable(x) => write!(f, "unbound variable `{x}`"),
            TypeError::BoxHasNoType => write!(f, "the universe □ has no type"),
            TypeError::NotAFunction { term, ty } => {
                write!(f, "`{term}` is applied but has non-function type `{ty}`")
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
            TypeError::Mismatch { expected, found, term } => {
                write!(
                    f,
                    "type mismatch: `{term}` has type `{found}` but `{expected}` was expected"
                )
            }
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

/// Result type for the CC type checker.
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
/// rule `[Conv]`.
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

/// Checks well-formedness of an environment (`⊢ Γ`, Figure 4).
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

/// The rules of Figures 3 and 4 under an error policy: Stop
/// (`COLLECT = false`) returns `Err` at the first violation, Collect
/// (`COLLECT = true`) never does.
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

    /// A rule violation at `at`: Stop returns it; Collect records it as a
    /// coded diagnostic (refilling the fuel tank after `E0009`) and lets
    /// the caller recover.
    fn fail(&mut self, error: TypeError, at: &Term) -> Result<()> {
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
        if let Some(span) = spans::span_of(at) {
            diagnostic = diagnostic.with_span(span);
        }
        self.diagnostics.push(diagnostic);
        Ok(())
    }

    /// Weak-head normalizes through the chosen engine: NbE read-back or
    /// the step-based `whnf`. Fuel exhaustion is reported at `at`.
    fn head_normal(&mut self, env: &Env, term: &Term, at: &Term) -> Result<Term> {
        let result = match self.engine {
            Engine::Nbe => crate::nbe::whnf_nbe(env, term, self.fuel),
            Engine::Step => whnf(env, term, self.fuel),
        };
        match result {
            Ok(normal) => Ok(normal),
            Err(error) => self.fail(error.into(), at).map(|()| error_term()),
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
                None => self.fail(TypeError::UnboundVariable(*x), term).map(|()| error_term()),
            },
            // [Ax-*]
            Term::Sort(Universe::Star) => Ok(Term::Sort(Universe::Box)),
            Term::Sort(Universe::Box) => {
                self.fail(TypeError::BoxHasNoType, term).map(|()| error_term())
            }
            // Ground types (§5.2).
            Term::BoolTy => Ok(Term::Sort(Universe::Star)),
            Term::BoolLit(_) => Ok(Term::BoolTy),
            Term::If { scrutinee, then_branch, else_branch } => {
                self.check(env, scrutinee, &Term::BoolTy)?;
                let then_ty = self.infer(env, then_branch)?;
                self.check(env, else_branch, &then_ty)?;
                Ok(then_ty)
            }
            // [Prod-*] and [Prod-□]
            Term::Pi { binder, domain, codomain } => {
                self.universe(env, domain)?;
                let inner = env.with_assumption(*binder, (**domain).clone());
                let codomain_universe = self.universe(&inner, codomain)?;
                Ok(codomain_universe.map_or_else(error_term, Term::Sort))
            }
            // [Sig-*], [Sig-□], and the predicative large rule (see module docs).
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
            // [Lam]
            Term::Lam { binder, domain, body } => {
                self.universe(env, domain)?;
                let inner = env.with_assumption(*binder, (**domain).clone());
                let body_ty = self.infer(&inner, body)?;
                // Ensure the resulting Π type is itself well-formed.
                if !self.poisoned(&body_ty) {
                    self.universe(&inner, &body_ty)?;
                }
                Ok(Term::Pi { binder: *binder, domain: domain.clone(), codomain: body_ty.rc() })
            }
            // [App]
            Term::App { func, arg } => {
                let func_ty = self.infer(env, func)?;
                if self.poisoned(&func_ty) {
                    self.infer(env, arg)?;
                    return Ok(error_term());
                }
                match self.head_normal(env, &func_ty, func)? {
                    Term::Pi { binder, domain, codomain } => {
                        self.check(env, arg, &domain)?;
                        Ok(subst(&codomain, binder, arg))
                    }
                    other => {
                        if !self.poisoned(&other) {
                            let error = TypeError::NotAFunction {
                                term: term_to_string(func),
                                ty: term_to_string(&other),
                            };
                            self.fail(error, func)?;
                        }
                        // Operand errors are reported even when the
                        // operator is broken.
                        self.infer(env, arg)?;
                        Ok(error_term())
                    }
                }
            }
            // [Let]
            Term::Let { binder, annotation, bound, body } => {
                let annotation_ok = self.universe(env, annotation)?.is_some();
                let bound_ok = annotation_ok && self.check(env, bound, annotation)?;
                if bound_ok && !self.poisoned(bound) && !self.poisoned(annotation) {
                    let inner =
                        env.with_definition(*binder, (**bound).clone(), (**annotation).clone());
                    let body_ty = self.infer(&inner, body)?;
                    Ok(subst(&body_ty, *binder, bound))
                } else {
                    // Collect only: poison the binding — hold the binder
                    // abstract at its declared annotation (never unfold a
                    // bad definition), then replace it with the sentinel
                    // in the result type so downstream consumers see the
                    // damage.
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
                    self.head_normal(env, annotation, annotation)?
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
                            let error = TypeError::PairAnnotationNotSigma {
                                annotation: term_to_string(annotation),
                            };
                            self.fail(error, annotation)?;
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
        match self.head_normal(env, &e_ty, e)? {
            Term::Sigma { binder, first, second } => Ok(Some((binder, first, second))),
            other => {
                if !self.poisoned(&other) {
                    let error =
                        TypeError::NotAPair { term: term_to_string(e), ty: term_to_string(&other) };
                    self.fail(error, e)?;
                }
                Ok(None)
            }
        }
    }

    /// `[Conv]`: checks `term` against `expected`. `Ok(false)` (Collect
    /// only) means a mismatch was reported; poisoned types and fuel
    /// exhaustion are accepted.
    fn check(&mut self, env: &Env, term: &Term, expected: &Term) -> Result<bool> {
        let found = self.infer(env, term)?;
        if self.poisoned(&found) || self.poisoned(expected) {
            return Ok(true);
        }
        match equiv_with_engine(env, &found, expected, self.fuel, self.engine) {
            Ok(true) => Ok(true),
            Ok(false) => {
                let error = TypeError::Mismatch {
                    expected: term_to_string(expected),
                    found: term_to_string(&found),
                    term: term_to_string(term),
                };
                self.fail(error, term)?;
                // Collect: point at the annotation the expectation came from.
                if let (Some(origin), Some(mismatch)) =
                    (spans::span_of(expected), self.diagnostics.last_mut())
                {
                    mismatch
                        .related
                        .push((origin, "expected type came from this annotation".to_owned()));
                }
                Ok(false)
            }
            Err(error) => self.fail(error.into(), term).map(|()| true),
        }
    }

    /// Infers the universe in which the type `term` lives. `None` means
    /// Collect recovered (the type was poisoned, or a diagnostic was
    /// reported).
    fn universe(&mut self, env: &Env, term: &Term) -> Result<Option<Universe>> {
        // `□` itself is a valid classifier (it is the type of `⋆` and of
        // kinds) even though it is not a term; treat it as living "above"
        // everything.
        if matches!(term, Term::Sort(Universe::Box)) {
            return Ok(Some(Universe::Box));
        }
        let ty = self.infer(env, term)?;
        if self.poisoned(&ty) {
            return Ok(None);
        }
        match self.head_normal(env, &ty, term)? {
            Term::Sort(u) => Ok(Some(u)),
            other => {
                if !self.poisoned(&other) {
                    let error = TypeError::NotAUniverse {
                        term: term_to_string(term),
                        ty: term_to_string(&other),
                    };
                    self.fail(error, term)?;
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

    #[test]
    fn star_has_type_box() {
        assert!(alpha_eq(&infer_closed(&star()).unwrap(), &boxu()));
    }

    #[test]
    fn box_has_no_type() {
        assert!(matches!(infer_closed(&boxu()), Err(TypeError::BoxHasNoType)));
    }

    #[test]
    fn bool_literals() {
        assert!(alpha_eq(&infer_closed(&bool_ty()).unwrap(), &star()));
        assert!(alpha_eq(&infer_closed(&tt()).unwrap(), &bool_ty()));
        assert!(alpha_eq(&infer_closed(&ff()).unwrap(), &bool_ty()));
    }

    #[test]
    fn unbound_variable_is_rejected() {
        assert!(matches!(infer_closed(&var("nope")), Err(TypeError::UnboundVariable(_))));
    }

    #[test]
    fn polymorphic_identity_types() {
        // λ A : ⋆. λ x : A. x  :  Π A : ⋆. Π x : A. A
        let id = lam("A", star(), lam("x", var("A"), var("x")));
        let ty = infer_closed(&id).unwrap();
        let expected = pi("A", star(), pi("x", var("A"), var("A")));
        assert!(definitionally_equal(&Env::new(), &ty, &expected));
    }

    #[test]
    fn impredicative_pi_is_allowed() {
        // Π A : ⋆. A  :  ⋆   (quantifies over all small types, itself small)
        let false_ty = pi("A", star(), var("A"));
        assert!(alpha_eq(&infer_closed(&false_ty).unwrap(), &star()));
    }

    #[test]
    fn pi_over_kinds_is_large() {
        // Π A : ⋆. ⋆  :  □
        let t = pi("A", star(), star());
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &boxu()));
    }

    #[test]
    fn application_substitutes_argument_into_codomain() {
        // (λ A : ⋆. λ x : A. x) Bool : Π x : Bool. Bool
        let id = lam("A", star(), lam("x", var("A"), var("x")));
        let t = app(id, bool_ty());
        let ty = infer_closed(&t).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &pi("x", bool_ty(), bool_ty())));
    }

    #[test]
    fn application_of_non_function_is_rejected() {
        let t = app(tt(), ff());
        assert!(matches!(infer_closed(&t), Err(TypeError::NotAFunction { .. })));
    }

    #[test]
    fn application_with_wrong_argument_type_is_rejected() {
        let not = lam("b", bool_ty(), ite(var("b"), ff(), tt()));
        let t = app(not, star());
        assert!(matches!(infer_closed(&t), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn let_types_with_definition_substituted() {
        // let x = true : Bool in x   :  Bool
        let t = let_("x", bool_ty(), tt(), var("x"));
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &bool_ty()));
    }

    #[test]
    fn let_definition_is_visible_in_types() {
        // let A = Bool : ⋆ in (λ x : A. x) true   :  A[Bool/A] = Bool
        let t = let_("A", star(), bool_ty(), app(lam("x", var("A"), var("x")), tt()));
        let ty = infer_closed(&t).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &bool_ty()));
    }

    #[test]
    fn small_sigma_over_small_types() {
        let t = sigma("x", bool_ty(), bool_ty());
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &star()));
    }

    #[test]
    fn large_sigma_over_kinds() {
        // Σ A : ⋆. ⋆ : □
        let t = sigma("A", star(), star());
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &boxu()));
    }

    #[test]
    fn sigma_with_large_first_and_small_second_is_large() {
        // Σ A : ⋆. Bool : □ — the ECC-style rule needed for closure environments.
        let t = sigma("A", star(), bool_ty());
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &boxu()));
    }

    #[test]
    fn dependent_sigma_types() {
        // Σ A : ⋆. A : □ (first component is a type, second a value of it)
        let t = sigma("A", star(), var("A"));
        assert!(alpha_eq(&infer_closed(&t).unwrap(), &boxu()));
    }

    #[test]
    fn pair_checks_both_components() {
        let ann = sigma("x", bool_ty(), bool_ty());
        let good = pair(tt(), ff(), ann.clone());
        assert!(alpha_eq(&infer_closed(&good).unwrap(), &ann));
        let bad = pair(tt(), star(), ann);
        assert!(matches!(infer_closed(&bad), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn dependent_pair_second_component_type_uses_first() {
        // ⟨Bool, true⟩ as Σ A : ⋆. A
        let ann = sigma("A", star(), var("A"));
        let p = pair(bool_ty(), tt(), ann.clone());
        assert!(alpha_eq(&infer_closed(&p).unwrap(), &ann));
        // ⟨Bool, ⋆⟩ as Σ A : ⋆. A is wrong: ⋆ is not a Bool.
        let bad = pair(bool_ty(), star(), ann);
        assert!(infer_closed(&bad).is_err());
    }

    #[test]
    fn projections_type_correctly() {
        let ann = sigma("A", star(), var("A"));
        let p = pair(bool_ty(), tt(), ann);
        assert!(alpha_eq(&infer_closed(&fst(p.clone())).unwrap(), &star()));
        // snd p : A[fst p/A] = fst p ≡ Bool
        let snd_ty = infer_closed(&snd(p.clone())).unwrap();
        assert!(definitionally_equal(&Env::new(), &snd_ty, &bool_ty()));
    }

    #[test]
    fn projection_of_non_pair_is_rejected() {
        assert!(matches!(infer_closed(&fst(tt())), Err(TypeError::NotAPair { .. })));
        assert!(matches!(infer_closed(&snd(tt())), Err(TypeError::NotAPair { .. })));
    }

    #[test]
    fn pair_annotation_must_be_sigma() {
        let p = pair(tt(), ff(), bool_ty());
        assert!(matches!(infer_closed(&p), Err(TypeError::PairAnnotationNotSigma { .. })));
    }

    #[test]
    fn if_requires_bool_scrutinee_and_agreeing_branches() {
        assert!(alpha_eq(&infer_closed(&ite(tt(), ff(), tt())).unwrap(), &bool_ty()));
        assert!(infer_closed(&ite(star(), ff(), tt())).is_err());
        assert!(infer_closed(&ite(tt(), ff(), bool_ty())).is_err());
    }

    #[test]
    fn conversion_rule_reduces_types() {
        // (λ x : (if true then Bool else (Π A:⋆. A)). x) true   is well-typed
        // because the domain reduces to Bool.
        let t = app(lam("x", ite(tt(), bool_ty(), pi("A", star(), var("A"))), var("x")), tt());
        let ty = infer_closed(&t).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &bool_ty()));
    }

    #[test]
    fn check_env_accepts_dependent_telescope() {
        use cccc_util::symbol::Symbol;
        let env = Env::new()
            .with_assumption(Symbol::intern("A"), star())
            .with_assumption(Symbol::intern("x"), var("A"))
            .with_definition(Symbol::intern("b"), tt(), bool_ty());
        assert!(check_env(&env).is_ok());
    }

    #[test]
    fn check_env_rejects_bad_definitions() {
        use cccc_util::symbol::Symbol;
        let env = Env::new().with_definition(Symbol::intern("b"), star(), bool_ty());
        assert!(check_env(&env).is_err());
    }

    #[test]
    fn check_env_rejects_out_of_scope_dependencies() {
        use cccc_util::symbol::Symbol;
        let env = Env::new()
            .with_assumption(Symbol::intern("x"), var("A"))
            .with_assumption(Symbol::intern("A"), star());
        assert!(check_env(&env).is_err());
    }

    #[test]
    fn is_well_typed_helper() {
        assert!(is_well_typed(&Env::new(), &tt()));
        assert!(!is_well_typed(&Env::new(), &var("ghost")));
    }

    #[test]
    fn error_display_is_informative() {
        let err = infer_closed(&app(tt(), ff())).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("true"));
        assert!(msg.contains("Bool"));
    }

    #[test]
    fn impredicative_instantiation_of_polymorphic_identity() {
        // id (Π A : ⋆. Π x : A. A) id — the classic impredicativity test.
        let id = lam("A", star(), lam("x", var("A"), var("x")));
        let id_ty = pi("A", star(), pi("x", var("A"), var("A")));
        let t = app(app(id.clone(), id_ty.clone()), id);
        let ty = infer_closed(&t).unwrap();
        assert!(definitionally_equal(&Env::new(), &ty, &id_ty));
    }
}
