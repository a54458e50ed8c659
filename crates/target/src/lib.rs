//! The target language **CC-CC**: the Calculus of Constructions with
//! *closed code* and *closures* — the target of the typed closure
//! conversion of Bowman & Ahmed, *Typed Closure Conversion for the
//! Calculus of Constructions* (PLDI 2018), Figures 5–7.
//!
//! CC-CC replaces first-class functions with two weaker constructs that
//! compose back into one: **code** `λ (n : A', x : A). e`, which abstracts
//! over an explicit environment and an argument and must be *closed*
//! (checked in the empty environment, so it can be hoisted and statically
//! allocated), and **closures** `⟪e, e'⟫`, which pair code with the
//! environment it expects. The Π type survives as the type of closures;
//! applying a closure substitutes its environment and argument into the
//! code body in one step. Definitional equivalence replaces the η rule of
//! CC with **closure-η**, identifying closures that agree once their
//! environments are substituted in — the principle that lets two closures
//! with different environments share a type (`[Clo]` + `[Conv]`) and that
//! compositionality of the translation relies on.
//!
//! # Paper correspondence (Figures 5–7)
//!
//! | Paper | Module | Item |
//! |---|---|---|
//! | Figure 5, syntax of CC-CC | [`ast`] | [`Term`] with [`Term::Code`], [`Term::CodeTy`], [`Term::Closure`], [`Term::Unit`], [`Term::UnitVal`] |
//! | Figure 5, environments `Γ` | [`mod@env`] | [`Env`], [`Decl`]: the CC-CC instance of the telescope [`cccc_util::env`] shares with CC |
//! | Figure 6, reduction `Γ ⊢ e ⊲ e'` (closure application, δ, ζ, π1/π2) | [`reduce`] | [`reduce::step`], [`reduce::whnf`], [`reduce::normalize`], [`reduce::eval`] |
//! | Figure 6, equivalence `Γ ⊢ e ≡ e'` with closure-η | [`equiv`] | [`equiv::equiv`], [`equiv::definitionally_equal`] |
//! | Figure 6, `⊲*`/`≡` as an environment machine (the hot-path engine) | [`nbe`] | [`nbe::eval`], [`nbe::quote`], [`nbe::conv`] |
//! | Figure 7, typing `Γ ⊢ e : A` with `[Code]` and `[Clo]` | [`typecheck`] | [`typecheck::infer`], [`typecheck::check`], [`typecheck::check_env`] |
//! | Figures 9–10, environment telescopes `Σ (xi : Ai …)` and tuples `⟨xi …⟩` | [`mod@tuple`] | [`tuple::telescope_type`], [`tuple::variables_tuple`], [`tuple::tuple_value`], [`tuple::project_bindings`] |
//! | — | [`subst`] | free variables, capture-avoiding substitution, α-equivalence, [`subst::is_closed`]: CC-CC's instances of [`cccc_util::syntax`], whose constructor table [`ast`] gives |
//! | — | [`wire`] | the thread- and process-portable term codec and content fingerprints, also from [`cccc_util::syntax`] |
//! | — | [`builder`] | a term-construction DSL |
//! | — | [`pretty`] | a pretty-printer |
//! | §7, dynamic overhead of closure conversion | [`reduce`] | a cost-instrumented evaluator: [`reduce::evaluate_with_cost`], [`reduce::Cost`] |
//!
//! # Example
//!
//! ```
//! use cccc_target::builder::*;
//! use cccc_target::{equiv, reduce, typecheck, Env};
//!
//! // The closure-converted boolean identity: ⟪λ (n : 1, x : Bool). x, ⟨⟩⟫
//! let identity = closure(code("n", unit_ty(), "x", bool_ty(), var("x")), unit_val());
//!
//! // [Clo] gives it the closure type Π x : Bool. Bool …
//! let ty = typecheck::infer(&Env::new(), &identity).unwrap();
//! assert!(equiv::definitionally_equal(&Env::new(), &ty, &pi("x", bool_ty(), bool_ty())));
//!
//! // … and applying it runs the closure-application rule of Figure 6.
//! let value = reduce::normalize_default(&Env::new(), &app(identity, tt()));
//! assert!(cccc_target::subst::alpha_eq(&value, &tt()));
//! ```

pub mod ast;
pub mod builder;
pub mod env;
pub mod equiv;
pub mod nbe;
pub mod pretty;
pub mod reduce;
pub mod subst;
pub mod tolerant;
pub mod tuple;
pub mod typecheck;
pub mod wire;

pub use ast::{RcTerm, Term, Universe};
pub use env::{Decl, Env};
pub use typecheck::TypeError;
