//! The source language **CC**: the Calculus of Constructions with strong
//! dependent pairs (Σ types), dependent let, ground booleans, and
//! η-equivalence for functions — the source of the typed closure-conversion
//! translation of Bowman & Ahmed (PLDI 2018).
//!
//! The crate provides:
//!
//! * [`ast`] — the abstract syntax (Figure 1 of the paper);
//! * [`builder`] — a DSL for constructing terms programmatically;
//! * [`mod@env`] — typing environments `Γ` and their well-formedness (Figure 4);
//! * [`subst`] — free variables, capture-avoiding substitution, α-equivalence;
//! * [`reduce`] — the reduction relation `⊲` and normalization (Figure 2),
//!   plus a cost-instrumented evaluator counting each rule's firings (§7
//!   overhead);
//! * [`equiv`] — definitional equivalence with η (Figure 2);
//! * [`nbe`] — a normalization-by-evaluation engine (the algorithmic
//!   implementation of `⊲*`/`≡` used on every hot path);
//! * [`typecheck`] — the typing judgment `Γ ⊢ e : A` (Figure 3);
//! * [`parse`] — a surface-syntax parser;
//! * [`pretty`] — a pretty-printer whose output re-parses;
//! * [`prelude`] — standard terms (polymorphic identity, Church encodings,
//!   `False`, refinement-style pairs) and the program corpus used by tests
//!   and benchmarks;
//! * [`generate`] — a type-directed random generator of well-typed terms for
//!   property-based testing.
//!
//! # Example
//!
//! ```
//! use cccc_source::builder::*;
//! use cccc_source::{env::Env, typecheck, reduce, equiv};
//!
//! // λ A : ⋆. λ x : A. x   applied at Bool to true
//! let id = lam("A", star(), lam("x", var("A"), var("x")));
//! let program = app(app(id, bool_ty()), tt());
//!
//! let ty = typecheck::infer(&Env::new(), &program).unwrap();
//! assert!(equiv::definitionally_equal(&Env::new(), &ty, &bool_ty()));
//!
//! let value = reduce::normalize_default(&Env::new(), &program);
//! assert!(cccc_source::subst::alpha_eq(&value, &tt()));
//! ```

pub mod ast;
pub mod builder;
pub mod env;
pub mod equiv;
pub mod generate;
pub mod nbe;
pub mod parse;
pub mod prelude;
pub mod pretty;
pub mod reduce;
pub mod spans;
pub mod subst;
pub mod tolerant;
pub mod typecheck;
pub mod wire;

pub use ast::{RcTerm, Term, Universe};
pub use env::{Decl, Env};
pub use typecheck::TypeError;
