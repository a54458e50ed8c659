//! Typed closure conversion from CC to CC-CC — the primary contribution of
//! *Typed Closure Conversion for the Calculus of Constructions*
//! (Bowman & Ahmed, PLDI 2018).
//!
//! The crate provides:
//!
//! * [`fv`] — the dependency-ordered free-variable metafunction `FV`
//!   (Figure 10);
//! * [`mod@translate`] — the closure-conversion translation (Figure 9);
//! * [`link`] — components, closing substitutions, linking, and the
//!   ground-value observation relation `≈` (§5.2);
//! * [`verify`] — executable checkers for the compiler metatheory
//!   (Lemmas 5.1–5.4, Theorems 5.6–5.8);
//! * [`pipeline`] — a user-facing [`pipeline::Compiler`] that parses,
//!   type checks, closure converts, re-checks, and verifies.
//!
//! # Example
//!
//! ```
//! use cccc_core::pipeline::Compiler;
//!
//! // Compile the polymorphic identity applied at Bool.
//! let compiler = Compiler::new();
//! let compilation = compiler
//!     .compile_text("(\\(A : *). \\(x : A). x) Bool true")
//!     .unwrap();
//!
//! // Every source λ became a closure over closed code …
//! assert_eq!(compilation.closure_count(), 2);
//! // … and the compiled program still evaluates to `true`.
//! let (source_value, target_value) = compiler
//!     .compile_and_run(&compilation.source)
//!     .unwrap();
//! assert!(source_value && target_value);
//! ```

pub mod fv;
pub mod hoist;
pub mod link;
pub mod pipeline;
pub mod translate;
pub mod verify;

pub use pipeline::{
    cache_snapshot, BuildOutcome, CacheReport, Compilation, CompileError, Compiler, CompilerOptions,
};
pub use translate::{translate, translate_env, translate_program, TranslateError};
