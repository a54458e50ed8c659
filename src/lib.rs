//! # cccc — Typed Closure Conversion for the Calculus of Constructions
//!
//! A complete reproduction of *Typed Closure Conversion for the Calculus of
//! Constructions* (Bowman & Ahmed, PLDI 2018) as a Rust workspace. This
//! facade crate re-exports the workspace members under stable names and
//! hosts the runnable examples and the cross-crate integration test suite.
//!
//! | Module | Contents |
//! |---|---|
//! | [`source`] | The source language CC (Figures 1–4): syntax, reduction, equivalence with η, typing, parser, pretty-printer, prelude, generator |
//! | [`target`] | The target language CC-CC (Figures 5–7): code, closures, unit, closure-η, typing with `[Code]`/`[Clo]`, environment tuples |
//! | [`compiler`] | The closure-conversion translation (Figures 9–10), linking, the compiler pipeline, and executable metatheory checkers (§5) |
//! | [`model`] | The model of CC-CC in CC (Figure 8) and its metatheory checkers (§4.1) |
//! | [`util`] | Symbols, spans, pretty-printing, diagnostics, fuel |
//!
//! The target language's Figure 5–7 correspondence in detail:
//!
//! | Paper | Where |
//! |---|---|
//! | Figure 5 — syntax of CC-CC (code `λ (n : A', x : A). e`, code types, closures `⟪e, e'⟫`, unit) | [`target::ast`] |
//! | Figure 6 — reduction `Γ ⊢ e ⊲ e'` with the closure-application rule | [`target::reduce`] |
//! | Figure 6 — equivalence `Γ ⊢ e ≡ e'` with **closure-η** | [`target::equiv`] |
//! | Figure 7 — typing with `[Code]` (code checked in the *empty* environment) and `[Clo]` (environment substituted into the code type) | [`target::typecheck`] |
//! | Figures 9–10 — environment telescopes `Σ (xi : Ai …)` and tuples `⟨xi …⟩` | [`target::tuple`] |
//!
//! # Quickstart
//!
//! ```
//! use cccc::Compiler;
//!
//! let compiler = Compiler::new();
//! let compilation = compiler
//!     .compile_text("(\\(A : *). \\(x : A). x) Bool true")
//!     .expect("compilation succeeds");
//!
//! // Typed closure conversion: the output type checks in CC-CC at the
//! // translation of the source type, and runs to the same boolean.
//! let (source_value, target_value) = compiler.compile_and_run(&compilation.source).unwrap();
//! assert_eq!(source_value, target_value);
//! ```

/// The source language CC (re-export of `cccc-source`).
pub use cccc_source as source;

/// The target language CC-CC (re-export of `cccc-target`).
pub use cccc_target as target;

/// The closure-conversion compiler (re-export of `cccc-core`).
pub use cccc_core as compiler;

/// The parallel incremental module driver (re-export of `cccc-driver`).
pub use cccc_driver as driver;

/// The model of CC-CC in CC (re-export of `cccc-model`).
pub use cccc_model as model;

/// The §3.1 existential-type baseline for the simply typed fragment
/// (re-export of `cccc-exist`).
pub use cccc_exist as exist;

/// Shared infrastructure (re-export of `cccc-util`).
pub use cccc_util as util;

pub use cccc_core::pipeline::{Compilation, CompileError, Compiler, CompilerOptions};
pub use cccc_util::diag::{Diagnostic, Severity};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_re_exports_are_usable() {
        let id = source::prelude::poly_id();
        let compiler = Compiler::new();
        let compilation = compiler.compile_closed(&id).unwrap();
        assert_eq!(compilation.closure_count(), 2);
        let modelled = model::model(&compilation.target);
        assert!(source::equiv::definitionally_equal(&source::Env::new(), &modelled, &id));
    }
}
