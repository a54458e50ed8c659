//! Shared infrastructure for the CC-CC reproduction.
//!
//! This crate provides the facilities that both the source language (CC) and
//! the target language (CC-CC) implementations depend on:
//!
//! * [`symbol`] — a global string interner, the [`symbol::Symbol`] handle
//!   type, a fresh-name supply used by capture-avoiding substitution and
//!   by the closure-conversion translation, and the keep-going type
//!   checkers' error sentinel [`symbol::ERROR_NAME`].
//! * [`intern`] — the hash-consing kernel: [`intern::Node`] handles with
//!   O(1) identity equality and cached per-node metadata (free-variable
//!   set, closedness, depth, size), produced by per-language
//!   [`intern::Interner`]s; [`intern::ThreadInterned`] lets code generic
//!   over the language intern into them.
//! * [`syntax`] — one binding structure for both languages: node
//!   metadata, traversal, free variables, capture-avoiding substitution,
//!   α-equivalence and the wire codec, over a [`syntax::Syntax`]
//!   constructor table each language implements on its `Term`.
//! * [`mod@env`] — the typing telescope `Γ` of assumptions and definitions
//!   with its incremental content fingerprint, defined once and
//!   instantiated by each language's `env` module.
//! * [`universe`] — the universes `⋆` and `□` both languages share.
//! * [`nbe`] — the language-independent half of NbE and conversion:
//!   thunks, value environments, closures, canonical-name read-back, the
//!   [`nbe::Engine`] selector and the memoized `equiv_nodes` ladder, over
//!   a [`nbe::Calculus`] each language implements on its `Term`.
//! * [`wire`] — the compact, deterministic, `Send` word buffers that carry
//!   terms, interfaces, and compiled artifacts across thread boundaries
//!   (the per-worker interners of the parallel module driver import/export
//!   through them; [`syntax`] writes and reads the terms), plus 128-bit
//!   content [`wire::Fingerprint`]s for the artifact cache.
//! * [`span`] — byte-offset source spans and located values for the parsers.
//! * [`pretty`] — a small Wadler-style pretty-printing engine used by both
//!   pretty-printers.
//! * [`diag`] — structured diagnostics shared by type checkers and parsers.
//! * [`fuel`] — a fuel counter used to bound normalization on (possibly
//!   ill-typed) input so that the equivalence checkers always terminate.
//!   Fuel ticks double as cooperative-cancellation checkpoints.
//! * [`cancel`] — shared [`cancel::CancelToken`]s (one atomic word,
//!   zero-cost uncancelled check), a thread-local install point so deep
//!   code can poll without signature plumbing, and the deterministic
//!   [`cancel::Backoff`] retry schedule for transient I/O faults.
//! * [`panics`] — scoped panic capture: run a closure, get its panic
//!   message back as an `Err` instead of a dead thread, without
//!   suppressing panic reporting anywhere else.
//! * [`trace`] — thread-local, lock-free build tracing: spans and events
//!   with counter payloads behind a zero-cost-when-disabled
//!   [`trace::TraceSink`], collected into a [`trace::BuildTrace`] with a
//!   Chrome trace-event JSON exporter.
//! * [`cost`] — the shared reduction-cost counter shape instantiated by
//!   the CC and CC-CC profiling evaluators, with trace counter payloads.
//!
//! # Example
//!
//! ```
//! use cccc_util::symbol::Symbol;
//!
//! let x = Symbol::intern("x");
//! let y = Symbol::intern("x");
//! assert_eq!(x, y);
//! let fresh = x.freshen();
//! assert_ne!(x, fresh);
//! assert_eq!(fresh.base_name(), "x");
//! ```

pub mod cancel;
pub mod cost;
pub mod diag;
pub mod env;
pub mod fuel;
pub mod intern;
pub mod nbe;
pub mod panics;
pub mod pretty;
pub mod span;
pub mod symbol;
pub mod syntax;
pub mod trace;
pub mod universe;
pub mod wire;

pub use cancel::{Backoff, CancelReason, CancelToken};
pub use diag::{diagnostics_to_json, Diagnostic, Severity};
pub use fuel::Fuel;
pub use intern::{FreeVars, Internable, Interner, Node, NodeId, NodeMeta};
pub use span::{Span, Spanned};
pub use symbol::Symbol;
pub use trace::{BuildTrace, TraceSink};
pub use wire::{Fingerprint, WireError, WireTerm};
