//! The §3.1 baseline: closure conversion with existential types.
//!
//! The paper argues (§3.1) that the "well-known solution" — encoding closure
//! types as existential packages, which works for simply typed languages and
//! for System F — does not scale to the Calculus of Constructions, because
//! with dependent types the closure's *type* must mention values hidden in
//! its (existentially abstracted) environment, and repairing that requires
//! impredicativity and parametricity assumptions CC does not provide.
//!
//! This crate makes that argument executable:
//!
//! * [`lang`] — a simply typed target language with existential types
//!   (pack/unpack), its type checker and call-by-value evaluator;
//! * [`baseline`] — the classic existential-type closure conversion, defined
//!   exactly on the *simply typed fragment* of CC. It succeeds (and is
//!   validated against the CC semantics) on simply typed programs, and
//!   reports precisely which dependently typed construct defeats it on
//!   everything else — the polymorphic identity function of §3 included.
//!
//! The abstract closure conversion of `cccc-core` handles all of those
//! programs; the contrast is exercised in the integration test
//! `tests/baseline_comparison.rs`.

pub mod baseline;
pub mod lang;

pub use baseline::{translate as baseline_translate, translate_program, BaselineError};
pub use lang::{evaluate, infer, Expr, Ty};
