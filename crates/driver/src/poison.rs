//! Poisoned interfaces: what a failed unit leaves behind so its
//! dependents can still be type-checked.
//!
//! Without keep-going, a failed unit publishes nothing and every
//! dependent is [`Skipped`](crate::session::UnitStatus::Skipped) — one
//! broken leaf silences diagnostics for the whole downstream cone. With
//! [`CompilerOptions::keep_going`](cccc_core::pipeline::CompilerOptions)
//! on, a failed unit instead publishes a [`PoisonedInterface`]: the
//! partial interface the checker's Collect policy recovered (mentioning
//! the `<error>` sentinel wherever recovery happened), the unit's full
//! diagnostic set, and the *origins* — the root-cause units whose own
//! errors started the poison. Dependents import the partial interface,
//! type-check against it under the same policy, and report their *own*
//! errors; the sentinel unifies with anything, so upstream breakage never
//! manufactures spurious downstream mismatches.
//!
//! Workers share a poisoned interface as an `Arc<PoisonedInterface>`;
//! only its interface crosses interners, as a **portable** wire term
//! ([`cccc_source::wire::encode_portable`]) each importing worker decodes
//! into its own. Poisoned interfaces are **never cached or persisted** —
//! they are per-build residue, recomputed whenever the failure recurs.

use cccc_util::diag::Diagnostic;
use cccc_util::wire::WireTerm;

/// The residue of a failed unit in a keep-going build: a partial
/// interface dependents can check against, plus provenance.
#[derive(Clone, Debug)]
pub struct PoisonedInterface {
    /// The recovered CC interface, portably wire-encoded
    /// ([`cccc_source::wire::encode_portable`]). Mentions the `<error>`
    /// sentinel wherever the Collect policy recovered; decode with
    /// [`cccc_source::wire::decode`] into the importing thread's
    /// interner.
    pub interface: WireTerm,
    /// Every diagnostic the unit produced, in phase order.
    pub diagnostics: Vec<Diagnostic>,
    /// The root-cause units: every unit in the poisoned ancestry
    /// (including, possibly, the publishing unit itself) that contributed
    /// errors of its own. Sorted and deduplicated.
    pub origins: Vec<String>,
}

impl PoisonedInterface {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }
}
