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
//! Like compiled artifacts, poisoned interfaces cross worker threads as
//! wire buffers: the interface section is **portable**
//! ([`cccc_source::wire::encode_portable`]), and the whole record can be
//! framed into a single [`WireTerm`] ([`PoisonedInterface::to_wire`]) and
//! back ([`PoisonedInterface::from_wire`]) through the same
//! `WireWriter::portable` framing the artifact store uses. Poisoned
//! interfaces are **never cached or persisted** — they are per-build
//! residue, recomputed whenever the failure recurs — so the wire form
//! exists for transport and for pinning the format in tests, not for the
//! store.

use cccc_util::diag::{Diagnostic, Severity};
use cccc_util::span::Span;
use cccc_util::wire::{WireError, WireTerm, WireWriter};

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

    /// Frames the whole record into one portable wire buffer:
    ///
    /// ```text
    /// origins:      count, then each name as a framed string
    /// diagnostics:  count, then each diagnostic (see `push_diagnostic`)
    /// interface:    section length, then the portable interface words
    /// ```
    pub fn to_wire(&self) -> WireTerm {
        let mut writer = WireWriter::portable();
        writer.push(self.origins.len() as u64);
        for origin in &self.origins {
            writer.push_str(origin);
        }
        writer.push(self.diagnostics.len() as u64);
        for diagnostic in &self.diagnostics {
            push_diagnostic(&mut writer, diagnostic);
        }
        writer.push(self.interface.len() as u64);
        for &word in self.interface.words() {
            writer.push(word);
        }
        writer.finish()
    }

    /// Decodes a buffer produced by [`PoisonedInterface::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns the underlying [`WireError`] on truncation or malformed
    /// framing.
    pub fn from_wire(wire: &WireTerm) -> Result<PoisonedInterface, WireError> {
        let mut reader = wire.term_reader()?;
        let origin_count = reader.next_word()? as usize;
        let mut origins = Vec::with_capacity(origin_count.min(1024));
        for _ in 0..origin_count {
            origins.push(reader.next_str()?);
        }
        let diagnostic_count = reader.next_word()? as usize;
        let mut diagnostics = Vec::with_capacity(diagnostic_count.min(1024));
        for _ in 0..diagnostic_count {
            diagnostics.push(next_diagnostic(&mut reader)?);
        }
        let interface_len = reader.next_word()? as usize;
        let mut words = Vec::with_capacity(interface_len.min(1 << 20));
        for _ in 0..interface_len {
            words.push(reader.next_word()?);
        }
        reader.expect_exhausted()?;
        Ok(PoisonedInterface { interface: WireTerm::from_words(words), diagnostics, origins })
    }
}

fn push_span(writer: &mut WireWriter, span: Span) {
    writer.push(u64::from(span.start));
    writer.push(u64::from(span.end));
}

fn next_span(reader: &mut cccc_util::wire::WireReader<'_>) -> Result<Span, WireError> {
    let start = reader.next_word()? as u32;
    let end = reader.next_word()? as u32;
    Ok(Span::new(start, end))
}

fn push_diagnostic(writer: &mut WireWriter, diagnostic: &Diagnostic) {
    writer.push(match diagnostic.severity {
        Severity::Note => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
    });
    match &diagnostic.code {
        None => writer.push(0),
        Some(code) => {
            writer.push(1);
            writer.push_str(code);
        }
    }
    writer.push_str(&diagnostic.message);
    match diagnostic.span {
        None => writer.push(0),
        Some(span) => {
            writer.push(1);
            push_span(writer, span);
        }
    }
    writer.push(diagnostic.related.len() as u64);
    for (span, label) in &diagnostic.related {
        push_span(writer, *span);
        writer.push_str(label);
    }
    writer.push(diagnostic.notes.len() as u64);
    for note in &diagnostic.notes {
        writer.push_str(note);
    }
}

fn next_diagnostic(reader: &mut cccc_util::wire::WireReader<'_>) -> Result<Diagnostic, WireError> {
    let severity = match reader.next_word()? {
        0 => Severity::Note,
        1 => Severity::Warning,
        _ => Severity::Error,
    };
    let code = match reader.next_word()? {
        0 => None,
        _ => Some(reader.next_str()?),
    };
    let message = reader.next_str()?;
    let span = match reader.next_word()? {
        0 => None,
        _ => Some(next_span(reader)?),
    };
    let related_count = reader.next_word()? as usize;
    let mut related = Vec::with_capacity(related_count.min(1024));
    for _ in 0..related_count {
        let span = next_span(reader)?;
        let label = reader.next_str()?;
        related.push((span, label));
    }
    let note_count = reader.next_word()? as usize;
    let mut notes = Vec::with_capacity(note_count.min(1024));
    for _ in 0..note_count {
        notes.push(reader.next_str()?);
    }
    let mut diagnostic = match severity {
        Severity::Error => Diagnostic::error(message),
        // `warning` is the only non-error constructor; restore the exact
        // severity on the built value.
        _ => {
            let mut d = Diagnostic::warning(message);
            d.severity = severity;
            d
        }
    };
    if let Some(code) = code {
        diagnostic = diagnostic.with_code(&code);
    }
    if let Some(span) = span {
        diagnostic = diagnostic.with_span(span);
    }
    for (span, label) in related {
        diagnostic = diagnostic.with_related(span, &label);
    }
    for note in notes {
        diagnostic = diagnostic.with_note(&note);
    }
    Ok(diagnostic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source as src;
    use cccc_source::builder as s;

    fn sample() -> PoisonedInterface {
        let interface =
            src::wire::encode_portable(&s::arrow(s::bool_ty(), src::tolerant::error_term()));
        PoisonedInterface {
            interface,
            diagnostics: vec![
                Diagnostic::error("type mismatch")
                    .with_code("E0008")
                    .with_span(Span::new(4, 9))
                    .with_related(Span::new(0, 3), "expected type came from this annotation")
                    .with_note("expected `Bool`"),
                Diagnostic::warning("suspicious but tolerated"),
            ],
            origins: vec!["broken_leaf".to_owned(), "other_leaf".to_owned()],
        }
    }

    #[test]
    fn wire_round_trip_preserves_everything() {
        let poison = sample();
        let decoded = PoisonedInterface::from_wire(&poison.to_wire()).unwrap();
        assert_eq!(decoded.origins, poison.origins);
        assert_eq!(decoded.diagnostics.len(), 2);
        assert_eq!(decoded.error_count(), 1);
        let first = &decoded.diagnostics[0];
        assert_eq!(first.code.as_deref(), Some("E0008"));
        assert_eq!(first.span, Some(Span::new(4, 9)));
        assert_eq!(
            first.related,
            vec![(Span::new(0, 3), "expected type came from this annotation".to_owned())]
        );
        assert_eq!(first.notes, vec!["expected `Bool`".to_owned()]);
        let original = src::wire::decode(&poison.interface).unwrap();
        let round_tripped = src::wire::decode(&decoded.interface).unwrap();
        assert!(src::subst::alpha_eq(&original, &round_tripped));
        assert!(src::tolerant::is_poisoned(&round_tripped));
    }

    #[test]
    fn truncated_buffers_are_errors_not_panics() {
        let words = sample().to_wire();
        let words = words.words();
        for cut in 0..words.len() {
            let truncated = WireTerm::from_words(words[..cut].to_vec());
            assert!(PoisonedInterface::from_wire(&truncated).is_err());
        }
    }
}
