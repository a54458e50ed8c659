//! A side-table from interned term nodes to source spans.
//!
//! Hash-consed terms cannot carry spans in the nodes themselves — a span
//! field would break structural sharing (the two occurrences of `x` in
//! `\(x : Bool). f x x` are the *same* node). Instead the parser records
//! spans out-of-band, keyed by [`NodeId`]. It records each node on the
//! handle it has just interned, so recording interns nothing; looking up a
//! term's span costs one intern (a hit) plus one hash probe, and the kernel
//! is entirely unaware of the table.
//!
//! Consequences of keying by identity, documented rather than hidden:
//!
//! - spans are **best-effort**: a node shared between several source
//!   positions keeps the span recorded *first* (the parser records
//!   bottom-up, left-to-right, so that is the leftmost occurrence);
//! - terms built programmatically (builders, substitution, the wire codec)
//!   have no span — [`span_of`] returns `None` and diagnostics degrade to
//!   span-free messages;
//! - the table is thread-local, like the interner it shadows.
//!
//! The table is cleared at the start of every top-level parse, so it holds
//! spans for the most recently parsed program only and cannot grow without
//! bound across a long-lived session.

use crate::ast::{RcTerm, Term};
use cccc_util::intern::{FxHashMap, NodeId};
use cccc_util::span::Span;
use std::cell::RefCell;

thread_local! {
    // The entry keeps the node alive: the interner holds only weak
    // references, so without the strong `RcTerm` here a recorded node could
    // be collected and re-interned under a fresh `NodeId`, orphaning its
    // span.
    static SPANS: RefCell<FxHashMap<NodeId, (Span, RcTerm)>> =
        RefCell::new(FxHashMap::default());
}

/// Clears the table. Called by the parser at the start of each top-level
/// parse so spans always describe the most recently parsed program.
pub fn reset() {
    SPANS.with(|table| table.borrow_mut().clear());
}

/// Records `span` for the interned node `term`, keeping an existing entry
/// if one is present (first-write-wins: the parser records the leftmost
/// occurrence). Takes the handle the caller interned, so it interns nothing
/// itself; the entry keeps a clone of the handle.
pub fn record(term: &RcTerm, span: Span) {
    if span.is_dummy() {
        return;
    }
    SPANS.with(|table| {
        table.borrow_mut().entry(term.id()).or_insert_with(|| (span, term.clone()));
    });
}

/// Looks up the recorded span for `term`, if the parser saw it.
pub fn span_of(term: &Term) -> Option<Span> {
    let id = term.clone().rc().id();
    SPANS.with(|table| table.borrow().get(&id).map(|(span, _)| *span))
}

/// Number of recorded spans (diagnostic aid for tests).
pub fn len() -> usize {
    SPANS.with(|table| table.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn record_and_lookup_round_trip() {
        reset();
        let t = app(var("f"), var("x")).rc();
        record(&t, Span::new(0, 3));
        assert_eq!(span_of(&t), Some(Span::new(0, 3)));
        assert_eq!(span_of(&var("f")), None);
    }

    #[test]
    fn first_write_wins() {
        reset();
        let t = var("shared$span$probe").rc();
        record(&t, Span::new(1, 2));
        record(&t, Span::new(5, 9));
        assert_eq!(span_of(&t), Some(Span::new(1, 2)));
    }

    #[test]
    fn dummy_spans_are_not_recorded() {
        reset();
        let t = var("dummy$span$probe").rc();
        record(&t, Span::DUMMY);
        assert_eq!(span_of(&t), None);
        assert_eq!(len(), 0);
    }

    #[test]
    fn reset_empties_the_table() {
        reset();
        record(&var("reset$probe").rc(), Span::new(0, 1));
        assert!(len() > 0);
        reset();
        assert_eq!(len(), 0);
    }
}
