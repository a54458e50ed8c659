//! Wire codec for CC terms: flatten to / re-intern from a
//! [`WireTerm`] word buffer.
//!
//! [`RcTerm`](crate::ast::RcTerm) handles are `!Send` by design
//! (per-thread interners, see [`cccc_util::intern`]); this module is how CC
//! terms cross thread boundaries in the parallel module driver. [`encode`]
//! runs on the producing thread and writes a compact, deterministic buffer
//! — shared subterms are emitted once and back-referenced by index, so the
//! buffer is linear in the hash-consed DAG, not the tree. [`decode`] runs
//! on the consuming thread and re-interns bottom-up, so decoded terms are
//! first-class citizens of that thread's interner (cached metadata, memo
//! eligibility, identity fast paths) from the moment they exist.
//!
//! [`fingerprint`] hashes the encoding into a process-stable 128-bit
//! content fingerprint — the unit of cache keying in the driver.
//!
//! The codec is written once, for CC and CC-CC, in [`cccc_util::syntax`]
//! (whose module docs give both constructor tables and the word layout);
//! CC keeps only its constructor table, in [`crate::ast`].

use crate::ast::Term;
use cccc_util::syntax;
use cccc_util::wire::{Fingerprint, WireError, WireTerm};

/// Encodes a CC term into a thread-portable wire buffer.
pub fn encode(term: &Term) -> WireTerm {
    syntax::encode(term)
}

/// Encodes a CC term into a *process*-portable wire buffer: symbols are
/// written through a relocatable symbol table
/// ([`cccc_util::wire::WireWriter::portable`]) instead of as raw interner
/// parts, so the buffer can be persisted to disk and decoded by a later
/// process. [`decode`] handles both formats transparently.
pub fn encode_portable(term: &Term) -> WireTerm {
    syntax::encode_portable(term)
}

/// The process-stable content fingerprint of a term (the fingerprint of
/// its wire encoding). Structural: α-variants fingerprint differently.
pub fn fingerprint(term: &Term) -> Fingerprint {
    syntax::fingerprint(term)
}

/// An α-invariant, *process-stable* content fingerprint: binders are
/// numbered by a de Bruijn-style scope walk instead of hashed by name,
/// so α-equivalent terms always agree (and structurally unequal terms
/// disagree with hash probability), and free variables contribute their
/// textual names rather than raw interner parts, so the same term
/// fingerprints identically in any process. The driver fingerprints
/// exported *interfaces* and unit sources this way: recompiling an
/// import whose inferred type merely re-freshened a binder must not
/// invalidate every dependent, and a fresh process consulting the
/// persistent artifact store must recompute the keys an earlier process
/// wrote. (A *generated* symbol occurring free — never the case for
/// well-formed units, whose free names are their plain import names —
/// still folds in its process-local subscript, keeping distinct
/// generated names distinct at the price of stability in that corner.)
pub fn fingerprint_alpha(term: &Term) -> Fingerprint {
    syntax::fingerprint_alpha(term)
}

/// Decodes a wire buffer produced by [`encode`] or [`encode_portable`],
/// re-interning every node into the current thread's CC interner. For a
/// portable buffer the embedded symbol table is relocated first: plain
/// names resolve to the identical symbols, and each generated name to the
/// one symbol this process holds for it. The result is α-equivalent to
/// (and, when no generated symbols occur, structurally identical to) the
/// encoded term even in a different process, and decoding the same
/// buffer again yields the same nodes.
///
/// # Errors
///
/// Returns a [`WireError`] if the buffer is corrupt (truncated, unknown
/// tag, bad back-reference, bad symbol table, or trailing words).
pub fn decode(wire: &WireTerm) -> Result<Term, WireError> {
    syntax::decode(wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::prelude;
    use cccc_util::symbol::Symbol;

    fn round_trip(term: &Term) {
        let wire = encode(term);
        let decoded = decode(&wire).expect("decodes");
        // Structural identity, not merely α-equivalence: re-interning the
        // decoded term yields the same node as re-interning the original.
        assert!(
            term.clone().rc().same(&decoded.clone().rc()),
            "round trip changed term:\n  original: {term}\n  decoded:  {decoded}"
        );
        assert_eq!(wire.fingerprint(), encode(&decoded).fingerprint());
    }

    #[test]
    fn corpus_round_trips() {
        for entry in prelude::corpus() {
            round_trip(&entry.term);
        }
    }

    #[test]
    fn generated_symbols_round_trip() {
        round_trip(&arrow(bool_ty(), bool_ty()));
        round_trip(&lam("x", bool_ty(), app(var("f"), var("x"))));
    }

    #[test]
    fn shared_subterms_are_backreferenced() {
        // `<f x, f x> as Σ _ : Bool. Bool` shares the `f x` node.
        let shared = app(var("f"), var("x"));
        let term = pair(shared.clone(), shared, sigma("_s", bool_ty(), bool_ty()));
        let wire = encode(&term);
        // A naive tree encoding of the two `f x` occurrences would repeat
        // the application; the DAG encoding back-references instead, so
        // the buffer must be shorter than twice the single-occurrence one.
        let single = encode(&app(var("f"), var("x")));
        assert!(wire.len() < 2 * single.len() + 10);
        round_trip(&term);
    }

    #[test]
    fn fingerprints_distinguish_terms() {
        assert_ne!(fingerprint(&tt()), fingerprint(&ff()));
        assert_ne!(
            fingerprint(&lam("x", bool_ty(), var("x"))),
            fingerprint(&lam("y", bool_ty(), var("y"))),
            "fingerprints are structural, not α-quotiented"
        );
        assert_eq!(fingerprint(&prelude::poly_id()), fingerprint(&prelude::poly_id()));
    }

    #[test]
    fn alpha_fingerprints_quotient_binder_names() {
        // α-variants agree …
        let a = lam("x", bool_ty(), var("x"));
        let b = lam("y", bool_ty(), var("y"));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint_alpha(&a), fingerprint_alpha(&b));
        // … including under shadowing …
        let shadowed = lam("x", bool_ty(), lam("x", bool_ty(), var("x")));
        let renamed = lam("x", bool_ty(), lam("y", bool_ty(), var("y")));
        let outer = lam("x", bool_ty(), lam("y", bool_ty(), var("x")));
        assert_eq!(fingerprint_alpha(&shadowed), fingerprint_alpha(&renamed));
        assert_ne!(fingerprint_alpha(&shadowed), fingerprint_alpha(&outer));
        // … free variables still count by name …
        assert_ne!(fingerprint_alpha(&var("p")), fingerprint_alpha(&var("q")));
        // … and Π/Σ binders are quotiented too (the interface case).
        let pi_a = pi("A", star(), arrow(var("A"), var("A")));
        let pi_b = pi("B", star(), arrow(var("B"), var("B")));
        assert_eq!(fingerprint_alpha(&pi_a), fingerprint_alpha(&pi_b));
    }

    #[test]
    fn portable_buffers_round_trip() {
        // Every corpus program relocates to an α-equivalent term (some
        // prelude terms carry generated binders, which relocate to symbols
        // new to the reader).
        for entry in prelude::corpus() {
            let wire = encode_portable(&entry.term);
            assert!(wire.is_portable());
            let decoded = decode(&wire).expect("portable buffer decodes");
            assert!(
                crate::subst::alpha_eq(&entry.term, &decoded),
                "`{}` changed across a portable round trip",
                entry.name
            );
        }
        // A term whose names are all plain relocates to the structurally
        // identical term: every plain name re-interns to itself.
        let plain = lam("x", bool_ty(), app(var("f"), var("x")));
        let decoded = decode(&encode_portable(&plain)).unwrap();
        assert!(plain.clone().rc().same(&decoded.clone().rc()));
        // Bound generated symbols relocate to names new to the reader; the
        // result is α-equivalent even though the subscripts differ.
        let fresh = cccc_util::symbol::Symbol::fresh("v");
        let t = Term::Lam {
            binder: fresh,
            domain: bool_ty().rc(),
            body: app(var("f"), Term::Var(fresh)).rc(),
        };
        let decoded = decode(&encode_portable(&t)).unwrap();
        assert!(crate::subst::alpha_eq(&t, &decoded));
        match &decoded {
            Term::Lam { binder, .. } => {
                assert_ne!(*binder, fresh, "generated binder is re-disambiguated");
                assert!(binder.is_generated());
            }
            other => panic!("expected lambda, got {other}"),
        }
    }

    #[test]
    fn redecoding_a_portable_buffer_yields_the_same_nodes() {
        // Every prelude program, generated binders included, decodes to
        // the identical root node the second time on one thread.
        for entry in prelude::corpus() {
            let wire = encode_portable(&entry.term);
            let first = decode(&wire).unwrap().rc();
            let second = decode(&wire).unwrap().rc();
            assert!(first.same(&second), "`{}` decoded to new nodes", entry.name);
        }
        let wire = encode_portable(&arrow(bool_ty(), product(bool_ty(), bool_ty())));
        assert!(decode(&wire).unwrap().rc().same(&decode(&wire).unwrap().rc()));
    }

    #[test]
    fn generated_binders_with_one_base_name_relocate_without_capture() {
        // `λ _$a : 𝔹. λ _$b : 𝔹. _$a`: relocating both binders to one
        // symbol would make the body name the inner binder.
        let a = Symbol::fresh("_");
        let b = Symbol::fresh("_");
        let term = lam_sym(a, bool_ty(), lam_sym(b, bool_ty(), Term::Var(a)));
        let decoded = decode(&encode_portable(&term)).unwrap();
        assert!(crate::subst::alpha_eq(&term, &decoded));
        let Term::Lam { binder: outer, body, .. } = &decoded else { panic!("{decoded}") };
        let Term::Lam { binder: inner, body, .. } = &**body else { panic!("{decoded}") };
        assert_ne!(outer, inner);
        assert_eq!(**body, Term::Var(*outer));
    }

    #[test]
    fn alpha_fingerprints_hash_free_variables_by_name() {
        // A free plain symbol and a free generated symbol with the same
        // base name must not collide …
        let plain = var("w");
        let generated = cccc_util::symbol::Symbol::fresh("w");
        assert_ne!(fingerprint_alpha(&plain), fingerprint_alpha(&Term::Var(generated)));
        // … and two interned copies of the same name agree (name-based,
        // not identity-based — the property a fresh process relies on).
        assert_eq!(fingerprint_alpha(&var("w")), fingerprint_alpha(&plain));
        // The generated subscript is hashed as its own word, never
        // rendered into the name: a plain symbol that *textually* equals
        // a generated symbol's display form must not alias it.
        let aliased = var(&format!("w${}", generated.disambiguator()));
        assert_ne!(fingerprint_alpha(&aliased), fingerprint_alpha(&Term::Var(generated)));
    }

    #[test]
    fn corrupt_buffers_are_rejected() {
        use cccc_util::wire::WireWriter;
        let mut w = WireWriter::new();
        w.push(99);
        assert!(matches!(decode(&w.finish()), Err(WireError::BadTag(99))));
        // A backref at the root is impossible output of the encoder, so it
        // reads as an unknown tag; a *nested* out-of-range backref is the
        // real corruption case.
        let mut w = WireWriter::new();
        w.push(syntax::BACKREF);
        w.push(7);
        assert!(matches!(decode(&w.finish()), Err(WireError::BadTag(syntax::BACKREF))));
        let mut w = WireWriter::new();
        w.push(10); // `fst`
        w.push(syntax::BACKREF);
        w.push(7);
        assert!(matches!(decode(&w.finish()), Err(WireError::BadBackref(7))));
        let empty = WireWriter::new().finish();
        assert!(matches!(decode(&empty), Err(WireError::Truncated)));
    }
}
