//! Wire codec for CC-CC terms: flatten to / re-intern from a
//! [`WireTerm`] word buffer.
//!
//! The CC-CC counterpart of `cccc_source::wire`: compiled artifacts
//! (translated terms and their types) cross worker-thread boundaries in
//! the parallel module driver as these buffers, and the artifact cache
//! keys no-op rebuilds on their [`fingerprint`]s. Shared subterms —
//! ubiquitous after closure conversion, which mass-produces identical
//! code blocks — are written once and back-referenced, so buffers are
//! linear in the hash-consed DAG.
//!
//! The codec is written once, for CC and CC-CC, in [`cccc_util::syntax`]
//! (whose module docs give both constructor tables and the word layout);
//! CC-CC keeps only its constructor table, in [`crate::ast`].

use crate::ast::Term;
use cccc_util::syntax;
use cccc_util::wire::{Fingerprint, WireError, WireTerm};

/// Encodes a CC-CC term into a thread-portable wire buffer.
pub fn encode(term: &Term) -> WireTerm {
    syntax::encode(term)
}

/// Encodes a CC-CC term into a *process*-portable wire buffer: symbols
/// travel through a relocatable symbol table
/// ([`cccc_util::wire::WireWriter::portable`]) instead of as raw
/// interner parts, so the buffer can be persisted to disk and decoded by
/// a later process. [`decode`] handles both formats transparently.
pub fn encode_portable(term: &Term) -> WireTerm {
    syntax::encode_portable(term)
}

/// The process-stable content fingerprint of a term (the fingerprint of
/// its wire encoding).
pub fn fingerprint(term: &Term) -> Fingerprint {
    syntax::fingerprint(term)
}

/// An α-invariant, *process-stable* content fingerprint — the CC-CC
/// counterpart of `cccc_source::wire::fingerprint_alpha`. Binders are
/// numbered by a de Bruijn-style scope walk instead of hashed by name,
/// so α-equivalent artifacts always agree even though closure conversion
/// freshens its environment binders differently on every recompile; free
/// variables contribute their textual names (plus generated subscript),
/// so the fingerprint is stable across processes. The query layer keys a
/// unit's *output* on this: a recompile that produced an α-equivalent
/// artifact must early-cut-off every downstream phase.
pub fn fingerprint_alpha(term: &Term) -> Fingerprint {
    syntax::fingerprint_alpha(term)
}

/// Decodes a wire buffer produced by [`encode`] or [`encode_portable`],
/// re-interning every node into the current thread's CC-CC interner.
/// For a portable buffer the embedded symbol table is relocated first
/// (plain names to identical symbols, each generated name to the one
/// symbol this process holds for it), so the result is α-equivalent to
/// the encoded term even in a different process, and decoding the same
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
    use crate::builder as t;

    fn round_trip(term: &Term) {
        let wire = encode(term);
        let decoded = decode(&wire).expect("decodes");
        assert!(
            term.clone().rc().same(&decoded.clone().rc()),
            "round trip changed term:\n  original: {term}\n  decoded:  {decoded}"
        );
        assert_eq!(wire.fingerprint(), encode(&decoded).fingerprint());
    }

    #[test]
    fn closure_forms_round_trip() {
        let code = t::code("n", t::unit_ty(), "x", t::bool_ty(), t::var("x"));
        round_trip(&code);
        round_trip(&t::closure(code.clone(), t::unit_val()));
        round_trip(&t::code_ty("n", t::unit_ty(), "x", t::bool_ty(), t::bool_ty()));
        round_trip(&t::app(t::closure(code, t::unit_val()), t::tt()));
    }

    #[test]
    fn translated_programs_round_trip_with_sharing() {
        // Translation output is the DAG-heavy case: hash-consed duplicate
        // code blocks must back-reference rather than re-serialize.
        let duplicated = {
            let code = t::code("n", t::unit_ty(), "x", t::bool_ty(), t::var("x"));
            let clo = t::closure(code, t::unit_val());
            t::pair(clo.clone(), clo, t::sigma("_p", t::bool_ty(), t::bool_ty()))
        };
        let wire = encode(&duplicated);
        round_trip(&duplicated);
        let single = encode(&t::closure(
            t::code("n", t::unit_ty(), "x", t::bool_ty(), t::var("x")),
            t::unit_val(),
        ));
        assert!(wire.len() < 2 * single.len());
    }

    #[test]
    fn unit_forms_round_trip() {
        round_trip(&t::unit_ty());
        round_trip(&t::unit_val());
        round_trip(&t::ite(t::tt(), t::unit_val(), t::unit_val()));
        round_trip(&t::let_("u", t::unit_ty(), t::unit_val(), t::var("u")));
        round_trip(&t::fst(t::var("p")));
        round_trip(&t::snd(t::var("p")));
        round_trip(&t::pi("A", t::star(), t::var("A")));
        round_trip(&t::boxu());
    }

    #[test]
    fn fingerprints_distinguish_terms() {
        assert_ne!(fingerprint(&t::tt()), fingerprint(&t::ff()));
        assert_ne!(fingerprint(&t::unit_ty()), fingerprint(&t::unit_val()));
    }

    #[test]
    fn alpha_fingerprints_quotient_binder_names() {
        // The closure-conversion case: the same code block with differently
        // freshened env/arg binders must fingerprint identically …
        let a = t::code("n", t::unit_ty(), "x", t::bool_ty(), t::var("x"));
        let b = t::code("m", t::unit_ty(), "y", t::bool_ty(), t::var("y"));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint_alpha(&a), fingerprint_alpha(&b));
        // … the env binder scopes over the body too …
        let env_a = t::code("n", t::bool_ty(), "x", t::bool_ty(), t::var("n"));
        let env_b = t::code("m", t::bool_ty(), "y", t::bool_ty(), t::var("m"));
        let arg_ref = t::code("m", t::bool_ty(), "y", t::bool_ty(), t::var("y"));
        assert_eq!(fingerprint_alpha(&env_a), fingerprint_alpha(&env_b));
        assert_ne!(fingerprint_alpha(&env_a), fingerprint_alpha(&arg_ref));
        // … code types are quotiented the same way …
        let ty_a = t::code_ty("n", t::unit_ty(), "x", t::bool_ty(), t::bool_ty());
        let ty_b = t::code_ty("e", t::unit_ty(), "v", t::bool_ty(), t::bool_ty());
        assert_eq!(fingerprint_alpha(&ty_a), fingerprint_alpha(&ty_b));
        // … free variables still count by name …
        assert_ne!(fingerprint_alpha(&t::var("p")), fingerprint_alpha(&t::var("q")));
        // … and Π/Σ/let binders are quotiented too.
        let pi_a = t::pi("A", t::star(), t::var("A"));
        let pi_b = t::pi("B", t::star(), t::var("B"));
        assert_eq!(fingerprint_alpha(&pi_a), fingerprint_alpha(&pi_b));
        let let_a = t::let_("u", t::unit_ty(), t::unit_val(), t::var("u"));
        let let_b = t::let_("w", t::unit_ty(), t::unit_val(), t::var("w"));
        assert_eq!(fingerprint_alpha(&let_a), fingerprint_alpha(&let_b));
    }

    #[test]
    fn alpha_fingerprints_hash_free_variables_by_name() {
        // A free plain symbol and a free generated symbol with the same
        // base name must not collide …
        let plain = t::var("w");
        let generated = cccc_util::symbol::Symbol::fresh("w");
        assert_ne!(fingerprint_alpha(&plain), fingerprint_alpha(&Term::Var(generated)));
        // … two interned copies of the same name agree …
        assert_eq!(fingerprint_alpha(&t::var("w")), fingerprint_alpha(&plain));
        // … and a plain symbol textually equal to a generated symbol's
        // display form does not alias it.
        let aliased = t::var(&format!("w${}", generated.disambiguator()));
        assert_ne!(fingerprint_alpha(&aliased), fingerprint_alpha(&Term::Var(generated)));
    }

    #[test]
    fn alpha_fingerprints_are_stable_across_generated_binder_refreshes() {
        // Encode portably, decode (relocating generated binders to symbols
        // new to the reader), and the α-fingerprint must not move — the
        // property the query layer's early cutoff rests on.
        let env_binder = cccc_util::symbol::Symbol::fresh("env");
        let generated =
            t::code_sym(env_binder, t::unit_ty(), "y".into(), t::bool_ty(), t::var("y"));
        let decoded = decode(&encode_portable(&generated)).unwrap();
        assert_ne!(fingerprint(&generated), fingerprint(&decoded));
        assert_eq!(fingerprint_alpha(&generated), fingerprint_alpha(&decoded));
    }

    #[test]
    fn corrupt_buffers_are_rejected() {
        use cccc_util::wire::WireWriter;
        let mut w = WireWriter::new();
        w.push(77);
        assert!(matches!(decode(&w.finish()), Err(WireError::BadTag(77))));
    }

    #[test]
    fn portable_buffers_round_trip() {
        // Closure-converted shapes with only plain names relocate to
        // structurally identical terms …
        let code = t::code("n", t::unit_ty(), "x", t::bool_ty(), t::var("x"));
        let program = t::app(t::closure(code, t::unit_val()), t::tt());
        let wire = encode_portable(&program);
        assert!(wire.is_portable());
        let decoded = decode(&wire).expect("portable buffer decodes");
        assert!(program.clone().rc().same(&decoded.clone().rc()));

        // … and bound generated binders (the environment parameter
        // closure conversion generates) relocate to symbols new to the
        // reader, so they come back α-equivalent.
        let env_binder = cccc_util::symbol::Symbol::fresh("env");
        let generated =
            t::code_sym(env_binder, t::unit_ty(), "y".into(), t::bool_ty(), t::var("y"));
        let decoded = decode(&encode_portable(&generated)).unwrap();
        assert!(crate::subst::alpha_eq(&generated, &decoded));
    }

    #[test]
    fn redecoding_a_portable_buffer_yields_the_same_nodes() {
        // Generated names (an environment binder, an `arrow` binder)
        // relocate to one symbol per process, so a second decode on this
        // thread rebuilds the identical root node.
        let env_binder = cccc_util::symbol::Symbol::fresh("n");
        let arg_ty = t::arrow(t::bool_ty(), t::bool_ty());
        let code = t::code_sym(env_binder, t::unit_ty(), "x".into(), arg_ty, t::var("x"));
        let wire = encode_portable(&t::closure(code, t::unit_val()));
        let first = decode(&wire).unwrap().rc();
        let second = decode(&wire).unwrap().rc();
        assert!(first.same(&second));
    }

    #[test]
    fn generated_binders_with_one_base_name_relocate_without_capture() {
        // `Π _$a : ⋆. Π _$b : ⋆. _$a`: relocating both binders to one
        // symbol would make the body name the inner binder.
        let a = cccc_util::symbol::Symbol::fresh("_");
        let b = cccc_util::symbol::Symbol::fresh("_");
        let term = t::pi_sym(a, t::star(), t::pi_sym(b, t::star(), Term::Var(a)));
        let decoded = decode(&encode_portable(&term)).unwrap();
        assert!(crate::subst::alpha_eq(&term, &decoded));
        let Term::Pi { binder: outer, codomain, .. } = &decoded else { panic!("{decoded}") };
        let Term::Pi { binder: inner, codomain: body, .. } = &**codomain else {
            panic!("{decoded}")
        };
        assert_ne!(outer, inner);
        assert_eq!(**body, Term::Var(*outer));
    }

    #[test]
    fn decode_and_drop_cycles_leave_the_interner_table_flat() {
        // Each cycle decodes a depth-40 `arrow` tower and drops it. With
        // relocated names every cycle rebuilds the same nodes, so the
        // table stops growing once the first cycle has filled it.
        let mut tower = t::bool_ty();
        for _ in 0..40 {
            tower = t::arrow(t::bool_ty(), tower);
        }
        let wire = encode_portable(&tower);
        let cycle = || drop(decode(&wire).unwrap().rc());
        (0..20).for_each(|_| cycle());
        let settled = crate::ast::intern_table_len();
        (20..400).for_each(|_| cycle());
        assert_eq!(crate::ast::intern_table_len(), settled);
    }
}
