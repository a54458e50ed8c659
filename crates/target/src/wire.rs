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

use crate::ast::{RcTerm, Term, Universe};
use cccc_util::intern::{FxHashMap, NodeId};
use cccc_util::symbol::Symbol;
use cccc_util::wire::{Fingerprint, WireError, WireReader, WireTerm, WireWriter};

const TAG_BACKREF: u64 = 0;
const TAG_VAR: u64 = 1;
const TAG_STAR: u64 = 2;
const TAG_BOX: u64 = 3;
const TAG_PI: u64 = 4;
const TAG_CODE: u64 = 5;
const TAG_CODE_TY: u64 = 6;
const TAG_CLOSURE: u64 = 7;
const TAG_APP: u64 = 8;
const TAG_LET: u64 = 9;
const TAG_SIGMA: u64 = 10;
const TAG_PAIR: u64 = 11;
const TAG_FST: u64 = 12;
const TAG_SND: u64 = 13;
const TAG_UNIT: u64 = 14;
const TAG_UNIT_VAL: u64 = 15;
const TAG_BOOL_TY: u64 = 16;
const TAG_BOOL_LIT: u64 = 17;
const TAG_IF: u64 = 18;

/// Encodes a CC-CC term into a thread-portable wire buffer.
pub fn encode(term: &Term) -> WireTerm {
    let mut writer = WireWriter::new();
    let mut seen: FxHashMap<NodeId, u64> = FxHashMap::default();
    encode_head(term, &mut writer, &mut seen);
    writer.finish()
}

/// Encodes a CC-CC term into a *process*-portable wire buffer: symbols
/// travel through a relocatable symbol table
/// ([`cccc_util::wire::WireWriter::portable`]) instead of as raw
/// interner parts, so the buffer can be persisted to disk and decoded by
/// a later process. [`decode`] handles both formats transparently.
pub fn encode_portable(term: &Term) -> WireTerm {
    let mut writer = WireWriter::portable();
    let mut seen: FxHashMap<NodeId, u64> = FxHashMap::default();
    encode_head(term, &mut writer, &mut seen);
    writer.finish()
}

/// The process-stable content fingerprint of a term (the fingerprint of
/// its wire encoding).
pub fn fingerprint(term: &Term) -> Fingerprint {
    encode(term).fingerprint()
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
    let mut writer = WireWriter::new();
    let mut scope: Vec<Symbol> = Vec::new();
    encode_alpha(term, &mut writer, &mut scope);
    writer.finish().fingerprint()
}

/// Writes an occurrence of `x`: its scope depth when bound (counted from
/// the innermost binder), its base name plus generated-subscript when
/// free. The subscript is a separate word — not rendered into the name —
/// so a plain symbol whose name contains `$` can never alias a generated
/// symbol.
fn push_alpha_var(x: Symbol, writer: &mut WireWriter, scope: &[Symbol]) {
    match scope.iter().rev().position(|&b| b == x) {
        Some(depth) => {
            writer.push(1);
            writer.push(depth as u64);
        }
        None => {
            writer.push(0);
            writer.push_str(x.base_name());
            writer.push(x.disambiguator());
        }
    }
}

/// The α-invariant encoding: same tags as [`encode`], but no subterm
/// sharing (back-references would be scope-sensitive) and binders
/// contribute only their positions. `Code`/`CodeTy` bind the environment
/// binder *and* the argument binder in the body/result — both are pushed
/// (environment first, matching the field order the typechecker scopes
/// them in), with the annotations encoded outside.
fn encode_alpha(term: &Term, writer: &mut WireWriter, scope: &mut Vec<Symbol>) {
    match term {
        Term::Var(x) => {
            writer.push(TAG_VAR);
            push_alpha_var(*x, writer, scope);
        }
        Term::Sort(Universe::Star) => writer.push(TAG_STAR),
        Term::Sort(Universe::Box) => writer.push(TAG_BOX),
        Term::Pi { binder, domain, codomain } => {
            writer.push(TAG_PI);
            encode_alpha(domain, writer, scope);
            scope.push(*binder);
            encode_alpha(codomain, writer, scope);
            scope.pop();
        }
        Term::Code { env_binder, env_ty, arg_binder, arg_ty, body } => {
            writer.push(TAG_CODE);
            encode_alpha(env_ty, writer, scope);
            scope.push(*env_binder);
            encode_alpha(arg_ty, writer, scope);
            scope.push(*arg_binder);
            encode_alpha(body, writer, scope);
            scope.pop();
            scope.pop();
        }
        Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => {
            writer.push(TAG_CODE_TY);
            encode_alpha(env_ty, writer, scope);
            scope.push(*env_binder);
            encode_alpha(arg_ty, writer, scope);
            scope.push(*arg_binder);
            encode_alpha(result, writer, scope);
            scope.pop();
            scope.pop();
        }
        Term::Closure { code, env } => {
            writer.push(TAG_CLOSURE);
            encode_alpha(code, writer, scope);
            encode_alpha(env, writer, scope);
        }
        Term::App { func, arg } => {
            writer.push(TAG_APP);
            encode_alpha(func, writer, scope);
            encode_alpha(arg, writer, scope);
        }
        Term::Let { binder, annotation, bound, body } => {
            writer.push(TAG_LET);
            encode_alpha(annotation, writer, scope);
            encode_alpha(bound, writer, scope);
            scope.push(*binder);
            encode_alpha(body, writer, scope);
            scope.pop();
        }
        Term::Sigma { binder, first, second } => {
            writer.push(TAG_SIGMA);
            encode_alpha(first, writer, scope);
            scope.push(*binder);
            encode_alpha(second, writer, scope);
            scope.pop();
        }
        Term::Pair { first, second, annotation } => {
            writer.push(TAG_PAIR);
            encode_alpha(first, writer, scope);
            encode_alpha(second, writer, scope);
            encode_alpha(annotation, writer, scope);
        }
        Term::Fst(e) => {
            writer.push(TAG_FST);
            encode_alpha(e, writer, scope);
        }
        Term::Snd(e) => {
            writer.push(TAG_SND);
            encode_alpha(e, writer, scope);
        }
        Term::Unit => writer.push(TAG_UNIT),
        Term::UnitVal => writer.push(TAG_UNIT_VAL),
        Term::BoolTy => writer.push(TAG_BOOL_TY),
        Term::BoolLit(b) => {
            writer.push(TAG_BOOL_LIT);
            writer.push(u64::from(*b));
        }
        Term::If { scrutinee, then_branch, else_branch } => {
            writer.push(TAG_IF);
            encode_alpha(scrutinee, writer, scope);
            encode_alpha(then_branch, writer, scope);
            encode_alpha(else_branch, writer, scope);
        }
    }
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
    let mut reader = wire.term_reader()?;
    let mut nodes: Vec<RcTerm> = Vec::new();
    let term = decode_head(&mut reader, &mut nodes)?;
    reader.expect_exhausted()?;
    Ok(term)
}

fn encode_node(node: &RcTerm, writer: &mut WireWriter, seen: &mut FxHashMap<NodeId, u64>) {
    if let Some(&index) = seen.get(&node.id()) {
        writer.push(TAG_BACKREF);
        writer.push(index);
        return;
    }
    encode_head(node, writer, seen);
    let index = seen.len() as u64;
    seen.insert(node.id(), index);
}

fn encode_head(term: &Term, writer: &mut WireWriter, seen: &mut FxHashMap<NodeId, u64>) {
    match term {
        Term::Var(x) => {
            writer.push(TAG_VAR);
            writer.push_symbol(*x);
        }
        Term::Sort(Universe::Star) => writer.push(TAG_STAR),
        Term::Sort(Universe::Box) => writer.push(TAG_BOX),
        Term::Pi { binder, domain, codomain } => {
            writer.push(TAG_PI);
            writer.push_symbol(*binder);
            encode_node(domain, writer, seen);
            encode_node(codomain, writer, seen);
        }
        Term::Code { env_binder, env_ty, arg_binder, arg_ty, body } => {
            writer.push(TAG_CODE);
            writer.push_symbol(*env_binder);
            writer.push_symbol(*arg_binder);
            encode_node(env_ty, writer, seen);
            encode_node(arg_ty, writer, seen);
            encode_node(body, writer, seen);
        }
        Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => {
            writer.push(TAG_CODE_TY);
            writer.push_symbol(*env_binder);
            writer.push_symbol(*arg_binder);
            encode_node(env_ty, writer, seen);
            encode_node(arg_ty, writer, seen);
            encode_node(result, writer, seen);
        }
        Term::Closure { code, env } => {
            writer.push(TAG_CLOSURE);
            encode_node(code, writer, seen);
            encode_node(env, writer, seen);
        }
        Term::App { func, arg } => {
            writer.push(TAG_APP);
            encode_node(func, writer, seen);
            encode_node(arg, writer, seen);
        }
        Term::Let { binder, annotation, bound, body } => {
            writer.push(TAG_LET);
            writer.push_symbol(*binder);
            encode_node(annotation, writer, seen);
            encode_node(bound, writer, seen);
            encode_node(body, writer, seen);
        }
        Term::Sigma { binder, first, second } => {
            writer.push(TAG_SIGMA);
            writer.push_symbol(*binder);
            encode_node(first, writer, seen);
            encode_node(second, writer, seen);
        }
        Term::Pair { first, second, annotation } => {
            writer.push(TAG_PAIR);
            encode_node(first, writer, seen);
            encode_node(second, writer, seen);
            encode_node(annotation, writer, seen);
        }
        Term::Fst(e) => {
            writer.push(TAG_FST);
            encode_node(e, writer, seen);
        }
        Term::Snd(e) => {
            writer.push(TAG_SND);
            encode_node(e, writer, seen);
        }
        Term::Unit => writer.push(TAG_UNIT),
        Term::UnitVal => writer.push(TAG_UNIT_VAL),
        Term::BoolTy => writer.push(TAG_BOOL_TY),
        Term::BoolLit(b) => {
            writer.push(TAG_BOOL_LIT);
            writer.push(u64::from(*b));
        }
        Term::If { scrutinee, then_branch, else_branch } => {
            writer.push(TAG_IF);
            encode_node(scrutinee, writer, seen);
            encode_node(then_branch, writer, seen);
            encode_node(else_branch, writer, seen);
        }
    }
}

fn decode_node(reader: &mut WireReader<'_>, nodes: &mut Vec<RcTerm>) -> Result<RcTerm, WireError> {
    if reader.peek() == Some(TAG_BACKREF) {
        reader.next_word()?;
        let index = reader.next_word()?;
        return nodes.get(index as usize).cloned().ok_or(WireError::BadBackref(index));
    }
    let term = decode_head(reader, nodes)?;
    let node = term.rc();
    nodes.push(node.clone());
    Ok(node)
}

fn decode_head(reader: &mut WireReader<'_>, nodes: &mut Vec<RcTerm>) -> Result<Term, WireError> {
    let tag = reader.next_word()?;
    Ok(match tag {
        TAG_VAR => Term::Var(reader.next_symbol()?),
        TAG_STAR => Term::Sort(Universe::Star),
        TAG_BOX => Term::Sort(Universe::Box),
        TAG_PI => {
            let binder = reader.next_symbol()?;
            let domain = decode_node(reader, nodes)?;
            let codomain = decode_node(reader, nodes)?;
            Term::Pi { binder, domain, codomain }
        }
        TAG_CODE => {
            let env_binder = reader.next_symbol()?;
            let arg_binder = reader.next_symbol()?;
            let env_ty = decode_node(reader, nodes)?;
            let arg_ty = decode_node(reader, nodes)?;
            let body = decode_node(reader, nodes)?;
            Term::Code { env_binder, env_ty, arg_binder, arg_ty, body }
        }
        TAG_CODE_TY => {
            let env_binder = reader.next_symbol()?;
            let arg_binder = reader.next_symbol()?;
            let env_ty = decode_node(reader, nodes)?;
            let arg_ty = decode_node(reader, nodes)?;
            let result = decode_node(reader, nodes)?;
            Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result }
        }
        TAG_CLOSURE => {
            let code = decode_node(reader, nodes)?;
            let env = decode_node(reader, nodes)?;
            Term::Closure { code, env }
        }
        TAG_APP => {
            let func = decode_node(reader, nodes)?;
            let arg = decode_node(reader, nodes)?;
            Term::App { func, arg }
        }
        TAG_LET => {
            let binder = reader.next_symbol()?;
            let annotation = decode_node(reader, nodes)?;
            let bound = decode_node(reader, nodes)?;
            let body = decode_node(reader, nodes)?;
            Term::Let { binder, annotation, bound, body }
        }
        TAG_SIGMA => {
            let binder = reader.next_symbol()?;
            let first = decode_node(reader, nodes)?;
            let second = decode_node(reader, nodes)?;
            Term::Sigma { binder, first, second }
        }
        TAG_PAIR => {
            let first = decode_node(reader, nodes)?;
            let second = decode_node(reader, nodes)?;
            let annotation = decode_node(reader, nodes)?;
            Term::Pair { first, second, annotation }
        }
        TAG_FST => Term::Fst(decode_node(reader, nodes)?),
        TAG_SND => Term::Snd(decode_node(reader, nodes)?),
        TAG_UNIT => Term::Unit,
        TAG_UNIT_VAL => Term::UnitVal,
        TAG_BOOL_TY => Term::BoolTy,
        TAG_BOOL_LIT => Term::BoolLit(reader.next_word()? != 0),
        TAG_IF => {
            let scrutinee = decode_node(reader, nodes)?;
            let then_branch = decode_node(reader, nodes)?;
            let else_branch = decode_node(reader, nodes)?;
            Term::If { scrutinee, then_branch, else_branch }
        }
        other => return Err(WireError::BadTag(other)),
    })
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
