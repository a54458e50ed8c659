//! One binding structure for CC and CC-CC: node metadata, traversal, free
//! variables, capture-avoiding substitution, α-equivalence and the wire
//! codec, written once over a [`Syntax`] each language implements on its
//! `Term`.
//!
//! CC-CC's grammar (Fig. 5) is CC's (Fig. 1) plus closures and two forms
//! that bind two names: code `λ (n : A′, x : A). e` and the code type
//! `Code (n : A′, x : A). B`. Every algorithm here differs between the two
//! languages only in which binders scope over which children, so a
//! language supplies its constructor table ([`Syntax::shape`]) and takes a
//! node apart into [`Parts`] and puts it back together; the rest is
//! generic, monomorphized in each language crate behind that crate's
//! `subst`, `wire` and `ast` functions.
//!
//! # The scope rule
//!
//! A node has at most two binders, an optional scalar word (a boolean
//! literal) and at most three children. Each child is scoped by a prefix of
//! the node's binders: [`Shape::scopes`] says, per child, how many leading
//! binders scope over it. Where both binders scope over a child and share
//! a name, the later one shadows the earlier.
//!
//! | CC tag | CC-CC tag | Constructor | [`Shape`] | Binders | Scalar | Child scopes |
//! |---|---|---|---|---|---|---|
//! | 0 | 0 | back-reference (wire only, [`BACKREF`]) | — | | | |
//! | 1 | 1 | variable `x` ([`Syntax::VAR`]) | — | | | |
//! | 2, 3 | 2, 3 | `⋆`, `□` | [`Shape::LEAF`] | 0 | no | — |
//! | 4 | 4 | `Π x : A. B` | [`Shape::BINDER`] | 1 | no | 0, 1 |
//! | 5 | — | `λ x : A. e` | [`Shape::BINDER`] | 1 | no | 0, 1 |
//! | — | 5 | code `λ (n : A′, x : A). e` | [`Shape::TELESCOPE`] | 2 | no | 0, 1, 2 |
//! | — | 6 | `Code (n : A′, x : A). B` | [`Shape::TELESCOPE`] | 2 | no | 0, 1, 2 |
//! | — | 7 | closure `⟪e, e′⟫` | [`Shape::BINARY`] | 0 | no | 0, 0 |
//! | 6 | 8 | application `e e′` | [`Shape::BINARY`] | 0 | no | 0, 0 |
//! | 7 | 9 | `let x = e : A in e′` (children `A`, `e`, `e′`) | [`Shape::LET`] | 1 | no | 0, 0, 1 |
//! | 8 | 10 | `Σ x : A. B` | [`Shape::BINDER`] | 1 | no | 0, 1 |
//! | 9 | 11 | `⟨e₁, e₂⟩ as A` | [`Shape::TERNARY`] | 0 | no | 0, 0, 0 |
//! | 10, 11 | 12, 13 | `fst e`, `snd e` | [`Shape::UNARY`] | 0 | no | 0 |
//! | — | 14, 15 | `1`, `⟨⟩` | [`Shape::LEAF`] | 0 | no | — |
//! | 12 | 16 | `Bool` | [`Shape::LEAF`] | 0 | no | — |
//! | 13 | 17 | `true`, `false` | [`Shape::SCALAR`] | 0 | 1, 0 | — |
//! | 14 | 18 | `if e then e₁ else e₂` | [`Shape::TERNARY`] | 0 | no | 0, 0, 0 |
//!
//! # The wire formats
//!
//! The raw ([`encode`]) and portable ([`encode_portable`]) encodings write
//! a node as its tag, its binders, its scalar and then its children, each
//! child inline or as a back-reference `0, i` to the `i`-th node completed
//! (postorder); a variable is its tag and its symbol. The α-encoding behind
//! [`fingerprint_alpha`] writes the tag, the scalar and the children, no
//! binders and no sharing: a bound variable is `1` and its scope depth
//! counted from the innermost binder, a free one `0`, its base name and
//! its generated subscript. [`decode`] reads what the table says a tag
//! carries and rejects any other tag as [`WireError::BadTag`].

use crate::intern::{FreeVars, FxHashMap, Node, NodeId, NodeMeta, ThreadInterned};
use crate::symbol::Symbol;
use crate::wire::{Fingerprint, WireError, WireReader, WireTerm, WireWriter};
use std::collections::{HashMap, HashSet};

/// The wire tag of a back-reference to a node already written; no
/// constructor uses it.
pub const BACKREF: u64 = 0;

/// What a constructor carries besides its tag: one entry of a language's
/// constructor table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Shape {
    /// How many binders the node has (at most two).
    pub binders: usize,
    /// Whether the node carries a scalar word.
    pub scalar: bool,
    /// Per child, left to right, how many leading binders scope over it;
    /// its length is the number of children (at most three).
    pub scopes: &'static [usize],
}

impl Shape {
    /// No binder, scalar or child: universes, `Bool`, `1`, `⟨⟩`.
    pub const LEAF: Shape = Shape { binders: 0, scalar: false, scopes: &[] };
    /// A scalar word only: the boolean literals.
    pub const SCALAR: Shape = Shape { binders: 0, scalar: true, scopes: &[] };
    /// One child: the projections.
    pub const UNARY: Shape = Shape { binders: 0, scalar: false, scopes: &[0] };
    /// Two children: application, closures.
    pub const BINARY: Shape = Shape { binders: 0, scalar: false, scopes: &[0, 0] };
    /// Three children: pairs, conditionals.
    pub const TERNARY: Shape = Shape { binders: 0, scalar: false, scopes: &[0, 0, 0] };
    /// Π, λ and Σ: the binder scopes over the second child.
    pub const BINDER: Shape = Shape { binders: 1, scalar: false, scopes: &[0, 1] };
    /// `let`: the binder scopes over the third child.
    pub const LET: Shape = Shape { binders: 1, scalar: false, scopes: &[0, 0, 1] };
    /// Code and code types: `n` scopes over the argument type, `n` and
    /// `x` over the body.
    pub const TELESCOPE: Shape = Shape { binders: 2, scalar: false, scopes: &[0, 1, 2] };
}

/// A node taken apart. Only the first [`Shape::binders`] binders and the
/// first `scopes.len()` children of its tag's shape are meaningful, and
/// the scalar is 0 where the shape has none.
#[derive(Debug)]
pub struct Parts<C> {
    /// The constructor's wire tag.
    pub tag: u64,
    /// The binders, outermost first.
    pub binders: [Symbol; 2],
    /// The scalar word.
    pub scalar: u64,
    /// The children, left to right.
    pub children: [Option<C>; 3],
}

/// Fills the binder slots a shape leaves unused; never read.
const UNUSED: Symbol = Symbol::from_raw_parts(0, 0);

impl<C> Parts<C> {
    /// A node with no binder, scalar or child.
    #[inline]
    pub fn leaf(tag: u64) -> Parts<C> {
        Parts { tag, binders: [UNUSED; 2], scalar: 0, children: [None, None, None] }
    }

    /// A node carrying only a scalar word.
    #[inline]
    pub fn scalar(tag: u64, scalar: u64) -> Parts<C> {
        Parts { scalar, ..Parts::leaf(tag) }
    }

    /// A node with binders and children.
    #[inline]
    pub fn new<const B: usize, const N: usize>(
        tag: u64,
        binders: [Symbol; B],
        children: [C; N],
    ) -> Parts<C> {
        const { assert!(B <= 2 && N <= 3) };
        let mut parts = Parts::leaf(tag);
        parts.binders[..B].copy_from_slice(&binders);
        for (slot, child) in parts.children.iter_mut().zip(children) {
            *slot = Some(child);
        }
        parts
    }
}

/// A language's grammar as the generic algorithms see it.
pub trait Syntax: ThreadInterned {
    /// The wire tag of a variable, written with its symbol.
    const VAR: u64;

    /// The constructor table: the shape of the constructor with wire tag
    /// `tag`, `None` for the variable, the back-reference and unknown
    /// tags.
    fn shape(tag: u64) -> Option<Shape>;

    /// The variable `x`.
    fn var(x: Symbol) -> Self;

    /// The variable's name, when the node is one.
    fn as_var(&self) -> Option<Symbol>;

    /// Takes a node apart; a variable yields its tag alone.
    fn split(&self) -> Parts<&Node<Self>>;

    /// Puts a node other than a variable back together from parts that
    /// match its tag's shape.
    fn join(parts: Parts<Node<Self>>) -> Self;
}

/// The shape of a node [`Syntax::split`] took apart (never a variable).
fn shape_of<T: Syntax>(tag: u64) -> Shape {
    T::shape(tag).expect("the constructor table covers every tag `split` yields")
}

/// The children of `parts`, each with the binders that scope over it.
fn scoped<C>(parts: &Parts<C>, shape: Shape) -> impl Iterator<Item = (&C, &[Symbol])> {
    shape
        .scopes
        .iter()
        .zip(&parts.children)
        .map(|(&k, child)| (child.as_ref().expect("a child for each scope"), &parts.binders[..k]))
}

/// The cached metadata of a new node, from its children's: its free
/// variables, size and depth.
pub fn meta<T: Syntax>(term: &T) -> NodeMeta {
    if let Some(x) = term.as_var() {
        return NodeMeta::leaf(FreeVars::singleton(x));
    }
    let parts = term.split();
    let mut children = scoped(&parts, shape_of::<T>(parts.tag));
    let Some((first, binders)) = children.next() else {
        return NodeMeta::leaf(FreeVars::closed());
    };
    let first = first.meta();
    // [`FreeVars::union`] and [`FreeVars::minus`] share an existing
    // allocation whenever one side covers the other, so most nodes
    // allocate nothing here.
    let mut node = NodeMeta {
        free_vars: match binders {
            [] => first.free_vars.clone(),
            _ => first.free_vars.minus(binders),
        },
        depth: first.depth + 1,
        size: first.size.saturating_add(1),
    };
    for (child, binders) in children {
        let child = child.meta();
        node.depth = node.depth.max(child.depth + 1);
        node.size = node.size.saturating_add(child.size);
        node.free_vars = match binders {
            [] => FreeVars::union(&node.free_vars, &child.free_vars),
            _ => FreeVars::union(&node.free_vars, &child.free_vars.minus(binders)),
        };
    }
    node
}

/// Calls `f` on each direct child, left to right.
pub fn for_each_child<T: Syntax>(term: &T, f: impl FnMut(&Node<T>)) {
    term.split().children.iter().flatten().copied().for_each(f);
}

/// Calls `f` on `term` and every subterm, pre-order.
pub fn visit<T: Syntax>(term: &T, f: &mut impl FnMut(&T)) {
    f(term);
    for_each_child(term, |child| visit(child.get(), f));
}

/// The number of nodes, counted as a tree; O(1) from the children's
/// cached metadata.
pub fn size<T: Syntax>(term: &T) -> usize {
    let mut total: u64 = 1;
    for_each_child(term, |c| total = total.saturating_add(c.meta().size));
    total.try_into().unwrap_or(usize::MAX)
}

/// The depth of the tree; O(1) from the children's cached metadata.
pub fn depth<T: Syntax>(term: &T) -> usize {
    let mut deepest: u32 = 0;
    for_each_child(term, |c| deepest = deepest.max(c.meta().depth));
    (deepest + 1) as usize
}

/// The free variables of `term` in order of first occurrence (left to
/// right, outside in), without duplicates.
pub fn free_vars<T: Syntax>(term: &T) -> Vec<Symbol> {
    let mut out = Vec::new();
    collect_free(term, &mut Vec::new(), &mut HashSet::new(), &mut out);
    out
}

fn collect_free<T: Syntax>(
    term: &T,
    bound: &mut Vec<Symbol>,
    seen: &mut HashSet<Symbol>,
    out: &mut Vec<Symbol>,
) {
    if let Some(x) = term.as_var() {
        if !bound.contains(&x) && seen.insert(x) {
            out.push(x);
        }
        return;
    }
    let parts = term.split();
    for (child, binders) in scoped(&parts, shape_of::<T>(parts.tag)) {
        let depth = bound.len();
        bound.extend_from_slice(binders);
        collect_free(child.get(), bound, seen, out);
        bound.truncate(depth);
    }
}

/// Feeds every free variable of `term` to `f`, with duplicates: the
/// children's cached sets minus the head's binders, so O(free variables).
fn head_free_vars<T: Syntax>(term: &T, mut f: impl FnMut(Symbol)) {
    if let Some(x) = term.as_var() {
        return f(x);
    }
    let parts = term.split();
    for (child, binders) in scoped(&parts, shape_of::<T>(parts.tag)) {
        child.free_vars().iter().filter(|v| !binders.contains(v)).for_each(&mut f);
    }
}

/// The free variables of `term` as a set, in O(free variables).
pub fn free_var_set<T: Syntax>(term: &T) -> HashSet<Symbol> {
    let mut out = HashSet::new();
    head_free_vars(term, |v| {
        out.insert(v);
    });
    out
}

/// Whether `x` occurs free in `term`: O(1) membership tests on the
/// children's cached sets, the head's binders inspected.
pub fn occurs_free<T: Syntax>(x: Symbol, term: &T) -> bool {
    if let Some(y) = term.as_var() {
        return y == x;
    }
    let parts = term.split();
    let occurs = scoped(&parts, shape_of::<T>(parts.tag))
        .any(|(child, binders)| !binders.contains(&x) && child.free_vars().contains(x));
    occurs
}

/// Whether `term` has no free variables, from the children's cached sets.
pub fn is_closed<T: Syntax>(term: &T) -> bool {
    let mut closed = true;
    head_free_vars(term, |_| closed = false);
    closed
}

/// Capture-avoiding substitution `term[replacement/x]`.
///
/// A binder named `x` stops the substitution over the children it scopes;
/// a binder that occurs free in `replacement` is renamed to a fresh symbol
/// over those children first. A node's binders are planned together,
/// outermost first, just before its first child under a binder, and its
/// children are visited left to right, so the sequence of
/// [`Symbol::freshen`] calls is a function of the term. Capture checks are
/// O(1) lookups in cached free-variable sets, and a child whose set lacks
/// `x` is shared, not visited.
pub fn subst<T: Syntax>(term: &T, x: Symbol, replacement: &T) -> T {
    if !occurs_free(x, term) {
        return term.clone();
    }
    subst_head(term, x, &replacement.clone().rc())
}

/// [`subst`] on interned handles: the input handle itself when `x` does
/// not occur.
pub fn subst_rc<T: Syntax>(term: &Node<T>, x: Symbol, replacement: &Node<T>) -> Node<T> {
    if !term.free_vars().contains(x) {
        return term.clone();
    }
    subst_head(term.get(), x, replacement).rc()
}

/// Applies several substitutions in sequence, left to right; later ones
/// see the result of earlier ones.
pub fn subst_all<T: Syntax>(term: &T, substitutions: &[(Symbol, T)]) -> T {
    let mut out = term.clone();
    for (x, replacement) in substitutions {
        out = subst(&out, *x, replacement);
    }
    out
}

/// Renames the free occurrences of `from` to `to`, which no binder of
/// `term` may capture (true of a freshly generated symbol).
pub fn rename<T: Syntax>(term: &T, from: Symbol, to: Symbol) -> T {
    subst(term, from, &T::var(to))
}

fn rename_rc<T: Syntax>(term: &Node<T>, from: Symbol, to: Symbol) -> Node<T> {
    if !term.free_vars().contains(from) {
        return term.clone();
    }
    subst_head(term.get(), from, &T::var(to).rc()).rc()
}

fn subst_head<T: Syntax>(term: &T, x: Symbol, replacement: &Node<T>) -> T {
    if let Some(y) = term.as_var() {
        return if y == x { replacement.get().clone() } else { term.clone() };
    }
    let parts = term.split();
    let shape = shape_of::<T>(parts.tag);
    let mut out = Parts { binders: parts.binders, ..Parts::scalar(parts.tag, parts.scalar) };
    if shape.binders == 0 {
        // Nothing can capture or shadow: substitute into every child.
        for (slot, child) in out.children.iter_mut().zip(&parts.children) {
            *slot = child.map(|child| subst_rc(child, x, replacement));
        }
        return T::join(out);
    }
    // The fresh name of each binder that would capture, once planned.
    let mut fresh: [Option<Symbol>; 2] = [None; 2];
    let mut planned = false;
    for (i, (child, binders)) in scoped(&parts, shape).enumerate() {
        if !binders.is_empty() && !planned {
            planned = true;
            for (b, &binder) in parts.binders[..shape.binders].iter().enumerate() {
                if binder != x && replacement.free_vars().contains(binder) {
                    let to = binder.freshen();
                    fresh[b] = Some(to);
                    out.binders[b] = to;
                }
            }
        }
        let mut renamed = None;
        for (b, &binder) in binders.iter().enumerate() {
            // A later binder of the same name shadows this one here.
            if let (Some(to), false) = (fresh[b], binders[b + 1..].contains(&binder)) {
                renamed = Some(rename_rc(renamed.as_ref().unwrap_or(*child), binder, to));
            }
        }
        let child = renamed.as_ref().unwrap_or(*child);
        out.children[i] = Some(if binders.contains(&x) {
            child.clone()
        } else {
            subst_rc(child, x, replacement)
        });
    }
    T::join(out)
}

/// α-equivalence: structural equality up to a consistent renaming of
/// bound variables. Two handles to one node are α-equal outright when no
/// active binder pairing touches their free variables, which a closed node
/// (every well-typed code block) never has.
pub fn alpha_eq<T: Syntax>(left: &T, right: &T) -> bool {
    alpha_eq_inner(left, right, &mut Pairings::default())
}

/// The binder pairings in force during an α-comparison.
#[derive(Default)]
struct Pairings {
    l2r: HashMap<Symbol, Symbol>,
    r2l: HashMap<Symbol, Symbol>,
}

impl Pairings {
    /// Runs `f` with `xs[i] ↔ ys[i]` paired, outermost first, and then
    /// restores the pairings it shadowed.
    fn with(&mut self, xs: &[Symbol], ys: &[Symbol], f: impl FnOnce(&mut Self) -> bool) -> bool {
        if xs.is_empty() {
            return f(self);
        }
        let mut shadowed = [(None, None); 2];
        for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
            shadowed[i] = (self.l2r.insert(x, y), self.r2l.insert(y, x));
        }
        let result = f(self);
        for (i, (&x, &y)) in xs.iter().zip(ys).enumerate().rev() {
            restore(&mut self.l2r, x, shadowed[i].0);
            restore(&mut self.r2l, y, shadowed[i].1);
        }
        result
    }
}

fn restore(map: &mut HashMap<Symbol, Symbol>, key: Symbol, previous: Option<Symbol>) {
    match previous {
        Some(value) => map.insert(key, value),
        None => map.remove(&key),
    };
}

fn alpha_eq_child<T: Syntax>(left: &Node<T>, right: &Node<T>, pairs: &mut Pairings) -> bool {
    if left.same(right) {
        let unaffected = (pairs.l2r.is_empty() && pairs.r2l.is_empty())
            || left
                .free_vars()
                .iter()
                .all(|v| !pairs.l2r.contains_key(&v) && !pairs.r2l.contains_key(&v));
        if unaffected {
            return true;
        }
    }
    alpha_eq_inner(left.get(), right.get(), pairs)
}

fn alpha_eq_inner<T: Syntax>(left: &T, right: &T, pairs: &mut Pairings) -> bool {
    match (left.as_var(), right.as_var()) {
        (Some(x), Some(y)) => {
            return match (pairs.l2r.get(&x), pairs.r2l.get(&y)) {
                (Some(&to), Some(&from)) => to == y && from == x,
                (None, None) => x == y,
                _ => false,
            }
        }
        (None, None) => {}
        _ => return false,
    }
    let (l, r) = (left.split(), right.split());
    if l.tag != r.tag || l.scalar != r.scalar {
        return false;
    }
    let shape = shape_of::<T>(l.tag);
    let equal = scoped(&l, shape)
        .zip(scoped(&r, shape))
        .all(|((a, xs), (b, ys))| pairs.with(xs, ys, |pairs| alpha_eq_child(a, b, pairs)));
    equal
}

/// Encodes `term` into a raw, thread-portable wire buffer (symbols as
/// their process-local parts).
pub fn encode<T: Syntax>(term: &T) -> WireTerm {
    encode_with(term, WireWriter::new())
}

/// Encodes `term` into a process-portable buffer: symbols go through a
/// relocatable symbol table ([`WireWriter::portable`]).
pub fn encode_portable<T: Syntax>(term: &T) -> WireTerm {
    encode_with(term, WireWriter::portable())
}

/// The content fingerprint of [`encode`]'s buffer: α-variants differ.
pub fn fingerprint<T: Syntax>(term: &T) -> Fingerprint {
    encode(term).fingerprint()
}

fn encode_with<T: Syntax>(term: &T, mut writer: WireWriter) -> WireTerm {
    encode_head(term, &mut writer, &mut FxHashMap::default());
    writer.finish()
}

/// Writes a node: a back-reference when it was written before, its head
/// otherwise. Completion indices are postorder, as [`decode_node`]
/// registers them.
fn encode_node<T: Syntax>(
    node: &Node<T>,
    writer: &mut WireWriter,
    seen: &mut FxHashMap<NodeId, u64>,
) {
    if let Some(&index) = seen.get(&node.id()) {
        writer.push(BACKREF);
        writer.push(index);
        return;
    }
    encode_head(node.get(), writer, seen);
    let index = seen.len() as u64;
    seen.insert(node.id(), index);
}

fn encode_head<T: Syntax>(term: &T, writer: &mut WireWriter, seen: &mut FxHashMap<NodeId, u64>) {
    if let Some(x) = term.as_var() {
        writer.push(T::VAR);
        return writer.push_symbol(x);
    }
    let parts = term.split();
    let shape = shape_of::<T>(parts.tag);
    writer.push(parts.tag);
    for &binder in &parts.binders[..shape.binders] {
        writer.push_symbol(binder);
    }
    if shape.scalar {
        writer.push(parts.scalar);
    }
    for child in parts.children.iter().flatten() {
        encode_node(child, writer, seen);
    }
}

/// An α-invariant, process-stable fingerprint: bound variables are
/// numbered by scope depth rather than hashed by name, so α-equivalent
/// terms agree, and free variables contribute their base name and
/// generated subscript rather than process-local parts. The encoding
/// shares no subterms (a back-reference would be scope-sensitive).
pub fn fingerprint_alpha<T: Syntax>(term: &T) -> Fingerprint {
    let mut writer = WireWriter::new();
    encode_alpha(term, &mut writer, &mut Vec::new());
    writer.finish().fingerprint()
}

fn encode_alpha<T: Syntax>(term: &T, writer: &mut WireWriter, scope: &mut Vec<Symbol>) {
    if let Some(x) = term.as_var() {
        writer.push(T::VAR);
        return push_alpha_var(x, writer, scope);
    }
    let parts = term.split();
    let shape = shape_of::<T>(parts.tag);
    writer.push(parts.tag);
    if shape.scalar {
        writer.push(parts.scalar);
    }
    for (child, binders) in scoped(&parts, shape) {
        let depth = scope.len();
        scope.extend_from_slice(binders);
        encode_alpha(child.get(), writer, scope);
        scope.truncate(depth);
    }
}

/// Writes an occurrence of `x`: its depth counted from the innermost
/// binder when bound; when free, its base name and its generated subscript
/// as a separate word, so a plain name containing `$` never aliases a
/// generated one.
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

/// Decodes a raw or portable buffer, re-interning every node into the
/// calling thread's interner (a portable buffer's symbol table is
/// relocated first, see [`crate::wire`]).
///
/// # Errors
///
/// Returns a [`WireError`] if the buffer is corrupt: truncated, an unknown
/// tag, a bad back-reference, a bad symbol table or trailing words.
pub fn decode<T: Syntax>(wire: &WireTerm) -> Result<T, WireError> {
    let mut reader = wire.term_reader()?;
    let term = decode_head(&mut reader, &mut Vec::new())?;
    reader.expect_exhausted()?;
    Ok(term)
}

/// Reads one node, registering it for back-references in the postorder
/// position [`encode_node`] gave it.
fn decode_node<T: Syntax>(
    reader: &mut WireReader<'_>,
    nodes: &mut Vec<Node<T>>,
) -> Result<Node<T>, WireError> {
    if reader.peek() == Some(BACKREF) {
        reader.next_word()?;
        let index = reader.next_word()?;
        return nodes.get(index as usize).cloned().ok_or(WireError::BadBackref(index));
    }
    let node = decode_head(reader, nodes)?.rc();
    nodes.push(node.clone());
    Ok(node)
}

fn decode_head<T: Syntax>(
    reader: &mut WireReader<'_>,
    nodes: &mut Vec<Node<T>>,
) -> Result<T, WireError> {
    let tag = reader.next_word()?;
    if tag == T::VAR {
        return Ok(T::var(reader.next_symbol()?));
    }
    let shape = T::shape(tag).ok_or(WireError::BadTag(tag))?;
    let mut parts = Parts::leaf(tag);
    for binder in &mut parts.binders[..shape.binders] {
        *binder = reader.next_symbol()?;
    }
    if shape.scalar {
        parts.scalar = reader.next_word()?;
    }
    for child in &mut parts.children[..shape.scopes.len()] {
        *child = Some(decode_node(reader, nodes)?);
    }
    Ok(T::join(parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::{Internable, Interner};
    use std::cell::RefCell;

    /// A minimal calculus with every kind of binding the languages have:
    /// literals (a scalar), `λ x : A. e` (one binder), application, and
    /// `code (n : A′, x : A). e`, whose two binders form a telescope.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    enum Mini {
        Var(Symbol),
        Lit(bool),
        Lam(Symbol, Node<Mini>, Node<Mini>),
        App(Node<Mini>, Node<Mini>),
        Code(Symbol, Node<Mini>, Symbol, Node<Mini>, Node<Mini>),
    }

    const VAR: u64 = 1;
    const LIT: u64 = 2;
    const LAM: u64 = 3;
    const APP: u64 = 4;
    const CODE: u64 = 5;

    thread_local! {
        static TERMS: RefCell<Interner<Mini>> = RefCell::new(Interner::new());
    }

    impl Internable for Mini {
        fn compute_meta(&self) -> NodeMeta {
            meta(self)
        }
    }

    impl ThreadInterned for Mini {
        fn rc(self) -> Node<Mini> {
            TERMS.with(|terms| terms.borrow_mut().intern(self))
        }
    }

    impl Syntax for Mini {
        const VAR: u64 = VAR;

        fn shape(tag: u64) -> Option<Shape> {
            Some(match tag {
                LIT => Shape::SCALAR,
                LAM => Shape::BINDER,
                APP => Shape::BINARY,
                CODE => Shape::TELESCOPE,
                _ => return None,
            })
        }

        fn var(x: Symbol) -> Mini {
            Mini::Var(x)
        }

        fn as_var(&self) -> Option<Symbol> {
            match self {
                Mini::Var(x) => Some(*x),
                _ => None,
            }
        }

        fn split(&self) -> Parts<&Node<Mini>> {
            match self {
                Mini::Var(_) => Parts::leaf(VAR),
                Mini::Lit(b) => Parts::scalar(LIT, u64::from(*b)),
                Mini::Lam(x, a, e) => Parts::new(LAM, [*x], [a, e]),
                Mini::App(f, a) => Parts::new(APP, [], [f, a]),
                Mini::Code(n, a0, x, a, e) => Parts::new(CODE, [*n, *x], [a0, a, e]),
            }
        }

        fn join(parts: Parts<Node<Mini>>) -> Mini {
            let Parts { tag, binders: [n, x], scalar, children } = parts;
            match (tag, children) {
                (LIT, _) => Mini::Lit(scalar != 0),
                (LAM, [Some(a), Some(e), _]) => Mini::Lam(n, a, e),
                (APP, [Some(f), Some(a), _]) => Mini::App(f, a),
                (CODE, [Some(a0), Some(a), Some(e)]) => Mini::Code(n, a0, x, a, e),
                _ => unreachable!("tag {tag}"),
            }
        }
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn var(s: &str) -> Mini {
        Mini::Var(sym(s))
    }

    fn lit(b: bool) -> Mini {
        Mini::Lit(b)
    }

    fn lam(x: &str, a: Mini, e: Mini) -> Mini {
        Mini::Lam(sym(x), a.rc(), e.rc())
    }

    fn app(f: Mini, a: Mini) -> Mini {
        Mini::App(f.rc(), a.rc())
    }

    fn code(n: &str, env_ty: Mini, x: &str, arg_ty: Mini, body: Mini) -> Mini {
        Mini::Code(sym(n), env_ty.rc(), sym(x), arg_ty.rc(), body.rc())
    }

    #[test]
    fn shadowing_binder_stops_substitution() {
        // (λ x : x. x)[true/x]: the annotation is outside the binder's scope.
        let s = subst(&lam("x", var("x"), var("x")), sym("x"), &lit(true));
        assert_eq!(s, lam("x", lit(true), var("x")));
    }

    #[test]
    fn capturing_binder_is_freshened() {
        // (λ y : y. x)[y/x] must not become λ y : y. y.
        let s = subst(&lam("y", var("y"), var("x")), sym("x"), &var("y"));
        let Mini::Lam(binder, annotation, body) = &s else { panic!("{s:?}") };
        assert_ne!(*binder, sym("y"));
        assert_eq!(binder.base_name(), "y");
        assert_eq!(**annotation, var("y"), "the annotation is outside the binder's scope");
        assert_eq!(**body, var("y"));
    }

    #[test]
    fn harmless_binder_is_kept() {
        let s = subst(&lam("z", lit(false), var("x")), sym("x"), &var("y"));
        assert_eq!(s, lam("z", lit(false), var("y")));
    }

    #[test]
    fn subst_under_applies_in_plan_order() {
        // Freshen: the binder's occurrences are renamed first, then `x`
        // is substituted, so the replacement's `y` stays free.
        let s = subst(&lam("y", lit(true), app(var("y"), var("x"))), sym("x"), &var("y"));
        let Mini::Lam(fresh, _, body) = &s else { panic!("{s:?}") };
        assert_ne!(*fresh, sym("y"));
        assert_eq!(**body, app(Mini::Var(*fresh), var("y")));
        // A node's binders are planned together, outermost first, before
        // its first child under a binder, and after the children before it.
        let before = Symbol::fresh("probe").disambiguator();
        let term = code("n", lam("m", lit(true), var("x")), "m", var("x"), var("x"));
        let s = subst(&term, sym("x"), &app(var("n"), var("m")));
        let Mini::Code(n, env_ty, m, _, _) = &s else { panic!("{s:?}") };
        let Mini::Lam(inner, _, _) = &**env_ty else { panic!("{s:?}") };
        let order: Vec<u64> = [*inner, *n, *m].iter().map(Symbol::disambiguator).collect();
        assert!(before < order[0] && order[0] < order[1] && order[1] < order[2], "{order:?}");
    }

    #[test]
    fn subst_under2_respects_inner_shadowing_of_outer() {
        // code (n : true, n : n hole). n, with [n/hole]: both binders would
        // capture. The argument type is renamed to the fresh outer binder
        // and then substituted; the body's `n` belongs to the inner binder,
        // so it follows that binder's fresh name and never the outer's.
        let term = code("n", lit(true), "n", app(var("n"), var("hole")), var("n"));
        let s = subst(&term, sym("hole"), &var("n"));
        let Mini::Code(outer, _, inner, arg_ty, body) = &s else { panic!("{s:?}") };
        assert_ne!(*outer, sym("n"), "outer binder freshened to avoid capture");
        assert_ne!(*inner, sym("n"), "inner binder freshened too");
        assert_ne!(outer, inner);
        assert_eq!(**arg_ty, app(Mini::Var(*outer), var("n")));
        assert_eq!(**body, Mini::Var(*inner));
    }

    #[test]
    fn subst_under2_shadowing_stops_substitution() {
        // The outer binder named `x` shields the argument type and the body.
        let term = code("x", var("x"), "m", var("x"), var("x"));
        assert_eq!(
            subst(&term, sym("x"), &lit(true)),
            code("x", lit(true), "m", var("x"), var("x"))
        );
        // The inner one shields the body only.
        let term = code("m", var("x"), "x", var("x"), var("x"));
        let expected = code("m", lit(true), "x", lit(true), var("x"));
        assert_eq!(subst(&term, sym("x"), &lit(true)), expected);
    }

    #[test]
    fn the_argument_type_is_scoped_by_the_outer_binder_only() {
        // In code (n : A′, x : A). e, `n` scopes over A and e, `x` over e.
        let term = code("n", var("n"), "x", app(var("x"), var("n")), app(var("x"), var("n")));
        assert_eq!(free_vars(&term), vec![sym("n"), sym("x")]);
        assert!(occurs_free(sym("x"), &term));
        assert!(!is_closed(&term));
        let node = term.clone().rc();
        assert!(node.free_vars().contains(sym("x")) && node.free_vars().contains(sym("n")));
        let s = subst(&term, sym("x"), &lit(false));
        let expected = code("n", var("n"), "x", app(lit(false), var("n")), app(var("x"), var("n")));
        assert_eq!(s, expected);
        // So α-equivalence pairs only `n` over the argument type.
        let renamed = code("a", var("n"), "b", app(var("x"), var("a")), app(var("b"), var("a")));
        assert!(alpha_eq(&term, &renamed));
        let captured = code("a", var("n"), "x", app(var("x"), var("a")), app(var("x"), var("a")));
        assert!(alpha_eq(&term, &captured));
        let wrong = code("a", var("n"), "b", app(var("b"), var("a")), app(var("b"), var("a")));
        assert!(!alpha_eq(&term, &wrong));
    }

    #[test]
    fn alpha_equivalence_under_the_two_binder_form() {
        let a = code("n", lit(true), "x", var("n"), app(var("n"), var("x")));
        assert!(alpha_eq(&a, &code("m", lit(true), "y", var("m"), app(var("m"), var("y")))));
        assert!(!alpha_eq(&a, &code("m", lit(true), "y", var("m"), app(var("y"), var("m")))));
        // A free variable is not a binder's name.
        assert!(!alpha_eq(&a, &code("m", lit(true), "y", var("n"), app(var("m"), var("y")))));
        // The inner binder shadows an outer one of the same name.
        let shadowed = code("n", lit(true), "n", lit(false), var("n"));
        assert!(alpha_eq(&shadowed, &code("a", lit(true), "b", lit(false), var("b"))));
        assert!(!alpha_eq(&shadowed, &code("a", lit(true), "b", lit(false), var("a"))));
        // The pairings of one child do not leak into the next.
        let leak = app(lam("x", lit(true), var("x")), var("x"));
        assert!(!alpha_eq(&leak, &app(lam("y", lit(true), var("y")), var("y"))));
        // The scalar word is compared, and identical nodes are equal.
        assert!(!alpha_eq(&lit(true), &lit(false)));
        assert!(alpha_eq(&a, &a));
    }

    #[test]
    fn metadata_and_traversals_follow_the_scope_rule() {
        let term = app(lam("x", var("a"), var("x")), code("n", var("b"), "x", var("n"), var("c")));
        let node = term.clone().rc();
        let fv: Vec<Symbol> = node.free_vars().iter().collect();
        let mut expected = vec![sym("a"), sym("b"), sym("c")];
        expected.sort();
        assert_eq!(fv, expected);
        assert_eq!(free_vars(&term), vec![sym("a"), sym("b"), sym("c")]);
        assert_eq!(free_var_set(&term), expected.iter().copied().collect());
        assert_eq!((size(&term), depth(&term)), (8, 3));
        assert_eq!((node.meta().size, node.meta().depth), (8, 3));
        let mut visited = 0;
        visit(&term, &mut |_| visited += 1);
        assert_eq!(visited, 8);
        let mut children = Vec::new();
        for_each_child(&term, |c| children.push(c.clone()));
        assert_eq!(children.len(), 2);
        assert!(is_closed(&lam("x", lit(true), var("x"))));
        assert!(!occurs_free(sym("x"), &lam("x", lit(true), var("x"))));
    }

    #[test]
    fn the_codec_round_trips_and_fingerprints_alpha_invariantly() {
        let term = app(
            code("n", lit(true), "x", var("n"), app(var("x"), var("free"))),
            code("n", lit(true), "x", var("n"), app(var("x"), var("free"))),
        );
        for wire in [encode(&term), encode_portable(&term)] {
            let decoded: Mini = decode(&wire).unwrap();
            assert_eq!(decoded, term);
        }
        // The repeated code block is written once.
        assert!(
            encode(&term).len() < 2 * encode(&code("n", lit(true), "x", var("n"), var("x"))).len()
        );
        let renamed = code("m", lit(true), "y", var("m"), app(var("y"), var("free")));
        assert_eq!(
            fingerprint_alpha(&renamed),
            fingerprint_alpha(&code("n", lit(true), "x", var("n"), app(var("x"), var("free"))))
        );
        assert_ne!(
            fingerprint(&renamed),
            fingerprint(&code("n", lit(true), "x", var("n"), app(var("x"), var("free"))))
        );
        assert_ne!(fingerprint_alpha(&lit(true)), fingerprint_alpha(&lit(false)));
        assert_ne!(fingerprint_alpha(&var("p")), fingerprint_alpha(&var("q")));
    }

    #[test]
    fn corrupt_buffers_are_rejected() {
        let decode_words = |words: &[u64]| decode::<Mini>(&WireTerm::from_words(words.to_vec()));
        assert_eq!(decode_words(&[99]), Err(WireError::BadTag(99)));
        // The variable has no table entry but is a known tag; the
        // back-reference is not a node.
        assert_eq!(decode_words(&[BACKREF, 0]), Err(WireError::BadTag(BACKREF)));
        assert_eq!(decode_words(&[APP, LIT, 1, BACKREF, 7]), Err(WireError::BadBackref(7)));
        assert_eq!(decode_words(&[APP, LIT, 1]), Err(WireError::Truncated));
        assert_eq!(decode_words(&[]), Err(WireError::Truncated));
        assert_eq!(decode_words(&[LIT, 1, LIT]), Err(WireError::TrailingWords));
        assert_eq!(decode_words(&[APP, LIT, 1, BACKREF, 0]), Ok(app(lit(true), lit(true))));
    }
}
