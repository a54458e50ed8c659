//! Hash-consed term handles with cached per-node metadata.
//!
//! Both language crates (CC in `cccc-source`, CC-CC in `cccc-target`)
//! represent terms as immutable trees of reference-counted nodes. This
//! module provides the shared *hash-consing kernel* those crates build on:
//!
//! * [`Node<T>`] — an interned handle. Equality and hashing are **by node
//!   identity** ([`NodeId`]), which is O(1) and — because the interner
//!   deduplicates structurally identical values — coincides with structural
//!   equality for live nodes.
//! * [`NodeMeta`] — metadata computed once at interning time and cached on
//!   the node: the free-variable set (see [`FreeVars`]), the maximum binder
//!   depth, and the tree size. Substitution short-circuits on
//!   `free_vars().contains(x)` instead of re-traversing, and the `[Code]`
//!   closedness premise of CC-CC becomes a bit test.
//! * [`Interner<T>`] — the per-language deduplicating constructor. Each
//!   language crate owns a thread-local instance and routes its smart
//!   constructors (`Term::rc`) through it.
//!
//! # Invariants
//!
//! The kernel maintains, and its clients may rely on, the following:
//!
//! 1. **No id collisions** — the interner never observes two structurally
//!    unequal values with equal [`NodeId`]s. Ids are allocated from a
//!    monotone per-interner counter and are never reused, even after a node
//!    dies and a structurally identical one is re-interned.
//! 2. **Deduplication of live nodes** — while a node is alive, interning a
//!    structurally identical value returns the *same* node (same id, same
//!    allocation). Hence `a.same(&b)` implies structural equality, and
//!    structural equality of live handles implies `a.same(&b)`.
//! 3. **Metadata agreement** — `meta()` always equals the value recomputed
//!    from scratch by [`Internable::compute_meta`]; it is computed exactly
//!    once per node, from the children's already-cached metadata.
//!
//! Identity equality is *structural* equality, not α-equivalence: two
//! α-equivalent terms with different binder names are distinct nodes. The
//! language crates layer α-aware fast paths on top (a closed node is
//! α-equivalent to itself under any renaming).
//!
//! Interners are thread-local by construction ([`Node`] holds an [`Rc`] and
//! is neither `Send` nor `Sync`), so ids never need to be compared across
//! threads. The explicit cross-thread story lives in [`crate::wire`]: a
//! term is flattened to a `Send` word buffer on the producing thread and
//! re-interned into the consuming thread's interner, which is how the
//! parallel module driver's per-worker interners import and export terms
//! at compilation-unit boundaries.

use crate::symbol::Symbol;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::rc::{Rc, Weak};

/// A fast, non-cryptographic hasher (the FxHash algorithm used by rustc).
///
/// Interning hashes a term *head* — a discriminant, a couple of [`Symbol`]s,
/// and child [`NodeId`]s — on every smart-constructor call, so the default
/// SipHash would dominate the cost of construction.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail: u64 = 0;
        for &b in chunks.remainder() {
            tail = (tail << 8) | u64::from(b);
        }
        self.add(tail);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A [`BuildHasher`](std::hash::BuildHasher) for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`], used for the interner table and the
/// conversion memo tables.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// The stable identity of an interned node.
///
/// Within one interner (hence one thread and one language), equal ids imply
/// structurally equal values — see the module invariants.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(u64);

impl NodeId {
    /// The raw counter value, mainly for diagnostics and memo keys.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The cached free-variable set of a node.
///
/// Represented as a sorted, deduplicated slice behind an [`Rc`] — `None`
/// for closed terms, so the (overwhelmingly common in CC-CC) closed case
/// costs no allocation and closedness is a single tag test. Membership is a
/// binary search; typical sets have a handful of entries.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FreeVars(Option<Rc<[Symbol]>>);

impl FreeVars {
    /// The empty set: the term is closed.
    pub fn closed() -> FreeVars {
        FreeVars(None)
    }

    /// The singleton set `{s}` (a free variable occurrence).
    pub fn singleton(s: Symbol) -> FreeVars {
        FreeVars(Some(Rc::from([s].as_slice())))
    }

    /// Whether the set is empty — i.e. the term has no free variables.
    pub fn is_closed(&self) -> bool {
        self.0.is_none()
    }

    /// Whether `s` is in the set.
    pub fn contains(&self, s: Symbol) -> bool {
        match &self.0 {
            None => false,
            Some(slice) => slice.binary_search(&s).is_ok(),
        }
    }

    /// Number of distinct free variables.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |slice| slice.len())
    }

    /// Whether the set is empty (alias of [`FreeVars::is_closed`], for the
    /// conventional collection API).
    pub fn is_empty(&self) -> bool {
        self.is_closed()
    }

    /// Iterates over the free variables in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.0.iter().flat_map(|slice| slice.iter().copied())
    }

    /// The union of two sets. Shares an existing allocation whenever one
    /// side covers the other (the common case on construction: most
    /// children are closed or repeat a sibling's variables), allocating
    /// only for a genuine merge.
    pub fn union(a: &FreeVars, b: &FreeVars) -> FreeVars {
        match (&a.0, &b.0) {
            (None, _) => b.clone(),
            (_, None) => a.clone(),
            (Some(x), Some(y)) => {
                if is_sorted_subset(y, x) {
                    a.clone()
                } else if is_sorted_subset(x, y) {
                    b.clone()
                } else {
                    let mut merged = Vec::with_capacity(x.len() + y.len());
                    merged.extend_from_slice(x);
                    merged.extend_from_slice(y);
                    merged.sort_unstable();
                    merged.dedup();
                    FreeVars(Some(Rc::from(merged.as_slice())))
                }
            }
        }
    }

    /// The set with the given binders removed. Shares the allocation when
    /// none of the binders is present.
    pub fn minus(&self, binders: &[Symbol]) -> FreeVars {
        match &self.0 {
            None => FreeVars(None),
            Some(slice) => {
                if !binders.iter().any(|b| slice.binary_search(b).is_ok()) {
                    return self.clone();
                }
                let remaining: Vec<Symbol> =
                    slice.iter().copied().filter(|v| !binders.contains(v)).collect();
                if remaining.is_empty() {
                    FreeVars(None)
                } else {
                    FreeVars(Some(Rc::from(remaining.as_slice())))
                }
            }
        }
    }
}

/// Whether sorted slice `small` is a subset of sorted slice `big`.
fn is_sorted_subset(small: &[Symbol], big: &[Symbol]) -> bool {
    if small.len() > big.len() {
        return false;
    }
    let mut bi = 0;
    'outer: for s in small {
        while bi < big.len() {
            match big[bi].cmp(s) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Metadata cached on every interned node, computed once at interning time
/// from the children's already-cached metadata.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodeMeta {
    /// The free variables of the subtree rooted here.
    pub free_vars: FreeVars,
    /// The maximum depth of the subtree (a leaf has depth 1).
    pub depth: u32,
    /// The number of nodes in the subtree *counted as a tree* (shared
    /// subterms count once per occurrence), matching the pre-kernel
    /// `Term::size`.
    pub size: u64,
}

impl NodeMeta {
    /// Metadata for a leaf node with the given free variables.
    pub fn leaf(free_vars: FreeVars) -> NodeMeta {
        NodeMeta { free_vars, depth: 1, size: 1 }
    }
}

/// A value that can be hash-consed by an [`Interner`].
///
/// `Eq`/`Hash` must be *shallow-structural*: children are compared and
/// hashed through their [`Node`] handles (identity), which — by the
/// deduplication invariant — coincides with deep structural equality.
/// `compute_meta` derives this node's metadata, reading the children's
/// cached [`NodeMeta`] rather than traversing.
pub trait Internable: Clone + Eq + Hash {
    /// Computes the metadata of this node from its children's cached
    /// metadata.
    fn compute_meta(&self) -> NodeMeta;
}

/// A term type with one thread-local [`Interner`], so code generic over
/// the language — the shared typing telescope [`crate::env::Env`] — can
/// build its handles. Each language forwards to its own `Term::rc`.
pub trait ThreadInterned: Internable {
    /// Interns the value into the calling thread's interner.
    fn rc(self) -> Node<Self>;
}

struct NodeInner<T> {
    id: NodeId,
    meta: NodeMeta,
    value: T,
}

/// An interned, reference-counted handle to a `T`.
///
/// Dereferences to `T`, so pattern matching on `&*node` works exactly as it
/// did on `Rc<T>`. Cloning is a reference-count bump. Equality and hashing
/// are by [`NodeId`] — O(1), and equivalent to structural equality for
/// handles from the same interner (see the module invariants).
pub struct Node<T: Internable> {
    inner: Rc<NodeInner<T>>,
}

impl<T: Internable> Node<T> {
    /// The node's stable identity.
    pub fn id(&self) -> NodeId {
        self.inner.id
    }

    /// The cached metadata.
    pub fn meta(&self) -> &NodeMeta {
        &self.inner.meta
    }

    /// The cached free-variable set.
    pub fn free_vars(&self) -> &FreeVars {
        &self.inner.meta.free_vars
    }

    /// Whether the subtree has no free variables (O(1)).
    pub fn is_closed(&self) -> bool {
        self.inner.meta.free_vars.is_closed()
    }

    /// Whether two handles are the *same* node (identity test). With the
    /// deduplication invariant this is equivalent to `==`.
    pub fn same(&self, other: &Node<T>) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// The underlying value.
    pub fn get(&self) -> &T {
        &self.inner.value
    }
}

impl<T: Internable> Clone for Node<T> {
    fn clone(&self) -> Node<T> {
        Node { inner: Rc::clone(&self.inner) }
    }
}

impl<T: Internable> std::ops::Deref for Node<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner.value
    }
}

impl<T: Internable> AsRef<T> for Node<T> {
    fn as_ref(&self) -> &T {
        &self.inner.value
    }
}

impl<T: Internable> PartialEq for Node<T> {
    fn eq(&self, other: &Node<T>) -> bool {
        self.inner.id == other.inner.id
    }
}

impl<T: Internable> Eq for Node<T> {}

impl<T: Internable> Hash for Node<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.id.hash(state);
    }
}

impl<T: Internable + fmt::Debug> fmt::Debug for Node<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.value.fmt(f)
    }
}

impl<T: Internable + fmt::Display> fmt::Display for Node<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.value.fmt(f)
    }
}

/// Counters describing an interner's behaviour, for benchmarks, pipeline
/// cache reports, and the CI smoke assertions.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct InternStats {
    /// Interning requests answered by an existing live node.
    pub hits: u64,
    /// Interning requests that allocated a new node.
    pub misses: u64,
    /// Dead-entry sweeps of the weak table performed so far.
    pub prunes: u64,
}

impl InternStats {
    /// The counter increments between `earlier` and `self` (both taken
    /// from the same interner, `self` later).
    pub fn since(&self, earlier: &InternStats) -> InternStats {
        InternStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            prunes: self.prunes.saturating_sub(earlier.prunes),
        }
    }
}

/// Counters of a [`Memo`] — both conversion memos and the `[Code]` memo —
/// exposed for benchmarks, the per-unit cache reports, and the CI smoke
/// assertion that the fast paths are actually exercised.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ConvCacheStats {
    /// Comparisons answered by node identity (both sides are the same
    /// interned node) — no traversal, no evaluation. Conversion memos
    /// only.
    pub identity_hits: u64,
    /// Lookups answered from the table.
    pub memo_hits: u64,
    /// Lookups that found nothing, so the caller ran the judgment.
    pub memo_misses: u64,
    /// Times the young generation filled and replaced the old one.
    pub rotations: u64,
}

impl ConvCacheStats {
    /// The counter increments between `earlier` and `self` (both taken
    /// from the same table, `self` later).
    pub fn since(&self, earlier: &ConvCacheStats) -> ConvCacheStats {
        ConvCacheStats {
            identity_hits: self.identity_hits.saturating_sub(earlier.identity_hits),
            memo_hits: self.memo_hits.saturating_sub(earlier.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(earlier.memo_misses),
            rotations: self.rotations.saturating_sub(earlier.rotations),
        }
    }
}

/// A memo table bounded by two generations of at most `cap` entries each.
///
/// Inserts go to the young generation. When it is full it becomes the old
/// one, and the previous old generation is dropped; a hit in the old
/// generation moves the entry back to the young one. So an entry survives
/// as long as it is used at least once per `cap` inserts, and the table
/// never holds more than `2 · cap` entries, however long its thread
/// lives. Keys made of node ids can never hit again once their nodes die
/// (ids are never reused); this is what ages such entries out.
#[derive(Debug)]
pub struct Memo<K, V> {
    young: FxHashMap<K, V>,
    old: FxHashMap<K, V>,
    cap: usize,
    stats: ConvCacheStats,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty table with generations of `cap` entries.
    pub fn with_cap(cap: usize) -> Memo<K, V> {
        Memo {
            young: FxHashMap::default(),
            old: FxHashMap::default(),
            cap,
            stats: ConvCacheStats::default(),
        }
    }

    /// Looks `key` up, bumping the hit/miss counters; an old-generation
    /// hit moves the entry to the young generation.
    pub fn lookup(&mut self, key: K) -> Option<V> {
        if let Some(value) = self.young.get(&key) {
            self.stats.memo_hits += 1;
            return Some(value.clone());
        }
        let Some(value) = self.old.remove(&key) else {
            self.stats.memo_misses += 1;
            return None;
        };
        self.stats.memo_hits += 1;
        self.insert(key, value.clone());
        Some(value)
    }

    /// Records `value` under `key` in the young generation, first turning
    /// a full young generation into the old one.
    pub fn insert(&mut self, key: K, value: V) {
        if self.young.len() >= self.cap {
            // Reuse the dropped generation's allocation for the new one.
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
            self.stats.rotations += 1;
        }
        self.young.insert(key, value);
    }

    /// Number of entries in both generations.
    pub fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }

    /// Whether both generations are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> ConvCacheStats {
        self.stats
    }
}

/// The memo table of decided conversion pairs, shared by both languages'
/// equivalence checkers (each holds its own thread-local instance — node
/// ids are per-interner, so the tables must not mix).
///
/// Keys are `(id₁, id₂, environment-fingerprint)` with the ids ordered
/// (the judgment is symmetric). Callers pass fingerprint `0` when both
/// sides are closed — conversion of closed terms cannot consult the
/// environment, so one cached answer serves every environment; this
/// cannot collide harmfully with a real fingerprint because closedness is
/// itself determined by the ids.
pub type ConvCache = Memo<(NodeId, NodeId, u64), bool>;

/// Entries per generation of a [`ConvCache`]. A resident build worker
/// keeps its memos from one build to the next. A warm `edit_stream` build
/// decides about 11 new CC pairs and 7 new CC-CC pairs, so two generations
/// of 2^13 keep the pairs of the last several hundred builds, while each
/// table stays near 1 MiB.
pub const CONV_GENERATION_CAP: usize = 1 << 13;

impl Default for ConvCache {
    fn default() -> ConvCache {
        Memo::with_cap(CONV_GENERATION_CAP)
    }
}

impl ConvCache {
    /// The ordered memo key for a pair of nodes under an environment
    /// fingerprint; the fingerprint collapses to `0` when both sides are
    /// closed (environment-independent judgment).
    pub fn key<T: Internable>(
        a: &Node<T>,
        b: &Node<T>,
        env_fingerprint: u64,
    ) -> (NodeId, NodeId, u64) {
        let (lo, hi) = if a.id() <= b.id() { (a.id(), b.id()) } else { (b.id(), a.id()) };
        let env_key = if a.is_closed() && b.is_closed() { 0 } else { env_fingerprint };
        (lo, hi, env_key)
    }

    /// Records an identity-fast-path hit (same node on both sides).
    pub fn note_identity_hit(&mut self) {
        self.stats.identity_hits += 1;
    }
}

/// Chains one typing-environment entry into a content fingerprint — the
/// environment component of conversion memo keys. The shared telescope
/// [`crate::env::Env`] maintains this incrementally on extension: an
/// assumption passes `definition: None`, a definition its term's id.
/// Environments with equal content (same names, same interned
/// types/definitions, same order) always agree; unequal content collides
/// only with hash probability.
pub fn mix_env_entry(
    fingerprint: u64,
    name: Symbol,
    ty: NodeId,
    definition: Option<NodeId>,
) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(fingerprint);
    h.write_u8(if definition.is_some() { 2 } else { 1 });
    name.hash(&mut h);
    h.write_u64(ty.as_u64());
    if let Some(d) = definition {
        h.write_u64(d.as_u64());
    }
    h.finish()
}

/// How many insertions between dead-entry sweeps of the interner table.
///
/// A key holds strong handles to its children, so a dead tree of depth
/// `d` takes `d` sweeps to free. A resident build worker keeps its
/// interner from one build to the next, so the dead trees of many builds
/// wait between sweeps: over a 1,000-edit session a worker's tables held
/// 4–16 times as many entries at 8,192 as at 512. Sweeping sooner also
/// frees nodes a later unit would have shared, and each sweep walks the
/// whole table, so the interval is not shorter still.
const PRUNE_INTERVAL: usize = 512;

/// A deduplicating constructor for [`Node`]s.
///
/// The table holds *weak* references: a node whose last handle is dropped
/// is garbage like any other `Rc`, and its table entry is swept out on a
/// periodic prune. Ids are never reused.
pub struct Interner<T: Internable> {
    map: FxHashMap<T, Weak<NodeInner<T>>>,
    next_id: u64,
    inserts_since_prune: usize,
    stats: InternStats,
}

impl<T: Internable> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T: Internable> Interner<T> {
    /// An empty interner.
    pub fn new() -> Interner<T> {
        Interner {
            map: FxHashMap::default(),
            next_id: 0,
            inserts_since_prune: 0,
            stats: InternStats::default(),
        }
    }

    /// Interns `value`: returns the existing node when a structurally
    /// identical live one exists, otherwise computes the metadata and
    /// allocates a fresh node with the next id.
    pub fn intern(&mut self, value: T) -> Node<T> {
        if let Some(weak) = self.map.get(&value) {
            if let Some(inner) = weak.upgrade() {
                self.stats.hits += 1;
                return Node { inner };
            }
        }
        self.stats.misses += 1;
        let meta = value.compute_meta();
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let inner = Rc::new(NodeInner { id, meta, value: value.clone() });
        self.map.insert(value, Rc::downgrade(&inner));
        self.inserts_since_prune += 1;
        if self.inserts_since_prune >= PRUNE_INTERVAL {
            self.inserts_since_prune = 0;
            self.stats.prunes += 1;
            self.map.retain(|_, weak| weak.strong_count() > 0);
        }
        Node { inner }
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> InternStats {
        self.stats
    }

    /// Number of table entries (live nodes plus not-yet-pruned dead ones).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature term language exercising the kernel: variables, a
    /// binder, and pairs.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    enum Mini {
        Var(Symbol),
        Lam(Symbol, Node<Mini>),
        Pair(Node<Mini>, Node<Mini>),
    }

    impl Internable for Mini {
        fn compute_meta(&self) -> NodeMeta {
            match self {
                Mini::Var(x) => NodeMeta::leaf(FreeVars::singleton(*x)),
                Mini::Lam(binder, body) => NodeMeta {
                    free_vars: body.free_vars().minus(&[*binder]),
                    depth: body.meta().depth + 1,
                    size: body.meta().size + 1,
                },
                Mini::Pair(a, b) => NodeMeta {
                    free_vars: FreeVars::union(a.free_vars(), b.free_vars()),
                    depth: a.meta().depth.max(b.meta().depth) + 1,
                    size: a.meta().size + b.meta().size + 1,
                },
            }
        }
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn structurally_identical_values_share_a_node() {
        let mut i = Interner::new();
        let a = i.intern(Mini::Var(sym("x")));
        let b = i.intern(Mini::Var(sym("x")));
        assert!(a.same(&b));
        assert_eq!(a.id(), b.id());
        assert_eq!(a, b);
        assert_eq!(i.stats().hits, 1);
        assert_eq!(i.stats().misses, 1);
    }

    #[test]
    fn distinct_values_get_distinct_ids() {
        let mut i = Interner::new();
        let a = i.intern(Mini::Var(sym("x")));
        let b = i.intern(Mini::Var(sym("y")));
        assert!(!a.same(&b));
        assert_ne!(a.id(), b.id());
        assert_ne!(a, b);
    }

    #[test]
    fn deep_sharing_happens_bottom_up() {
        let mut i = Interner::new();
        let x1 = i.intern(Mini::Var(sym("x")));
        let p1 = i.intern(Mini::Pair(x1.clone(), x1.clone()));
        let x2 = i.intern(Mini::Var(sym("x")));
        let p2 = i.intern(Mini::Pair(x2.clone(), x2));
        assert!(p1.same(&p2));
    }

    #[test]
    fn metadata_free_vars_respect_binders() {
        let mut i = Interner::new();
        let x = i.intern(Mini::Var(sym("x")));
        let y = i.intern(Mini::Var(sym("y")));
        let body = i.intern(Mini::Pair(x, y));
        assert_eq!(body.free_vars().len(), 2);
        assert!(!body.is_closed());
        let lam = i.intern(Mini::Lam(sym("x"), body));
        assert!(lam.free_vars().contains(sym("y")));
        assert!(!lam.free_vars().contains(sym("x")));
        assert_eq!(lam.free_vars().len(), 1);
        // Binding the remaining variable closes the term.
        let closed = i.intern(Mini::Lam(sym("y"), lam));
        assert!(closed.is_closed());
        assert!(closed.free_vars().is_empty());
    }

    #[test]
    fn metadata_depth_and_size_are_tree_shaped() {
        let mut i = Interner::new();
        let x = i.intern(Mini::Var(sym("x")));
        let p = i.intern(Mini::Pair(x.clone(), x));
        // Shared child counts twice for size (tree semantics), once for depth.
        assert_eq!(p.meta().size, 3);
        assert_eq!(p.meta().depth, 2);
    }

    #[test]
    fn dead_nodes_are_reinterned_with_fresh_ids() {
        let mut i = Interner::new();
        let first_id = i.intern(Mini::Var(sym("gone"))).id();
        // The handle is dropped; interning again may not reuse the id.
        let second = i.intern(Mini::Var(sym("gone")));
        assert_ne!(first_id, second.id(), "ids are never reused");
    }

    /// The set of `names`, built the way node metadata builds sets.
    fn set(names: &[&str]) -> FreeVars {
        names
            .iter()
            .fold(FreeVars::closed(), |acc, n| FreeVars::union(&acc, &FreeVars::singleton(sym(n))))
    }

    #[test]
    fn free_vars_iterates_sorted_and_supports_membership() {
        let fv = set(&["b", "a", "b"]);
        assert_eq!(fv.len(), 2);
        assert!(fv.contains(sym("a")));
        assert!(!fv.contains(sym("zz")));
        let collected: Vec<Symbol> = fv.iter().collect();
        assert_eq!(collected.len(), 2);
        assert!(collected.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn union_and_minus_share_allocations() {
        let ab = set(&["a", "b"]);
        let a = set(&["a"]);

        // One side covers the other: the bigger allocation is shared.
        let u = FreeVars::union(&ab, &a);
        assert_eq!(u, ab);
        let u = FreeVars::union(&a, &ab);
        assert_eq!(u, ab);
        // Closed sides share outright.
        assert_eq!(FreeVars::union(&FreeVars::closed(), &ab), ab);
        assert_eq!(FreeVars::union(&ab, &FreeVars::closed()), ab);
        // Genuine merges merge.
        let c = set(&["c"]);
        let u = FreeVars::union(&ab, &c);
        assert_eq!(u.len(), 3);
        assert!(u.contains(sym("a")) && u.contains(sym("b")) && u.contains(sym("c")));

        // Minus shares when nothing is removed, subtracts otherwise.
        assert_eq!(ab.minus(&[sym("zz")]), ab);
        let only_b = ab.minus(&[sym("a")]);
        assert_eq!(only_b.len(), 1);
        assert!(only_b.contains(sym("b")));
        assert!(ab.minus(&[sym("a"), sym("b")]).is_closed());
        assert!(FreeVars::closed().minus(&[sym("a")]).is_closed());
    }

    #[test]
    fn empty_builder_is_closed() {
        assert!(set(&[]).is_closed());
        assert_eq!(FreeVars::closed().len(), 0);
        assert!(FreeVars::closed().is_empty());
    }

    #[test]
    fn fx_hasher_handles_unaligned_tails() {
        let mut h = FxHasher::default();
        h.write(b"hello world, this is a tail");
        let a = h.finish();
        let mut h2 = FxHasher::default();
        h2.write(b"hello world, this is a tail");
        assert_eq!(a, h2.finish());
        let mut h3 = FxHasher::default();
        h3.write(b"hello world, this is a tai1");
        assert_ne!(a, h3.finish());
    }

    #[test]
    fn memo_keeps_two_generations_and_moves_old_hits_back() {
        let mut memo: Memo<u32, u32> = Memo::with_cap(2);
        memo.insert(1, 10);
        memo.insert(2, 20);
        // The young generation is full: it becomes the old one.
        memo.insert(3, 30);
        assert_eq!((memo.len(), memo.stats().rotations), (3, 1));
        // An old hit moves back to the young generation …
        assert_eq!(memo.lookup(1), Some(10));
        // … so the next rotation drops only the entry nobody asked for.
        memo.insert(4, 40);
        assert_eq!(memo.lookup(2), None);
        assert_eq!(memo.lookup(1), Some(10));
        let stats = memo.stats();
        assert_eq!((stats.memo_hits, stats.memo_misses, stats.rotations), (2, 1, 2));
        for key in 5..100 {
            memo.insert(key, key);
            assert!(memo.len() <= 4, "two generations of two");
        }
    }

    #[test]
    fn node_id_displays_with_hash_prefix() {
        let mut i = Interner::new();
        let n = i.intern(Mini::Var(sym("d")));
        assert!(n.id().to_string().starts_with('#'));
        assert!(!i.is_empty());
        assert!(!i.is_empty());
    }
}
