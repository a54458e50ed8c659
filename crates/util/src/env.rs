//! Typing environments `Γ`, one telescope for CC (Figures 1 and 4) and
//! CC-CC (Figures 5 and 7).
//!
//! An environment is an ordered telescope of *assumptions* `x : A` and
//! *definitions* `x = e : A`. Order matters: the type of each entry may only
//! mention variables bound earlier, and the dependency-ordered free-variable
//! metafunction of closure conversion (Figure 10) relies on this ordering.
//! The paper types CC-CC under the same telescope as CC, so [`Env`] and
//! [`Decl`] are defined once here, generic over the term type; each
//! language crate's `env` module names its instance.

use crate::intern::{mix_env_entry, Internable, Node, ThreadInterned};
use crate::symbol::Symbol;
use std::fmt;

/// One entry of a typing environment.
#[derive(Clone, Debug)]
pub enum Decl<T: Internable> {
    /// An assumption `x : A`.
    Assumption {
        /// The variable.
        name: Symbol,
        /// Its type.
        ty: Node<T>,
    },
    /// A definition `x = e : A`.
    Definition {
        /// The variable.
        name: Symbol,
        /// Its type.
        ty: Node<T>,
        /// Its definition, unfolded by δ-reduction.
        term: Node<T>,
    },
}

impl<T: Internable> Decl<T> {
    /// The variable bound by this entry.
    pub fn name(&self) -> Symbol {
        match self {
            Decl::Assumption { name, .. } | Decl::Definition { name, .. } => *name,
        }
    }

    /// The declared type of the entry.
    pub fn ty(&self) -> &Node<T> {
        match self {
            Decl::Assumption { ty, .. } | Decl::Definition { ty, .. } => ty,
        }
    }

    /// The definition, if this is a `x = e : A` entry.
    pub fn definition(&self) -> Option<&Node<T>> {
        match self {
            Decl::Assumption { .. } => None,
            Decl::Definition { term, .. } => Some(term),
        }
    }

    /// Folds this entry into an environment fingerprint.
    fn mix(&self, fingerprint: u64) -> u64 {
        match self {
            Decl::Assumption { name, ty } => mix_env_entry(fingerprint, *name, ty.id(), None),
            Decl::Definition { name, ty, term } => {
                mix_env_entry(fingerprint, *name, ty.id(), Some(term.id()))
            }
        }
    }
}

/// A typing environment `Γ`.
///
/// Environments are persistent in spirit but implemented as a plain vector;
/// the type checkers clone and extend them as they go under binders, which
/// is cheap because entries hold interned [`Node`]s.
///
/// Every environment carries a content *fingerprint* — a hash of its entry
/// sequence with terms identified by their interned node ids — maintained
/// incrementally on extension. Two environments with identical content have
/// identical fingerprints, which is what keys each language's memoized
/// conversion checker.
#[derive(Clone, Debug)]
pub struct Env<T: Internable> {
    decls: Vec<Decl<T>>,
    fingerprint: u64,
}

impl<T: Internable> Default for Env<T> {
    fn default() -> Env<T> {
        Env { decls: Vec::new(), fingerprint: 0 }
    }
}

impl<T: ThreadInterned> Env<T> {
    /// The empty environment `·`.
    pub fn new() -> Env<T> {
        Env::default()
    }

    /// The environment's content fingerprint: a hash of the entry sequence
    /// with terms identified by interned node id. Environments with equal
    /// content always agree; unequal content collides only with hash
    /// probability. Used as the environment component of conversion memo
    /// keys.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.decls.len()
    }

    /// Whether the environment is empty.
    pub fn is_empty(&self) -> bool {
        self.decls.is_empty()
    }

    /// Returns a new environment extended with the assumption `name : ty`.
    pub fn with_assumption(&self, name: Symbol, ty: T) -> Env<T> {
        let mut next = self.clone();
        next.push_assumption(name, ty);
        next
    }

    /// Returns a new environment extended with the definition
    /// `name = term : ty`.
    pub fn with_definition(&self, name: Symbol, term: T, ty: T) -> Env<T> {
        let mut next = self.clone();
        next.push_definition(name, term, ty);
        next
    }

    /// Appends the assumption `name : ty` in place.
    pub fn push_assumption(&mut self, name: Symbol, ty: T) {
        self.push(Decl::Assumption { name, ty: ty.rc() });
    }

    /// Appends the definition `name = term : ty` in place.
    pub fn push_definition(&mut self, name: Symbol, term: T, ty: T) {
        self.push(Decl::Definition { name, ty: ty.rc(), term: term.rc() });
    }

    fn push(&mut self, decl: Decl<T>) {
        self.fingerprint = decl.mix(self.fingerprint);
        self.decls.push(decl);
    }

    /// Looks up the most recent entry for `name`.
    pub fn lookup(&self, name: Symbol) -> Option<&Decl<T>> {
        self.decls.iter().rev().find(|d| d.name() == name)
    }

    /// Looks up the declared type of `name`.
    pub fn lookup_type(&self, name: Symbol) -> Option<&Node<T>> {
        self.lookup(name).map(Decl::ty)
    }

    /// Looks up the definition of `name`, if it has one (used by
    /// δ-reduction).
    pub fn lookup_definition(&self, name: Symbol) -> Option<&Node<T>> {
        self.lookup(name).and_then(Decl::definition)
    }

    /// Iterates over the entries from oldest to newest (`rev` walks them
    /// newest first, in lookup order).
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Decl<T>> {
        self.decls.iter()
    }

    /// The names bound in the environment, oldest first.
    pub fn names(&self) -> Vec<Symbol> {
        self.decls.iter().map(Decl::name).collect()
    }
}

impl<T: Internable + fmt::Display> fmt::Display for Env<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.decls.is_empty() {
            return write!(f, "·");
        }
        for (i, d) in self.decls.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match d {
                Decl::Assumption { name, ty } => write!(f, "{name} : {ty}")?,
                Decl::Definition { name, ty, term } => write!(f, "{name} = {term} : {ty}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::{FreeVars, Interner, NodeMeta};
    use std::cell::RefCell;

    /// A minimal closed term language: named constants.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Atom(&'static str);

    impl Internable for Atom {
        fn compute_meta(&self) -> NodeMeta {
            NodeMeta::leaf(FreeVars::closed())
        }
    }

    thread_local! {
        static ATOMS: RefCell<Interner<Atom>> = RefCell::new(Interner::new());
    }

    impl ThreadInterned for Atom {
        fn rc(self) -> Node<Atom> {
            ATOMS.with(|i| i.borrow_mut().intern(self))
        }
    }

    impl fmt::Display for Atom {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(self.0)
        }
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn lookup_finds_the_latest_binding_and_definitions() {
        let env = Env::new()
            .with_assumption(sym("x"), Atom("Bool"))
            .with_definition(sym("b"), Atom("tt"), Atom("Bool"))
            .with_assumption(sym("x"), Atom("*"));
        assert_eq!(**env.lookup_type(sym("x")).unwrap(), Atom("*"));
        assert_eq!(**env.lookup_definition(sym("b")).unwrap(), Atom("tt"));
        assert!(env.lookup_definition(sym("x")).is_none(), "an assumption has no definition");
        assert!(env.lookup(sym("missing")).is_none());
        assert!(env.lookup_definition(sym("missing")).is_none());
        assert_eq!((env.len(), env.is_empty()), (3, false));
        assert_eq!(env.names(), vec![sym("x"), sym("b"), sym("x")]);
    }

    #[test]
    fn display_renders_dot_assumptions_and_definitions() {
        let empty: Env<Atom> = Env::new();
        assert!(empty.is_empty());
        assert_eq!(empty.to_string(), "·");
        let env = empty.with_assumption(sym("A"), Atom("*")).with_definition(
            sym("u"),
            Atom("<>"),
            Atom("1"),
        );
        assert_eq!(env.to_string(), "A : *, u = <> : 1");
    }

    /// `(name, Some(term), ty)` is a definition, `(name, None, ty)` an
    /// assumption.
    type Entry = (&'static str, Option<&'static str>, &'static str);

    /// The fingerprint of the telescope `entries`, built by `push_*`.
    fn pushed(entries: &[Entry]) -> u64 {
        let mut env = Env::new();
        for &(name, term, ty) in entries {
            match term {
                Some(term) => env.push_definition(sym(name), Atom(term), Atom(ty)),
                None => env.push_assumption(sym(name), Atom(ty)),
            }
        }
        env.fingerprint()
    }

    #[test]
    fn fingerprints_agree_exactly_on_equal_content() {
        // Fingerprints hash node ids, so `built` stays alive: a dead node
        // re-interned gets a fresh id.
        let built = Env::new().with_assumption(sym("A"), Atom("*"));
        let built = built.with_definition(sym("a"), Atom("t"), Atom("A"));
        let fingerprint = built.fingerprint();
        assert_eq!(fingerprint, pushed(&[("A", None, "*"), ("a", Some("t"), "A")]));
        assert_ne!(fingerprint, pushed(&[]));
        // Order, a name, and assumption versus definition each change it.
        assert_ne!(fingerprint, pushed(&[("a", Some("t"), "A"), ("A", None, "*")]));
        assert_ne!(fingerprint, pushed(&[("B", None, "*"), ("a", Some("t"), "A")]));
        assert_ne!(fingerprint, pushed(&[("A", None, "*"), ("a", None, "A")]));
    }
}
