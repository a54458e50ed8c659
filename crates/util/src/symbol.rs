//! Interned symbols and the fresh-name supply.
//!
//! Both CC and CC-CC use a *named* representation of binders. Names are
//! interned into a global table so that they are cheap to copy and compare,
//! and so that generating a fresh name (for capture-avoiding substitution,
//! or once per process for the environment parameter that closure
//! conversion gives every code block) is a constant-time operation.
//!
//! A [`Symbol`] is either a *plain* name (interned string, no subscript) or a
//! *generated* name (interned base string plus a globally unique subscript).
//! Two generated names are equal only when they share the same subscript, so
//! a freshened symbol can never collide with any other symbol in the program.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned identifier.
///
/// Symbols are cheap to copy (`Copy`), cheap to compare (integer equality),
/// and hashable. The textual form of the symbol is stored in a global
/// interner; use [`Symbol::as_str`]/[`Display`](fmt::Display) to recover it.
///
/// # Example
///
/// ```
/// use cccc_util::symbol::Symbol;
/// let a = Symbol::intern("foo");
/// assert_eq!(a.to_string(), "foo");
/// let b = a.freshen();
/// assert_eq!(b.base_name(), "foo");
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol {
    /// Index of the base string in the interner.
    base: u32,
    /// `0` for a plain symbol; otherwise a globally unique subscript.
    unique: u64,
}

struct Interner {
    /// Interned base names. The strings are leaked into `'static` storage
    /// so that [`Symbol::base_name`] can hand out borrows without locking
    /// or allocating per call; the leak is bounded by the number of
    /// *distinct* base names ever interned (generated symbols share their
    /// base's entry), which is small and does not grow with term size.
    names: Vec<&'static str>,
    map: HashMap<&'static str, u32>,
}

impl Interner {
    fn new() -> Self {
        Interner { names: Vec::new(), map: HashMap::new() }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        self.names.push(leaked);
        self.map.insert(leaked, id);
        id
    }

    fn resolve(&self, id: u32) -> &'static str {
        self.names[id as usize]
    }
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| Mutex::new(Interner::new()))
}

static NEXT_UNIQUE: AtomicU64 = AtomicU64::new(1);

impl Symbol {
    /// Interns `name` and returns the corresponding plain symbol.
    pub fn intern(name: &str) -> Symbol {
        let base = interner().lock().expect("symbol interner poisoned").intern(name);
        Symbol { base, unique: 0 }
    }

    /// Returns a brand-new symbol with the same base name as `self` but a
    /// globally unique subscript. The result is guaranteed to be distinct
    /// from every previously created symbol.
    pub fn freshen(&self) -> Symbol {
        let unique = NEXT_UNIQUE.fetch_add(1, Ordering::Relaxed);
        Symbol { base: self.base, unique }
    }

    /// Returns a brand-new symbol whose base name is `base`.
    pub fn fresh(base: &str) -> Symbol {
        Symbol::intern(base).freshen()
    }

    /// Returns `true` when this symbol was produced by [`Symbol::freshen`] or
    /// [`Symbol::fresh`] rather than interned directly from user input.
    pub fn is_generated(&self) -> bool {
        self.unique != 0
    }

    /// The generated-symbol subscript: `0` for plain symbols, the
    /// globally unique counter value otherwise. Process-local (the
    /// counter restarts with the process); serializers that need to
    /// distinguish generated symbols write it *alongside* the base name
    /// rather than folding it into the rendered text, so a plain symbol
    /// whose name happens to contain `$` can never alias a generated
    /// one.
    pub fn disambiguator(&self) -> u64 {
        self.unique
    }

    /// The base (user-visible) name of the symbol, without any uniqueness
    /// subscript. Returns a borrow of the interner's `'static` storage —
    /// no allocation, no lock held after the call returns.
    pub fn base_name(&self) -> &'static str {
        interner().lock().expect("symbol interner poisoned").resolve(self.base)
    }

    /// The raw `(base, unique)` representation, for the wire codec in
    /// [`crate::wire`]. Only meaningful within the current process: `base`
    /// indexes the global string interner, whose assignment order depends
    /// on interning history.
    pub(crate) fn raw_parts(self) -> (u32, u64) {
        (self.base, self.unique)
    }

    /// Rebuilds a symbol from [`Symbol::raw_parts`] output. The parts must
    /// have been produced in this process (the wire codec guarantees
    /// this), so the base index is always live in the interner.
    pub(crate) fn from_raw_parts(base: u32, unique: u64) -> Symbol {
        Symbol { base, unique }
    }

    /// The full textual form of the symbol. Plain symbols borrow their
    /// interned name outright; generated symbols render with a `$n`
    /// subscript (so that distinct symbols always display distinctly) and
    /// are the only case that allocates.
    pub fn as_str(&self) -> Cow<'static, str> {
        if self.unique == 0 {
            Cow::Borrowed(self.base_name())
        } else {
            Cow::Owned(format!("{}${}", self.base_name(), self.unique))
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.unique == 0 {
            f.write_str(self.base_name())
        } else {
            write!(f, "{}${}", self.base_name(), self.unique)
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({self})")
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

/// A deterministic supply of fresh symbols, useful in tests and in the term
/// generator where reproducibility matters more than global uniqueness.
///
/// Unlike [`Symbol::fresh`], names produced by a `NameSupply` are derived
/// from a local counter, so two supplies started from the same state produce
/// the same sequence of *base names* (the uniqueness subscript still comes
/// from the global counter, preserving freshness).
#[derive(Debug, Default)]
pub struct NameSupply {
    counter: u64,
    prefix: String,
}

impl NameSupply {
    /// Creates a supply that generates names `prefix0`, `prefix1`, ….
    pub fn new(prefix: &str) -> Self {
        NameSupply { counter: 0, prefix: prefix.to_owned() }
    }

    /// Produces the next symbol from the supply.
    pub fn fresh(&mut self) -> Symbol {
        let name = format!("{}{}", self.prefix, self.counter);
        self.counter += 1;
        Symbol::fresh(&name)
    }

    /// Number of names handed out so far.
    pub fn count(&self) -> u64 {
        self.counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("x");
        let b = Symbol::intern("x");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "x");
    }

    #[test]
    fn distinct_names_are_distinct() {
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
    }

    #[test]
    fn freshening_creates_distinct_symbols() {
        let x = Symbol::intern("x");
        let f1 = x.freshen();
        let f2 = x.freshen();
        assert_ne!(x, f1);
        assert_ne!(f1, f2);
        assert_eq!(f1.base_name(), "x");
        assert_eq!(f2.base_name(), "x");
    }

    #[test]
    fn generated_symbols_report_generated() {
        let x = Symbol::intern("x");
        assert!(!x.is_generated());
        assert!(x.freshen().is_generated());
        assert!(Symbol::fresh("n").is_generated());
    }

    #[test]
    fn display_includes_subscript_for_generated() {
        let x = Symbol::intern("env");
        let f = x.freshen();
        assert!(f.to_string().starts_with("env$"));
        assert_eq!(x.to_string(), "env");
    }

    #[test]
    fn name_supply_produces_numbered_names() {
        let mut supply = NameSupply::new("v");
        let a = supply.fresh();
        let b = supply.fresh();
        assert_eq!(a.base_name(), "v0");
        assert_eq!(b.base_name(), "v1");
        assert_eq!(supply.count(), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn symbols_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Symbol::intern("a"));
        set.insert(Symbol::intern("a"));
        set.insert(Symbol::intern("b"));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn from_str_and_string() {
        let a: Symbol = "hello".into();
        let b: Symbol = String::from("hello").into();
        assert_eq!(a, b);
    }
}
