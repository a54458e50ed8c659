//! Abstract syntax of CC-CC (Figure 5 of the paper).
//!
//! CC-CC replaces the λ-abstractions of CC with two separate constructs:
//!
//! * **code** `λ (n : A', x : A). e` ([`Term::Code`]) — a two-argument
//!   abstraction over an explicit environment `n` and the real argument
//!   `x`, required by rule `[Code]` to be *closed*;
//! * **closures** `⟪e, e'⟫` ([`Term::Closure`]) — a pair of code and the
//!   environment it expects, which is what application eliminates.
//!
//! Code has its own type former `Code (n : A', x : A). B`
//! ([`Term::CodeTy`]); the Π type of CC survives as the type of *closures*
//! ([`Term::Pi`]). Environments are built from the unit type `1`
//! ([`Term::Unit`]) and strong dependent pairs, exactly as in CC. The
//! ground booleans of §5.2 are carried over unchanged.
//!
//! This module also holds CC-CC's constructor table: [`Term`] implements
//! [`Syntax`], with code and code types as its two-binder telescopes, so
//! node metadata, [`Term::size`], [`Term::depth`], [`Term::visit`],
//! substitution, α-equivalence and the wire codec come from the one binding
//! structure written in [`cccc_util::syntax`] for both languages. What
//! stays here is what CC-CC alone has: the variants, the per-thread
//! interner, [`Term::is_value`], [`Term::spine`] and the closure and code
//! counts.

use cccc_util::intern::{InternStats, Internable, Interner, Node, NodeMeta, ThreadInterned};
use cccc_util::symbol::Symbol;
use cccc_util::syntax::{self, Parts, Shape, Syntax};
use std::cell::RefCell;
use std::fmt;

pub use cccc_util::universe::Universe;

/// A hash-consed, reference-counted CC-CC term handle. Terms are
/// immutable; substitution and reduction build new terms, sharing
/// unchanged subterms.
///
/// Handles are produced by [`Term::rc`], which routes through a
/// thread-local [`Interner`]: structurally identical subterms — which
/// closure conversion mass-produces, duplicating environment types at
/// every closure — share one allocation and one
/// [`NodeId`](cccc_util::intern::NodeId). `==` on handles is an O(1)
/// identity test that coincides with structural equality, and every node
/// carries cached metadata: free-variable set, closedness (the `[Code]`
/// premise), depth, size (see [`cccc_util::intern`]).
pub type RcTerm = Node<Term>;

/// CC-CC expressions (Figure 5).
///
/// As in CC there is a single syntactic category for terms, types, and
/// kinds.
///
/// The derived `PartialEq`/`Eq`/`Hash` are *shallow-structural*: children
/// compare by node identity, which — thanks to hash-consing — is full
/// structural equality (not α-equivalence; use
/// [`crate::subst::alpha_eq`] for that).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable `x`.
    Var(Symbol),
    /// A universe `⋆` or `□`.
    Sort(Universe),
    /// The type of *closures* `Π x : A. B` — the translation target of the
    /// CC Π type.
    Pi {
        /// The bound variable `x` (may occur in `codomain`).
        binder: Symbol,
        /// The domain `A`.
        domain: RcTerm,
        /// The codomain `B`, which may mention `binder`.
        codomain: RcTerm,
    },
    /// Closed code `λ (n : A', x : A). e` — the CC-CC replacement for λ.
    ///
    /// Rule `[Code]` types this in the *empty* environment, so a well-typed
    /// `Code` node never has free variables.
    Code {
        /// The environment parameter `n`.
        env_binder: Symbol,
        /// The type `A'` of the environment parameter (closed).
        env_ty: RcTerm,
        /// The real argument `x`.
        arg_binder: Symbol,
        /// The type `A` of the argument; may mention `env_binder` (this is
        /// the dependently typed twist of the paper).
        arg_ty: RcTerm,
        /// The body `e`; may mention both binders.
        body: RcTerm,
    },
    /// The type of code, `Code (n : A', x : A). B`.
    CodeTy {
        /// The environment parameter `n`.
        env_binder: Symbol,
        /// The type `A'` of the environment parameter (closed).
        env_ty: RcTerm,
        /// The real argument `x`.
        arg_binder: Symbol,
        /// The type `A` of the argument; may mention `env_binder`.
        arg_ty: RcTerm,
        /// The result type `B`; may mention both binders.
        result: RcTerm,
    },
    /// A closure `⟪e, e'⟫` pairing code `e` with its environment `e'`.
    Closure {
        /// The code component (typed by `[Code]`, in the empty
        /// environment).
        code: RcTerm,
        /// The environment component (typed under the ambient `Γ`).
        env: RcTerm,
    },
    /// Application `e1 e2`; eliminates *closures* (rule `[App]`).
    App {
        /// The function position `e1`.
        func: RcTerm,
        /// The argument position `e2`.
        arg: RcTerm,
    },
    /// Dependent let `let x = e : A in e'`.
    Let {
        /// The bound variable `x`.
        binder: Symbol,
        /// The annotation `A` on the definition.
        annotation: RcTerm,
        /// The definition `e`.
        bound: RcTerm,
        /// The body `e'`, which may mention `binder`.
        body: RcTerm,
    },
    /// Strong dependent pair type `Σ x : A. B` (environment telescopes).
    Sigma {
        /// The bound variable `x` (names the first component in `second`).
        binder: Symbol,
        /// The type `A` of the first component.
        first: RcTerm,
        /// The type `B` of the second component, which may mention
        /// `binder`.
        second: RcTerm,
    },
    /// Dependent pair `⟨e1, e2⟩ as Σ x : A. B`.
    Pair {
        /// The first component `e1`.
        first: RcTerm,
        /// The second component `e2`.
        second: RcTerm,
        /// The Σ-type annotation the pair is formed at.
        annotation: RcTerm,
    },
    /// First projection `fst e`.
    Fst(RcTerm),
    /// Second projection `snd e`.
    Snd(RcTerm),
    /// The unit type `1` terminating environment telescopes.
    Unit,
    /// The unit value `⟨⟩`.
    UnitVal,
    /// The ground type `Bool` (§5.2).
    BoolTy,
    /// A boolean literal `true` or `false`.
    BoolLit(bool),
    /// Non-dependent conditional `if e then e1 else e2`.
    If {
        /// The scrutinee, of type `Bool`.
        scrutinee: RcTerm,
        /// The branch taken when the scrutinee is `true`.
        then_branch: RcTerm,
        /// The branch taken when the scrutinee is `false`.
        else_branch: RcTerm,
    },
}

thread_local! {
    /// The per-thread CC-CC term interner. All smart constructors route
    /// through it, so structurally identical terms built on the same
    /// thread always share one node.
    static INTERNER: RefCell<Interner<Term>> = RefCell::new(Interner::new());
}

/// A snapshot of the CC-CC interner's hit/miss counters (for benchmarks
/// and smoke assertions).
pub fn intern_stats() -> InternStats {
    INTERNER.with(|i| i.borrow().stats())
}

/// Number of entries currently in the CC-CC interner table (live nodes
/// plus not-yet-pruned dead ones).
pub fn intern_table_len() -> usize {
    INTERNER.with(|i| i.borrow().len())
}

impl Internable for Term {
    fn compute_meta(&self) -> NodeMeta {
        syntax::meta(self)
    }
}

// The constructor table: each constructor's wire tag, fixed by the
// stored format (see `cccc_util::syntax`).
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

/// CC-CC's grammar for the binding structure written once in
/// [`cccc_util::syntax`]: substitution, α-equivalence, free variables,
/// node metadata and the wire codec. Code and code types are its
/// telescopes: `env_binder` scopes over the argument type and the body,
/// `arg_binder` over the body only.
impl Syntax for Term {
    const VAR: u64 = TAG_VAR;

    #[inline]
    fn shape(tag: u64) -> Option<Shape> {
        Some(match tag {
            TAG_STAR | TAG_BOX | TAG_UNIT | TAG_UNIT_VAL | TAG_BOOL_TY => Shape::LEAF,
            TAG_PI | TAG_SIGMA => Shape::BINDER,
            TAG_CODE | TAG_CODE_TY => Shape::TELESCOPE,
            TAG_CLOSURE | TAG_APP => Shape::BINARY,
            TAG_LET => Shape::LET,
            TAG_PAIR | TAG_IF => Shape::TERNARY,
            TAG_FST | TAG_SND => Shape::UNARY,
            TAG_BOOL_LIT => Shape::SCALAR,
            _ => return None,
        })
    }

    #[inline]
    fn var(x: Symbol) -> Term {
        Term::Var(x)
    }

    #[inline]
    fn as_var(&self) -> Option<Symbol> {
        Term::as_var(self)
    }

    #[inline]
    fn split(&self) -> Parts<&RcTerm> {
        match self {
            Term::Var(_) => Parts::leaf(TAG_VAR),
            Term::Sort(Universe::Star) => Parts::leaf(TAG_STAR),
            Term::Sort(Universe::Box) => Parts::leaf(TAG_BOX),
            Term::Pi { binder, domain, codomain } => {
                Parts::new(TAG_PI, [*binder], [domain, codomain])
            }
            Term::Code { env_binder, env_ty, arg_binder, arg_ty, body } => {
                Parts::new(TAG_CODE, [*env_binder, *arg_binder], [env_ty, arg_ty, body])
            }
            Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => {
                Parts::new(TAG_CODE_TY, [*env_binder, *arg_binder], [env_ty, arg_ty, result])
            }
            Term::Closure { code, env } => Parts::new(TAG_CLOSURE, [], [code, env]),
            Term::App { func, arg } => Parts::new(TAG_APP, [], [func, arg]),
            Term::Let { binder, annotation, bound, body } => {
                Parts::new(TAG_LET, [*binder], [annotation, bound, body])
            }
            Term::Sigma { binder, first, second } => {
                Parts::new(TAG_SIGMA, [*binder], [first, second])
            }
            Term::Pair { first, second, annotation } => {
                Parts::new(TAG_PAIR, [], [first, second, annotation])
            }
            Term::Fst(e) => Parts::new(TAG_FST, [], [e]),
            Term::Snd(e) => Parts::new(TAG_SND, [], [e]),
            Term::Unit => Parts::leaf(TAG_UNIT),
            Term::UnitVal => Parts::leaf(TAG_UNIT_VAL),
            Term::BoolTy => Parts::leaf(TAG_BOOL_TY),
            Term::BoolLit(b) => Parts::scalar(TAG_BOOL_LIT, u64::from(*b)),
            Term::If { scrutinee, then_branch, else_branch } => {
                Parts::new(TAG_IF, [], [scrutinee, then_branch, else_branch])
            }
        }
    }

    #[inline]
    fn join(parts: Parts<RcTerm>) -> Term {
        let Parts { tag, binders: [binder, inner], scalar, children } = parts;
        match (tag, children) {
            (TAG_STAR, _) => Term::Sort(Universe::Star),
            (TAG_BOX, _) => Term::Sort(Universe::Box),
            (TAG_PI, [Some(domain), Some(codomain), _]) => Term::Pi { binder, domain, codomain },
            (TAG_CODE, [Some(env_ty), Some(arg_ty), Some(body)]) => {
                Term::Code { env_binder: binder, env_ty, arg_binder: inner, arg_ty, body }
            }
            (TAG_CODE_TY, [Some(env_ty), Some(arg_ty), Some(result)]) => {
                Term::CodeTy { env_binder: binder, env_ty, arg_binder: inner, arg_ty, result }
            }
            (TAG_CLOSURE, [Some(code), Some(env), _]) => Term::Closure { code, env },
            (TAG_APP, [Some(func), Some(arg), _]) => Term::App { func, arg },
            (TAG_LET, [Some(annotation), Some(bound), Some(body)]) => {
                Term::Let { binder, annotation, bound, body }
            }
            (TAG_SIGMA, [Some(first), Some(second), _]) => Term::Sigma { binder, first, second },
            (TAG_PAIR, [Some(first), Some(second), Some(annotation)]) => {
                Term::Pair { first, second, annotation }
            }
            (TAG_FST, [Some(e), ..]) => Term::Fst(e),
            (TAG_SND, [Some(e), ..]) => Term::Snd(e),
            (TAG_UNIT, _) => Term::Unit,
            (TAG_UNIT_VAL, _) => Term::UnitVal,
            (TAG_BOOL_TY, _) => Term::BoolTy,
            (TAG_BOOL_LIT, _) => Term::BoolLit(scalar != 0),
            (TAG_IF, [Some(scrutinee), Some(then_branch), Some(else_branch)]) => {
                Term::If { scrutinee, then_branch, else_branch }
            }
            _ => unreachable!("CC-CC parts do not fit the shape of tag {tag}"),
        }
    }
}

/// Lets the shared typing telescope intern into this thread's interner.
impl ThreadInterned for Term {
    fn rc(self) -> RcTerm {
        Term::rc(self)
    }
}

impl Term {
    /// Interns the term, returning its hash-consed handle. O(1) in the
    /// size of the term: children are already interned, so only the head
    /// is hashed and, on a miss, only the head's metadata is derived.
    pub fn rc(self) -> RcTerm {
        INTERNER.with(|i| i.borrow_mut().intern(self))
    }

    /// Returns `true` for the universe `⋆`.
    pub fn is_star(&self) -> bool {
        matches!(self, Term::Sort(Universe::Star))
    }

    /// Returns `true` for the universe `□`.
    pub fn is_box(&self) -> bool {
        matches!(self, Term::Sort(Universe::Box))
    }

    /// Returns the universe if the term is a sort.
    pub fn as_sort(&self) -> Option<Universe> {
        match self {
            Term::Sort(u) => Some(*u),
            _ => None,
        }
    }

    /// Returns the variable name if the term is a variable.
    pub fn as_var(&self) -> Option<Symbol> {
        match self {
            Term::Var(x) => Some(*x),
            _ => None,
        }
    }

    /// Returns `true` when the term is a *value* in the sense of
    /// Theorem 4.8: a universe, code, a closure, a pair, a type
    /// constructor, unit, or a boolean literal.
    pub fn is_value(&self) -> bool {
        matches!(
            self,
            Term::Sort(_)
                | Term::Code { .. }
                | Term::CodeTy { .. }
                | Term::Closure { .. }
                | Term::Pi { .. }
                | Term::Sigma { .. }
                | Term::Pair { .. }
                | Term::Unit
                | Term::UnitVal
                | Term::BoolTy
                | Term::BoolLit(_)
        )
    }

    /// Calls `f` on each *direct* child handle, left to right.
    pub fn for_each_child(&self, f: impl FnMut(&RcTerm)) {
        syntax::for_each_child(self, f)
    }

    /// The number of AST nodes in the term, counted *as a tree* (shared
    /// subterms count once per occurrence). Used by the benchmarks to
    /// report the code-size blow-up of closure conversion. O(1): summed
    /// from the children's cached metadata rather than traversed.
    pub fn size(&self) -> usize {
        syntax::size(self)
    }

    /// The maximum depth of the AST. O(1) via cached metadata.
    pub fn depth(&self) -> usize {
        syntax::depth(self)
    }

    /// Counts the closures in the term (one per source λ after
    /// translation).
    pub fn closure_count(&self) -> usize {
        let mut count = 0;
        self.visit(&mut |t| {
            if matches!(t, Term::Closure { .. }) {
                count += 1;
            }
        });
        count
    }

    /// Counts the literal `Code` nodes in the term (what hoisting lifts to
    /// the top level).
    pub fn code_count(&self) -> usize {
        let mut count = 0;
        self.visit(&mut |t| {
            if matches!(t, Term::Code { .. }) {
                count += 1;
            }
        });
        count
    }

    /// Calls `f` on this term and every subterm, pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Term)) {
        syntax::visit(self, f)
    }

    /// Splits an application spine: `f a b c` becomes `(f, [a, b, c])`.
    pub fn spine(&self) -> (&Term, Vec<&RcTerm>) {
        let mut args = Vec::new();
        let mut head = self;
        while let Term::App { func, arg } = head {
            args.push(arg);
            head = func;
        }
        args.reverse();
        (head, args)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::pretty::term_to_string(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;

    #[test]
    fn size_and_depth_count_code_and_closures() {
        // ⟪λ (n : 1, x : Bool). x, ⟨⟩⟫ has 6 nodes: Closure, Code, Unit,
        // BoolTy, Var, UnitVal.
        let t = closure(code("n", unit_ty(), "x", bool_ty(), var("x")), unit_val());
        assert_eq!(t.size(), 6);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.closure_count(), 1);
        assert_eq!(t.code_count(), 1);
    }

    #[test]
    fn values_are_recognized() {
        assert!(star().is_value());
        assert!(unit_val().is_value());
        assert!(code("n", unit_ty(), "x", bool_ty(), var("x")).is_value());
        assert!(closure(code("n", unit_ty(), "x", bool_ty(), var("x")), unit_val()).is_value());
        assert!(!app(var("f"), tt()).is_value());
        assert!(!var("x").is_value());
    }

    #[test]
    fn as_sort_and_as_var() {
        assert_eq!(star().as_sort(), Some(Universe::Star));
        assert!(boxu().is_box());
        assert!(star().is_star());
        assert_eq!(var("q").as_var().map(|s| s.base_name()), Some("q"));
        assert_eq!(var("q").as_sort(), None);
    }

    #[test]
    fn spine_splits_applications() {
        let t = app(app(var("f"), var("a")), var("b"));
        let (head, args) = t.spine();
        assert!(matches!(head, Term::Var(_)));
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn visit_reaches_every_node() {
        let t = pair(tt(), unit_val(), sigma("x", bool_ty(), unit_ty()));
        let mut n = 0;
        t.visit(&mut |_| n += 1);
        assert_eq!(n, t.size());
    }
}
