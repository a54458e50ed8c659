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

use cccc_util::intern::{
    FreeVars, InternStats, Internable, Interner, Node, NodeMeta, ThreadInterned,
};
use cccc_util::symbol::Symbol;
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
        // All unions go through [`FreeVars::union`]/[`FreeVars::minus`],
        // which share an existing child allocation whenever one side
        // covers the other — most CC-CC nodes are closed or nearly so and
        // allocate nothing here.
        match self {
            Term::Var(x) => NodeMeta::leaf(FreeVars::singleton(*x)),
            Term::Sort(_) | Term::Unit | Term::UnitVal | Term::BoolTy | Term::BoolLit(_) => {
                NodeMeta::leaf(FreeVars::closed())
            }
            Term::Pi { binder, domain, codomain: body }
            | Term::Sigma { binder, first: domain, second: body } => {
                let fv = FreeVars::union(domain.free_vars(), &body.free_vars().minus(&[*binder]));
                NodeMeta::node(fv, [domain.meta(), body.meta()])
            }
            // The telescoped two-binder forms: `env_binder` scopes over the
            // argument type and the body, `arg_binder` over the body only.
            Term::Code { env_binder, env_ty, arg_binder, arg_ty, body }
            | Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result: body } => {
                let fv = FreeVars::union(
                    &FreeVars::union(env_ty.free_vars(), &arg_ty.free_vars().minus(&[*env_binder])),
                    &body.free_vars().minus(&[*env_binder, *arg_binder]),
                );
                NodeMeta::node(fv, [env_ty.meta(), arg_ty.meta(), body.meta()])
            }
            Term::Closure { code, env } | Term::App { func: code, arg: env } => {
                let fv = FreeVars::union(code.free_vars(), env.free_vars());
                NodeMeta::node(fv, [code.meta(), env.meta()])
            }
            Term::Let { binder, annotation, bound, body } => {
                let fv = FreeVars::union(
                    &FreeVars::union(annotation.free_vars(), bound.free_vars()),
                    &body.free_vars().minus(&[*binder]),
                );
                NodeMeta::node(fv, [annotation.meta(), bound.meta(), body.meta()])
            }
            Term::Pair { first, second, annotation } => {
                let fv = FreeVars::union(
                    &FreeVars::union(first.free_vars(), second.free_vars()),
                    annotation.free_vars(),
                );
                NodeMeta::node(fv, [first.meta(), second.meta(), annotation.meta()])
            }
            // Single-child nodes share the child's set outright.
            Term::Fst(e) | Term::Snd(e) => NodeMeta::node(e.free_vars().clone(), [e.meta()]),
            Term::If { scrutinee, then_branch, else_branch } => {
                let fv = FreeVars::union(
                    &FreeVars::union(scrutinee.free_vars(), then_branch.free_vars()),
                    else_branch.free_vars(),
                );
                NodeMeta::node(fv, [scrutinee.meta(), then_branch.meta(), else_branch.meta()])
            }
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
    pub fn for_each_child(&self, mut f: impl FnMut(&RcTerm)) {
        match self {
            Term::Var(_)
            | Term::Sort(_)
            | Term::Unit
            | Term::UnitVal
            | Term::BoolTy
            | Term::BoolLit(_) => {}
            Term::Pi { domain: a, codomain: b, .. }
            | Term::Sigma { first: a, second: b, .. }
            | Term::Closure { code: a, env: b }
            | Term::App { func: a, arg: b } => {
                f(a);
                f(b);
            }
            Term::Code { env_ty: a, arg_ty: b, body: c, .. }
            | Term::CodeTy { env_ty: a, arg_ty: b, result: c, .. }
            | Term::Let { annotation: a, bound: b, body: c, .. }
            | Term::Pair { first: a, second: b, annotation: c }
            | Term::If { scrutinee: a, then_branch: b, else_branch: c } => {
                f(a);
                f(b);
                f(c);
            }
            Term::Fst(e) | Term::Snd(e) => f(e),
        }
    }

    /// The number of AST nodes in the term, counted *as a tree* (shared
    /// subterms count once per occurrence). Used by the benchmarks to
    /// report the code-size blow-up of closure conversion. O(1): summed
    /// from the children's cached metadata rather than traversed.
    pub fn size(&self) -> usize {
        let mut total: u64 = 1;
        self.for_each_child(|c| total = total.saturating_add(c.meta().size));
        total.try_into().unwrap_or(usize::MAX)
    }

    /// The maximum depth of the AST. O(1) via cached metadata.
    pub fn depth(&self) -> usize {
        let mut deepest: u32 = 0;
        self.for_each_child(|c| deepest = deepest.max(c.meta().depth));
        (deepest + 1) as usize
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
        f(self);
        match self {
            Term::Var(_)
            | Term::Sort(_)
            | Term::Unit
            | Term::UnitVal
            | Term::BoolTy
            | Term::BoolLit(_) => {}
            Term::Pi { domain, codomain, .. } => {
                domain.visit(f);
                codomain.visit(f);
            }
            Term::Code { env_ty, arg_ty, body, .. } => {
                env_ty.visit(f);
                arg_ty.visit(f);
                body.visit(f);
            }
            Term::CodeTy { env_ty, arg_ty, result, .. } => {
                env_ty.visit(f);
                arg_ty.visit(f);
                result.visit(f);
            }
            Term::Closure { code, env } => {
                code.visit(f);
                env.visit(f);
            }
            Term::App { func, arg } => {
                func.visit(f);
                arg.visit(f);
            }
            Term::Let { annotation, bound, body, .. } => {
                annotation.visit(f);
                bound.visit(f);
                body.visit(f);
            }
            Term::Sigma { first, second, .. } => {
                first.visit(f);
                second.visit(f);
            }
            Term::Pair { first, second, annotation } => {
                first.visit(f);
                second.visit(f);
                annotation.visit(f);
            }
            Term::Fst(e) | Term::Snd(e) => e.visit(f),
            Term::If { scrutinee, then_branch, else_branch } => {
                scrutinee.visit(f);
                then_branch.visit(f);
                else_branch.visit(f);
            }
        }
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
