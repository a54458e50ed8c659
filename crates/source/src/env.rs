//! Typing environments `Γ` (Figure 1) and their well-formedness (Figure 4).
//!
//! An environment is an ordered telescope of *assumptions* `x : A` and
//! *definitions* `x = e : A`. Order matters: the type of each entry may only
//! mention variables bound earlier, and the dependency-ordered free-variable
//! metafunction of closure conversion (Figure 10) relies on this ordering.
//! CC-CC shares the telescope, so it is defined once, in
//! [`cccc_util::env`]; this module names its CC instance.

use crate::ast::Term;

/// A CC typing environment `Γ`.
pub type Env = cccc_util::env::Env<Term>;

/// One entry of a CC typing environment.
pub type Decl = cccc_util::env::Decl<Term>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use cccc_util::symbol::Symbol;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn empty_env_displays_dot() {
        assert_eq!(Env::new().to_string(), "·");
        assert!(Env::new().is_empty());
    }

    #[test]
    fn lookup_finds_latest_binding() {
        let env = Env::new().with_assumption(sym("x"), bool_ty()).with_assumption(sym("x"), star());
        let ty = env.lookup_type(sym("x")).unwrap();
        assert!(ty.is_star());
    }

    #[test]
    fn definitions_are_retrievable() {
        let env = Env::new().with_definition(sym("b"), tt(), bool_ty());
        assert!(env.lookup_definition(sym("b")).is_some());
        assert!(env.lookup_definition(sym("missing")).is_none());
        assert!(env.lookup(sym("b")).is_some());
        assert!(env.lookup(sym("missing")).is_none());
    }

    #[test]
    fn assumptions_have_no_definition() {
        let env = Env::new().with_assumption(sym("a"), star());
        assert!(env.lookup_definition(sym("a")).is_none());
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn display_shows_definitions() {
        let env = Env::new().with_definition(sym("b"), tt(), bool_ty());
        let shown = env.to_string();
        assert!(shown.contains('='));
    }

    #[test]
    fn entries_share_the_cc_interners_nodes() {
        let env = Env::new().with_definition(sym("b"), tt(), bool_ty());
        let Some(Decl::Definition { ty, term, .. }) = env.lookup(sym("b")) else {
            panic!("`b` is a definition")
        };
        assert!(ty.same(&bool_ty().rc()));
        assert!(term.same(&tt().rc()));
    }
}
