//! Typing environments `Γ` for CC-CC and their well-formedness (Figure 7).
//!
//! Identical in structure to the CC environments: an ordered telescope of
//! assumptions `x : A` and definitions `x = e : A`, defined once, in
//! [`cccc_util::env`]; this module names its CC-CC instance. Note that per
//! rule `[Code]`, the code fragments of a program never see the ambient
//! `Γ` — they are checked in the empty environment — but closures,
//! environments, and the surrounding program do.

use crate::ast::Term;

/// A CC-CC typing environment `Γ`.
pub type Env = cccc_util::env::Env<Term>;

/// One entry of a CC-CC typing environment.
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
        let env =
            Env::new().with_assumption(sym("x"), bool_ty()).with_assumption(sym("x"), unit_ty());
        let ty = env.lookup_type(sym("x")).unwrap();
        assert!(matches!(&**ty, Term::Unit));
    }

    #[test]
    fn definitions_are_retrievable() {
        let env = Env::new().with_definition(sym("u"), unit_val(), unit_ty());
        assert!(env.lookup_definition(sym("u")).is_some());
        assert!(env.lookup_definition(sym("missing")).is_none());
        assert!(env.lookup(sym("u")).is_some());
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn display_shows_definitions() {
        let env = Env::new().with_definition(sym("u"), unit_val(), unit_ty());
        assert!(env.to_string().contains('='));
    }

    #[test]
    fn entries_share_the_cc_cc_interners_nodes() {
        let env = Env::new().with_definition(sym("u"), unit_val(), unit_ty());
        let Some(Decl::Definition { ty, term, .. }) = env.lookup(sym("u")) else {
            panic!("`u` is a definition")
        };
        assert!(ty.same(&unit_ty().rc()));
        assert!(term.same(&unit_val().rc()));
    }
}
