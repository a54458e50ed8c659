//! Pretty-printing of CC terms.
//!
//! The printer produces a concrete syntax accepted by the parser in
//! [`crate::parse`], so printing and re-parsing a term yields an α-equivalent
//! term (round-tripping is tested in the parser module).

use crate::ast::{Term, Universe};
use cccc_util::pretty::Doc;

/// Precedence levels used to decide where parentheses are required.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prec {
    /// Binders and `if`: lowest precedence.
    Binder,
    /// Application.
    App,
    /// Atoms: variables, sorts, parenthesized terms.
    Atom,
}

/// Renders a term to a string at 80 columns.
pub fn term_to_string(term: &Term) -> String {
    term_to_doc(term).render(80)
}

/// Renders a term to a string at the given width.
pub fn term_to_string_width(term: &Term, width: usize) -> String {
    term_to_doc(term).render(width)
}

/// Builds a pretty-printing document for a term.
pub fn term_to_doc(term: &Term) -> Doc {
    doc_at(term, Prec::Binder)
}

fn doc_at(term: &Term, prec: Prec) -> Doc {
    match term {
        Term::Var(x) => Doc::text(x.as_str()),
        Term::Sort(Universe::Star) => Doc::text("*"),
        Term::Sort(Universe::Box) => Doc::text("BOX"),
        Term::BoolTy => Doc::text("Bool"),
        Term::BoolLit(true) => Doc::text("true"),
        Term::BoolLit(false) => Doc::text("false"),
        Term::Pi { binder, domain, codomain } => parens_if(
            prec > Prec::Binder,
            Doc::group(Doc::concat(vec![
                Doc::text(format!("Pi ({} : ", binder)),
                doc_at(domain, Prec::Binder),
                Doc::text(")."),
                Doc::nest(2, Doc::concat(vec![Doc::line(), doc_at(codomain, Prec::Binder)])),
            ])),
        ),
        Term::Sigma { binder, first, second } => parens_if(
            prec > Prec::Binder,
            Doc::group(Doc::concat(vec![
                Doc::text(format!("Sigma ({} : ", binder)),
                doc_at(first, Prec::Binder),
                Doc::text(")."),
                Doc::nest(2, Doc::concat(vec![Doc::line(), doc_at(second, Prec::Binder)])),
            ])),
        ),
        Term::Lam { binder, domain, body } => parens_if(
            prec > Prec::Binder,
            Doc::group(Doc::concat(vec![
                Doc::text(format!("\\({} : ", binder)),
                doc_at(domain, Prec::Binder),
                Doc::text(")."),
                Doc::nest(2, Doc::concat(vec![Doc::line(), doc_at(body, Prec::Binder)])),
            ])),
        ),
        Term::Let { binder, annotation, bound, body } => parens_if(
            prec > Prec::Binder,
            Doc::group(Doc::concat(vec![
                Doc::text(format!("let {} = ", binder)),
                doc_at(bound, Prec::Binder),
                Doc::text(" : "),
                doc_at(annotation, Prec::Binder),
                Doc::text(" in"),
                Doc::nest(2, Doc::concat(vec![Doc::line(), doc_at(body, Prec::Binder)])),
            ])),
        ),
        Term::App { func, arg } => parens_if(
            prec > Prec::App,
            Doc::group(Doc::concat(vec![
                doc_at(func, Prec::App),
                Doc::nest(2, Doc::concat(vec![Doc::line(), doc_at(arg, Prec::Atom)])),
            ])),
        ),
        Term::Pair { first, second, annotation } => Doc::group(Doc::concat(vec![
            Doc::text("<"),
            doc_at(first, Prec::Binder),
            Doc::text(", "),
            doc_at(second, Prec::Binder),
            Doc::text("> as "),
            doc_at(annotation, Prec::Atom),
        ])),
        Term::Fst(e) => {
            parens_if(prec > Prec::App, Doc::concat(vec![Doc::text("fst "), doc_at(e, Prec::Atom)]))
        }
        Term::Snd(e) => {
            parens_if(prec > Prec::App, Doc::concat(vec![Doc::text("snd "), doc_at(e, Prec::Atom)]))
        }
        Term::If { scrutinee, then_branch, else_branch } => parens_if(
            prec > Prec::Binder,
            Doc::group(Doc::concat(vec![
                Doc::text("if "),
                doc_at(scrutinee, Prec::Binder),
                Doc::text(" then "),
                doc_at(then_branch, Prec::Binder),
                Doc::text(" else "),
                doc_at(else_branch, Prec::Binder),
            ])),
        ),
    }
}

fn parens_if(condition: bool, doc: Doc) -> Doc {
    if condition {
        Doc::concat(vec![Doc::text("("), doc, Doc::text(")")])
    } else {
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use cccc_util::symbol::Symbol;

    #[test]
    fn atoms_print_bare() {
        assert_eq!(term_to_string(&var("x")), "x");
        assert_eq!(term_to_string(&star()), "*");
        assert_eq!(term_to_string(&bool_ty()), "Bool");
        assert_eq!(term_to_string(&tt()), "true");
        assert_eq!(term_to_string(&ff()), "false");
    }

    #[test]
    fn lambda_prints_with_annotation() {
        let t = lam("x", bool_ty(), var("x"));
        assert_eq!(term_to_string(&t), "\\(x : Bool). x");
    }

    #[test]
    fn application_groups_left() {
        let t = app(app(var("f"), var("a")), var("b"));
        assert_eq!(term_to_string(&t), "f a b");
    }

    #[test]
    fn application_argument_parenthesized() {
        let t = app(var("f"), app(var("g"), var("a")));
        assert_eq!(term_to_string(&t), "f (g a)");
    }

    #[test]
    fn pi_and_sigma_print_binders() {
        assert_eq!(term_to_string(&pi("A", star(), var("A"))), "Pi (A : *). A");
        assert_eq!(term_to_string(&sigma("x", bool_ty(), bool_ty())), "Sigma (x : Bool). Bool");
    }

    #[test]
    fn let_and_if_print() {
        let t = let_("x", bool_ty(), tt(), ite(var("x"), ff(), tt()));
        assert_eq!(term_to_string(&t), "let x = true : Bool in if x then false else true");
    }

    #[test]
    fn pair_and_projections_print() {
        let p = pair(tt(), ff(), sigma("x", bool_ty(), bool_ty()));
        assert_eq!(term_to_string(&p), "<true, false> as (Sigma (x : Bool). Bool)");
        assert_eq!(term_to_string(&fst(var("p"))), "fst p");
        assert_eq!(term_to_string(&snd(var("p"))), "snd p");
    }

    #[test]
    fn narrow_width_breaks_lines() {
        let t = lam("argument", bool_ty(), app(var("function"), var("argument")));
        let s = term_to_string_width(&t, 10);
        assert!(s.contains('\n'));
    }

    #[test]
    fn env_rendering() {
        use crate::env::Env;
        assert_eq!(Env::new().to_string(), "·");
        let env = Env::new().with_assumption(Symbol::intern("A"), star());
        assert_eq!(env.to_string(), "A : *");
    }

    #[test]
    fn display_impl_matches_pretty() {
        let t = lam("x", bool_ty(), var("x"));
        assert_eq!(format!("{t}"), term_to_string(&t));
    }
}
