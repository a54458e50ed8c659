//! Pretty-printing of CC-CC terms.
//!
//! Uses the paper's notation where plain text allows: code prints as
//! `\(n : A', x : A). e`, code types as `Code (n : A', x : A). B`,
//! closures as `<<e, e'>>`, the unit type as `1` and its value as `<>`.

use crate::ast::{Term, Universe};
use cccc_util::pretty::Doc;

/// Precedence levels used to decide where parentheses are required.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Prec {
    /// Binders and `if`: lowest precedence.
    Binder,
    /// Application.
    App,
    /// Atoms: variables, sorts, closures, parenthesized terms.
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
        Term::Unit => Doc::text("1"),
        Term::UnitVal => Doc::text("<>"),
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
        Term::Code { env_binder, env_ty, arg_binder, arg_ty, body } => parens_if(
            prec > Prec::Binder,
            Doc::group(Doc::concat(vec![
                Doc::text(format!("\\({} : ", env_binder)),
                doc_at(env_ty, Prec::Binder),
                Doc::text(format!(", {} : ", arg_binder)),
                doc_at(arg_ty, Prec::Binder),
                Doc::text(")."),
                Doc::nest(2, Doc::concat(vec![Doc::line(), doc_at(body, Prec::Binder)])),
            ])),
        ),
        Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => parens_if(
            prec > Prec::Binder,
            Doc::group(Doc::concat(vec![
                Doc::text(format!("Code ({} : ", env_binder)),
                doc_at(env_ty, Prec::Binder),
                Doc::text(format!(", {} : ", arg_binder)),
                doc_at(arg_ty, Prec::Binder),
                Doc::text(")."),
                Doc::nest(2, Doc::concat(vec![Doc::line(), doc_at(result, Prec::Binder)])),
            ])),
        ),
        Term::Closure { code, env } => Doc::group(Doc::concat(vec![
            Doc::text("<<"),
            doc_at(code, Prec::Binder),
            Doc::text(", "),
            doc_at(env, Prec::Binder),
            Doc::text(">>"),
        ])),
        Term::App { func, arg } => parens_if(
            prec > Prec::App,
            Doc::group(Doc::concat(vec![
                doc_at(func, Prec::App),
                Doc::nest(2, Doc::concat(vec![Doc::line(), doc_at(arg, Prec::Atom)])),
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
        assert_eq!(term_to_string(&unit_ty()), "1");
        assert_eq!(term_to_string(&unit_val()), "<>");
        assert_eq!(term_to_string(&tt()), "true");
    }

    #[test]
    fn code_and_closures_print_with_both_binders() {
        let c = code("n", unit_ty(), "x", bool_ty(), var("x"));
        assert_eq!(term_to_string(&c), "\\(n : 1, x : Bool). x");
        let clo = closure(c, unit_val());
        assert_eq!(term_to_string(&clo), "<<\\(n : 1, x : Bool). x, <>>>");
        let ct = code_ty("n", unit_ty(), "x", bool_ty(), bool_ty());
        assert_eq!(term_to_string(&ct), "Code (n : 1, x : Bool). Bool");
    }

    #[test]
    fn application_and_projections_print() {
        assert_eq!(term_to_string(&app(var("f"), app(var("g"), var("a")))), "f (g a)");
        assert_eq!(term_to_string(&fst(var("p"))), "fst p");
        let p = pair(tt(), ff(), product(bool_ty(), bool_ty()));
        assert!(term_to_string(&p).starts_with("<true, false> as"));
    }

    #[test]
    fn narrow_width_breaks_lines() {
        let t = code(
            "environment",
            unit_ty(),
            "argument",
            bool_ty(),
            app(var("function"), var("argument")),
        );
        assert!(term_to_string_width(&t, 10).contains('\n'));
    }

    #[test]
    fn env_rendering() {
        use crate::env::Env;
        assert_eq!(Env::new().to_string(), "·");
        let env = Env::new().with_assumption(Symbol::intern("A"), star()).with_definition(
            Symbol::intern("u"),
            unit_val(),
            unit_ty(),
        );
        assert_eq!(env.to_string(), "A : *, u = <> : 1");
    }

    #[test]
    fn display_impl_matches_pretty() {
        let t = closure(code("n", unit_ty(), "x", bool_ty(), var("x")), unit_val());
        assert_eq!(format!("{t}"), term_to_string(&t));
    }
}
