//! Dependent environment tuples (the `Σ (xi : Ai …)` telescopes and
//! `⟨xi …⟩` tuples of Figures 9 and 10).
//!
//! Closure conversion packages the free variables `x1 : A1, …, xk : Ak` of
//! a function into
//!
//! * an *environment type*: the right-nested telescope
//!   `Σ x1 : A1. Σ x2 : A2. … 1` ([`telescope_type`]),
//! * an *environment value*: the right-nested tuple `⟨x1, ⟨x2, … ⟨⟩⟩⟩`
//!   ([`variables_tuple`] when the components are the variables
//!   themselves, [`tuple_value`] for arbitrary components), and
//! * a *projection prelude*: `let x1 = fst n in let x2 = fst (snd n) in …`
//!   re-binding, from the environment parameter inside code, the captured
//!   variables that the wrapped term reads ([`project_bindings`]).
//!
//! Because the telescope is dependent — `A2` may mention `x1` — the order
//! of entries matters; the `FV` metafunction of Figure 10 produces them in
//! dependency order, and everything here preserves that order.

use crate::ast::Term;
use crate::builder;
use crate::subst::{occurs_free, subst};
use cccc_util::symbol::Symbol;

/// Builds the environment telescope `Σ x1 : A1. … Σ xk : Ak. 1` for the
/// dependency-ordered entries. The empty telescope is the unit type.
pub fn telescope_type(entries: &[(Symbol, Term)]) -> Term {
    let mut ty = Term::Unit;
    for (name, entry_ty) in entries.iter().rev() {
        ty = builder::sigma_sym(*name, entry_ty.clone(), ty);
    }
    ty
}

/// Builds the environment tuple `⟨x1, ⟨x2, … ⟨⟩⟩⟩` whose components are the
/// captured variables themselves, annotated with the telescope at each
/// level. This is the dynamically constructed environment of rule
/// `[CC-Lam]` (Figure 9).
pub fn variables_tuple(entries: &[(Symbol, Term)]) -> Term {
    let mut value = Term::UnitVal;
    for (index, (name, _)) in entries.iter().enumerate().rev() {
        // The annotation of the pair at level `index` is the telescope of
        // the remaining entries; it may mention earlier variables, which
        // are free here exactly as they are in the components.
        let annotation = telescope_type(&entries[index..]);
        value = builder::pair(Term::Var(*name), value, annotation);
    }
    value
}

/// Builds the tuple `⟨v1, ⟨v2, … ⟨⟩⟩⟩` of arbitrary component values at the
/// given `telescope` type, substituting each component into the types of
/// the later ones (so dependent telescopes are instantiated correctly).
///
/// # Panics
///
/// Panics if `telescope` is not a `Σ …. 1` spine with exactly
/// `values.len()` entries.
pub fn tuple_value(values: &[Term], telescope: &Term) -> Term {
    match (values, telescope) {
        ([], Term::Unit) => Term::UnitVal,
        ([first_value, rest @ ..], Term::Sigma { binder, first: _, second }) => {
            let rest_telescope = subst(second, *binder, first_value);
            let rest_tuple = tuple_value(rest, &rest_telescope);
            builder::pair(first_value.clone(), rest_tuple, telescope.clone())
        }
        _ => panic!("tuple_value: {} values do not fit telescope `{telescope}`", values.len()),
    }
}

/// Wraps `body` in the projection prelude
///
/// ```text
/// let x1 = fst n : A1 in
/// let x2 = fst (snd n) : A2 in
/// …
/// body
/// ```
///
/// where `n` is `env_var`. Inside code this re-binds the captured
/// variables, both in the body and — crucially for dependent types — in
/// the argument's type annotation (Figure 9, rule `[CC-Lam]`).
///
/// Figure 9 binds every entry; here `let xi = fst (sndⁱ n) : Ai` is
/// emitted only when `xi` occurs free in what is built so far. The entries
/// are walked innermost first, so what is built so far holds the kept
/// `let`s' annotations too, and the entries a kept `Ai` mentions are kept
/// with it. Each dropped `let` binds a variable its scope never reads, so
/// by ζ (`let x = e : A in b ≡ b` when `x ∉ FV(b)`) the result is
/// definitionally equal to Figure 9's full prelude, and it type-checks
/// wherever that prelude does. Each test is an O(1) lookup on the cached
/// free-variable metadata.
pub fn project_bindings(env_var: &Term, entries: &[(Symbol, Term)], body: Term) -> Term {
    let mut out = body;
    for (index, (name, entry_ty)) in entries.iter().enumerate().rev() {
        if !occurs_free(*name, &out) {
            continue;
        }
        let mut access = env_var.clone();
        for _ in 0..index {
            access = builder::snd(access);
        }
        access = builder::fst(access);
        out = builder::let_sym(*name, entry_ty.clone(), access, out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::env::Env;
    use crate::equiv::definitionally_equal;
    use crate::reduce::normalize_default;
    use crate::subst::alpha_eq;
    use crate::typecheck;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn entries() -> Vec<(Symbol, Term)> {
        vec![(sym("A"), star()), (sym("a"), var("A")), (sym("b"), bool_ty())]
    }

    #[test]
    fn empty_telescope_is_unit() {
        assert!(alpha_eq(&telescope_type(&[]), &unit_ty()));
        assert!(alpha_eq(&variables_tuple(&[]), &unit_val()));
        assert!(alpha_eq(&tuple_value(&[], &unit_ty()), &unit_val()));
    }

    #[test]
    fn telescope_nests_right() {
        let ty = telescope_type(&entries());
        let expected = sigma("A", star(), sigma("a", var("A"), sigma("b", bool_ty(), unit_ty())));
        assert!(alpha_eq(&ty, &expected));
    }

    #[test]
    fn variables_tuple_checks_against_its_telescope() {
        let entries = entries();
        let telescope = telescope_type(&entries);
        let tuple = variables_tuple(&entries);
        // Under an environment binding the captured variables, the tuple
        // has exactly the telescope type.
        let env = Env::new()
            .with_assumption(sym("A"), star())
            .with_assumption(sym("a"), var("A"))
            .with_assumption(sym("b"), bool_ty());
        typecheck::check(&env, &tuple, &telescope).unwrap();
    }

    #[test]
    fn tuple_value_instantiates_dependent_telescopes() {
        let telescope = telescope_type(&entries());
        let concrete = tuple_value(&[bool_ty(), tt(), ff()], &telescope);
        typecheck::check(&Env::new(), &concrete, &telescope).unwrap();
    }

    #[test]
    #[should_panic(expected = "tuple_value")]
    fn tuple_value_rejects_arity_mismatch() {
        let telescope = telescope_type(&entries());
        let _ = tuple_value(&[bool_ty()], &telescope);
    }

    #[test]
    fn project_bindings_recover_the_components() {
        // let b = fst (snd (snd ⟨Bool, ⟨true, ⟨false, ⟨⟩⟩⟩⟩)) in b ⊲* false
        let entries = entries();
        let telescope = telescope_type(&entries);
        let concrete = tuple_value(&[bool_ty(), tt(), ff()], &telescope);
        let projected = project_bindings(&concrete, &entries, var("b"));
        let value = normalize_default(&Env::new(), &projected);
        assert!(alpha_eq(&value, &ff()));
        // And the first component comes back too.
        let projected = project_bindings(&concrete, &entries, var("a"));
        let value = normalize_default(&Env::new(), &projected);
        assert!(alpha_eq(&value, &tt()));
    }

    /// Figure 9's prelude over `entries()`, every entry bound, built by
    /// hand: `let A = fst n : ⋆ in let a = fst (snd n) : A in
    /// let b = fst (snd (snd n)) : Bool in body`.
    fn full_prelude(body: Term) -> Term {
        let n = || var("n");
        let_(
            "A",
            star(),
            fst(n()),
            let_("a", var("A"), fst(snd(n())), let_("b", bool_ty(), fst(snd(snd(n()))), body)),
        )
    }

    #[test]
    fn project_bindings_bind_what_the_body_reads_and_its_type_dependencies() {
        let entries = entries();
        let prelude = |body| project_bindings(&var("n"), &entries, body);
        // `b : Bool` depends on nothing, so it is bound alone.
        let expected = let_("b", bool_ty(), fst(snd(snd(var("n")))), var("b"));
        assert!(alpha_eq(&prelude(var("b")), &expected));
        // `a : A` brings `A` with it, bound first.
        let expected =
            let_("A", star(), fst(var("n")), let_("a", var("A"), fst(snd(var("n"))), var("a")));
        assert!(alpha_eq(&prelude(var("a")), &expected));
        // A body that reads no captured variable gets no prelude at all.
        assert!(alpha_eq(&prelude(tt()), &tt()));
        // A name the body binds itself is not a read of the captured one.
        let shadowing = let_("a", bool_ty(), tt(), var("a"));
        assert!(alpha_eq(&prelude(shadowing.clone()), &shadowing));
    }

    #[test]
    fn the_pruned_prelude_is_definitionally_equal_to_the_full_one() {
        // Under `n : Σ A : ⋆. Σ a : A. Σ b : Bool. 1`, dropping the `let`s
        // whose variable is not read is ζ: the two preludes are equal.
        let entries = entries();
        let env = Env::new().with_assumption(sym("n"), telescope_type(&entries));
        let bodies = [var("a"), var("b"), var("A"), tt()];
        for body in bodies {
            let pruned = project_bindings(&var("n"), &entries, body.clone());
            let full = full_prelude(body.clone());
            assert!(!alpha_eq(&pruned, &full), "`{body}` reads only some entries");
            assert!(definitionally_equal(&env, &pruned, &full), "`{pruned}` ≢ `{full}`");
        }
        // Reading every entry keeps every `let`: the full prelude itself.
        let reads_all = pair(var("a"), var("b"), sigma("_", var("A"), bool_ty()));
        let pruned = project_bindings(&var("n"), &entries, reads_all.clone());
        assert!(alpha_eq(&pruned, &full_prelude(reads_all)));
    }

    #[test]
    fn projections_type_check_inside_code() {
        // The full [CC-Lam] shape: code over the telescope whose argument
        // type projects a captured type variable.
        let entries = vec![(sym("A"), star())];
        let telescope = telescope_type(&entries);
        let arg_ty = project_bindings(&var("n"), &entries, var("A"));
        let body = project_bindings(&var("n"), &entries, var("x"));
        let c = code_sym(sym("n"), telescope.clone(), sym("x"), arg_ty, body);
        typecheck::infer(&Env::new(), &c).unwrap();
    }
}
