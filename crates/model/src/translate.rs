//! The model of CC-CC in CC (Figure 8): a translation `e ↦ e°` that
//! "decompiles" closures.
//!
//! The model interprets code as curried functions, closures as partial
//! applications, and the unit type by its Church encoding:
//!
//! * `Code (x' : A', x : A). B  ↦  Π x' : A'°. Π x : A°. B°`
//! * `λ (x' : A', x : A). e     ↦  λ x' : A'°. λ x : A°. e°`
//! * `⟪e, e'⟫                   ↦  e° e'°`
//! * `1                         ↦  Π A : ⋆. Π x : A. A`
//! * `⟨⟩                        ↦  λ A : ⋆. λ x : A. x`
//!
//! All other forms are translated homomorphically. The model reduces type
//! safety and consistency of CC-CC to those of CC (§4.1): a proof of `False`
//! in CC-CC would translate to a proof of `False` in CC, which cannot exist.

use cccc_source as src;
use cccc_target as tgt;

/// The CC model of the CC-CC unit type `1`: the Church encoding
/// `Π A : ⋆. Π x : A. A`.
pub fn unit_type_model() -> src::Term {
    src::builder::pi(
        "A",
        src::builder::star(),
        src::builder::pi("x", src::builder::var("A"), src::builder::var("A")),
    )
}

/// The CC model of the CC-CC unit value `⟨⟩`: the polymorphic identity
/// function.
pub fn unit_value_model() -> src::Term {
    src::builder::lam(
        "A",
        src::builder::star(),
        src::builder::lam("x", src::builder::var("A"), src::builder::var("x")),
    )
}

/// Translates (models) a CC-CC term into CC — the judgment
/// `Γ ⊢ e : A ⇝° e` of Figure 8. The translation is total on syntax, so no
/// typing information is needed to compute it (it is *justified* on typing
/// derivations, which is what [`crate::verify`] checks).
pub fn model(term: &tgt::Term) -> src::Term {
    match term {
        tgt::Term::Var(x) => src::Term::Var(*x),
        tgt::Term::Sort(u) => src::Term::Sort(*u),
        tgt::Term::Unit => unit_type_model(),
        tgt::Term::UnitVal => unit_value_model(),
        tgt::Term::BoolTy => src::Term::BoolTy,
        tgt::Term::BoolLit(b) => src::Term::BoolLit(*b),
        tgt::Term::If { scrutinee, then_branch, else_branch } => src::Term::If {
            scrutinee: model(scrutinee).rc(),
            then_branch: model(then_branch).rc(),
            else_branch: model(else_branch).rc(),
        },
        // [M-Prod-*] / [M-Prod-□]
        tgt::Term::Pi { binder, domain, codomain } => src::Term::Pi {
            binder: *binder,
            domain: model(domain).rc(),
            codomain: model(codomain).rc(),
        },
        // [M-T-Code-*] / [M-T-Code-□]: code types become curried Π types.
        tgt::Term::CodeTy { env_binder, env_ty, arg_binder, arg_ty, result } => src::Term::Pi {
            binder: *env_binder,
            domain: model(env_ty).rc(),
            codomain: src::Term::Pi {
                binder: *arg_binder,
                domain: model(arg_ty).rc(),
                codomain: model(result).rc(),
            }
            .rc(),
        },
        // [M-Code]: code becomes a curried function (not necessarily closed
        // in CC — that is fine, the model only exists to prove soundness).
        tgt::Term::Code { env_binder, env_ty, arg_binder, arg_ty, body } => src::Term::Lam {
            binder: *env_binder,
            domain: model(env_ty).rc(),
            body: src::Term::Lam {
                binder: *arg_binder,
                domain: model(arg_ty).rc(),
                body: model(body).rc(),
            }
            .rc(),
        },
        // [M-Clo]: a closure is the partial application of its code to its
        // environment.
        tgt::Term::Closure { code, env } => {
            src::Term::App { func: model(code).rc(), arg: model(env).rc() }
        }
        // [M-App]
        tgt::Term::App { func, arg } => {
            src::Term::App { func: model(func).rc(), arg: model(arg).rc() }
        }
        tgt::Term::Let { binder, annotation, bound, body } => src::Term::Let {
            binder: *binder,
            annotation: model(annotation).rc(),
            bound: model(bound).rc(),
            body: model(body).rc(),
        },
        tgt::Term::Sigma { binder, first, second } => src::Term::Sigma {
            binder: *binder,
            first: model(first).rc(),
            second: model(second).rc(),
        },
        tgt::Term::Pair { first, second, annotation } => src::Term::Pair {
            first: model(first).rc(),
            second: model(second).rc(),
            annotation: model(annotation).rc(),
        },
        tgt::Term::Fst(e) => src::Term::Fst(model(e).rc()),
        tgt::Term::Snd(e) => src::Term::Snd(model(e).rc()),
    }
}

/// Models a whole CC-CC environment in CC (`⊢ Γ ⇝° Γ°`).
pub fn model_env(env: &tgt::Env) -> src::Env {
    let mut out = src::Env::new();
    for decl in env.iter() {
        match decl {
            tgt::Decl::Assumption { name, ty } => out.push_assumption(*name, model(ty)),
            tgt::Decl::Definition { name, ty, term } => {
                out.push_definition(*name, model(term), model(ty))
            }
        }
    }
    out
}

/// `False` in CC-CC, encoded as `Π A : ⋆. A` (§4.1).
pub fn target_false() -> tgt::Term {
    tgt::builder::pi("A", tgt::builder::star(), tgt::builder::var("A"))
}

/// `False` in CC, encoded as `Π A : ⋆. A`.
pub fn source_false() -> src::Term {
    src::builder::pi("A", src::builder::star(), src::builder::var("A"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_source::equiv::definitionally_equal as source_eq;
    use cccc_source::subst::alpha_eq as source_alpha_eq;
    use cccc_target::builder as t;

    #[test]
    fn atoms_are_homomorphic() {
        assert!(source_alpha_eq(&model(&t::star()), &src::builder::star()));
        assert!(source_alpha_eq(&model(&t::bool_ty()), &src::builder::bool_ty()));
        assert!(source_alpha_eq(&model(&t::tt()), &src::builder::tt()));
        assert!(source_alpha_eq(&model(&t::var("x")), &src::builder::var("x")));
    }

    #[test]
    fn both_universes_model_to_themselves() {
        for u in [tgt::Universe::Star, tgt::Universe::Box] {
            let modelled = model(&tgt::Term::Sort(u));
            assert!(matches!(modelled, src::Term::Sort(v) if v == u), "{modelled}");
        }
    }

    #[test]
    fn unit_is_church_encoded() {
        let unit_model = model(&t::unit_ty());
        assert!(source_alpha_eq(&unit_model, &unit_type_model()));
        let value_model = model(&t::unit_val());
        // The value inhabits the modelled type.
        assert!(src::typecheck::check(&src::Env::new(), &value_model, &unit_model).is_ok());
    }

    #[test]
    fn code_types_become_curried_pi_types() {
        let ct = t::code_ty("n", t::unit_ty(), "x", t::bool_ty(), t::bool_ty());
        let modelled = model(&ct);
        let expected = src::builder::pi(
            "n",
            unit_type_model(),
            src::builder::pi("x", src::builder::bool_ty(), src::builder::bool_ty()),
        );
        assert!(source_alpha_eq(&modelled, &expected));
    }

    #[test]
    fn code_becomes_a_curried_function_and_closures_become_applications() {
        let c = t::code("n", t::unit_ty(), "x", t::bool_ty(), t::var("x"));
        let clo = t::closure(c, t::unit_val());
        let modelled = model(&clo);
        // (λ n : 1°. λ x : Bool. x) (λ A. λ x. x) — a partial application.
        assert!(matches!(modelled, src::Term::App { .. }));
        // It reduces to the boolean identity function.
        let normalized = src::reduce::normalize_default(&src::Env::new(), &modelled);
        assert!(source_eq(
            &src::Env::new(),
            &normalized,
            &src::builder::lam("x", src::builder::bool_ty(), src::builder::var("x"))
        ));
    }

    #[test]
    fn false_preservation_lemma_4_1() {
        // False° = False, syntactically (Lemma 4.1).
        assert!(source_alpha_eq(&model(&target_false()), &source_false()));
    }

    #[test]
    fn model_env_translates_entries_in_order() {
        let env = tgt::Env::new()
            .with_assumption(cccc_util::Symbol::intern("A"), t::star())
            .with_definition(cccc_util::Symbol::intern("u"), t::unit_val(), t::unit_ty());
        let modelled = model_env(&env);
        assert_eq!(modelled.len(), 2);
        assert!(src::typecheck::check_env(&modelled).is_ok());
    }

    #[test]
    fn closure_application_runs_the_same_after_modelling() {
        let identity =
            t::closure(t::code("n", t::unit_ty(), "x", t::bool_ty(), t::var("x")), t::unit_val());
        let program = t::app(identity, t::tt());
        let modelled = model(&program);
        let value = src::reduce::normalize_default(&src::Env::new(), &modelled);
        assert!(source_alpha_eq(&value, &src::builder::tt()));
    }
}
