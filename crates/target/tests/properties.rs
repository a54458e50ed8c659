//! Property-based tests for CC-CC, over a type-directed random generator
//! of well-typed target programs (written in the style of
//! `cccc-source`'s `generate` module, but producing closures and
//! environment tuples directly).
//!
//! The properties are the metatheoretic invariants the paper's proofs rely
//! on, instantiated at random programs:
//!
//! * every generated program type checks at `Bool`;
//! * [`reduce::normalize_default`] is **idempotent** and sound for
//!   definitional equivalence;
//! * normalization is **preserved by substitution**: substituting a closed
//!   value before or after normalizing yields the same normal form;
//! * subject reduction holds along the `⊲` sequence;
//! * closure-η identifies each generated closure with its η-wrapping.

use cccc_target::builder::*;
use cccc_target::{equiv, reduce, subst, typecheck, Env, Term};
use cccc_util::Symbol;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic, seedable generator of well-typed CC-CC programs of
/// ground type `Bool`.
struct TargetGenerator {
    rng: StdRng,
    counter: u64,
}

impl TargetGenerator {
    fn new(seed: u64) -> TargetGenerator {
        TargetGenerator { rng: StdRng::seed_from_u64(seed), counter: 0 }
    }

    fn fresh(&mut self, base: &str) -> Symbol {
        self.counter += 1;
        Symbol::fresh(&format!("{base}{}", self.counter))
    }

    /// A closed boolean-valued term of bounded depth, possibly mentioning
    /// the boolean variables in `context`.
    fn gen_bool(&mut self, context: &[Symbol], depth: usize) -> Term {
        // Occasionally use a context variable so open terms genuinely
        // mention their free variables.
        if !context.is_empty() && self.rng.gen_bool(0.4) {
            let index = self.rng.gen_range(0..context.len());
            return var_sym(context[index]);
        }
        if depth == 0 {
            return bool_lit(self.rng.gen_bool(0.5));
        }
        match self.rng.gen_range(0..7u32) {
            0 | 1 => bool_lit(self.rng.gen_bool(0.5)),
            2 => ite(
                self.gen_bool(context, depth - 1),
                self.gen_bool(context, depth - 1),
                self.gen_bool(context, depth - 1),
            ),
            3 => {
                // Project from a pair of booleans.
                let annotation = product(bool_ty(), bool_ty());
                let p = pair(
                    self.gen_bool(context, depth - 1),
                    self.gen_bool(context, depth - 1),
                    annotation,
                );
                if self.rng.gen_bool(0.5) {
                    fst(p)
                } else {
                    snd(p)
                }
            }
            4 => {
                // Apply a closure with an empty environment.
                let x = self.fresh("x");
                let body = self.gen_closed_code_body(x, depth - 1);
                let clo =
                    closure(code_sugar(self.fresh("n"), unit_ty(), x, bool_ty(), body), unit_val());
                app(clo, self.gen_bool(context, depth - 1))
            }
            5 => {
                // Apply a closure capturing one boolean through its
                // environment — the [CC-Lam] shape with one projection.
                let n = self.fresh("n");
                let x = self.fresh("x");
                let b = self.fresh("b");
                let env_ty = product(bool_ty(), unit_ty());
                let body = let_sugar(
                    b,
                    bool_ty(),
                    fst(var_sym(n)),
                    ite(var_sym(b), var_sym(x), bool_lit(self.rng.gen_bool(0.5))),
                );
                let clo = closure(
                    code_sugar(n, env_ty.clone(), x, bool_ty(), body),
                    pair(self.gen_bool(context, depth - 1), unit_val(), env_ty),
                );
                app(clo, self.gen_bool(context, depth - 1))
            }
            _ => {
                // A ζ-redex.
                let u = self.fresh("u");
                let_sugar(
                    u,
                    bool_ty(),
                    self.gen_bool(context, depth - 1),
                    ite(var_sym(u), self.gen_bool(context, depth - 1), var_sym(u)),
                )
            }
        }
    }

    /// A code body over argument `x` that mentions no other variables, so
    /// the code is closed.
    fn gen_closed_code_body(&mut self, x: Symbol, depth: usize) -> Term {
        match self.rng.gen_range(0..3u32) {
            0 => var_sym(x),
            1 => ite(var_sym(x), bool_lit(self.rng.gen_bool(0.5)), var_sym(x)),
            _ => {
                if depth == 0 {
                    var_sym(x)
                } else {
                    // Nest another empty-environment closure application.
                    let y = self.fresh("y");
                    let inner = closure(
                        code_sugar(self.fresh("m"), unit_ty(), y, bool_ty(), var_sym(y)),
                        unit_val(),
                    );
                    app(inner, var_sym(x))
                }
            }
        }
    }

    /// A closed ground program.
    fn gen_program(&mut self, depth: usize) -> Term {
        self.gen_bool(&[], depth)
    }

    /// An open ground component over fresh boolean assumptions, returned
    /// with its environment and a closing substitution of random literals.
    fn gen_open_component(
        &mut self,
        free_variables: usize,
        depth: usize,
    ) -> (Env, Term, Vec<(Symbol, Term)>) {
        let mut env = Env::new();
        let mut names = Vec::new();
        let mut substitution = Vec::new();
        for _ in 0..free_variables {
            let h = self.fresh("h");
            env.push_assumption(h, bool_ty());
            names.push(h);
            substitution.push((h, bool_lit(self.rng.gen_bool(0.5))));
        }
        let term = self.gen_bool(&names, depth);
        (env, term, substitution)
    }
}

fn code_sugar(n: Symbol, env_ty: Term, x: Symbol, arg_ty: Term, body: Term) -> Term {
    cccc_target::builder::code_sym(n, env_ty, x, arg_ty, body)
}

fn let_sugar(x: Symbol, annotation: Term, bound: Term, body: Term) -> Term {
    cccc_target::builder::let_sym(x, annotation, bound, body)
}

const CASES: u64 = 60;

#[test]
fn generated_programs_type_check_at_bool() {
    for seed in 0..CASES {
        let term = TargetGenerator::new(seed).gen_program(4);
        typecheck::check(&Env::new(), &term, &bool_ty())
            .unwrap_or_else(|e| panic!("seed {seed}: ill-typed: {e}\n{term}"));
    }
}

#[test]
fn normalize_default_is_idempotent() {
    for seed in 0..CASES {
        let term = TargetGenerator::new(seed).gen_program(4);
        let once = reduce::normalize_default(&Env::new(), &term);
        let twice = reduce::normalize_default(&Env::new(), &once);
        assert!(
            subst::alpha_eq(&once, &twice),
            "seed {seed}: normalization not idempotent\nonce : {once}\ntwice: {twice}"
        );
        // Normal forms of ground programs are literals, and normalization
        // is sound for definitional equivalence.
        assert!(matches!(once, Term::BoolLit(_)), "seed {seed}: got {once}");
        assert!(equiv::definitionally_equal(&Env::new(), &term, &once), "seed {seed}");
    }
}

#[test]
fn normalization_is_preserved_by_substitution() {
    // nf(e[v/x]) = nf(nf(e)[v/x]) for closed replacements v — substituting
    // before or after normalizing cannot be observed.
    for seed in 0..CASES {
        let (env, term, gamma) = TargetGenerator::new(seed).gen_open_component(3, 4);
        typecheck::infer(&env, &term)
            .unwrap_or_else(|e| panic!("seed {seed}: open component ill-typed: {e}"));
        let substituted_first =
            reduce::normalize_default(&Env::new(), &subst::subst_all(&term, &gamma));
        // Normalizing the open term gets stuck at the free variables;
        // substituting afterwards and renormalizing must agree.
        let normalized_open = reduce::normalize_default(&env_without_definitions(&env), &term);
        let substituted_after =
            reduce::normalize_default(&Env::new(), &subst::subst_all(&normalized_open, &gamma));
        assert!(
            subst::alpha_eq(&substituted_first, &substituted_after),
            "seed {seed}:\nsubst-then-normalize: {substituted_first}\nnormalize-then-subst: {substituted_after}"
        );
    }
}

#[test]
fn subject_reduction_along_the_step_sequence() {
    for seed in 0..CASES / 2 {
        let term = TargetGenerator::new(seed).gen_program(3);
        let ty = typecheck::infer(&Env::new(), &term).unwrap();
        let mut current = term;
        for _ in 0..64 {
            match reduce::step(&Env::new(), &current) {
                None => break,
                Some(next) => {
                    typecheck::check(&Env::new(), &next, &ty).unwrap_or_else(|e| {
                        panic!("seed {seed}: subject reduction failed: {e}\n{next}")
                    });
                    current = next;
                }
            }
        }
    }
}

#[test]
fn closure_eta_identifies_eta_wrappings() {
    // For a generated closure value f = ⟪code, env⟫ of type Bool → Bool,
    // the wrapper ⟪λ (n : 1, x : Bool). f x, ⟨⟩⟫ is definitionally equal
    // to f — the closure-η principle at work on arbitrary closures.
    for seed in 0..CASES / 2 {
        let mut generator = TargetGenerator::new(seed);
        let x = generator.fresh("x");
        let body = generator.gen_closed_code_body(x, 2);
        let f =
            closure(code_sugar(generator.fresh("n"), unit_ty(), x, bool_ty(), body), unit_val());
        let wrapper = closure(
            code_sugar(
                generator.fresh("n"),
                unit_ty(),
                Symbol::intern("x"),
                bool_ty(),
                app(f.clone(), var("x")),
            ),
            unit_val(),
        );
        assert!(
            equiv::definitionally_equal(&Env::new(), &wrapper, &f),
            "seed {seed}: closure-η failed for {f}"
        );
    }
}

/// Strips definitions so normalization of the open term cannot unfold the
/// assumptions (they have none, but keep the helper explicit).
fn env_without_definitions(env: &Env) -> Env {
    let mut assumptions = Env::new();
    for d in env.iter() {
        assumptions.push_assumption(d.name(), (**d.ty()).clone());
    }
    assumptions
}
