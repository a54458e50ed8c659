//! Integration tests for the two §1/§7-motivated extensions:
//!
//! * **hoisting** — closed code is lifted to top-level definitions for
//!   static allocation, without changing typing or behaviour;
//! * **the cost model** — each language's reducer counts the rules it fires
//!   (`reduce::evaluate_with_cost`), quantifying the dynamic overhead
//!   (closure applications, environment construction, projections) that
//!   closure conversion introduces. The exact counts are pinned below.

use cccc::compiler::hoist::{hoist, hoist_checked};
use cccc::compiler::translate::translate;
use cccc::source::{self, builder as s, generate::TermGenerator, prelude};
use cccc::target;
use cccc::util::cost::{Cost, CostLabels};
use cccc::util::fuel::Fuel;

/// A cost's counters in field order: applications, ζ, δ, π, `if`, pairs
/// built, functions built.
fn counters<L: CostLabels>(cost: &Cost<L>) -> [usize; 7] {
    [
        cost.applications,
        cost.zeta,
        cost.delta,
        cost.projection,
        cost.conditional,
        cost.pairs_built,
        cost.functions_built,
    ]
}

/// The exact [`counters`] of every ground-corpus program, evaluated in CC
/// and, translated, in CC-CC.
const GROUND_COSTS: [(&str, [usize; 7], [usize; 7]); 16] = [
    ("id_applied_to_bool", [2, 0, 0, 0, 0, 0, 0], [2, 1, 0, 0, 0, 0, 0]),
    ("not_true", [1, 0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0, 0]),
    ("not_false", [1, 0, 0, 0, 1, 0, 0], [1, 0, 0, 0, 1, 0, 0]),
    ("and_true_false", [2, 0, 0, 0, 1, 0, 0], [2, 1, 0, 1, 1, 0, 0]),
    ("or_false_true", [2, 0, 0, 0, 1, 0, 0], [2, 1, 0, 1, 1, 0, 0]),
    ("xor_true_true", [2, 0, 0, 0, 2, 0, 0], [2, 1, 0, 1, 2, 0, 0]),
    ("twice_not_true", [5, 0, 0, 0, 2, 0, 0], [5, 3, 0, 4, 2, 0, 0]),
    ("four_is_even", [8, 0, 0, 0, 4, 0, 0], [8, 3, 0, 8, 4, 0, 0]),
    ("five_is_even", [9, 0, 0, 0, 5, 0, 0], [9, 3, 0, 10, 5, 0, 0]),
    ("add_two_three_is_even", [17, 0, 0, 0, 5, 0, 0], [17, 16, 0, 40, 5, 0, 0]),
    ("mul_two_three_is_even", [20, 0, 0, 0, 6, 0, 0], [20, 15, 0, 27, 6, 0, 0]),
    ("church_true_to_ground", [4, 0, 0, 0, 0, 0, 0], [4, 3, 0, 2, 0, 0, 0]),
    ("church_false_to_ground", [4, 0, 0, 0, 0, 0, 0], [4, 2, 0, 0, 0, 0, 0]),
    ("refined_witness_projection", [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0]),
    ("let_bound_identity", [2, 1, 0, 0, 0, 0, 0], [2, 2, 0, 0, 0, 0, 0]),
    ("swap_then_project", [3, 0, 0, 2, 0, 0, 0], [3, 3, 0, 2, 0, 0, 0]),
];

#[test]
fn hoisting_the_translated_corpus_preserves_typing() {
    for entry in prelude::corpus() {
        let compiled = translate(&source::Env::new(), &entry.term).unwrap();
        let (program, ty) = hoist_checked(&compiled)
            .unwrap_or_else(|e| panic!("hoisting `{}` failed: {e}", entry.name));
        // One code block per closure, and main is code-free.
        assert_eq!(program.code_block_count(), compiled.code_count(), "`{}`", entry.name);
        let mut literal_code_in_main = 0;
        program.main.visit(&mut |node| {
            if matches!(node, target::Term::Code { .. }) {
                literal_code_in_main += 1;
            }
        });
        assert_eq!(literal_code_in_main, 0, "`{}`", entry.name);
        // The type is unchanged.
        let original = target::typecheck::infer(&target::Env::new(), &compiled).unwrap();
        assert!(
            target::equiv::definitionally_equal(&program.label_environment(), &ty, &original),
            "`{}` changed type after hoisting",
            entry.name
        );
    }
}

#[test]
fn hoisting_preserves_ground_observations() {
    for (entry, expected) in prelude::ground_corpus() {
        let compiled = translate(&source::Env::new(), &entry.term).unwrap();
        let program = hoist(&compiled).unwrap();
        let value = program.evaluate();
        assert!(
            matches!(value, target::Term::BoolLit(b) if b == expected),
            "`{}` evaluated to {value} after hoisting",
            entry.name
        );
    }
}

#[test]
fn hoisting_generated_programs_round_trips_through_flatten() {
    let mut generator = TermGenerator::new(60_000);
    for _ in 0..20 {
        let term = generator.gen_ground_program();
        let compiled = translate(&source::Env::new(), &term).unwrap();
        let program = hoist(&compiled).unwrap();
        assert!(target::subst::alpha_eq(&program.flatten(), &compiled));
        assert!(program.typecheck().is_ok());
    }
}

#[test]
fn the_cost_model_shows_closure_conversion_overhead() {
    // For each ground program: the translated program performs at least as
    // many dereferences (projections + lets) as the source, and exactly as
    // many closure applications as the source performs β-steps.
    let corpus = prelude::ground_corpus();
    assert_eq!(corpus.len(), GROUND_COSTS.len());
    for ((entry, expected), (name, source_counts, target_counts)) in
        corpus.into_iter().zip(GROUND_COSTS)
    {
        assert_eq!(entry.name, name);
        let (source_value, source_cost) =
            source::reduce::evaluate_with_cost_default(&source::Env::new(), &entry.term);
        assert!(matches!(source_value, source::Term::BoolLit(b) if b == expected));
        assert_eq!(counters(&source_cost), source_counts, "`{}` in CC", entry.name);

        let compiled = translate(&source::Env::new(), &entry.term).unwrap();
        let (target_value, target_cost) =
            target::reduce::evaluate_with_cost_default(&target::Env::new(), &compiled);
        assert!(matches!(target_value, target::Term::BoolLit(b) if b == expected));
        assert_eq!(counters(&target_cost), target_counts, "`{}` in CC-CC", entry.name);

        assert_eq!(
            target_cost.applications, source_cost.applications,
            "`{}`: every source β becomes exactly one closure application",
            entry.name
        );
        assert!(
            target_cost.total_steps() >= source_cost.total_steps(),
            "`{}`: closure conversion should not reduce dynamic work",
            entry.name
        );
    }
}

#[test]
fn environment_size_drives_the_projection_overhead() {
    // A function capturing k variables pays k ζ-steps (the projection lets)
    // per call after closure conversion. Its exact counters are pinned.
    let pinned =
        [(1, [1, 1, 0, 1, 1, 0, 0]), (3, [1, 3, 0, 6, 3, 0, 0]), (6, [1, 6, 0, 21, 6, 0, 0])];
    for (k, expected) in pinned {
        // Build λ x : Bool. (uses b0 … b_{k-1}) under an environment binding
        // them, then apply it once with everything substituted to literals.
        let mut env = source::Env::new();
        let mut body = s::tt();
        for i in 0..k {
            let name = format!("b{i}");
            env.push_assumption(cccc::util::Symbol::intern(&name), s::bool_ty());
            body = s::ite(s::var(&name), body, s::ff());
        }
        let function = s::lam("x", s::bool_ty(), body);
        let compiled = translate(&env, &function).unwrap();
        // Close it by substituting literals for the captured variables.
        let mut closed = compiled;
        for i in 0..k {
            closed = target::subst::subst(
                &closed,
                cccc::util::Symbol::intern(&format!("b{i}")),
                &target::builder::tt(),
            );
        }
        let application = target::builder::app(closed, target::builder::ff());
        let (_, cost) =
            target::reduce::evaluate_with_cost_default(&target::Env::new(), &application);
        assert_eq!(cost.applications, 1);
        assert!(
            cost.zeta >= k,
            "capturing {k} variables should cost at least {k} projection lets, got {}",
            cost.zeta
        );
        assert_eq!(counters(&cost), expected, "capturing {k} variables");
    }
}

#[test]
fn cc_cc_evaluate_with_cost_spends_exactly_the_fuel_normalize_spends() {
    // The CC-CC half of `cccc_source::reduce`'s fuel-parity test; it lives
    // here because translating needs `cccc-core`.
    let is_even_4x4 = s::app(
        prelude::church_is_even(),
        s::app(
            s::app(prelude::church_mul(), prelude::church_numeral(4)),
            prelude::church_numeral(4),
        ),
    );
    let programs = prelude::ground_corpus().into_iter().map(|(entry, _)| entry.term);
    for term in programs.chain([is_even_4x4]) {
        let compiled = translate(&source::Env::new(), &term).unwrap();
        let env = target::Env::new();
        let mut plain = Fuel::default();
        target::reduce::normalize(&env, &compiled, &mut plain).unwrap();
        let mut counted = Fuel::default();
        target::reduce::evaluate_with_cost(&env, &compiled, &mut counted).unwrap();
        assert_eq!(counted.used(), plain.used(), "{term}");
        let mut exact = Fuel::new(plain.used());
        assert!(target::reduce::evaluate_with_cost(&env, &compiled, &mut exact).is_ok(), "{term}");
    }
}

#[test]
fn hoisted_code_blocks_can_be_shared_across_programs() {
    // Two different programs using the same library function produce
    // α-equivalent code blocks — the static-allocation story of §1.
    let program_a = s::app(prelude::not_fn(), s::tt());
    let program_b = s::app(prelude::not_fn(), s::ff());
    let hoisted_a = hoist(&translate(&source::Env::new(), &program_a).unwrap()).unwrap();
    let hoisted_b = hoist(&translate(&source::Env::new(), &program_b).unwrap()).unwrap();
    assert_eq!(hoisted_a.code_block_count(), 1);
    assert_eq!(hoisted_b.code_block_count(), 1);
    assert!(target::subst::alpha_eq(
        &hoisted_a.definitions[0].code,
        &hoisted_b.definitions[0].code
    ));
}
