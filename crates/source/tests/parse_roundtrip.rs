//! Property suite: `parse ∘ pretty` is the identity up to α-equivalence
//! on generator-produced programs.
//!
//! The parser's own unit tests cover the hand-written corpus; this suite
//! adds the missing property coverage on *random* well-typed programs —
//! closed programs, ground programs, and open components with their
//! environments — at several render widths (line breaks and indentation
//! must never change the parse). It also pins the span side-table: the
//! text each parsed node's span covers parses back to that node.

use cccc_source::generate::{GeneratorConfig, TermGenerator};
use cccc_source::parse::parse_term;
use cccc_source::pretty::{term_to_string, term_to_string_width};
use cccc_source::spans;
use cccc_source::subst::alpha_eq;
use cccc_source::Term;

const SEEDS: u64 = 40;

fn assert_round_trips(term: &Term, context: &str) {
    let printed = term_to_string(term);
    let reparsed = parse_term(&printed)
        .unwrap_or_else(|e| panic!("{context}: failed to re-parse `{printed}`: {e}"));
    assert!(
        alpha_eq(term, &reparsed),
        "{context}: round trip changed term\n  original: {term}\n  reparsed: {reparsed}"
    );
}

#[test]
fn generated_closed_programs_round_trip() {
    for seed in 0..SEEDS {
        let mut generator = TermGenerator::new(seed);
        let (term, ty) = generator.gen_program();
        assert_round_trips(&term, &format!("seed {seed} term"));
        assert_round_trips(&ty, &format!("seed {seed} type"));
    }
}

#[test]
fn generated_ground_programs_round_trip() {
    for seed in 0..SEEDS {
        let mut generator = TermGenerator::new(0x600D + seed);
        let term = generator.gen_ground_program();
        assert_round_trips(&term, &format!("seed {seed}"));
    }
}

#[test]
fn generated_open_components_round_trip_with_their_environments() {
    for seed in 0..SEEDS / 2 {
        let mut generator = TermGenerator::new(0x0BEB + seed);
        let (env, term, substitution) = generator.gen_open_component(3);
        // A *free* generated variable cannot survive a parse (its unique
        // subscript is not reconstructible from text — α-equivalence only
        // quotients binders), so round-trip the γ-closed component, whose
        // generated names are all bound.
        let closed = cccc_source::subst::subst_all(&term, &substitution);
        assert_round_trips(&closed, &format!("seed {seed} closed component"));
        // Every environment type and every closing replacement.
        for decl in env.iter() {
            assert_round_trips(decl.ty(), &format!("seed {seed} env type"));
        }
        for (name, replacement) in &substitution {
            assert_round_trips(replacement, &format!("seed {seed} γ({name})"));
        }
    }
}

#[test]
fn round_trip_is_width_independent() {
    // Narrow widths force line breaks and indentation inside binders and
    // applications; the parse must not change.
    for seed in 0..SEEDS / 2 {
        let mut generator = TermGenerator::new(0x3117 + seed);
        let (term, _) = generator.gen_program();
        for width in [8, 24, 200] {
            let printed = term_to_string_width(&term, width);
            let reparsed = parse_term(&printed).unwrap_or_else(|e| {
                panic!("seed {seed} width {width}: failed to re-parse `{printed}`: {e}")
            });
            assert!(
                alpha_eq(&term, &reparsed),
                "seed {seed} width {width}: round trip changed term"
            );
        }
    }
}

#[test]
fn deeper_generator_configurations_round_trip() {
    let config =
        GeneratorConfig { max_depth: 6, redex_probability: 0.5, variable_probability: 0.5 };
    for seed in 0..SEEDS / 4 {
        let mut generator = TermGenerator::with_config(0xDEE0 ^ seed, config);
        let (term, _) = generator.gen_program();
        assert_round_trips(&term, &format!("deep seed {seed}"));
    }
}

#[test]
fn every_recorded_span_reparses_to_its_node() {
    // Spans are keyed by node identity, so a node that occurs more than
    // once carries the span of its leftmost occurrence. Each parse resets
    // the table, so every span is read before any is re-parsed.
    for seed in 0..SEEDS / 2 {
        let mut generator = TermGenerator::new(0x3117 + seed);
        let (term, _) = generator.gen_program();
        for width in [8, 24, 200] {
            let text = term_to_string_width(&term, width);
            let parsed = parse_term(&text).expect("generated programs parse");
            let mut recorded = Vec::new();
            parsed.visit(&mut |node| {
                let span = spans::span_of(node)
                    .unwrap_or_else(|| panic!("seed {seed} width {width}: `{node}` has no span"));
                recorded.push((node.clone(), span));
            });
            for (node, span) in recorded {
                let slice = span.slice(&text).expect("spans lie inside the text");
                let reparsed = parse_term(slice).unwrap_or_else(|e| {
                    panic!("seed {seed} width {width}: span {span} `{slice}` does not parse: {e}")
                });
                assert!(
                    alpha_eq(&node, &reparsed),
                    "seed {seed} width {width}: span {span} `{slice}` is not `{node}`"
                );
            }
        }
    }
}
