//! Differential suite: the parallel driver must produce the same CC-CC
//! output and the same verification verdicts as the sequential pipeline
//! on every workload family.
//!
//! "Same output" is α-equivalence: closure conversion freshens binder
//! names through a global counter, so two runs differ in generated
//! subscripts but never in structure. The step engine and NbE stay
//! untouched underneath as the inner oracles; this suite pins the new
//! *orchestration* layer against the old single-threaded one.

use cccc_core::link;
use cccc_core::pipeline::{Compiler, CompilerOptions};
use cccc_driver::session::Session;
use cccc_driver::workloads::{
    deep_chain, diamond, edits, independent_units, root_of, session_from, skewed, WorkUnit,
};
use cccc_driver::{DriverError, UnitStatus};
use cccc_source::builder as s;
use cccc_source::prelude;
use cccc_target as tgt;
use std::collections::HashMap;

/// Links `root` the way §5.2 states it, γ(e): bottom-up, each unit's
/// compiled term with every transitive import's linked term substituted
/// for the import's name, all from the session's own artifacts.
fn link_by_substitution(session: &Session, root: &str) -> tgt::Term {
    let graph = session.graph();
    let plan = graph.plan().unwrap();
    let root_index = graph.index_of(root).unwrap();
    let mut linked: HashMap<usize, tgt::Term> = HashMap::new();
    for &u in plan.transitive[root_index].iter().chain([&root_index]) {
        let substitution: link::TargetSubstitution = plan.transitive[u]
            .iter()
            .map(|&d| (graph.unit_at(d).symbol, linked[&d].clone()))
            .collect();
        let term = session.target_term(&graph.unit_at(u).name).unwrap();
        linked.insert(u, link::link_target(&term, &substitution));
    }
    linked.remove(&root_index).unwrap()
}

/// Builds the workload with the given worker count and checks every
/// unit's artifact against the sequential oracle, then the linked root:
/// the `let` telescope [`Session::link`] returns is closed and has type
/// `Bool`, and it observes the value the substitution γ(e) observes.
fn assert_driver_matches_sequential(units: &[WorkUnit], workers: usize) {
    let mut session = session_from(units, CompilerOptions::default());
    let report = session.build(workers).unwrap();
    assert!(report.is_success(), "parallel build failed: {}", report.summary());
    assert_eq!(report.compiled_count(), units.len());

    let sequential = session.compile_sequential().unwrap();
    assert_eq!(sequential.len(), units.len());
    for (name, compilation) in &sequential {
        let driver_target = session.target_term(name).unwrap();
        assert!(
            tgt::subst::alpha_eq(&driver_target, &compilation.target),
            "unit `{name}`: driver target differs from sequential pipeline"
        );
        let driver_interface = session.interface(name).unwrap();
        assert!(
            cccc_source::subst::alpha_eq(&driver_interface, &compilation.source_type),
            "unit `{name}`: driver interface differs from sequential pipeline"
        );
    }

    let root = root_of(units);
    let telescope = session.link(root).unwrap();
    let ty = tgt::typecheck::infer(&tgt::Env::new(), &telescope).unwrap();
    assert!(matches!(ty, tgt::Term::BoolTy), "linked `{root}` has type {ty}, not Bool");
    let substituted = link_by_substitution(&session, root);
    let observed = session.observe(root).unwrap();
    assert!(observed.is_some(), "linked `{root}` observes no boolean");
    assert_eq!(observed, link::observe_target(&substituted), "linked `{root}`");
}

#[test]
fn independent_units_match_sequential_at_every_worker_count() {
    let units = independent_units(6, 2);
    for workers in [1, 2, 4] {
        assert_driver_matches_sequential(&units, workers);
    }
}

#[test]
fn diamond_matches_sequential() {
    let units = diamond(4, 2);
    assert_driver_matches_sequential(&units, 2);
    assert_driver_matches_sequential(&units, 3);
}

#[test]
fn deep_chain_matches_sequential() {
    let units = deep_chain(5, 2);
    assert_driver_matches_sequential(&units, 2);
}

#[test]
fn skewed_dag_matches_sequential_under_critical_path_scheduling() {
    // The workload built to make critical-path-first ordering visible:
    // scheduling *order* changes under the priority frontier, but
    // artifacts and verdicts must not, at any worker count.
    let units = skewed(3, 4, 2);
    for workers in [1, 2, 4] {
        assert_driver_matches_sequential(&units, workers);
    }
}

#[test]
fn edits_base_graph_matches_sequential() {
    let (units, _) = edits(2);
    assert_driver_matches_sequential(&units, 2);
}

#[test]
fn linking_evaluates_each_import_once() {
    // u0 = true and uᵢ = and uᵢ₋₁ uᵢ₋₁: substituting each import into
    // every use would run u0 2²⁴ times; the `let` telescope binds each
    // unit once and evaluation forces each binding at most once.
    let mut session = Session::new(CompilerOptions::default());
    session.add_unit("u0", &[], &s::tt()).unwrap();
    for i in 1..=24 {
        let previous = format!("u{}", i - 1);
        let term = s::app(s::app(prelude::and_fn(), s::var(&previous)), s::var(&previous));
        session.add_unit(&format!("u{i}"), &[previous.as_str()], &term).unwrap();
    }
    assert!(session.build(2).unwrap().is_success());
    assert_eq!(session.observe("u24").unwrap(), Some(true));
}

#[test]
fn observe_reports_running_out_of_fuel() {
    // `is_even` on 30⁴ in Church numerals: the numerals nest only 30 deep,
    // so building is cheap, but running exhausts the default fuel, which
    // is an error, not a panic.
    let mul = |a, b| s::app(s::app(prelude::church_mul(), a), b);
    let square = mul(prelude::church_numeral(30), prelude::church_numeral(30));
    let program = s::app(prelude::church_is_even(), mul(square.clone(), square));
    let mut session = Session::single_program(CompilerOptions::default(), &program);
    assert!(session.build(1).unwrap().is_success());
    match session.observe("main") {
        Err(DriverError::Eval { root, error }) => {
            assert_eq!(root, "main");
            assert_eq!(error, tgt::reduce::ReduceError::OutOfFuel);
        }
        other => panic!("expected an evaluation error, got {other:?}"),
    }
}

#[test]
fn linked_diamond_observes_the_sequential_value() {
    let units = diamond(3, 2);
    let mut session = session_from(&units, CompilerOptions::default());
    session.build(2).unwrap();
    // Every middle unit is `id Bool (is_even 4)` = true, so the fold is
    // true; linking the compiled modules must agree.
    assert_eq!(session.observe(root_of(&units)).unwrap(), Some(true));

    // And against whole-program compilation: inline every unit into one
    // closed source program, compile it sequentially, observe.
    let mut inlined = units.last().unwrap().term.clone();
    for unit in units.iter().rev().skip(1) {
        inlined =
            cccc_source::subst::subst(&inlined, cccc_util::Symbol::intern(&unit.name), &unit.term);
    }
    let whole = Compiler::new().compile_closed(&inlined).unwrap();
    assert_eq!(link::observe_target(&whole.target), Some(true));
}

#[test]
fn single_program_session_agrees_with_the_compiler() {
    // The single-program Compiler re-expressed as a one-unit session. The
    // comparison runs on a thread with the main thread's 8 MiB stack, and
    // the deep program `is_even (mul 200̂ 200̂)` needs more stack than a
    // spawned thread's 2 MiB default: a session worker must compile it
    // as `compile_closed` does.
    let compare = || {
        let shallow =
            s::app(s::app(prelude::poly_id(), s::bool_ty()), s::app(prelude::not_fn(), s::ff()));
        let square = s::app(
            s::app(prelude::church_mul(), prelude::church_numeral(200)),
            prelude::church_numeral(200),
        );
        let deep = s::app(prelude::church_is_even(), square);
        for program in [shallow, deep] {
            let mut session = Session::single_program(CompilerOptions::default(), &program);
            let report = session.build(1).unwrap();
            assert!(report.is_success());
            assert_eq!(report.units.len(), 1);

            let compilation = Compiler::new().compile_closed(&program).unwrap();
            let driver_target = session.target_term("main").unwrap();
            assert!(tgt::subst::alpha_eq(&driver_target, &compilation.target));
            let driver_ty = session.interface("main").unwrap();
            assert!(cccc_source::subst::alpha_eq(&driver_ty, &compilation.source_type));
            assert_eq!(session.observe("main").unwrap(), Some(true));
        }
    };
    let main_thread_stack = 8 << 20;
    let thread = std::thread::Builder::new().stack_size(main_thread_stack).spawn(compare);
    thread.expect("the comparison thread spawns").join().expect("the sessions agree");
}

#[test]
fn two_worker_session_compiles_deep_units() {
    // Every worker gets the main thread's stack, not only a one-unit
    // build's: two deep units, `is_even (mul n̂ n̂)` for n = 200 and 199,
    // built on two workers compile as `compile_closed` compiles them on a
    // thread with the main thread's 8 MiB stack.
    let compare = || {
        let deep = |n| {
            let square = s::app(
                s::app(prelude::church_mul(), prelude::church_numeral(n)),
                prelude::church_numeral(n),
            );
            s::app(prelude::church_is_even(), square)
        };
        let programs = [("even", deep(200), true), ("odd", deep(199), false)];
        let mut session = Session::new(CompilerOptions::default());
        for (name, program, _) in &programs {
            session.add_unit(name, &[], program).unwrap();
        }
        assert!(session.build(2).unwrap().is_success());
        for (name, program, value) in &programs {
            let compilation = Compiler::new().compile_closed(program).unwrap();
            let driver_target = session.target_term(name).unwrap();
            assert!(tgt::subst::alpha_eq(&driver_target, &compilation.target), "{name}");
            assert_eq!(session.observe(name).unwrap(), Some(*value), "{name}");
        }
    };
    let main_thread_stack = 8 << 20;
    let thread = std::thread::Builder::new().stack_size(main_thread_stack).spawn(compare);
    thread.expect("the comparison thread spawns").join().expect("the sessions agree");
}

#[test]
fn verification_verdicts_match_on_ill_typed_units() {
    // An ill-typed unit: the sequential pipeline rejects it, and the
    // driver must report the same verdict (a per-unit failure), skipping
    // its dependents rather than producing an artifact.
    let mut session = Session::new(CompilerOptions::default());
    session.add_unit("bad", &[], &s::app(s::tt(), s::ff())).unwrap();
    session.add_unit("uses_bad", &["bad"], &s::ite(s::var("bad"), s::tt(), s::ff())).unwrap();
    session.add_unit("fine", &[], &s::tt()).unwrap();

    let report = session.build(2).unwrap();
    assert!(!report.is_success());
    assert_eq!(report.failed_count(), 1);
    assert_eq!(report.skipped_count(), 1);
    assert_eq!(report.compiled_count(), 1);
    let failure = report.first_failure().unwrap();
    assert_eq!(failure.name, "bad");
    assert!(matches!(failure.status, UnitStatus::Failed(_)));
    assert!(session.artifact("bad").is_none());
    assert!(session.artifact("fine").is_some());
    assert!(matches!(session.target_term("bad"), Err(DriverError::NotBuilt(_))));

    // Sequential oracle: same verdict, same failing unit.
    match session.compile_sequential() {
        Err(DriverError::UnitFailed { unit, .. }) => assert_eq!(unit, "bad"),
        other => panic!("sequential oracle should reject `bad`, got {other:?}"),
    }
}

#[test]
fn the_step_engine_confirms_every_unit_the_driver_built() {
    // Theorem 5.6 on the reference engine: each artifact the parallel
    // driver produced type-checks by the paper's own reduction and
    // equivalence rules (Fig. 6), at a type equivalent to the translated
    // interface.
    let units = independent_units(3, 2);
    let mut session = session_from(&units, CompilerOptions::default());
    assert!(session.build(2).unwrap().is_success());
    let env = tgt::Env::new();
    for unit in &units {
        let target = session.target_term(&unit.name).unwrap();
        let target_ty = session.artifact(&unit.name).unwrap().target_ty().unwrap();
        let target_ty = tgt::wire::decode(&target_ty).unwrap();
        let inferred = tgt::typecheck::infer_with_engine(&env, &target, tgt::equiv::Engine::Step)
            .unwrap_or_else(|e| panic!("`{}` is ill-typed on the step engine: {e}", unit.name));
        assert!(
            tgt::equiv::definitionally_equal_spec(&env, &inferred, &target_ty),
            "`{}` does not preserve its type on the step engine",
            unit.name
        );
    }
}
