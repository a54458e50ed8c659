//! Differential properties of the demand-driven query pipeline: under
//! scripted and generated edit streams, incremental rebuilds must
//! produce artifacts α-equivalent to a cold [`Session::compile_sequential`]
//! oracle with identical verdicts — while re-executing *exactly* the
//! per-phase work the invalidation model predicts, no more and no less.

use cccc_core::pipeline::CompilerOptions;
use cccc_driver::query::QueryCounts;
use cccc_driver::session::{Session, UnitStatus};
use cccc_driver::workloads;
use cccc_source as src;
use cccc_source::builder as s;
use cccc_source::prelude;
use cccc_target as tgt;
use std::collections::HashSet;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cccc-query-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The names of the units a report marked `Compiled`, in schedule order.
fn compiled_names(report: &cccc_driver::BuildReport) -> Vec<&str> {
    report
        .units
        .iter()
        .filter(|u| u.status == UnitStatus::Compiled)
        .map(|u| u.name.as_str())
        .collect()
}

/// Checks the internal consistency of a successful report: `Compiled`
/// iff at least one phase ran, `Cached` iff none did (and then no phase
/// timings either), and the build totals are the fold of the units.
fn assert_report_consistent(report: &cccc_driver::BuildReport) {
    let mut folded = QueryCounts::default();
    for unit in &report.units {
        folded.add(unit.phase_runs);
        match &unit.status {
            UnitStatus::Compiled => {
                assert!(unit.phase_runs.any(), "{}: Compiled must run a phase", unit.name);
                assert!(unit.cached_from.is_none(), "{}: Compiled has no tier", unit.name);
            }
            UnitStatus::Cached => {
                assert!(!unit.phase_runs.any(), "{}: Cached ran a phase", unit.name);
                assert!(unit.phases.is_none(), "{}: Cached has phase timings", unit.name);
                assert!(unit.cached_from.is_some(), "{}: Cached names its tier", unit.name);
            }
            other => panic!("{}: unexpected status {other:?}", unit.name),
        }
    }
    assert_eq!(report.queries, folded, "build totals are the fold of unit phase_runs");
}

/// The cold oracle: recompiles the session's *current* graph unit by
/// unit with the sequential [`cccc_core::Compiler`] (no caches, no
/// queries) and demands α-equivalent interfaces and CC-CC terms.
fn assert_matches_sequential_oracle(session: &Session) {
    let oracle = session.compile_sequential().expect("oracle compiles what the build built");
    for (name, compilation) in &oracle {
        let interface = session.interface(name).expect("built unit has an interface");
        assert!(
            src::subst::alpha_eq(&interface, &compilation.source_type),
            "{name}: incremental interface diverged from the sequential oracle"
        );
        let target = session.target_term(name).expect("built unit has a target");
        assert!(
            tgt::subst::alpha_eq(&target, &compilation.target),
            "{name}: incremental CC-CC term diverged from the sequential oracle"
        );
    }
}

#[test]
fn scripted_edit_stream_matches_predictions_and_the_oracle() {
    // Keep-going only changes the error policy: clean units take the same
    // path through the queries, so the predictions are the same.
    for keep_going in [false, true] {
        let (units, steps) = workloads::edits(2);
        let options = CompilerOptions { keep_going, ..CompilerOptions::default() };
        let mut session = workloads::session_from(&units, options);

        // Cold build: every unit runs typecheck and translate; check and
        // verify settle once per α-class (base, the 14 middles, top).
        let cold = session.build(1).unwrap();
        assert!(cold.is_success(), "keep_going={keep_going}: {}", cold.summary());
        assert_eq!(cold.compiled_count(), units.len());
        assert_eq!(
            cold.queries,
            QueryCounts { typecheck: 16, translate: 16, check: 3, verify: 3 },
            "keep_going={keep_going}: cold build"
        );
        assert_report_consistent(&cold);
        let cold_observed = session.observe(workloads::root_of(&units)).unwrap();

        for step in &steps {
            session.update_unit(step.unit, &step.term).unwrap();
            let report = session.build(1).unwrap();
            assert!(report.is_success(), "{}: {}", step.label, report.summary());
            assert_eq!(
                report.queries, step.predicted,
                "{} (keep_going={keep_going}): per-phase re-execution counts missed the prediction",
                step.label
            );
            assert_eq!(
                compiled_names(&report),
                step.invalidated,
                "{} (keep_going={keep_going}): the set of re-run units missed the prediction",
                step.label
            );
            assert_report_consistent(&report);
            assert_matches_sequential_oracle(&session);
        }

        // The edit stream never changed what the linked program computes.
        assert_eq!(session.observe(workloads::root_of(&units)).unwrap(), cold_observed);
    }
}

/// The five base-unit states generated scripts move between: two
/// α-classes sharing the `Π A : ⋆. Π x : A. A` interface (each with an
/// α-variant spelling) and one with a different interface.
fn base_states() -> Vec<(u8, u8, src::Term)> {
    let poly = prelude::poly_id();
    let impl_variant = s::lam(
        "A",
        s::star(),
        s::lam("x", s::var("A"), s::app(s::lam("y", s::var("A"), s::var("y")), s::var("x"))),
    );
    let impl_alpha = s::lam(
        "B",
        s::star(),
        s::lam("z", s::var("B"), s::app(s::lam("w", s::var("B"), s::var("w")), s::var("z"))),
    );
    let signature = s::lam("A", s::star(), s::lam("x", s::var("A"), s::tt()));
    let signature_alpha = s::lam("B", s::star(), s::lam("z", s::var("B"), s::tt()));
    // (α-class id, interface id, term)
    vec![
        (0, 0, poly),
        (1, 0, impl_variant),
        (1, 0, impl_alpha),
        (2, 1, signature),
        (2, 1, signature_alpha),
    ]
}

/// Predicts one build's per-phase counts from the session-lifetime memo
/// state. The check and verified queries are content-addressed, so what
/// re-runs depends on which α-classes earlier builds already settled
/// (check and verify settle together, so a class re-runs both or
/// neither):
///
/// * the base unit's keys are per base α-class;
/// * every middle — and the top — re-keys only when the base *interface*
///   class changes, so their settled-ness is tracked per interface class
///   (the 14 middles share one α-class, the top is its own: a fresh
///   interface class costs two check/verify runs beyond the base's).
#[derive(Default)]
struct SeenModel {
    base: HashSet<u8>,
    rest: HashSet<u8>,
}

impl SeenModel {
    fn settle(&mut self, class: u8, iface: u8) {
        self.base.insert(class);
        self.rest.insert(iface);
    }

    /// Counts for switching the base unit from `(cur, cur_iface)` to
    /// `(next, next_iface)`, plus how many units recompile.
    fn predict_update(
        &self,
        cur: u8,
        cur_iface: u8,
        next: u8,
        next_iface: u8,
    ) -> (QueryCounts, usize) {
        if next == cur {
            return (QueryCounts::default(), 0); // α-equivalent: keys unchanged
        }
        let base = !self.base.contains(&next) as usize;
        if next_iface == cur_iface {
            (QueryCounts { typecheck: 1, translate: 1, check: base, verify: base }, 1)
        } else {
            let runs = base + 2 * !self.rest.contains(&next_iface) as usize;
            (QueryCounts { typecheck: 16, translate: 16, check: runs, verify: runs }, 16)
        }
    }
}

#[test]
fn generated_edit_scripts_match_the_seen_state_model() {
    let states = base_states();
    for seed in [0x5eed_0001_u64, 0x5eed_0002, 0x5eed_0003] {
        let units = workloads::diamond(14, 1);
        let mut session = workloads::session_from(&units, CompilerOptions::default());
        let cold = session.build(1).unwrap();
        assert!(cold.is_success());
        assert_eq!(cold.queries, QueryCounts { typecheck: 16, translate: 16, check: 3, verify: 3 });

        let mut model = SeenModel::default();
        let (mut cur, mut cur_iface) = (0_u8, 0_u8);
        model.settle(cur, cur_iface);

        let mut rng = seed;
        for step in 0..12 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let choice = (rng >> 33) as usize % states.len();
            let (class, iface, term) = &states[choice];
            let (predicted, recompiles) = model.predict_update(cur, cur_iface, *class, *iface);
            session.update_unit("base", term).unwrap();
            (cur, cur_iface) = (*class, *iface);
            let report = session.build(1).unwrap();
            assert!(report.is_success(), "seed {seed:#x} step {step}: {}", report.summary());
            assert_eq!(
                report.queries, predicted,
                "seed {seed:#x} step {step} (choice {choice}): phase counts missed the model"
            );
            assert_eq!(
                report.compiled_count(),
                recompiles,
                "seed {seed:#x} step {step} (choice {choice}): recompile count missed the model"
            );
            assert_report_consistent(&report);
            model.settle(cur, cur_iface);

            // Differential leg: a cold session over the same state agrees
            // on every α-invariant output fingerprint and the root value.
            let mut cold_units = units.clone();
            cold_units[0].term = states
                .iter()
                .find(|(class, _, _)| *class == cur)
                .map(|(_, _, term)| term.clone())
                .unwrap();
            let mut oracle = workloads::session_from(&cold_units, CompilerOptions::default());
            assert!(oracle.build(1).unwrap().is_success());
            for unit in &units {
                assert_eq!(
                    session.artifact(&unit.name).unwrap().output_fingerprint(),
                    oracle.artifact(&unit.name).unwrap().output_fingerprint(),
                    "seed {seed:#x} step {step}: {} diverged from a cold build",
                    unit.name
                );
            }
            assert_eq!(
                session.observe(workloads::root_of(&units)).unwrap(),
                oracle.observe(workloads::root_of(&units)).unwrap(),
                "seed {seed:#x} step {step}: root value diverged from a cold build"
            );
        }
    }
}

#[test]
fn verified_records_survive_a_restart_and_lost_records_rerun_check_and_verify_only() {
    let dir = temp_dir("restart-lost-vfy");
    let (units, _) = workloads::edits(1);
    let add_all = |session: &mut Session| {
        for unit in &units {
            let imports: Vec<&str> = unit.imports.iter().map(String::as_str).collect();
            session.add_unit(&unit.name, &imports, &unit.term).unwrap();
        }
    };

    // Populate: blobs for every α-distinct artifact, one verified record
    // per α-class.
    let mut session = Session::with_store(CompilerOptions::default(), &dir).unwrap();
    add_all(&mut session);
    assert!(session.build(1).unwrap().is_success());
    drop(session);

    // A fresh process re-runs *zero* phases: artifacts load from disk,
    // the three verified records answer check and verify.
    let mut session = Session::with_store(CompilerOptions::default(), &dir).unwrap();
    add_all(&mut session);
    let warm = session.build(1).unwrap();
    assert!(warm.is_success());
    assert_eq!(warm.compiled_count(), 0);
    assert_eq!(warm.cached_count(), units.len());
    assert_eq!(warm.queries, QueryCounts::default());
    let store = warm.store.expect("store attached");
    assert_eq!(store.verified_hits, 3, "one verified record per α-class");
    drop(session);

    // Lose the verified records: a fresh process still loads every
    // artifact from disk, but re-runs check and verify per α-class —
    // check memos are session-lifetime and this session never ran check —
    // and no typecheck or translate.
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        if entry.path().extension().is_some_and(|e| e == "vfy") {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    let mut session = Session::with_store(CompilerOptions::default(), &dir).unwrap();
    add_all(&mut session);
    let reverified = session.build(1).unwrap();
    assert!(reverified.is_success());
    assert_eq!(reverified.queries, QueryCounts { typecheck: 0, translate: 0, check: 3, verify: 3 });
    assert_eq!(reverified.compiled_count(), 3);

    // The re-verified records are back in memory: nothing re-runs.
    let again = session.build(1).unwrap();
    assert_eq!(again.compiled_count(), 0);
    assert_eq!(again.queries, QueryCounts::default());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keep_going_builds_answer_queries_and_cut_off_on_rebuild() {
    // The fault-tolerant path reports phase runs too, and a no-change
    // rebuild still cuts everything off (clean units memoize their
    // verdicts even when compiled tolerantly).
    let units = workloads::broken_web();
    let options = CompilerOptions { keep_going: true, ..CompilerOptions::default() };
    let mut session = workloads::session_from(&units, options);
    let cold = session.build(1).unwrap();
    assert!(!cold.is_success());
    assert!(cold.queries.typecheck > 0, "clean units ran their phases");

    let warm = session.build(1).unwrap();
    let clean_cached = warm.units.iter().filter(|u| u.status == UnitStatus::Cached).count();
    assert_eq!(
        clean_cached,
        cold.units.iter().filter(|u| u.status.is_ok()).count(),
        "every clean unit re-answers from the artifact and verified queries"
    );
    for unit in warm.units.iter().filter(|u| u.status == UnitStatus::Cached) {
        assert!(!unit.phase_runs.any(), "{}: cached keep-going unit ran a phase", unit.name);
    }
}
