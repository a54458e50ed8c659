//! The keep-going gate: one build of a 16-unit graph with three broken
//! units must surface diagnostics from all three *and* type-check every
//! well-typed dependent against poisoned interfaces — zero `Skipped`
//! units whose only failure is upstream.

use cccc_core::pipeline::CompilerOptions;
use cccc_driver::session::{Session, UnitStatus};
use cccc_driver::workloads::{broken_web, session_from};

fn keep_going_options() -> CompilerOptions {
    CompilerOptions { keep_going: true, ..CompilerOptions::default() }
}

fn status_of<'a>(report: &'a cccc_driver::BuildReport, name: &str) -> &'a UnitStatus {
    &report.units.iter().find(|u| u.name == name).expect("unit reported").status
}

fn codes_of(report: &cccc_driver::BuildReport, name: &str) -> Vec<String> {
    report
        .units
        .iter()
        .find(|u| u.name == name)
        .expect("unit reported")
        .diagnostics
        .iter()
        .filter_map(|d| d.code.clone())
        .collect()
}

#[test]
fn sixteen_unit_three_broken_gate() {
    let units = broken_web();
    assert_eq!(units.len(), 16);
    let mut session = session_from(&units, keep_going_options());
    let report = session.build(4).unwrap();

    // The three broken units fail with their own coded diagnostics.
    assert_eq!(report.failed_count(), 3);
    assert_eq!(codes_of(&report, "b0"), vec!["E0003"]);
    assert_eq!(codes_of(&report, "b1"), vec!["E0008"]);
    assert_eq!(codes_of(&report, "b2"), vec!["E0001"]);

    // No unit is skipped: every dependent of a broken unit was checked
    // against the poisoned interface instead.
    assert_eq!(report.skipped_count(), 0, "keep-going leaves nothing unchecked");
    assert_eq!(report.poisoned_count(), 8);

    // The clean cone still compiles.
    assert_eq!(report.compiled_count(), 5);
    for name in ["g0", "g1", "g2", "m3", "t2"] {
        assert_eq!(*status_of(&report, name), UnitStatus::Compiled, "{name}");
        assert!(session.artifact(name).is_some(), "{name} published an artifact");
    }

    // Well-typed dependents are poisoned with the right provenance and
    // produce no spurious errors of their own (the sentinel unifies).
    assert_eq!(*status_of(&report, "m0"), UnitStatus::Poisoned { upstream: vec!["b0".into()] });
    assert!(codes_of(&report, "m0").is_empty(), "no cascade from b0 into m0");
    assert_eq!(*status_of(&report, "m1"), UnitStatus::Poisoned { upstream: vec!["b1".into()] });
    assert_eq!(*status_of(&report, "m2"), UnitStatus::Poisoned { upstream: vec!["b2".into()] });

    // A dependent with its own error keeps reporting it through the
    // upstream poison…
    assert_eq!(*status_of(&report, "m4"), UnitStatus::Poisoned { upstream: vec!["b0".into()] });
    assert_eq!(codes_of(&report, "m4"), vec!["E0003"]);
    // …and joins the provenance set of everything downstream of it.
    assert_eq!(
        *status_of(&report, "t3"),
        UnitStatus::Poisoned { upstream: vec!["b0".into(), "m4".into()] }
    );

    // Transitive provenance unions, all the way to the root.
    assert_eq!(
        *status_of(&report, "t0"),
        UnitStatus::Poisoned { upstream: vec!["b0".into(), "b1".into()] }
    );
    assert_eq!(
        *status_of(&report, "root"),
        UnitStatus::Poisoned { upstream: vec!["b0".into(), "b1".into(), "b2".into(), "m4".into()] }
    );
    assert_eq!(report.poison_roots(), vec!["b0", "b1", "b2", "m4"]);

    // The poisoned interfaces are retrievable and carry the diagnostics.
    let poison = session.poisoned_interface("b0").expect("b0 left a poisoned interface");
    assert_eq!(poison.origins, vec!["b0"]);
    assert_eq!(poison.error_count(), 1);
    assert!(session.poisoned_interface("root").is_some());
    assert!(session.poisoned_interface("m3").is_none(), "clean units leave no poison");

    // Machine-readable aggregation: all three broken units' codes (and
    // m4's own error) appear in one JSON document.
    let json = report.diagnostics_json();
    for code in ["E0003", "E0008", "E0001"] {
        assert!(json.contains(code), "{code} missing from {json}");
    }
    for unit in ["b0", "b1", "b2", "m4"] {
        assert!(json.contains(&format!("\"unit\":\"{unit}\"")), "{unit} missing");
    }
    assert!(!report.is_success());
    assert!(report.error_count() >= 4);
    assert!(report.summary().contains("poisoned"));
}

#[test]
fn without_keep_going_the_same_graph_skips_dependents() {
    let mut session = session_from(&broken_web(), CompilerOptions::default());
    let report = session.build(4).unwrap();
    assert_eq!(report.failed_count(), 3);
    assert_eq!(report.compiled_count(), 5);
    assert_eq!(report.poisoned_count(), 0);
    assert_eq!(report.skipped_count(), 8, "strict mode silences the downstream cone");
    // Even strict failures carry their folded coded diagnostic now.
    let b0 = report.units.iter().find(|u| u.name == "b0").unwrap();
    assert_eq!(b0.diagnostics.len(), 1);
    assert_eq!(b0.diagnostics[0].code.as_deref(), Some("E0003"));
}

#[test]
fn keep_going_flag_does_not_invalidate_the_cache() {
    // Same sources, flag flipped between builds: successful compiles are
    // bit-identical, so everything previously compiled must be cache hits.
    let units = cccc_driver::workloads::diamond(3, 2);
    let mut session = session_from(&units, CompilerOptions::default());
    let cold = session.build(2).unwrap();
    assert_eq!(cold.compiled_count(), units.len());

    let mut keep_going = Session::new(keep_going_options());
    for unit in &units {
        let imports: Vec<&str> = unit.imports.iter().map(String::as_str).collect();
        keep_going.add_unit(&unit.name, &imports, &unit.term).unwrap();
    }
    // Fingerprints ignore `keep_going`, so the per-unit fingerprints of
    // the two sessions agree.
    let strict_fps: Vec<_> = cold.units.iter().map(|u| (u.name.clone(), u.fingerprint)).collect();
    let warm = keep_going.build(2).unwrap();
    let kg_fps: Vec<_> = warm.units.iter().map(|u| (u.name.clone(), u.fingerprint)).collect();
    assert_eq!(strict_fps, kg_fps);
    assert!(warm.is_success());
}

#[test]
fn fixing_the_broken_units_heals_the_whole_graph() {
    use cccc_source::builder as s;
    let mut session = session_from(&broken_web(), keep_going_options());
    let first = session.build(4).unwrap();
    assert!(!first.is_success());

    session.update_unit("b0", &s::tt()).unwrap();
    session.update_unit("b1", &s::let_("x", s::bool_ty(), s::tt(), s::var("x"))).unwrap();
    session.update_unit("b2", &s::ite(s::var("g0"), s::tt(), s::ff())).unwrap();
    // m4's error was its own, not an echo of b0's: it needs a real fix too.
    session.update_unit("m4", &s::ite(s::var("b0"), s::tt(), s::ff())).unwrap();
    let healed = session.build(4).unwrap();
    assert!(healed.is_success(), "{}", healed.summary());
    assert_eq!(healed.failed_count() + healed.poisoned_count() + healed.skipped_count(), 0);
    // Poisoned results were never cached: every formerly poisoned unit
    // really compiles now, and the clean cone is answered from cache.
    // The fixed `m4` is `m0`'s α-twin (same source, same import), so one
    // of the two compiles and the other takes its artifact.
    assert_eq!(healed.cached_count(), 6);
    assert_eq!(healed.compiled_count(), 10);
    let twins =
        ["m0", "m4"].map(|name| &healed.units.iter().find(|u| u.name == name).unwrap().status);
    assert!(twins.contains(&&UnitStatus::Compiled) && twins.contains(&&UnitStatus::Cached));
    // The healed graph links and observes (its leaves are `is_even(1)`,
    // so the folded root is deterministically false).
    assert_eq!(session.observe("root").unwrap(), Some(false));
    assert!(session.poisoned_interface("b0").is_none(), "healing clears the poison table");
}
