//! Incremental-rebuild behaviour of the content-keyed artifact table,
//! including the CI smoke configuration (a 16-unit diamond built with 2
//! workers whose warm rebuild compiles zero units) and single-flight
//! α-twins.

use cccc_core::pipeline::CompilerOptions;
use cccc_driver::cache::CacheTier;
use cccc_driver::query::QueryCounts;
use cccc_driver::session::Session;
use cccc_driver::workloads::{deep_chain, diamond, independent_units, root_of, session_from};
use cccc_driver::UnitStatus;
use cccc_source::builder as s;
use cccc_source::prelude;

#[test]
fn warm_rebuild_of_a_16_unit_diamond_compiles_nothing() {
    // The CI smoke configuration: base + 14 middles + top = 16 units.
    let units = diamond(14, 2);
    assert_eq!(units.len(), 16);
    let mut session = session_from(&units, CompilerOptions::default());

    let cold = session.build(2).unwrap();
    assert!(cold.is_success(), "cold build failed: {}", cold.summary());
    assert_eq!(cold.compiled_count(), 16);
    assert_eq!(cold.cached_count(), 0);

    let warm = session.build(2).unwrap();
    assert!(warm.is_success());
    assert_eq!(warm.compiled_count(), 0, "warm rebuild must compile zero units");
    assert_eq!(warm.cached_count(), 16);
    assert!(warm.cache.hits >= 16);

    // The linked program still observes after a fully cached build.
    assert_eq!(session.observe(root_of(&units)).unwrap(), Some(true));
}

#[test]
fn implementation_only_changes_do_not_cascade() {
    // `base` exports Π A : ⋆. Π x : A. A. Swapping its implementation
    // for an α-variant with a different tag changes its fingerprint but
    // not its interface, so only `base` itself recompiles.
    let units = diamond(4, 2);
    let mut session = session_from(&units, CompilerOptions::default());
    session.build(2).unwrap();

    let retagged = s::let_("tag_retagged", s::bool_ty(), s::ff(), prelude::poly_id());
    session.update_unit("base", &retagged).unwrap();
    let rebuild = session.build(2).unwrap();
    assert!(rebuild.is_success(), "{}", rebuild.summary());
    assert_eq!(rebuild.compiled_count(), 1, "only `base` changed: {}", rebuild.summary());
    assert_eq!(rebuild.cached_count(), units.len() - 1);
    let recompiled: Vec<&str> = rebuild
        .units
        .iter()
        .filter(|u| u.status == UnitStatus::Compiled)
        .map(|u| u.name.as_str())
        .collect();
    assert_eq!(recompiled, vec!["base"]);
}

#[test]
fn alpha_variant_edits_do_not_recompile_anything() {
    // `dep` is edited to an α-variant (`λ x. x` → `λ y. y`). Input
    // fingerprints are α-invariant (that is also what makes them
    // process-stable for the persistent store, where binder subscripts
    // differ run to run), so the edit is a no-op for the cache: neither
    // `dep` nor its dependent recompiles, and the cached artifact — which
    // is α-equivalent to what a recompile would produce — still links.
    let mut session = cccc_driver::session::Session::new(CompilerOptions::default());
    session.add_unit("dep", &[], &s::lam("x", s::bool_ty(), s::var("x"))).unwrap();
    session.add_unit("use", &["dep"], &s::app(s::var("dep"), s::tt())).unwrap();
    let cold = session.build(2).unwrap();
    assert!(cold.is_success());

    session.update_unit("dep", &s::lam("y", s::bool_ty(), s::var("y"))).unwrap();
    let rebuild = session.build(2).unwrap();
    assert!(rebuild.is_success());
    assert_eq!(rebuild.compiled_count(), 0, "{}", rebuild.summary());
    assert_eq!(rebuild.cached_count(), 2, "{}", rebuild.summary());
    assert_eq!(session.observe("use").unwrap(), Some(true));

    // A *structural* edit to the same unit still recompiles it (and only
    // it: the inferred interface is unchanged, so `use` stays cached —
    // binder freshening during recompiles never invalidates downstream
    // units).
    session
        .update_unit("dep", &s::lam("y", s::bool_ty(), s::ite(s::tt(), s::var("y"), s::var("y"))))
        .unwrap();
    let structural = session.build(2).unwrap();
    assert!(structural.is_success());
    let recompiled: Vec<&str> = structural
        .units
        .iter()
        .filter(|u| u.status == UnitStatus::Compiled)
        .map(|u| u.name.as_str())
        .collect();
    assert_eq!(recompiled, vec!["dep"], "{}", structural.summary());
    assert_eq!(structural.cached_count(), 1);
    assert_eq!(session.observe("use").unwrap(), Some(true));
}

#[test]
fn interface_changes_invalidate_dependents() {
    let units = deep_chain(4, 2);
    let mut session = session_from(&units, CompilerOptions::default());
    session.build(2).unwrap();

    // Re-point the chain's head at a *different type* (a function, not a
    // Bool): its interface fingerprint changes, so every downstream link
    // is invalidated — and fails, because `if link00 …` now scrutinizes
    // a function.
    session.update_unit("link00", &prelude::not_fn()).unwrap();
    let rebuild = session.build(2).unwrap();
    assert_eq!(rebuild.compiled_count(), 1, "{}", rebuild.summary());
    assert_eq!(rebuild.failed_count(), 1, "{}", rebuild.summary());
    assert_eq!(rebuild.skipped_count(), 2, "{}", rebuild.summary());
    assert_eq!(rebuild.cached_count(), 0);

    // Restoring the original source restores an almost fully cached
    // chain: the failed build never evicted the downstream artifacts
    // (only successful compiles replace entries), and the restored head
    // re-infers the original interface, so every dependent's input
    // fingerprint matches its surviving cache entry again. Only the head
    // itself recompiles.
    session.update_unit("link00", &units[0].term).unwrap();
    let restored = session.build(2).unwrap();
    assert!(restored.is_success());
    assert_eq!(restored.compiled_count(), 1, "{}", restored.summary());
    assert_eq!(restored.cached_count(), 3, "{}", restored.summary());
}

#[test]
fn clear_cache_turns_the_next_build_cold() {
    let units = independent_units(3, 2);
    let mut session = session_from(&units, CompilerOptions::default());
    let first = session.build(2).unwrap();
    session.clear_cache();
    let cold = session.build(2).unwrap();
    assert_eq!(cold.compiled_count(), 3);
    assert_eq!(cold.cached_count(), 0);
    // Verified verdicts are dropped with the artifacts, so check and
    // verify re-run too.
    assert_eq!(cold.queries, first.queries);
}

#[test]
fn switching_the_engine_back_recompiles_artifacts_but_keeps_verdicts() {
    let units = diamond(14, 1);
    let nbe = CompilerOptions::default();
    let step = CompilerOptions { use_nbe: false, ..nbe };
    let mut session = session_from(&units, nbe);
    assert!(session.build(1).unwrap().is_success());
    session.set_options(step);
    assert!(session.build(1).unwrap().is_success());
    session.set_options(nbe);
    let back = session.build(1).unwrap();
    assert!(back.is_success());
    // After each build the artifact table keeps only each unit name's
    // latest key, so the Step build's keys replaced all 16: every unit
    // re-runs typecheck and translate.
    assert_eq!(back.cache.invalidations, 16);
    // The verified set kept the first build's NbE verdicts, so check and
    // verify stay cut off.
    assert_eq!(back.queries, QueryCounts { typecheck: 16, translate: 16, check: 0, verify: 0 });
}

#[test]
fn per_unit_diagnostics_surface_worker_and_cache_activity() {
    let units = diamond(3, 2);
    let mut session = session_from(&units, CompilerOptions::default());
    let report = session.build(2).unwrap();

    for unit in &report.units {
        assert!(unit.worker < report.workers);
        assert!(unit.source_words > 0);
        assert!(unit.target_words > 0, "compiled unit `{}` has a target", unit.name);
        // Per-unit interner/conversion-memo deltas are attached for
        // compiled units (satellite: stats through pipeline reports).
        let caches = unit.caches.as_ref().expect("compiled units carry cache stats");
        assert!(caches.intern_requests() > 0, "unit `{}` interned nothing", unit.name);
    }
    assert!(report.wall_time.as_nanos() > 0);
    assert!(report.summary().contains("compiled"));

    // Cached units skip the pipeline, so they carry no per-compile delta.
    let warm = session.build(2).unwrap();
    assert!(warm.units.iter().all(|u| u.caches.is_none()));
    assert!(warm.units.iter().all(|u| u.status == UnitStatus::Cached));
    // Warm rebuilds are drastically cheaper than cold ones; don't assert
    // a ratio here (CI machines are noisy — the bench report does), just
    // that the fingerprints stayed stable.
    for (cold_unit, warm_unit) in report.units.iter().zip(warm.units.iter()) {
        assert_eq!(cold_unit.fingerprint, warm_unit.fingerprint, "{}", cold_unit.name);
    }
}

#[test]
fn worker_counts_beyond_unit_count_are_clamped() {
    let units = independent_units(2, 1);
    let mut session = session_from(&units, CompilerOptions::default());
    let report = session.build(64).unwrap();
    assert!(report.is_success());
    assert_eq!(report.workers, 2);
    let report = session.build(0).unwrap();
    assert_eq!(report.workers, 1);
}

/// Explicit, cheap α-twins in four classes: three import-free leaves
/// `λ aN : Bool. aN`, three leaves `λ bN : Bool. if bN then ff else tt`,
/// `base` (the polymorphic identity), and four middles
/// `let vN : Bool = base Bool tt in vN` behind that one shared import.
/// Returns the session and each unit's class.
fn twin_session(store: Option<&std::path::Path>) -> (Session, Vec<(&'static str, usize)>) {
    let options = CompilerOptions::default();
    let mut session = match store {
        Some(dir) => Session::with_store(options, dir).expect("store dir is creatable"),
        None => Session::new(options),
    };
    let mut classes = Vec::new();
    for (name, binder) in [("a0", "a0"), ("a1", "a1"), ("a2", "a2")] {
        session.add_unit(name, &[], &s::lam(binder, s::bool_ty(), s::var(binder))).unwrap();
        classes.push((name, 0));
    }
    for (name, binder) in [("b0", "b0"), ("b1", "b1"), ("b2", "b2")] {
        let body = s::ite(s::var(binder), s::ff(), s::tt());
        session.add_unit(name, &[], &s::lam(binder, s::bool_ty(), body)).unwrap();
        classes.push((name, 1));
    }
    session.add_unit("base", &[], &prelude::poly_id()).unwrap();
    classes.push(("base", 2));
    for (name, binder) in [("m0", "v0"), ("m1", "v1"), ("m2", "v2"), ("m3", "v3")] {
        let applied = s::app(s::app(s::var("base"), s::bool_ty()), s::tt());
        let term = s::let_(binder, s::bool_ty(), applied, s::var(binder));
        session.add_unit(name, &["base"], &term).unwrap();
        classes.push((name, 3));
    }
    (session, classes)
}

#[test]
fn alpha_twins_settle_each_phase_once_per_class_at_any_worker_count() {
    let once = QueryCounts { typecheck: 4, translate: 4, check: 4, verify: 4 };
    for workers in [1, 2, 4] {
        for with_store in [false, true] {
            for run in 0..50 {
                let dir = std::env::temp_dir()
                    .join(format!("cccc-twins-{}-{workers}-{run}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let (mut session, classes) = twin_session(with_store.then_some(dir.as_path()));
                let report = session.build(workers).unwrap();
                let context = format!("{workers} workers, store {with_store}, run {run}");
                assert!(report.is_success(), "{context}: {}", report.summary());
                assert_eq!(report.queries, once, "{context}: one run per class per phase");
                for class in 0..4 {
                    let members: Vec<_> = report
                        .units
                        .iter()
                        .filter(|u| classes.iter().any(|&(n, c)| n == u.name && c == class))
                        .collect();
                    let compiled = members.iter().filter(|u| u.status == UnitStatus::Compiled);
                    assert_eq!(compiled.count(), 1, "{context}: class {class} compiled once");
                    for twin in members.iter().filter(|u| u.status != UnitStatus::Compiled) {
                        assert_eq!(twin.status, UnitStatus::Cached, "{context}: {}", twin.name);
                        assert_eq!(twin.cached_from, Some(CacheTier::Memory), "{}", twin.name);
                    }
                }
                if with_store {
                    let store = report.store.expect("session has a store");
                    assert_eq!(store.write_throughs, 4, "{context}: one blob per class");
                    assert_eq!(session.store_stats().unwrap().entries, 4, "{context}");
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
